//! Assembled systems: a set of nodes plus the links between them, with the
//! reference EVEREST demonstrator topology of Fig. 4.

use crate::error::{PlatformError, PlatformResult};
use crate::fpga::FpgaDevice;
use crate::link::Link;
use crate::node::{CpuSpec, Node, NodeKind};
use std::collections::HashMap;

/// A distributed heterogeneous system.
#[derive(Debug, Clone, Default)]
pub struct System {
    nodes: Vec<Node>,
    links: HashMap<(String, String), Link>,
}

impl System {
    /// Creates an empty system.
    pub(crate) fn new() -> System {
        System::default()
    }

    /// Adds a node.
    pub(crate) fn add_node(&mut self, node: Node) -> &mut Self {
        self.nodes.push(node);
        self
    }

    /// Connects two nodes bidirectionally.
    pub(crate) fn connect(&mut self, a: &str, b: &str, link: Link) -> &mut Self {
        self.links.insert((a.to_owned(), b.to_owned()), link);
        self.links.insert((b.to_owned(), a.to_owned()), link);
        self
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<&Node> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// The link between two nodes.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Unknown`] naming the endpoint when either
    /// node does not exist, and [`PlatformError::NoRoute`] when both exist
    /// but are not directly connected.
    pub fn link(&self, from: &str, to: &str) -> PlatformResult<Link> {
        if let Some(link) = self.links.get(&(from.to_owned(), to.to_owned())) {
            return Ok(*link);
        }
        for endpoint in [from, to] {
            if self.node_by_name(endpoint).is_none() {
                return Err(PlatformError::Unknown(format!("node '{endpoint}'")));
            }
        }
        Err(PlatformError::NoRoute { from: from.to_owned(), to: to.to_owned() })
    }

    /// The stream budget a fusable edge must fit on *any* FPGA of this
    /// system: the minimum over every device of the BRAM bytes left for a
    /// double-buffered stream FIFO after the shell and deployed roles.
    /// `None` when the system has no FPGAs at all.
    pub fn stream_budget_bytes(&self) -> Option<u64> {
        self.nodes
            .iter()
            .flat_map(|n| &n.devices)
            .map(|d| d.available_fabric().stream_budget_bytes())
            .min()
    }

    /// The reference EVEREST demonstrator (paper Fig. 4): a POWER9 cloud
    /// node with two bus-attached (OpenCAPI) FPGAs, four network-attached
    /// cloudFPGA devices as stand-alone resources, an ARM and a RISC-V
    /// inner-edge node (the ARM one with a small FPGA), and two endpoint
    /// devices, wired with datacenter TCP/UDP and edge WAN links.
    pub fn everest_reference() -> System {
        let mut sys = System::new();
        sys.add_node(
            Node::new("cloud-p9", NodeKind::CloudPower9, CpuSpec::power9(), 512 << 30)
                .with_device(FpgaDevice::bus_attached("capi0"))
                .with_device(FpgaDevice::bus_attached("capi1")),
        );
        // Disaggregated cloudFPGAs live on a stand-alone "node" with a
        // management-only CPU, mirroring their independence from servers.
        sys.add_node(
            Node::new("cloudfpga-rack", NodeKind::CloudX86, CpuSpec::endpoint(), 16 << 30)
                .with_device(FpgaDevice::network_attached("cf0", true))
                .with_device(FpgaDevice::network_attached("cf1", true))
                .with_device(FpgaDevice::network_attached("cf2", false))
                .with_device(FpgaDevice::network_attached("cf3", false)),
        );
        sys.add_node(
            Node::new("edge-arm", NodeKind::EdgeArm, CpuSpec::arm_edge(), 32 << 30)
                .with_device(FpgaDevice::edge("ez0")),
        );
        sys.add_node(Node::new("edge-riscv", NodeKind::EdgeRiscV, CpuSpec::riscv_edge(), 8 << 30));
        sys.add_node(Node::new("endpoint-0", NodeKind::Endpoint, CpuSpec::endpoint(), 1 << 30));
        sys.add_node(Node::new("endpoint-1", NodeKind::Endpoint, CpuSpec::endpoint(), 1 << 30));

        sys.connect("cloud-p9", "cloudfpga-rack", Link::udp_datacenter());
        sys.connect("cloud-p9", "edge-arm", Link::tcp_datacenter());
        sys.connect("cloud-p9", "edge-riscv", Link::tcp_datacenter());
        sys.connect("edge-arm", "edge-riscv", Link::lan());
        sys.connect("endpoint-0", "edge-arm", Link::edge_wan());
        sys.connect("endpoint-1", "edge-arm", Link::edge_wan());
        sys.connect("endpoint-0", "edge-riscv", Link::edge_wan());
        sys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_system_matches_fig4() {
        let sys = System::everest_reference();
        let p9 = sys.node_by_name("cloud-p9").unwrap();
        assert_eq!(p9.devices.len(), 2);
        assert!(p9.devices.iter().all(|d| !d.attachment.is_disaggregated()));
        let rack = sys.node_by_name("cloudfpga-rack").unwrap();
        assert_eq!(rack.devices.len(), 4);
        assert!(rack.devices.iter().all(|d| d.attachment.is_disaggregated()));
        assert_eq!(sys.nodes().iter().map(|n| n.devices.len()).sum::<usize>(), 7);
    }

    #[test]
    fn stream_budget_is_the_weakest_device() {
        let sys = System::everest_reference();
        // The edge Zynq (ez0): (216 - 16 shell) BRAMs, double-buffered.
        assert_eq!(sys.stream_budget_bytes(), Some(230_400));
        assert_eq!(System::new().stream_budget_bytes(), None);
    }

    #[test]
    fn links_are_bidirectional() {
        let sys = System::everest_reference();
        assert!(sys.link("cloud-p9", "edge-arm").is_ok());
        assert!(sys.link("edge-arm", "cloud-p9").is_ok());
    }

    #[test]
    fn missing_route_reported() {
        let sys = System::everest_reference();
        let err = sys.link("endpoint-0", "cloud-p9").unwrap_err();
        assert!(matches!(err, PlatformError::NoRoute { .. }));
    }

    #[test]
    fn unknown_endpoint_names_the_node() {
        let sys = System::everest_reference();
        let err = sys.link("cloud-p9", "mars").unwrap_err();
        assert_eq!(err, PlatformError::Unknown("node 'mars'".into()));
        let err = sys.link("venus", "cloud-p9").unwrap_err();
        assert!(err.to_string().contains("venus"));
    }

    #[test]
    fn custom_topologies_compose() {
        let mut sys = System::new();
        sys.add_node(Node::new("a", NodeKind::CloudX86, CpuSpec::power9(), 1 << 30));
        sys.add_node(Node::new("b", NodeKind::EdgeArm, CpuSpec::arm_edge(), 1 << 30));
        sys.connect("a", "b", Link::lan());
        assert_eq!(sys.nodes().len(), 2);
        assert!(sys.link("b", "a").is_ok());
    }
}
