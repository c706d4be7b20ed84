//! FPGA device models: fabric capacity, attachment style and the
//! cloudFPGA shell/role split with partial reconfiguration.

use crate::error::{PlatformError, PlatformResult};
use crate::link::Link;
use everest_hls::AreaReport;

/// Usable fabric resources of one FPGA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricCapacity {
    /// Look-up tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// DSP slices.
    pub dsps: u64,
    /// 18-kbit block RAMs.
    pub brams: u64,
}

impl FabricCapacity {
    /// A mid-range datacenter card (VU33P-class, role region only).
    pub(crate) fn datacenter() -> FabricCapacity {
        FabricCapacity { luts: 440_000, ffs: 880_000, dsps: 2_880, brams: 1_440 }
    }

    /// A small edge-class fabric (Zynq-class).
    pub(crate) fn edge() -> FabricCapacity {
        FabricCapacity { luts: 70_000, ffs: 140_000, dsps: 360, brams: 216 }
    }

    /// Whether `area` fits in this fabric.
    pub(crate) fn fits(&self, area: &AreaReport) -> bool {
        area.luts <= self.luts
            && area.ffs <= self.ffs
            && area.dsps <= self.dsps
            && area.brams <= self.brams
    }

    /// Largest double-buffered stream transfer this fabric's BRAMs can
    /// hold — the per-device budget the fusion-legality classifier proves
    /// fusable edges against.
    pub(crate) fn stream_budget_bytes(&self) -> u64 {
        everest_hls::stream_capacity_bytes(self.brams)
    }

    /// Remaining capacity after subtracting `area` (saturating).
    pub(crate) fn minus(&self, area: &AreaReport) -> FabricCapacity {
        FabricCapacity {
            luts: self.luts.saturating_sub(area.luts),
            ffs: self.ffs.saturating_sub(area.ffs),
            dsps: self.dsps.saturating_sub(area.dsps),
            brams: self.brams.saturating_sub(area.brams),
        }
    }
}

/// How the FPGA is coupled to the rest of the system (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attachment {
    /// Tightly-coupled, cache-coherent bus attachment (OpenCAPI on the
    /// POWER9 node).
    Bus(Link),
    /// Loosely-coupled, network-attached stand-alone resource (cloudFPGA),
    /// reachable over TCP or UDP.
    Network(Link),
}

impl Attachment {
    /// The underlying link.
    pub fn link(&self) -> &Link {
        match self {
            Attachment::Bus(l) | Attachment::Network(l) => l,
        }
    }

    /// `true` for network-attached (disaggregated) devices.
    pub fn is_disaggregated(&self) -> bool {
        matches!(self, Attachment::Network(_))
    }
}

/// A deployed role (user logic) occupying a partial-reconfiguration slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Role {
    /// Accelerator/bitstream name.
    pub name: String,
    /// Fabric area the role occupies.
    pub area: AreaReport,
}

/// An FPGA device.
///
/// Network-attached devices follow the cloudFPGA **shell-role**
/// architecture: a static shell (network stack + management, privileged)
/// isolates the DC network from user logic, and roles are swapped through
/// partial reconfiguration without touching the shell.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaDevice {
    /// Device name, unique within its node.
    pub name: String,
    /// Total usable fabric (role region).
    pub fabric: FabricCapacity,
    /// Fabric claimed by the static shell.
    pub shell_area: AreaReport,
    /// Attachment style and link.
    pub attachment: Attachment,
    /// Default clock for deployed roles, MHz.
    pub clock_mhz: f64,
    /// Static power draw, watts.
    pub static_power_w: f64,
    /// Number of partial-reconfiguration slots for roles.
    pub pr_slots: usize,
    /// Time to partially reconfigure one role, microseconds.
    pub reconfig_us: f64,
    roles: Vec<Option<Role>>,
}

impl FpgaDevice {
    /// A bus-attached (OpenCAPI) datacenter card: no network shell, a
    /// single large role.
    pub fn bus_attached(name: impl Into<String>) -> FpgaDevice {
        FpgaDevice {
            name: name.into(),
            fabric: FabricCapacity::datacenter(),
            shell_area: AreaReport { luts: 30_000, ffs: 45_000, dsps: 0, brams: 60 },
            attachment: Attachment::Bus(Link::opencapi()),
            clock_mhz: 200.0,
            static_power_w: 22.0,
            pr_slots: 2,
            reconfig_us: 120_000.0,
            roles: vec![None, None],
        }
    }

    /// A network-attached cloudFPGA device with a TCP/UDP shell and two
    /// role slots.
    pub fn network_attached(name: impl Into<String>, udp: bool) -> FpgaDevice {
        let link = if udp { Link::udp_datacenter() } else { Link::tcp_datacenter() };
        FpgaDevice {
            name: name.into(),
            fabric: FabricCapacity::datacenter(),
            shell_area: AreaReport { luts: 90_000, ffs: 140_000, dsps: 4, brams: 220 },
            attachment: Attachment::Network(link),
            clock_mhz: 156.25,
            static_power_w: 28.0,
            pr_slots: 2,
            reconfig_us: 60_000.0,
            roles: vec![None, None],
        }
    }

    /// A small edge FPGA (bus-attached to an embedded CPU).
    pub(crate) fn edge(name: impl Into<String>) -> FpgaDevice {
        FpgaDevice {
            name: name.into(),
            fabric: FabricCapacity::edge(),
            shell_area: AreaReport { luts: 8_000, ffs: 12_000, dsps: 0, brams: 16 },
            attachment: Attachment::Bus(Link::pcie()),
            clock_mhz: 150.0,
            static_power_w: 5.0,
            pr_slots: 1,
            reconfig_us: 40_000.0,
            roles: vec![None],
        }
    }

    /// Fabric left for user roles after the shell and deployed roles.
    pub fn available_fabric(&self) -> FabricCapacity {
        let mut cap = self.fabric.minus(&self.shell_area);
        for role in self.roles.iter().flatten() {
            cap = cap.minus(&role.area);
        }
        cap
    }

    /// Deploys a role into a free PR slot.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::CapacityExceeded`] when no slot is free or
    /// the role does not fit the remaining fabric.
    pub fn deploy(&mut self, role: Role) -> PlatformResult<usize> {
        let avail = self.available_fabric();
        if !avail.fits(&role.area) {
            return Err(PlatformError::CapacityExceeded {
                what: format!("fabric of '{}'", self.name),
                needed: role.area.luts,
                available: avail.luts,
            });
        }
        let slot = self.roles.iter().position(Option::is_none).ok_or_else(|| {
            PlatformError::CapacityExceeded {
                what: format!("PR slots of '{}'", self.name),
                needed: 1,
                available: 0,
            }
        })?;
        self.roles[slot] = Some(role);
        Ok(slot)
    }

    /// Removes the role in `slot` (partial reconfiguration to empty).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Unknown`] if the slot index is invalid.
    pub fn undeploy(&mut self, slot: usize) -> PlatformResult<Option<Role>> {
        if slot >= self.roles.len() {
            return Err(PlatformError::Unknown(format!("slot {slot} of '{}'", self.name)));
        }
        Ok(self.roles[slot].take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_role(name: &str, luts: u64) -> Role {
        Role { name: name.into(), area: AreaReport { luts, ffs: luts, dsps: 4, brams: 8 } }
    }

    #[test]
    fn shell_reduces_available_fabric() {
        let d = FpgaDevice::network_attached("nf1", true);
        let avail = d.available_fabric();
        assert_eq!(avail.luts, d.fabric.luts - d.shell_area.luts);
    }

    #[test]
    fn deploy_and_undeploy_roles() {
        let mut d = FpgaDevice::network_attached("nf1", true);
        let s0 = d.deploy(small_role("gemm", 10_000)).unwrap();
        let s1 = d.deploy(small_role("aes", 5_000)).unwrap();
        assert_ne!(s0, s1);
        assert_eq!(d.roles[s1].as_ref().map(|r| r.name.as_str()), Some("aes"));
        // Third role: no free slot.
        let err = d.deploy(small_role("extra", 1_000)).unwrap_err();
        assert!(err.to_string().contains("PR slots"));
        let removed = d.undeploy(s0).unwrap().unwrap();
        assert_eq!(removed.name, "gemm");
        assert!(d.deploy(small_role("extra", 1_000)).is_ok());
    }

    #[test]
    fn oversized_role_rejected() {
        let mut d = FpgaDevice::edge("ez1");
        let err = d.deploy(small_role("huge", 10_000_000)).unwrap_err();
        assert!(matches!(err, PlatformError::CapacityExceeded { .. }));
    }

    #[test]
    fn attachment_classification() {
        assert!(!FpgaDevice::bus_attached("b").attachment.is_disaggregated());
        assert!(FpgaDevice::network_attached("n", false).attachment.is_disaggregated());
    }

    #[test]
    fn bus_attachment_has_lower_latency_than_network() {
        let bus = FpgaDevice::bus_attached("b");
        let net = FpgaDevice::network_attached("n", true);
        assert!(bus.attachment.link().latency_us < net.attachment.link().latency_us);
    }

    #[test]
    fn invalid_slot_is_unknown() {
        let mut d = FpgaDevice::bus_attached("b");
        assert!(matches!(d.undeploy(7), Err(PlatformError::Unknown(_))));
    }
}
