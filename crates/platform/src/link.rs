//! Interconnect models: latency + bandwidth links with transfer-time
//! computation.
//!
//! The EVEREST demonstrator (Fig. 4) couples nodes through "OpenCAPI cache
//! coherent and TCP/UDP protocols"; the presets here reflect those two
//! classes plus PCIe, datacenter Ethernet and an edge WAN. Presets are
//! named by [`LinkProfile`], so front-ends (and the fault-injection layer)
//! can refer to an interconnect class by a parseable name; the historical
//! per-class constructors delegate to [`Link::profile`].

use crate::error::PlatformError;

/// The named interconnect classes of the reference platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkProfile {
    /// OpenCAPI cache-coherent bus attachment.
    OpenCapi,
    /// PCIe Gen4 x8 DMA attachment.
    Pcie,
    /// Datacenter TCP through the kernel stack.
    TcpDatacenter,
    /// Datacenter UDP with a lightweight offloaded stack (cloudFPGA).
    UdpDatacenter,
    /// Edge wide-area uplink.
    EdgeWan,
    /// 1 GbE local-area link between inner-edge nodes.
    Lan,
}

impl LinkProfile {
    /// Every profile, ordered from tightest to loosest coupling.
    pub(crate) const ALL: [LinkProfile; 6] = [
        LinkProfile::OpenCapi,
        LinkProfile::Pcie,
        LinkProfile::UdpDatacenter,
        LinkProfile::TcpDatacenter,
        LinkProfile::Lan,
        LinkProfile::EdgeWan,
    ];

    /// The profile whose preset parameters equal `link`, if any. Lets
    /// layers that only hold a [`Link`] (device attachments, fault plans)
    /// recover the interconnect class it came from.
    pub fn of(link: &Link) -> Option<LinkProfile> {
        LinkProfile::ALL.into_iter().find(|p| Link::profile(*p) == *link)
    }

    /// The canonical (parseable) name of this profile.
    pub fn name(&self) -> &'static str {
        match self {
            LinkProfile::OpenCapi => "opencapi",
            LinkProfile::Pcie => "pcie",
            LinkProfile::TcpDatacenter => "tcp-datacenter",
            LinkProfile::UdpDatacenter => "udp-datacenter",
            LinkProfile::EdgeWan => "edge-wan",
            LinkProfile::Lan => "lan",
        }
    }
}

impl std::fmt::Display for LinkProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for LinkProfile {
    type Err = PlatformError;

    /// Parses a profile name; `_` is accepted for `-`.
    fn from_str(s: &str) -> Result<LinkProfile, PlatformError> {
        let canon = s.trim().to_ascii_lowercase().replace('_', "-");
        LinkProfile::ALL
            .into_iter()
            .find(|p| p.name() == canon)
            .ok_or_else(|| PlatformError::Unknown(format!("link profile '{s}'")))
    }
}

/// A point-to-point interconnect with fixed latency and bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One-way latency in microseconds.
    pub latency_us: f64,
    /// Usable bandwidth in gigabytes per second.
    pub bandwidth_gbps: f64,
    /// Per-message protocol overhead in bytes (headers, DMA descriptors).
    pub overhead_bytes: u64,
}

impl Link {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics if latency is negative or bandwidth is not positive.
    pub fn new(latency_us: f64, bandwidth_gbps: f64, overhead_bytes: u64) -> Link {
        assert!(latency_us >= 0.0, "negative latency");
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        Link { latency_us, bandwidth_gbps, overhead_bytes }
    }

    /// The preset link for a named interconnect profile.
    pub(crate) fn profile(profile: LinkProfile) -> Link {
        match profile {
            // Sub-microsecond latency, ~22 GB/s usable.
            LinkProfile::OpenCapi => Link::new(0.4, 22.0, 64),
            LinkProfile::Pcie => Link::new(1.2, 12.0, 128),
            // Tens of microseconds, 10 GbE-class.
            LinkProfile::TcpDatacenter => Link::new(25.0, 1.1, 512),
            // Low latency, near line-rate 10 GbE.
            LinkProfile::UdpDatacenter => Link::new(4.0, 1.2, 128),
            LinkProfile::EdgeWan => Link::new(5_000.0, 0.012, 256),
            LinkProfile::Lan => Link::new(80.0, 0.11, 512),
        }
    }

    /// OpenCAPI cache-coherent attachment ([`LinkProfile::OpenCapi`]).
    pub fn opencapi() -> Link {
        Link::profile(LinkProfile::OpenCapi)
    }

    /// PCIe Gen4 x8 DMA attachment ([`LinkProfile::Pcie`]).
    pub(crate) fn pcie() -> Link {
        Link::profile(LinkProfile::Pcie)
    }

    /// Datacenter TCP (kernel stack) ([`LinkProfile::TcpDatacenter`]).
    pub fn tcp_datacenter() -> Link {
        Link::profile(LinkProfile::TcpDatacenter)
    }

    /// Datacenter UDP with a lightweight offloaded stack (cloudFPGA role)
    /// ([`LinkProfile::UdpDatacenter`]).
    pub fn udp_datacenter() -> Link {
        Link::profile(LinkProfile::UdpDatacenter)
    }

    /// Edge wide-area uplink ([`LinkProfile::EdgeWan`]).
    pub(crate) fn edge_wan() -> Link {
        Link::profile(LinkProfile::EdgeWan)
    }

    /// Local-area link between inner-edge nodes ([`LinkProfile::Lan`]).
    pub(crate) fn lan() -> Link {
        Link::profile(LinkProfile::Lan)
    }

    /// Time in microseconds to move `bytes` across this link.
    pub fn transfer_us(&self, bytes: u64) -> f64 {
        let total = bytes + self.overhead_bytes;
        self.latency_us + total as f64 / (self.bandwidth_gbps * 1e3)
    }

    /// Effective bandwidth (GB/s) achieved for a transfer of `bytes`,
    /// including latency and overhead — small transfers are latency-bound.
    pub fn effective_bandwidth_gbps(&self, bytes: u64) -> f64 {
        let t = self.transfer_us(bytes);
        if t <= 0.0 {
            return 0.0;
        }
        bytes as f64 / 1e3 / t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_has_latency_floor() {
        let l = Link::opencapi();
        assert!(l.transfer_us(1) >= l.latency_us);
        // 22 MB at 22 GB/s is ~1000 us plus latency.
        let t = l.transfer_us(22_000_000);
        assert!((t - (0.4 + 1000.0)).abs() < 1.0, "got {t}");
    }

    #[test]
    fn small_transfers_favor_low_latency_links() {
        let bus = Link::opencapi();
        let net = Link::tcp_datacenter();
        assert!(bus.transfer_us(4_096) < net.transfer_us(4_096));
    }

    #[test]
    fn effective_bandwidth_approaches_nominal_for_large_transfers() {
        let l = Link::tcp_datacenter();
        let small = l.effective_bandwidth_gbps(1_000);
        let large = l.effective_bandwidth_gbps(1_000_000_000);
        assert!(small < large);
        assert!(large > 0.9 * l.bandwidth_gbps);
        assert!(small < 0.1 * l.bandwidth_gbps);
    }

    #[test]
    fn presets_are_ordered_by_latency() {
        assert!(Link::opencapi().latency_us < Link::pcie().latency_us);
        assert!(Link::pcie().latency_us < Link::udp_datacenter().latency_us);
        assert!(Link::udp_datacenter().latency_us < Link::tcp_datacenter().latency_us);
        assert!(Link::tcp_datacenter().latency_us < Link::edge_wan().latency_us);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        Link::new(1.0, 0.0, 0);
    }

    #[test]
    fn constructors_delegate_to_profiles() {
        assert_eq!(Link::opencapi(), Link::profile(LinkProfile::OpenCapi));
        assert_eq!(Link::pcie(), Link::profile(LinkProfile::Pcie));
        assert_eq!(Link::tcp_datacenter(), Link::profile(LinkProfile::TcpDatacenter));
        assert_eq!(Link::udp_datacenter(), Link::profile(LinkProfile::UdpDatacenter));
        assert_eq!(Link::edge_wan(), Link::profile(LinkProfile::EdgeWan));
        assert_eq!(Link::lan(), Link::profile(LinkProfile::Lan));
    }

    #[test]
    fn profile_recovered_from_preset_links() {
        for profile in LinkProfile::ALL {
            assert_eq!(LinkProfile::of(&Link::profile(profile)), Some(profile));
        }
        assert_eq!(LinkProfile::of(&Link::new(3.0, 3.0, 3)), None);
    }

    #[test]
    fn profiles_parse_by_name() {
        for profile in LinkProfile::ALL {
            assert_eq!(profile.name().parse::<LinkProfile>().unwrap(), profile);
        }
        // Case and separator are normalized.
        assert_eq!("UDP_Datacenter".parse::<LinkProfile>().unwrap(), LinkProfile::UdpDatacenter);
        let err = "quantum-tunnel".parse::<LinkProfile>().unwrap_err();
        assert!(err.to_string().contains("link profile 'quantum-tunnel'"));
    }
}
