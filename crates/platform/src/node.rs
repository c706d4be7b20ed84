//! Compute nodes: CPUs plus attached FPGA devices.

use crate::fpga::FpgaDevice;

/// Node classes of the EVEREST ecosystem (paper Fig. 3 / Section V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Cloud server: IBM POWER9 with coherent FPGA attachment.
    CloudPower9,
    /// Generic x86 cloud server.
    CloudX86,
    /// Inner-edge ARM server.
    EdgeArm,
    /// Inner-edge RISC-V server.
    EdgeRiscV,
    /// End-point device (sensor gateway, vehicle unit).
    Endpoint,
}

/// CPU capability model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Number of cores.
    pub cores: u32,
    /// Sustained double-precision GFLOP/s per core.
    pub gflops_per_core: f64,
    /// Package power at full load, watts.
    pub power_w: f64,
    /// Idle power, watts.
    pub idle_power_w: f64,
}

impl CpuSpec {
    /// POWER9 22-core.
    pub(crate) fn power9() -> CpuSpec {
        CpuSpec { cores: 22, gflops_per_core: 12.0, power_w: 190.0, idle_power_w: 60.0 }
    }

    /// ARM edge server.
    pub(crate) fn arm_edge() -> CpuSpec {
        CpuSpec { cores: 8, gflops_per_core: 4.0, power_w: 30.0, idle_power_w: 8.0 }
    }

    /// RISC-V edge board.
    pub(crate) fn riscv_edge() -> CpuSpec {
        CpuSpec { cores: 4, gflops_per_core: 1.5, power_w: 12.0, idle_power_w: 3.0 }
    }

    /// Endpoint microcontroller-class device.
    pub(crate) fn endpoint() -> CpuSpec {
        CpuSpec { cores: 2, gflops_per_core: 0.2, power_w: 2.0, idle_power_w: 0.4 }
    }

    /// Time in microseconds to execute `flops` floating-point operations on
    /// `threads` cores (capped at the core count, 70% parallel efficiency
    /// beyond one core).
    pub(crate) fn compute_us(&self, flops: f64, threads: u32) -> f64 {
        let t = threads.clamp(1, self.cores) as f64;
        let eff = if t > 1.0 { 0.7 } else { 1.0 };
        flops / (self.gflops_per_core * 1e3 * t * eff)
    }
}

/// A compute node: CPU, memory and zero or more FPGA devices.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Unique node name.
    pub name: String,
    /// Node class.
    pub kind: NodeKind,
    /// CPU model.
    pub cpu: CpuSpec,
    /// Main-memory capacity in bytes.
    pub memory_bytes: u64,
    /// Attached FPGA devices.
    pub devices: Vec<FpgaDevice>,
}

impl Node {
    /// Creates a node without devices.
    pub(crate) fn new(
        name: impl Into<String>,
        kind: NodeKind,
        cpu: CpuSpec,
        memory_bytes: u64,
    ) -> Node {
        Node { name: name.into(), kind, cpu, memory_bytes, devices: Vec::new() }
    }

    /// Adds an FPGA device, returning `self` for chaining.
    pub(crate) fn with_device(mut self, device: FpgaDevice) -> Node {
        self.devices.push(device);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_compute_time_scales_with_threads() {
        let cpu = CpuSpec::power9();
        let serial = cpu.compute_us(1e9, 1);
        let parallel = cpu.compute_us(1e9, 22);
        assert!(parallel < serial);
        // 70% efficiency: not a perfect 22x.
        assert!(parallel > serial / 22.0);
    }

    #[test]
    fn thread_count_caps_at_cores() {
        let cpu = CpuSpec::arm_edge();
        assert_eq!(cpu.compute_us(1e6, 8), cpu.compute_us(1e6, 100));
    }

    #[test]
    fn edge_cpus_are_slower_but_lower_power() {
        let p9 = CpuSpec::power9();
        let arm = CpuSpec::arm_edge();
        assert!(p9.compute_us(1e9, p9.cores) < arm.compute_us(1e9, arm.cores));
        assert!(p9.power_w > arm.power_w);
    }
}
