//! The operator library: functional-unit kinds with latency and area
//! characteristics, and the mapping from IR operations onto them.
//!
//! Numbers are representative of mid-range FPGA fabrics (Vivado-class
//! floating-point IP at ~250 MHz): they matter *relatively* — a divider is
//! much more expensive than an adder — not absolutely.

use std::fmt;
use std::ops::{Add, AddAssign};

/// A functional-unit kind the binder can allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FuKind {
    /// Floating-point adder/subtractor (also min/max/compare).
    FAdd,
    /// Floating-point multiplier.
    FMul,
    /// Floating-point divider.
    FDiv,
    /// Floating-point square root.
    FSqrt,
    /// Floating-point exponential (CORDIC-style).
    FExp,
    /// Integer ALU (add/sub/cmp/select and index arithmetic).
    IntAlu,
    /// Integer multiplier (DSP-based).
    IntMul,
    /// Memory read port.
    MemRead,
    /// Memory write port.
    MemWrite,
}

impl FuKind {
    /// All allocatable kinds, in a stable order.
    pub const ALL: [FuKind; 9] = [
        FuKind::FAdd,
        FuKind::FMul,
        FuKind::FDiv,
        FuKind::FSqrt,
        FuKind::FExp,
        FuKind::IntAlu,
        FuKind::IntMul,
        FuKind::MemRead,
        FuKind::MemWrite,
    ];

    /// Pipeline latency in cycles for one operation on this unit.
    pub(crate) fn latency(&self) -> u64 {
        match self {
            FuKind::FAdd => 3,
            FuKind::FMul => 4,
            FuKind::FDiv => 14,
            FuKind::FSqrt => 12,
            FuKind::FExp => 18,
            FuKind::IntAlu => 1,
            FuKind::IntMul => 2,
            FuKind::MemRead => 2,
            FuKind::MemWrite => 1,
        }
    }

    /// Area cost of one instance of this unit.
    pub(crate) fn area(&self) -> AreaReport {
        match self {
            FuKind::FAdd => AreaReport { luts: 380, ffs: 520, dsps: 2, brams: 0 },
            FuKind::FMul => AreaReport { luts: 140, ffs: 260, dsps: 3, brams: 0 },
            FuKind::FDiv => AreaReport { luts: 800, ffs: 1400, dsps: 0, brams: 0 },
            FuKind::FSqrt => AreaReport { luts: 600, ffs: 1100, dsps: 0, brams: 0 },
            FuKind::FExp => AreaReport { luts: 900, ffs: 1500, dsps: 7, brams: 1 },
            FuKind::IntAlu => AreaReport { luts: 70, ffs: 70, dsps: 0, brams: 0 },
            FuKind::IntMul => AreaReport { luts: 40, ffs: 80, dsps: 1, brams: 0 },
            FuKind::MemRead => AreaReport { luts: 30, ffs: 40, dsps: 0, brams: 0 },
            FuKind::MemWrite => AreaReport { luts: 30, ffs: 40, dsps: 0, brams: 0 },
        }
    }
}

impl fmt::Display for FuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuKind::FAdd => "fadd",
            FuKind::FMul => "fmul",
            FuKind::FDiv => "fdiv",
            FuKind::FSqrt => "fsqrt",
            FuKind::FExp => "fexp",
            FuKind::IntAlu => "int_alu",
            FuKind::IntMul => "int_mul",
            FuKind::MemRead => "mem_read",
            FuKind::MemWrite => "mem_write",
        };
        f.write_str(s)
    }
}

/// Maps an IR op name to the functional unit it executes on. Returns `None`
/// for ops that consume no datapath resources (constants, control flow,
/// yields and structured ops handled elsewhere).
pub(crate) fn fu_for_op(name: &str) -> Option<FuKind> {
    Some(match name {
        "arith.addf" | "arith.subf" | "arith.maxf" | "arith.minf" | "arith.negf" | "arith.cmpf" => {
            FuKind::FAdd
        }
        "arith.mulf" => FuKind::FMul,
        "arith.divf" => FuKind::FDiv,
        "arith.sqrtf" => FuKind::FSqrt,
        "arith.expf" => FuKind::FExp,
        "arith.sitofp" | "arith.fptosi" => FuKind::IntAlu,
        "arith.addi" | "arith.subi" | "arith.cmpi" | "arith.select" | "arith.remi"
        | "arith.divi" => FuKind::IntAlu,
        "arith.muli" => FuKind::IntMul,
        "mem.load" => FuKind::MemRead,
        "mem.store" => FuKind::MemWrite,
        _ => return None,
    })
}

/// Latency in cycles of an IR op (0 for resource-free ops).
pub(crate) fn latency_for_op(name: &str) -> u64 {
    fu_for_op(name).map(|fu| fu.latency()).unwrap_or(0)
}

/// FPGA resource usage summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct AreaReport {
    /// Look-up tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// DSP slices.
    pub dsps: u64,
    /// Block RAMs (18 kbit units).
    pub brams: u64,
}

impl AreaReport {
    /// Scales every component by an integer factor.
    pub(crate) fn scaled(&self, factor: u64) -> AreaReport {
        AreaReport {
            luts: self.luts * factor,
            ffs: self.ffs * factor,
            dsps: self.dsps * factor,
            brams: self.brams * factor,
        }
    }
}

impl Add for AreaReport {
    type Output = AreaReport;

    fn add(self, rhs: AreaReport) -> AreaReport {
        AreaReport {
            luts: self.luts + rhs.luts,
            ffs: self.ffs + rhs.ffs,
            dsps: self.dsps + rhs.dsps,
            brams: self.brams + rhs.brams,
        }
    }
}

impl AddAssign for AreaReport {
    fn add_assign(&mut self, rhs: AreaReport) {
        *self = *self + rhs;
    }
}

impl fmt::Display for AreaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} LUT, {} FF, {} DSP, {} BRAM", self.luts, self.ffs, self.dsps, self.brams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_map_to_expected_units() {
        assert_eq!(fu_for_op("arith.addf"), Some(FuKind::FAdd));
        assert_eq!(fu_for_op("arith.mulf"), Some(FuKind::FMul));
        assert_eq!(fu_for_op("mem.load"), Some(FuKind::MemRead));
        assert_eq!(fu_for_op("arith.constant"), None);
        assert_eq!(fu_for_op("loop.for"), None);
    }

    #[test]
    fn divider_costs_more_than_adder() {
        assert!(FuKind::FDiv.latency() > FuKind::FAdd.latency());
        assert!(FuKind::FDiv.area().luts > FuKind::FAdd.area().luts);
    }

    #[test]
    fn area_arithmetic() {
        let a = AreaReport { luts: 10, ffs: 20, dsps: 1, brams: 0 };
        let b = AreaReport { luts: 5, ffs: 5, dsps: 0, brams: 2 };
        let sum = a + b;
        assert_eq!(sum, AreaReport { luts: 15, ffs: 25, dsps: 1, brams: 2 });
        assert_eq!(a.scaled(3).luts, 30);
    }

    #[test]
    fn display_formats() {
        let a = AreaReport { luts: 1, ffs: 2, dsps: 3, brams: 4 };
        assert_eq!(a.to_string(), "1 LUT, 2 FF, 3 DSP, 4 BRAM");
        assert_eq!(FuKind::FAdd.to_string(), "fadd");
    }

    #[test]
    fn constants_are_free() {
        assert_eq!(latency_for_op("arith.constant"), 0);
        assert_eq!(latency_for_op("arith.addf"), 3);
    }
}
