//! On-chip memory partitioning and port-conflict analysis.
//!
//! EVEREST applies "polyhedral-based transformations \[and\] multi-port
//! memories ... to schedule the memory accesses" (paper III-B, refs \[28\],
//! \[29\]). This module implements the cyclic/block partitioning model of
//! Wang-Li-Cong (FPGA'14) for 1-D access patterns: given the set of affine
//! offsets a pipelined loop body issues each iteration, it computes how
//! many accesses collide on the same bank and thus the initiation-interval
//! penalty.

use crate::error::{HlsError, HlsResult};
use crate::oplib::AreaReport;

/// Bits in one block RAM (18-kbit primitives throughout this crate).
pub(crate) const BRAM_BITS: u64 = 18 * 1024;

/// Payload bytes of one 18-kbit block RAM.
pub(crate) const BRAM_BYTES: u64 = BRAM_BITS / 8;

/// Block RAMs needed for a double-buffered (ping/pong) stream FIFO holding
/// one `bytes`-sized transfer: two full copies so the producer fills one
/// half while the consumer drains the other. The reference
/// [`stream_capacity_bytes`] is tested against.
#[cfg(test)]
fn stream_buffer_brams(bytes: u64) -> u64 {
    (2 * bytes * 8).div_ceil(BRAM_BITS)
}

/// Largest single transfer a double-buffered stream FIFO built from
/// `brams` block RAMs can hold: two copies of it fill at most `brams`
/// 18-kbit block RAMs.
pub fn stream_capacity_bytes(brams: u64) -> u64 {
    brams / 2 * BRAM_BYTES
}

/// Bank-mapping scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// `bank = (index / block_len) % banks` — contiguous blocks.
    Block,
    /// `bank = index % banks` — round-robin interleaving.
    Cyclic,
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scheme::Block => f.write_str("block"),
            Scheme::Cyclic => f.write_str("cyclic"),
        }
    }
}

/// A partitioning of a 1-D buffer of `size` elements over `banks` banks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    /// Number of banks.
    pub banks: usize,
    /// Mapping scheme.
    pub scheme: Scheme,
    /// Total element count.
    pub size: usize,
    /// Read/write ports per bank (BRAMs are typically dual-ported).
    pub ports_per_bank: usize,
}

impl Partitioning {
    /// Creates a partitioning.
    ///
    /// # Errors
    ///
    /// Returns [`HlsError::Config`] if `banks` or `ports_per_bank` is zero,
    /// or `banks > size`.
    pub fn new(
        size: usize,
        banks: usize,
        scheme: Scheme,
        ports_per_bank: usize,
    ) -> HlsResult<Partitioning> {
        if banks == 0 {
            return Err(HlsError::Config("partitioning needs at least one bank".into()));
        }
        if ports_per_bank == 0 {
            return Err(HlsError::Config("banks need at least one port".into()));
        }
        if banks > size.max(1) {
            return Err(HlsError::Config(format!("{banks} banks for {size} elements")));
        }
        Ok(Partitioning { banks, scheme, size, ports_per_bank })
    }

    /// Elements per bank (ceiling).
    pub fn bank_depth(&self) -> usize {
        self.size.div_ceil(self.banks)
    }

    /// Maps a flat element index to `(bank, local_offset)`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= size`.
    pub fn map(&self, index: usize) -> (usize, usize) {
        assert!(index < self.size, "index {index} out of bounds {}", self.size);
        match self.scheme {
            Scheme::Cyclic => (index % self.banks, index / self.banks),
            Scheme::Block => {
                let depth = self.bank_depth();
                (index / depth, index % depth)
            }
        }
    }

    /// Worst-case number of same-bank collisions when the offsets
    /// `base + off` (for each `off` in `offsets`) are accessed in one
    /// iteration, maximized over all loop bases.
    ///
    /// For cyclic partitioning with stride-1 loops, offsets that differ
    /// mod `banks` land on different banks, so a 3-point stencil on ≥3
    /// banks is conflict-free; block partitioning keeps neighbouring
    /// elements in one bank and conflicts stay.
    pub(crate) fn max_conflicts(&self, offsets: &[i64]) -> usize {
        if offsets.is_empty() {
            return 0;
        }
        let banks = self.banks as i64;
        let mut worst = 1;
        // The bank pattern is periodic in the base with period `banks`
        // (cyclic) or `size` (block); for block we sample representative
        // bases across one block boundary.
        let bases: Vec<i64> = match self.scheme {
            Scheme::Cyclic => (0..banks).collect(),
            Scheme::Block => {
                let depth = self.bank_depth() as i64;
                // Sample bases around each block edge.
                (0..banks).map(|b| (b * depth).max(0)).chain(0..depth.min(8)).collect()
            }
        };
        for base in bases {
            let mut counts = std::collections::HashMap::new();
            for off in offsets {
                let idx = base + off;
                if idx < 0 || idx >= self.size as i64 {
                    continue;
                }
                let (bank, _) = self.map(idx as usize);
                *counts.entry(bank).or_insert(0usize) += 1;
            }
            worst = worst.max(counts.values().copied().max().unwrap_or(0));
        }
        worst
    }

    /// Minimum initiation interval imposed by memory: the worst per-bank
    /// access count divided by the ports of one bank (ceiling), at least 1.
    pub fn min_ii(&self, offsets: &[i64]) -> u64 {
        let conflicts = self.max_conflicts(offsets);
        (conflicts.div_ceil(self.ports_per_bank) as u64).max(1)
    }

    /// BRAM cost: each bank occupies at least one 18-kbit BRAM; deep banks
    /// take several (64-bit elements assumed).
    pub(crate) fn area(&self) -> AreaReport {
        let bits_per_bank = self.bank_depth() as u64 * 64;
        let brams_per_bank = bits_per_bank.div_ceil(18 * 1024).max(1);
        AreaReport {
            luts: 20 * self.banks as u64,
            ffs: 10 * self.banks as u64,
            dsps: 0,
            brams: brams_per_bank * self.banks as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_buffer_math_round_trips() {
        // 131072 B double-buffered: 2*131072*8 bits / 18 kbit = 114 BRAMs.
        assert_eq!(stream_buffer_brams(131_072), 114);
        // Capacity is the floor inverse: what fits always synthesizes.
        for brams in [2u64, 114, 200, 1_440] {
            let cap = stream_capacity_bytes(brams);
            assert!(stream_buffer_brams(cap) <= brams);
        }
        assert_eq!(stream_capacity_bytes(200), 230_400);
        assert_eq!(stream_capacity_bytes(1), 0, "a single BRAM cannot double-buffer");
    }

    #[test]
    fn cyclic_mapping_is_round_robin() {
        let p = Partitioning::new(16, 4, Scheme::Cyclic, 2).unwrap();
        assert_eq!(p.map(0), (0, 0));
        assert_eq!(p.map(1), (1, 0));
        assert_eq!(p.map(5), (1, 1));
        assert_eq!(p.map(15), (3, 3));
    }

    #[test]
    fn block_mapping_is_contiguous() {
        let p = Partitioning::new(16, 4, Scheme::Block, 2).unwrap();
        assert_eq!(p.map(0), (0, 0));
        assert_eq!(p.map(3), (0, 3));
        assert_eq!(p.map(4), (1, 0));
        assert_eq!(p.map(15), (3, 3));
    }

    #[test]
    fn mapping_is_bijective() {
        for scheme in [Scheme::Block, Scheme::Cyclic] {
            let p = Partitioning::new(24, 4, scheme, 1).unwrap();
            let mut seen = std::collections::HashSet::new();
            for i in 0..24 {
                assert!(seen.insert(p.map(i)), "{scheme} maps {i} onto an occupied slot");
            }
        }
    }

    #[test]
    fn stencil_conflicts_cyclic_vs_block() {
        // 3-point stencil: offsets -1, 0, +1.
        let offsets = [-1i64, 0, 1];
        let cyclic = Partitioning::new(64, 4, Scheme::Cyclic, 1).unwrap();
        let block = Partitioning::new(64, 4, Scheme::Block, 1).unwrap();
        // Cyclic spreads neighbours across banks: no conflicts.
        assert_eq!(cyclic.max_conflicts(&offsets), 1);
        // Block keeps neighbours together: all three collide inside a block.
        assert_eq!(block.max_conflicts(&offsets), 3);
        assert_eq!(cyclic.min_ii(&offsets), 1);
        assert_eq!(block.min_ii(&offsets), 3);
    }

    #[test]
    fn dual_ports_halve_the_penalty() {
        let offsets = [-1i64, 0, 1];
        let block = Partitioning::new(64, 4, Scheme::Block, 2).unwrap();
        assert_eq!(block.min_ii(&offsets), 2); // ceil(3/2)
    }

    #[test]
    fn single_bank_serializes_everything() {
        let p = Partitioning::new(64, 1, Scheme::Cyclic, 1).unwrap();
        assert_eq!(p.min_ii(&[0, 1, 2, 3]), 4);
    }

    #[test]
    fn enough_cyclic_banks_remove_all_conflicts() {
        let offsets = [-2i64, -1, 0, 1, 2];
        for banks in [5usize, 8, 16] {
            let p = Partitioning::new(160, banks, Scheme::Cyclic, 1).unwrap();
            assert_eq!(p.min_ii(&offsets), 1, "banks={banks}");
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Partitioning::new(8, 0, Scheme::Cyclic, 1).is_err());
        assert!(Partitioning::new(8, 2, Scheme::Cyclic, 0).is_err());
        assert!(Partitioning::new(4, 8, Scheme::Cyclic, 1).is_err());
    }

    #[test]
    fn area_grows_with_banks() {
        let p1 = Partitioning::new(1024, 1, Scheme::Cyclic, 2).unwrap();
        let p8 = Partitioning::new(1024, 8, Scheme::Cyclic, 2).unwrap();
        assert!(p8.area().brams >= p1.area().brams);
        assert!(p8.area().luts > p1.area().luts);
    }
}
