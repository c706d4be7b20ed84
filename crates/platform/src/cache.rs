//! A trace-driven set-associative cache model — the "high-level
//! architecture models and simulators" (paper III-B, gem5 refs \[25\]\[26\])
//! the middle end uses to price software variants. The tiling knob of the
//! variants cost model is validated against this model (experiment E15).

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// A typical 32 KiB, 8-way L1 data cache with 64-byte lines.
    pub(crate) fn l1d() -> CacheConfig {
        CacheConfig { size_bytes: 32 << 10, line_bytes: 64, ways: 8 }
    }

    /// A 1 MiB, 16-way L2.
    pub(crate) fn l2() -> CacheConfig {
        CacheConfig { size_bytes: 1 << 20, line_bytes: 64, ways: 16 }
    }

    fn sets(&self) -> usize {
        (self.size_bytes / self.line_bytes / self.ways).max(1)
    }
}

/// One cache level with LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Per set: (tag, last-use stamp) per way.
    sets: Vec<Vec<(u64, u64)>>,
    clock: u64,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity smaller
    /// than one way of lines).
    pub(crate) fn new(config: CacheConfig) -> Cache {
        assert!(config.line_bytes > 0 && config.ways > 0, "degenerate cache");
        assert!(config.size_bytes >= config.line_bytes * config.ways, "capacity below one set");
        Cache { config, sets: vec![Vec::new(); config.sets()], clock: 0, accesses: 0, misses: 0 }
    }

    /// Accesses a byte address; returns `true` on hit.
    pub(crate) fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.accesses += 1;
        let line = addr / self.config.line_bytes as u64;
        let set_idx = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let set = &mut self.sets[set_idx];
        if let Some(entry) = set.iter_mut().find(|(t, _)| *t == tag) {
            entry.1 = self.clock;
            return true;
        }
        self.misses += 1;
        if set.len() < self.config.ways {
            set.push((tag, self.clock));
        } else {
            // Evict the least-recently-used way.
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
                .expect("non-empty set");
            set[lru] = (tag, self.clock);
        }
        false
    }

    /// Accesses performed so far.
    pub(crate) fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Miss rate in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.misses as f64 / self.accesses as f64
    }
}

/// Where an access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ServedBy {
    /// L1 hit.
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Missed both levels.
    Memory,
}

/// A two-level hierarchy with a simple cycle cost model.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Level-1 cache.
    pub l1: Cache,
    /// Level-2 cache.
    pub l2: Cache,
    cycles: u64,
}

impl Hierarchy {
    /// L1 hit latency (cycles).
    pub(crate) const L1_CYCLES: u64 = 4;
    /// L2 hit latency.
    pub(crate) const L2_CYCLES: u64 = 14;
    /// DRAM latency.
    pub(crate) const MEM_CYCLES: u64 = 120;

    /// Creates the default L1+L2 hierarchy.
    pub fn typical() -> Hierarchy {
        Hierarchy {
            l1: Cache::new(CacheConfig::l1d()),
            l2: Cache::new(CacheConfig::l2()),
            cycles: 0,
        }
    }

    /// Accesses an address through the hierarchy.
    pub(crate) fn access(&mut self, addr: u64) -> ServedBy {
        if self.l1.access(addr) {
            self.cycles += Self::L1_CYCLES;
            ServedBy::L1
        } else if self.l2.access(addr) {
            self.cycles += Self::L2_CYCLES;
            ServedBy::L2
        } else {
            self.cycles += Self::MEM_CYCLES;
            ServedBy::Memory
        }
    }

    /// Average memory access time in cycles.
    pub fn amat(&self) -> f64 {
        if self.l1.accesses() == 0 {
            return 0.0;
        }
        self.cycles as f64 / self.l1.accesses() as f64
    }
}

/// Runs the memory trace of `C = A x B` (row-major `n`×`n` f64 matrices)
/// through `hierarchy`; `tile` of `Some(t)` uses t×t×t cache blocking.
pub fn matmul_trace(hierarchy: &mut Hierarchy, n: usize, tile: Option<usize>) {
    let elem = 8u64;
    let a_base = 0u64;
    let b_base = (n * n) as u64 * elem;
    let c_base = 2 * (n * n) as u64 * elem;
    let addr = |base: u64, r: usize, c: usize| base + ((r * n + c) as u64) * elem;
    let t = tile.unwrap_or(n).max(1).min(n);
    let block = |h: &mut Hierarchy, i0: usize, j0: usize, k0: usize| {
        for i in i0..(i0 + t).min(n) {
            for j in j0..(j0 + t).min(n) {
                h.access(addr(c_base, i, j));
                for k in k0..(k0 + t).min(n) {
                    h.access(addr(a_base, i, k));
                    h.access(addr(b_base, k, j));
                }
                h.access(addr(c_base, i, j));
            }
        }
    };
    for i0 in (0..n).step_by(t) {
        for j0 in (0..n).step_by(t) {
            for k0 in (0..n).step_by(t) {
                block(hierarchy, i0, j0, k0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_scan_misses_once_per_line() {
        let mut c = Cache::new(CacheConfig { size_bytes: 4 << 10, line_bytes: 64, ways: 4 });
        for addr in (0..4096u64).step_by(8) {
            c.access(addr);
        }
        // 4096 bytes / 64-byte lines = 64 misses out of 512 accesses.
        assert_eq!(c.misses, 64);
        assert!((c.miss_rate() - 64.0 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(CacheConfig::l1d());
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1008), "same line");
    }

    #[test]
    fn lru_evicts_the_oldest_way() {
        // 1 set, 2 ways, 64-byte lines.
        let mut c = Cache::new(CacheConfig { size_bytes: 128, line_bytes: 64, ways: 2 });
        c.access(0); // line A
        c.access(64); // line B (alias to same set: only one set)
        c.access(0); // touch A: B is now LRU
        c.access(128); // line C evicts B
        assert!(c.access(0), "A survives");
        assert!(!c.access(64), "B was evicted");
    }

    #[test]
    fn thrashing_working_set_misses() {
        // Working set of 3 lines in a 2-way single-set cache: round-robin
        // access pattern thrashes.
        let mut c = Cache::new(CacheConfig { size_bytes: 128, line_bytes: 64, ways: 2 });
        for _ in 0..10 {
            for line in [0u64, 64, 128] {
                c.access(line);
            }
        }
        assert!(c.miss_rate() > 0.9, "miss rate {}", c.miss_rate());
    }

    #[test]
    fn hierarchy_escalates_and_costs() {
        let mut h = Hierarchy::typical();
        assert_eq!(h.access(0), ServedBy::Memory);
        assert_eq!(h.access(0), ServedBy::L1);
        assert_eq!(h.cycles, Hierarchy::MEM_CYCLES + Hierarchy::L1_CYCLES);
        assert!(h.amat() > 0.0);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut h = Hierarchy::typical();
        // Touch a 256 KiB array (fits L2, not L1) twice.
        let elems = (256 << 10) / 8;
        for round in 0..2 {
            let mut l2_hits = 0;
            for i in 0..elems {
                if h.access((i * 8) as u64) == ServedBy::L2 {
                    l2_hits += 1;
                }
            }
            if round == 1 {
                assert!(l2_hits > elems / 16, "second pass should hit L2: {l2_hits}");
            }
        }
    }

    #[test]
    fn tiled_matmul_misses_less_than_naive() {
        // 128x128 f64 matmul: 3 x 128 KiB working set overflows L1 badly
        // untiled; 32x32 tiles (3 x 8 KiB) fit.
        let mut naive = Hierarchy::typical();
        matmul_trace(&mut naive, 128, None);
        let mut tiled = Hierarchy::typical();
        matmul_trace(&mut tiled, 128, Some(32));
        // Blocking re-touches C once per k-block, so raw access counts
        // differ slightly; compare rates, not counts.
        assert!(
            tiled.l1.miss_rate() < 0.6 * naive.l1.miss_rate(),
            "tiled {:.4} vs naive {:.4} L1 miss rate",
            tiled.l1.miss_rate(),
            naive.l1.miss_rate()
        );
        assert!(tiled.amat() < naive.amat());
    }

    #[test]
    #[should_panic(expected = "capacity below one set")]
    fn degenerate_geometry_rejected() {
        Cache::new(CacheConfig { size_bytes: 64, line_bytes: 64, ways: 4 });
    }
}
