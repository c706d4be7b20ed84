//! Consistent-hash routing of cache keys to the serving tier's shards
//! ([`super::serve`], which re-exports everything here: it lived there
//! before the split).
//!
//! A key belongs to the shard owning the first ring point at or after
//! `mix(key_hash)`, the first point of all past the last one. That is a
//! binary search over the sorted points by definition, and
//! [`HashRing::shard_of`] answers it without searching: a prefix table,
//! four buckets a point, maps the top bits of the position to the first
//! point at or after the bucket's start, and a forward scan — an eighth
//! of a step on average, each step a well-predicted branch where the
//! search took eight coin flips over 256 points — finishes at the first
//! point not below the position. A sentinel past the last point carries
//! the first point's shard, so the wrap-around is not a case. No point
//! lies between a bucket's start and the bucket's first point, hence the
//! scan stops exactly where the search would; the search is kept as the
//! `#[cfg(test)]` reference, and a proptest compares the two on every
//! point, on the positions either side of it and on both ends of the
//! ring (`tests/serve_props.rs` repeats it through the public look-up
//! against a ring rebuilt from the definition).

use everest_workflow::seed::mix;

/// Default virtual nodes per shard on the consistent-hash ring.
pub const DEFAULT_VNODES: usize = 64;

/// A consistent-hash ring mapping 64-bit key hashes to shards.
///
/// Each shard owns `vnodes` pseudo-random points on the u64 ring; a key
/// belongs to the shard owning the first point at or clockwise-after the
/// key's (re-mixed) hash. Ring points depend only on `(shard, vnode)`,
/// so growing the ring from N to N+1 shards leaves every surviving
/// point in place: keys either keep their shard or move to the new one.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard)` sorted by point, then one sentinel past them all
    /// — `u64::MAX` under the first point's shard — which is where a
    /// scan for a position past the last point comes to rest.
    points: Vec<(u64, u32)>,
    shards: usize,
    /// `first[b]` is the index of the first point at or after
    /// `b << shift`: where the scan for a position whose top bits are
    /// `b` starts.
    first: Vec<u32>,
    shift: u32,
}

impl HashRing {
    /// A ring of `shards` shards with `vnodes` points each.
    ///
    /// # Panics
    ///
    /// Panics when either count is zero, or when the ring would have
    /// 2³⁰ points or more.
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        assert!(shards >= 1, "need at least one shard");
        assert!(vnodes >= 1, "need at least one virtual node per shard");
        let count = shards.checked_mul(vnodes).filter(|&n| n < 1 << 30).expect("ring too large");
        let mut points = Vec::with_capacity(count + 1);
        for shard in 0..shards as u64 {
            for vnode in 0..vnodes as u64 {
                points.push((mix(shard << 32 | vnode), shard as u32));
            }
        }
        // Ties (64-bit collisions) resolve to the lower shard id so the
        // ring is a pure function of (shards, vnodes).
        points.sort_unstable();
        // Four buckets a point: a bucket's scan passes over an eighth of
        // a point on average.
        let bits = (4 * count).next_power_of_two().trailing_zeros();
        let shift = 64 - bits;
        let first = (0..1u64 << bits)
            .map(|b| points.partition_point(|&(p, _)| p < b << shift) as u32)
            .collect();
        points.push((u64::MAX, points[0].1));
        HashRing { points, shards, first, shift }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key_hash` (e.g. a [`CacheKey::route_hash`](super::lru::CacheKey::route_hash)).
    pub fn shard_of(&self, key_hash: u64) -> usize {
        self.owner(mix(key_hash))
    }

    /// The shard owning ring position `h`: the first point at or after
    /// it, the first point of all once `h` is past the last. Found by a
    /// forward scan from the first point of `h`'s bucket; no point lies
    /// between the bucket's start and that one, so the scan stops where
    /// the binary search over all points would.
    #[inline]
    fn owner(&self, h: u64) -> usize {
        let mut at = self.first[(h >> self.shift) as usize] as usize;
        while self.points[at].0 < h {
            at += 1;
        }
        self.points[at].1 as usize
    }

    /// [`owner`](Self::owner) as a binary search over the sorted points:
    /// the definition, kept as the reference any faster look-up is
    /// compared against.
    #[cfg(test)]
    fn owner_reference(&self, h: u64) -> usize {
        let points = &self.points[..self.points.len() - 1];
        let at = points.partition_point(|&(p, _)| p < h);
        let (_, shard) = points[if at == points.len() { 0 } else { at }];
        shard as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn look_up_equals_the_binary_search(
            shards in 1usize..10,
            vnodes in 1usize..129,
            positions in prop::collection::vec(any::<u64>(), 1..64),
        ) {
            let ring = HashRing::new(shards, vnodes);
            let check = |h: u64| {
                prop_assert_eq!(ring.owner(h), ring.owner_reference(h), "position {:#x}", h);
                Ok(())
            };
            for &h in &positions {
                check(h)?;
                prop_assert_eq!(ring.shard_of(h), ring.owner_reference(mix(h)));
            }
            // On every point, just before and just after it (past the
            // last point the ring wraps to the first), and at both ends.
            for &(p, _) in &ring.points[..shards * vnodes] {
                check(p)?;
                check(p.wrapping_sub(1))?;
                check(p.wrapping_add(1))?;
            }
            check(0)?;
            check(u64::MAX)?;
        }
    }
}
