//! The one place seeds are hashed, mixed and stepped.
//!
//! Every determinism proof in the codebase — fault plans, hash-ring
//! placement, load generation, dataset sampling, training-set selection —
//! rests on one property: a drawn value is a *pure function of
//! `(seed, index)`*, never of wall clock, thread interleaving or how many
//! other values were drawn around it. The rules for deriving a stream:
//!
//! * **Strings enter through [`fnv1a`]** (device names, keys) and are then
//!   combined with the numeric seed by `^` before mixing.
//! * **Structured words are decorrelated with [`mix`]** before use or
//!   before being `^`-combined with another mixed word: `mix(seed ^ a) ^
//!   mix(b)` gives independent-looking streams per `(a, b)` while staying
//!   pure in its inputs. Distinct consumers of one seed separate their
//!   streams by a constant (`rotate_left`, an odd multiplier) *inside* the
//!   `mix` argument, never by drawing in a fixed order.
//! * **A sequence of draws for one index uses [`splitmix64`]** on a local
//!   state initialised from `(seed, index)`; the state never outlives the
//!   index, so row `i` is reproducible from its provenance alone.
//!
//! `mix(z)` is exactly one [`splitmix64`] step from state `z`. The
//! constants are Steele, Lea & Flood's SplitMix64 and the 64-bit FNV-1a
//! offset/prime; committed goldens (`ptdr_golden.txt`, the dataset CSV)
//! pin every bit of them.

/// FNV-1a over the bytes of `s`: folds a string key into a seed word.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in s.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The SplitMix64 finalizer over `z + γ`: decorrelates a structured word
/// (a combined seed, a `(shard, vnode)` pair, a rank).
#[inline]
pub fn mix(mut z: u64) -> u64 {
    splitmix64(&mut z)
}

/// One step of the SplitMix64 stream: advances `state` and returns the
/// next 64-bit draw.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_vectors_hold() {
        // SplitMix64 from state 0 (the reference implementation's first
        // two outputs) and the FNV-1a test vectors for "" and "a".
        let mut state = 0u64;
        assert_eq!(splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut state), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn mix_is_one_stream_step() {
        for z in [0u64, 1, 7, u64::MAX, 0x9e37_79b9_7f4a_7c15] {
            let mut state = z;
            assert_eq!(mix(z), splitmix64(&mut state));
        }
    }
}
