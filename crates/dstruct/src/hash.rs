//! Seeded, cheap hashing for block-keyed maps.
//!
//! Every per-access table in the workspace is a `std` `HashMap` keyed
//! by a `u64` block id; SipHash is most of such a probe. [`BlockHasher`]
//! replaces it with two multiplies and two xor-shifts. The seed is drawn
//! once per map from `RandomState`, so block ids arriving from the wire
//! or a trace file still cannot be aimed at one probe chain. hashbrown
//! indexes buckets by a hash's low bits and tags them by its top 7, so
//! both must depend on every input bit: each xor-shift folds a
//! product's high half, where a multiply gathers its input, into the
//! low half, and the top bits are the second product's own.
//!
//! Iteration order of a [`BlockHashMap`] differs between maps and runs,
//! exactly as with `std`'s default hasher; nothing may depend on it.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A `std` `HashMap` from block ids to `V` behind a [`BlockHasher`].
pub type BlockHashMap<V> = HashMap<u64, V, BlockHashBuilder>;

/// Builds [`BlockHasher`]s sharing one seed; `default()` draws a fresh
/// random seed, so every map gets its own.
#[derive(Clone, Copy, Debug)]
pub struct BlockHashBuilder(u64);

impl BlockHashBuilder {
    /// A builder with a fixed seed (tests pin seed-independence with it).
    pub fn with_seed(seed: u64) -> Self {
        BlockHashBuilder(seed)
    }
}

impl Default for BlockHashBuilder {
    fn default() -> Self {
        BlockHashBuilder(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for BlockHashBuilder {
    type Hasher = BlockHasher;

    fn build_hasher(&self) -> BlockHasher {
        BlockHasher(self.0)
    }
}

/// Multiply, xor-shift, multiply, xor-shift over `state ^ word`.
#[derive(Clone, Copy, Debug)]
pub struct BlockHasher(u64);

impl Hasher for BlockHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let mut h = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        self.0 = h ^ (h >> 32);
    }

    /// Keys other than `u64` fold in eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct low-12-bit buckets and top-7-bit tags `keys` land in.
    fn spread(seed: u64, keys: impl Iterator<Item = u64>) -> (usize, u32) {
        let build = BlockHashBuilder::with_seed(seed);
        let (mut buckets, mut tags) = ([false; 4096], 0u128);
        for key in keys {
            let h = build.hash_one(key);
            buckets[(h & 4095) as usize] = true;
            tags |= 1 << (h >> 57);
        }
        (buckets.iter().filter(|&&b| b).count(), tags.count_ones())
    }

    #[test]
    fn sequential_and_power_of_two_strided_keys_spread() {
        const KEYS: u64 = 8 * 4096;
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            // k = 0 is the sequential case; 2^40 * KEYS stays below 2^64.
            for k in 0..=40u32 {
                let (buckets, tags) = spread(seed, (0..KEYS).map(|i| i << k));
                assert!(buckets * 10 >= 4096 * 9, "seed {seed} k {k}: {buckets}");
                assert!(tags >= 100, "seed {seed} k {k}: {tags} tags");
            }
        }
    }

    #[test]
    fn default_builders_draw_distinct_seeds() {
        let (a, b) = (BlockHashBuilder::default(), BlockHashBuilder::default());
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
        assert_eq!(a.hash_one(7u64), a.hash_one(7u64));
    }

    #[test]
    fn byte_keys_hash_through_the_same_mix() {
        let build = BlockHashBuilder::with_seed(3);
        let mut h = build.build_hasher();
        h.write(&9u64.to_le_bytes());
        assert_eq!(h.finish(), build.hash_one(9u64));
        assert_ne!(build.hash_one("ab"), build.hash_one("ba"));
    }
}
