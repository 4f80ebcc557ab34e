//! The one seeded generator behind every synthetic workload.
//!
//! xoshiro256** (Blackman & Vigna), its four state words expanded from a
//! `u64` seed through [`cps_obs::splitmix64`]. Not cryptographic; what
//! matters is that a `(spec, seed)` pair always yields the same bits, since
//! every table, benchmark input digest and canonical journal in the repo
//! descends from them (`tests/golden.rs` pins them).

/// A seedable, `Clone`-able xoshiro256** generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds word `i` with `splitmix64(seed + i·0x9E37_79B9_7F4A_7C15)`.
    // No all-zero-state nudge: splitmix64 is a bijection, so at most one
    // of the four words is zero and xoshiro's fixed point is unreachable.
    pub fn seed_from_u64(seed: u64) -> Self {
        let word =
            |i: u64| cps_obs::splitmix64(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        Rng {
            s: [word(0), word(1), word(2), word(3)],
        }
    }

    /// Returns the next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Draws uniformly from `[0, n)` by widening multiply (the residual
    /// bias at 64 bits is negligible for simulation). `n` must be positive.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "cannot draw below 0");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Draws uniformly from `[0, 1)`: 53 random mantissa bits.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Shuffles `items` in place (Fisher–Yates, last index first).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_stay_in_range() {
        let mut r = Rng::seed_from_u64(1);
        for n in [1, 2, 3, 17, u64::MAX] {
            assert!(r.below(n) < n);
        }
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&r.unit_f64()));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        Rng::seed_from_u64(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "100 elements should not shuffle to identity");
        let mut empty: [u8; 0] = [];
        Rng::seed_from_u64(3).shuffle(&mut empty);
    }
}
