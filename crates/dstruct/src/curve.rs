//! Monotone piecewise-linear curves on a unit grid.
//!
//! Both central objects of the HOTL theory — the average footprint
//! `fp(w)` and the miss-ratio curve `mr(c)` — are functions sampled at
//! every integer point and interpolated linearly in between. The footprint
//! is non-decreasing and (for real traces) concave; the miss-ratio curve is
//! non-increasing. [`MonotoneCurve`] is the shared representation:
//! evaluation, inverse (the *fill time* is exactly `fp⁻¹`), one-sided
//! slopes (the *inter-miss time* is a slope of `fp`), convexity testing
//! (the STTW optimality condition), and a lower convex envelope (what the
//! STTW greedy effectively optimizes over).

/// A piecewise-linear curve with samples at integer points `0..len`.
///
/// The curve may be non-decreasing or non-increasing; methods that require
/// a direction document it. Construction does not enforce monotonicity —
/// use [`MonotoneCurve::is_non_decreasing`] / `is_non_increasing` to check.
///
/// # Examples
///
/// ```
/// use cps_dstruct::MonotoneCurve;
/// let c = MonotoneCurve::from_samples(vec![0.0, 2.0, 3.0, 3.5]);
/// assert_eq!(c.eval(1.5), 2.5);
/// assert_eq!(c.inverse(3.0), Some(2.0));
/// assert!(c.is_non_decreasing());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MonotoneCurve {
    ys: Vec<f64>,
}

impl MonotoneCurve {
    /// Wraps a sample vector; `ys[i]` is the curve value at `x = i`.
    ///
    /// # Panics
    /// Panics if `ys` is empty or contains non-finite values.
    pub fn from_samples(ys: Vec<f64>) -> Self {
        assert!(!ys.is_empty(), "curve needs at least one sample");
        assert!(
            ys.iter().all(|v| v.is_finite()),
            "curve samples must be finite"
        );
        MonotoneCurve { ys }
    }

    /// Builds a curve by sampling `f` at `0..=max_x`.
    pub fn from_fn(max_x: usize, f: impl Fn(usize) -> f64) -> Self {
        Self::from_samples((0..=max_x).map(f).collect())
    }

    /// Number of samples (domain is `0..len` as integers,
    /// `[0, len-1]` as reals).
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// Always false: construction requires ≥ 1 sample.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Largest x in the (real) domain.
    pub fn max_x(&self) -> f64 {
        (self.ys.len() - 1) as f64
    }

    /// Sample value at integer `x`, clamped to the domain.
    pub fn at(&self, x: usize) -> f64 {
        self.ys[x.min(self.ys.len() - 1)]
    }

    /// The raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.ys
    }

    /// Linear interpolation at real `x`, clamped to `[0, max_x]`.
    pub fn eval(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return self.ys[0];
        }
        let max = self.max_x();
        if x >= max {
            return *self.ys.last().unwrap();
        }
        // `0 < x < max_x` here, so truncation is the floor (and needs no
        // libm call on targets without SSE4.1 `roundsd`).
        let i = x as usize;
        let frac = x - i as f64;
        self.ys[i] + frac * (self.ys[i + 1] - self.ys[i])
    }

    /// True if samples never decrease (within `1e-12` slack).
    pub fn is_non_decreasing(&self) -> bool {
        self.ys.windows(2).all(|w| w[1] >= w[0] - 1e-12)
    }

    /// True if samples never increase (within `1e-12` slack).
    pub fn is_non_increasing(&self) -> bool {
        self.ys.windows(2).all(|w| w[1] <= w[0] + 1e-12)
    }

    /// For a non-decreasing curve: smallest `x` with `eval(x) >= y`,
    /// interpolated to a real value. Returns `None` if `y` exceeds the
    /// curve's maximum; returns 0.0 if `y ≤ ys[0]`.
    pub fn inverse(&self, y: f64) -> Option<f64> {
        debug_assert!(self.is_non_decreasing(), "inverse needs a rising curve");
        if y <= self.ys[0] {
            return Some(0.0);
        }
        if y > *self.ys.last().unwrap() {
            return None;
        }
        // Binary search for the first sample >= y.
        let mut lo = 0usize;
        let mut hi = self.ys.len() - 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.ys[mid] < y {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Some(self.crossing(lo, y))
    }

    /// Where the segment ending at sample `lo` reaches `y`, given
    /// `ys[lo] >= y`, `lo > 0` and `ys[lo - 1] < y`.
    fn crossing(&self, lo: usize, y: f64) -> f64 {
        let (x0, y0, y1) = (lo - 1, self.ys[lo - 1], self.ys[lo]);
        if y1 == y0 {
            return lo as f64;
        }
        x0 as f64 + (y - y0) / (y1 - y0)
    }

    /// Forward slope at real `x`: `eval(x+1) − eval(x)`.
    ///
    /// At the right edge the last segment's slope is extended (0 for a
    /// curve that has flattened out).
    pub fn forward_slope(&self, x: f64) -> f64 {
        self.eval(x + 1.0) - self.eval(x)
    }

    /// Maximum violation of convexity over the integer samples:
    /// `max_i (ys[i] − (ys[i−1]+ys[i+1])/2)`, positive when the curve
    /// bulges above a chord (i.e. is non-convex there). Returns 0 for
    /// curves with < 3 samples.
    pub fn convexity_violation(&self) -> f64 {
        let mut worst = 0.0f64;
        for i in 1..self.ys.len().saturating_sub(1) {
            let chord = 0.5 * (self.ys[i - 1] + self.ys[i + 1]);
            worst = worst.max(self.ys[i] - chord);
        }
        worst
    }

    /// True if the sampled curve is convex within tolerance `tol`.
    pub fn is_convex(&self, tol: f64) -> bool {
        self.convexity_violation() <= tol
    }

    /// The greatest convex function below the samples (lower convex
    /// envelope), as a new curve on the same grid.
    ///
    /// For a non-increasing miss-ratio curve this is exactly the curve the
    /// STTW greedy "sees": marginal gains along the envelope are
    /// non-increasing even where the true curve has working-set cliffs.
    pub fn lower_convex_envelope(&self) -> MonotoneCurve {
        let n = self.ys.len();
        if n <= 2 {
            return self.clone();
        }
        // Andrew-monotone-chain style lower hull over points (i, ys[i]).
        let mut hull: Vec<usize> = Vec::with_capacity(n);
        for i in 0..n {
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                // Cross product of (b-a) x (i-b); keep right turns out.
                let cross = (b as f64 - a as f64) * (self.ys[i] - self.ys[b])
                    - (i as f64 - b as f64) * (self.ys[b] - self.ys[a]);
                if cross <= 0.0 {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(i);
        }
        // Interpolate hull back onto the grid.
        let mut out = vec![0.0; n];
        for seg in hull.windows(2) {
            let (a, b) = (seg[0], seg[1]);
            let (ya, yb) = (self.ys[a], self.ys[b]);
            for (off, slot) in out[a..=b].iter_mut().enumerate() {
                let t = if b == a {
                    0.0
                } else {
                    off as f64 / (b - a) as f64
                };
                *slot = ya + t * (yb - ya);
            }
        }
        if hull.len() == 1 {
            out[hull[0]] = self.ys[hull[0]];
        }
        MonotoneCurve::from_samples(out)
    }

    /// Pointwise sum of two curves; the result has the shorter length.
    pub fn add(&self, other: &MonotoneCurve) -> MonotoneCurve {
        let n = self.ys.len().min(other.ys.len());
        MonotoneCurve::from_samples((0..n).map(|i| self.ys[i] + other.ys[i]).collect())
    }

    /// Pointwise scale.
    pub fn scale(&self, k: f64) -> MonotoneCurve {
        MonotoneCurve::from_samples(self.ys.iter().map(|v| v * k).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_interpolates_and_clamps() {
        let c = MonotoneCurve::from_samples(vec![1.0, 3.0, 4.0]);
        assert_eq!(c.eval(-5.0), 1.0);
        assert_eq!(c.eval(0.0), 1.0);
        assert_eq!(c.eval(0.5), 2.0);
        assert_eq!(c.eval(1.0), 3.0);
        assert_eq!(c.eval(1.25), 3.25);
        assert_eq!(c.eval(2.0), 4.0);
        assert_eq!(c.eval(99.0), 4.0);
    }

    #[test]
    fn inverse_round_trips() {
        let c = MonotoneCurve::from_samples(vec![0.0, 1.0, 4.0, 9.0, 9.0, 12.0]);
        for y in [0.0, 0.5, 1.0, 2.0, 4.0, 6.5, 9.0, 10.0, 12.0] {
            let x = c.inverse(y).unwrap();
            assert!(
                (c.eval(x) - y).abs() < 1e-9,
                "inverse({y}) = {x}, eval back = {}",
                c.eval(x)
            );
        }
        assert_eq!(c.inverse(12.1), None);
        assert_eq!(c.inverse(-1.0), Some(0.0));
    }

    #[test]
    fn inverse_on_flat_segment_picks_a_preimage() {
        let c = MonotoneCurve::from_samples(vec![0.0, 5.0, 5.0, 5.0, 7.0]);
        let x = c.inverse(5.0).unwrap();
        assert!((c.eval(x) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn eval_truncation_is_the_floor() {
        // Integers, just below them, and the last interior point below
        // `max_x`: the index must be the floor, not a rounded neighbour.
        let c = MonotoneCurve::from_samples(vec![0.0, 10.0, 30.0, 60.0, 100.0]);
        for i in 0..4 {
            let x = i as f64;
            assert_eq!(c.eval(x), c.at(i), "integer {x}");
            if i > 0 {
                let below = f64::from_bits(x.to_bits() - 1);
                let expect = c.at(i - 1) + (below - (i - 1) as f64) * (c.at(i) - c.at(i - 1));
                assert_eq!(c.eval(below).to_bits(), expect.to_bits(), "just below {x}");
                assert!(c.eval(below) < c.at(i));
            }
        }
        let near_max = f64::from_bits(c.max_x().to_bits() - 1);
        let expect = 60.0 + (near_max - 3.0) * 40.0;
        assert_eq!(c.eval(near_max).to_bits(), expect.to_bits());
        assert_eq!(c.eval(c.max_x()), 100.0);
        assert_eq!(c.eval(3.5), 80.0);
    }

    #[test]
    fn monotonicity_checks() {
        assert!(MonotoneCurve::from_samples(vec![0.0, 1.0, 1.0, 2.0]).is_non_decreasing());
        assert!(MonotoneCurve::from_samples(vec![2.0, 1.0, 1.0, 0.0]).is_non_increasing());
        assert!(!MonotoneCurve::from_samples(vec![0.0, 2.0, 1.0]).is_non_decreasing());
    }

    #[test]
    fn convexity_detects_cliffs() {
        // A working-set cliff: flat, sudden drop, flat — non-convex.
        let cliff = MonotoneCurve::from_samples(vec![1.0, 1.0, 1.0, 0.1, 0.1, 0.1]);
        assert!(!cliff.is_convex(1e-9));
        // An exponential-style decay is convex.
        let smooth = MonotoneCurve::from_fn(10, |i| 0.5f64.powi(i as i32));
        assert!(smooth.is_convex(1e-9));
    }

    #[test]
    fn envelope_is_convex_and_below() {
        let c = MonotoneCurve::from_samples(vec![1.0, 1.0, 0.9, 0.2, 0.2, 0.15, 0.0]);
        let env = c.lower_convex_envelope();
        assert!(env.is_convex(1e-9), "envelope must be convex");
        for i in 0..c.len() {
            assert!(
                env.at(i) <= c.at(i) + 1e-12,
                "envelope above curve at {i}: {} vs {}",
                env.at(i),
                c.at(i)
            );
        }
        // Endpoints always touch.
        assert!((env.at(0) - c.at(0)).abs() < 1e-12);
        assert!((env.at(c.len() - 1) - c.at(c.len() - 1)).abs() < 1e-12);
    }

    #[test]
    fn envelope_of_convex_curve_is_identity() {
        let c = MonotoneCurve::from_fn(8, |i| (8 - i) as f64 * (8 - i) as f64);
        let env = c.lower_convex_envelope();
        for i in 0..c.len() {
            assert!((env.at(i) - c.at(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn forward_slope_matches_differences() {
        let c = MonotoneCurve::from_samples(vec![0.0, 2.0, 3.0, 3.5]);
        assert_eq!(c.forward_slope(0.0), 2.0);
        assert_eq!(c.forward_slope(1.0), 1.0);
        assert_eq!(c.forward_slope(0.5), 1.5); // mixes both segments
        assert_eq!(c.forward_slope(3.0), 0.0); // flat extension
    }

    #[test]
    fn add_and_scale() {
        let a = MonotoneCurve::from_samples(vec![1.0, 2.0, 3.0]);
        let b = MonotoneCurve::from_samples(vec![10.0, 10.0]);
        let s = a.add(&b);
        assert_eq!(s.samples(), &[11.0, 12.0]);
        assert_eq!(a.scale(2.0).samples(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_curve_panics() {
        let _ = MonotoneCurve::from_samples(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_sample_panics() {
        let _ = MonotoneCurve::from_samples(vec![0.0, f64::NAN]);
    }

    #[test]
    fn single_sample_curve() {
        let c = MonotoneCurve::from_samples(vec![3.0]);
        assert_eq!(c.eval(0.0), 3.0);
        assert_eq!(c.eval(1.0), 3.0);
        assert_eq!(c.inverse(3.0), Some(0.0));
        assert_eq!(c.inverse(4.0), None);
        assert_eq!(c.lower_convex_envelope().samples(), &[3.0]);
    }
}
