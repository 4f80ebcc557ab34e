//! First-class, serializable optimization objectives.
//!
//! The DP of [`crate::dp`] needs no convexity and no particular cost
//! semantics: any *decomposable* objective — one that assigns each
//! program a cost curve over its own allocation and accumulates the
//! per-program costs with an associative, monotone operator — drops in
//! unchanged. This module makes that pluggability explicit:
//! [`Objective`] carries what the solver stack needs from an objective
//! (per-tenant cost-curve construction plus [`Combine`] accumulation
//! semantics) and is serializable:
//!
//! * [`Objective::MissRatioSum`] — the paper's throughput objective
//!   (Eq. 12): minimize the access-share-weighted group miss ratio.
//!   This is the **default** and reproduces the pre-objective engine
//!   bit for bit.
//! * [`Objective::MaxMissRatio`] — the paper's QoS objective: minimize
//!   the worst member's raw miss ratio (max-min fairness).
//! * [`Objective::Utility`] — concave per-tenant utility of hit rate
//!   (Dehghan et al.-style utility-maximizing sharing): maximize
//!   `Σ f_i · (1 − mr_i)^curvature`, encoded as a negated cost so the
//!   minimizing DP applies unchanged.
//! * [`Objective::ValueWeighted`] — Memshare-style per-tenant
//!   value-of-hit weights: minimize `Σ f_i · v_i · mr_i`, where `v_i`
//!   prices tenant `i`'s misses.
//! * [`Objective::MaxSlowdown`] — fairness across tenants: minimize the
//!   worst *degradation* `mr_i(c_i) − mr_i(full cache)`, each tenant
//!   measured against its own best case.
//!
//! Objectives serialize to compact spec strings ([`Objective::name`] /
//! [`Objective::parse`] round-trip) so they can ride in journals, wire
//! handshakes, and CLI flags, and every layer can cross-validate that
//! it is optimizing the same thing as its peers.

use crate::config::CacheConfig;
use crate::cost::{CostCurve, FORBIDDEN};
use crate::dp::Combine;
use cps_hotl::MissRatioCurve;

/// Default curvature of the [`Objective::Utility`] objective: square
/// root utility, a standard concave "diminishing returns" shape.
pub const DEFAULT_UTILITY_CURVATURE: f64 = 0.5;

/// A serializable, first-class objective; see the module docs for the
/// semantics of each variant.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Objective {
    /// Access-share-weighted group miss ratio (the paper's throughput
    /// objective, Eq. 12). The default.
    #[default]
    MissRatioSum,
    /// Worst member's raw miss ratio (the paper's QoS / max-min
    /// objective).
    MaxMissRatio,
    /// Concave utility of hit rate: maximize
    /// `Σ f_i · (1 − mr_i)^curvature` (Dehghan-style).
    Utility {
        /// Concavity exponent in `(0, 1]`; 1 is linear hit rate,
        /// smaller is stronger diminishing returns.
        curvature: f64,
    },
    /// Per-tenant value-of-hit weights (Memshare-style): minimize
    /// `Σ f_i · v_i · mr_i`.
    ValueWeighted {
        /// One positive value weight per tenant; empty means every
        /// tenant weighs 1 (pure [`Objective::MissRatioSum`] costs).
        weights: Vec<f64>,
    },
    /// Worst per-tenant slowdown `mr_i(c_i) − mr_i(full cache)`:
    /// max-min fairness on degradation rather than raw miss ratio.
    MaxSlowdown,
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

impl Objective {
    /// Canonical spec string; [`Objective::parse`] inverts it exactly
    /// (floats use Rust's shortest round-trip formatting).
    pub fn name(&self) -> String {
        match self {
            Objective::MissRatioSum => "miss-ratio".to_string(),
            Objective::MaxMissRatio => "maxmin".to_string(),
            Objective::Utility { curvature } => format!("utility:{curvature}"),
            Objective::ValueWeighted { weights } => {
                if weights.is_empty() {
                    "value-weighted".to_string()
                } else {
                    let list: Vec<String> = weights.iter().map(|w| format!("{w}")).collect();
                    format!("value-weighted:{}", list.join(","))
                }
            }
            Objective::MaxSlowdown => "max-slowdown".to_string(),
        }
    }

    /// Parses a spec string. Accepted forms (aliases in parentheses):
    ///
    /// * `miss-ratio` (`miss-ratio-sum`, `throughput`)
    /// * `maxmin` (`max-miss-ratio`, `qos`)
    /// * `utility` or `utility:CURVATURE` with curvature in `(0, 1]`
    /// * `value-weighted` or `value-weighted:W1,W2,...` with positive
    ///   finite weights
    /// * `max-slowdown`
    pub fn parse(spec: &str) -> Result<Objective, String> {
        let (head, tail) = match spec.split_once(':') {
            Some((h, t)) => (h, Some(t)),
            None => (spec, None),
        };
        let no_params = |obj: Objective| match tail {
            None => Ok(obj),
            Some(_) => Err(format!("objective `{head}` takes no parameters")),
        };
        match head {
            "miss-ratio" | "miss-ratio-sum" | "throughput" => no_params(Objective::MissRatioSum),
            "maxmin" | "max-miss-ratio" | "qos" => no_params(Objective::MaxMissRatio),
            "max-slowdown" => no_params(Objective::MaxSlowdown),
            "utility" => {
                let curvature = match tail {
                    None => DEFAULT_UTILITY_CURVATURE,
                    Some(t) => t
                        .parse::<f64>()
                        .map_err(|_| format!("bad utility curvature `{t}`"))?,
                };
                if !curvature.is_finite() || curvature <= 0.0 || curvature > 1.0 {
                    return Err(format!(
                        "utility curvature must lie in (0, 1], got {curvature}"
                    ));
                }
                Ok(Objective::Utility { curvature })
            }
            "value-weighted" => {
                let weights: Vec<f64> = match tail {
                    None => Vec::new(),
                    Some(t) => t
                        .split(',')
                        .map(|w| {
                            w.parse::<f64>()
                                .map_err(|_| format!("bad value weight `{w}`"))
                        })
                        .collect::<Result<_, _>>()?,
                };
                if let Some(bad) = weights.iter().find(|w| !w.is_finite() || **w <= 0.0) {
                    return Err(format!(
                        "value weights must be positive and finite, got {bad}"
                    ));
                }
                Ok(Objective::ValueWeighted { weights })
            }
            other => Err(format!(
                "unknown objective `{other}` \
                 (miss-ratio|maxmin|utility[:CURVATURE]|value-weighted[:W1,W2,...]|max-slowdown)"
            )),
        }
    }

    /// Checks the objective against a concrete tenant count: a
    /// non-empty [`Objective::ValueWeighted`] weight vector must name
    /// exactly one weight per tenant.
    pub fn validate_for(&self, tenants: usize) -> Result<(), String> {
        match self {
            Objective::ValueWeighted { weights }
                if !weights.is_empty() && weights.len() != tenants =>
            {
                Err(format!(
                    "value-weighted names {} weights for {tenants} tenants",
                    weights.len()
                ))
            }
            _ => Ok(()),
        }
    }

    /// Builds the whole per-tenant cost-curve vector, one call per
    /// group — the objective-parameterized successor of the old
    /// `build_cost_curves` free function (which now delegates here).
    ///
    /// # Panics
    /// Panics if `mrcs`, `shares`, and any `caps` differ in length.
    pub fn cost_curves(
        &self,
        mrcs: &[&MissRatioCurve],
        config: &CacheConfig,
        shares: &[f64],
        caps: Option<&[f64]>,
    ) -> Vec<CostCurve> {
        assert_eq!(mrcs.len(), shares.len(), "one share per program");
        if let Some(caps) = caps {
            assert_eq!(mrcs.len(), caps.len(), "one cap per program");
        }
        mrcs.iter()
            .zip(shares)
            .enumerate()
            .map(|(i, (m, &share))| self.tenant_cost(i, m, config, share, caps.map(|c| c[i])))
            .collect()
    }

    /// Accumulation semantics: how per-tenant costs fold into the
    /// group objective (including the identity element and the
    /// infeasibility encoding — see [`Combine`]).
    pub fn combine(&self) -> Combine {
        match self {
            Objective::MissRatioSum
            | Objective::Utility { .. }
            | Objective::ValueWeighted { .. } => Combine::Sum,
            Objective::MaxMissRatio | Objective::MaxSlowdown => Combine::Max,
        }
    }

    /// Builds tenant `index`'s cost over `0..=config.units` units from
    /// its miss-ratio curve and access share. With a `cap`, allocations
    /// at which the tenant's own miss ratio exceeds the cap (plus
    /// numerical slack) are [`FORBIDDEN`] — the baseline constraint of
    /// the paper's Section VI, applied uniformly across objectives.
    pub fn tenant_cost(
        &self,
        index: usize,
        mrc: &MissRatioCurve,
        config: &CacheConfig,
        share: f64,
        cap: Option<f64>,
    ) -> CostCurve {
        match self {
            // The weight-scaled objectives route through the original
            // constructors so the default path executes the exact float
            // operations of the pre-objective code (bit-for-bit).
            Objective::MissRatioSum | Objective::MaxMissRatio | Objective::ValueWeighted { .. } => {
                let weight = match self {
                    Objective::MissRatioSum => share,
                    Objective::MaxMissRatio => 1.0,
                    Objective::ValueWeighted { weights } => {
                        share * weights.get(index).copied().unwrap_or(1.0)
                    }
                    _ => unreachable!(),
                };
                match cap {
                    Some(cap) => CostCurve::with_baseline_cap(mrc, config, weight, cap),
                    None => CostCurve::from_miss_ratio(mrc, config, weight),
                }
            }
            Objective::Utility { curvature } => curve_with_cap(mrc, config, cap, |mr| {
                -(share * (1.0 - mr).max(0.0).powf(*curvature))
            }),
            Objective::MaxSlowdown => {
                let best = mrc.at(config.blocks());
                curve_with_cap(mrc, config, cap, |mr| mr - best)
            }
        }
    }

    /// Accumulated group cost of a fixed allocation under this
    /// objective (identity-seeded left fold, the same order the DP
    /// uses, so the result is bit-identical to a DP solve that picked
    /// `allocation`).
    pub fn group_cost(&self, costs: &[CostCurve], allocation: &[usize]) -> f64 {
        let combine = self.combine();
        let mut acc = combine.identity();
        for (cost, &units) in costs.iter().zip(allocation) {
            acc = combine.apply(acc, cost.at(units));
        }
        acc
    }
}

/// Samples `cost(mr)` over `0..=config.units`, forbidding allocations
/// whose miss ratio exceeds `cap` — the same slack rule as
/// [`CostCurve::with_baseline_cap`].
fn curve_with_cap(
    mrc: &MissRatioCurve,
    config: &CacheConfig,
    cap: Option<f64>,
    cost: impl Fn(f64) -> f64,
) -> CostCurve {
    let slack = cap.map(|c| 1e-9 + c * 1e-9);
    let costs = (0..=config.units)
        .map(|u| {
            let mr = mrc.at(config.to_blocks(u));
            match (cap, slack) {
                (Some(cap), Some(slack)) if mr > cap + slack => FORBIDDEN,
                _ => cost(mr),
            }
        })
        .collect();
    CostCurve::from_raw(costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_hotl::Footprint;

    fn loop_mrc(ws: u64, len: usize, max_blocks: usize) -> MissRatioCurve {
        let trace: Vec<u64> = (0..len as u64).map(|i| i % ws).collect();
        MissRatioCurve::from_footprint(&Footprint::from_trace(&trace), max_blocks)
    }

    #[test]
    fn names_and_parse_round_trip() {
        let cases = [
            Objective::MissRatioSum,
            Objective::MaxMissRatio,
            Objective::Utility { curvature: 0.5 },
            Objective::Utility { curvature: 0.875 },
            Objective::ValueWeighted { weights: vec![] },
            Objective::ValueWeighted {
                weights: vec![1.0, 2.5, 0.125],
            },
            Objective::MaxSlowdown,
        ];
        for obj in cases {
            let spec = obj.name();
            assert_eq!(Objective::parse(&spec), Ok(obj), "{spec}");
        }
    }

    #[test]
    fn aliases_parse_to_the_same_objective() {
        for alias in ["miss-ratio", "miss-ratio-sum", "throughput"] {
            assert_eq!(Objective::parse(alias), Ok(Objective::MissRatioSum));
        }
        for alias in ["maxmin", "max-miss-ratio", "qos"] {
            assert_eq!(Objective::parse(alias), Ok(Objective::MaxMissRatio));
        }
        assert_eq!(
            Objective::parse("utility"),
            Ok(Objective::Utility {
                curvature: DEFAULT_UTILITY_CURVATURE
            })
        );
    }

    #[test]
    fn bad_specs_are_friendly_errors() {
        for (spec, needle) in [
            ("speed", "unknown objective"),
            ("utility:0", "curvature must lie in (0, 1]"),
            ("utility:1.5", "curvature must lie in (0, 1]"),
            ("utility:x", "bad utility curvature"),
            ("value-weighted:1,-2", "must be positive"),
            ("value-weighted:1,nope", "bad value weight"),
            ("miss-ratio:9", "takes no parameters"),
            ("max-slowdown:1", "takes no parameters"),
        ] {
            let err = Objective::parse(spec).expect_err(spec);
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn validate_for_checks_weight_counts() {
        let obj = Objective::ValueWeighted {
            weights: vec![1.0, 2.0],
        };
        assert!(obj.validate_for(2).is_ok());
        let err = obj.validate_for(3).unwrap_err();
        assert!(err.contains("2 weights for 3 tenants"), "{err}");
        assert!(Objective::ValueWeighted { weights: vec![] }
            .validate_for(7)
            .is_ok());
        assert!(Objective::MissRatioSum.validate_for(7).is_ok());
    }

    #[test]
    fn default_objective_costs_match_legacy_construction() {
        // The default path must execute the exact float operations of
        // the pre-objective code.
        let m1 = loop_mrc(16, 2000, 64);
        let m2 = loop_mrc(40, 2000, 64);
        let cfg = CacheConfig::new(32, 2);
        let shares = crate::cost::access_shares(&[300.0, 100.0]);
        let built = Objective::MissRatioSum.cost_curves(&[&m1, &m2], &cfg, &shares, None);
        assert_eq!(built[0], CostCurve::from_miss_ratio(&m1, &cfg, shares[0]));
        assert_eq!(built[1], CostCurve::from_miss_ratio(&m2, &cfg, shares[1]));

        let max = Objective::MaxMissRatio.cost_curves(&[&m1, &m2], &cfg, &shares, None);
        assert_eq!(max[0], CostCurve::from_miss_ratio(&m1, &cfg, 1.0));

        // All-ones value weights reproduce the default costs exactly
        // (share * 1.0 is the identical multiply).
        let ones = Objective::ValueWeighted {
            weights: vec![1.0, 1.0],
        }
        .cost_curves(&[&m1, &m2], &cfg, &shares, None);
        for (a, b) in ones.iter().zip(&built) {
            for u in 0..=cfg.units {
                assert_eq!(a.at(u).to_bits(), b.at(u).to_bits());
            }
        }
    }

    #[test]
    fn utility_costs_are_negated_concave_utility() {
        let m = loop_mrc(16, 2000, 64);
        let cfg = CacheConfig::new(16, 2);
        let obj = Objective::Utility { curvature: 0.5 };
        let cost = obj.tenant_cost(0, &m, &cfg, 0.25, None);
        for u in 0..=cfg.units {
            let mr = m.at(cfg.to_blocks(u));
            let expect = -(0.25 * (1.0 - mr).max(0.0).sqrt());
            assert!((cost.at(u) - expect).abs() < 1e-12, "u={u}");
            assert!(cost.at(u) <= 0.0, "utility costs are non-positive");
        }
        // More cache → more hits → higher utility → lower (more
        // negative) cost for a loop workload.
        assert!(cost.at(cfg.units) <= cost.at(0));
    }

    #[test]
    fn max_slowdown_is_zero_at_full_cache() {
        let m = loop_mrc(16, 2000, 64);
        let cfg = CacheConfig::new(16, 2);
        let cost = Objective::MaxSlowdown.tenant_cost(0, &m, &cfg, 0.5, None);
        assert!(cost.at(cfg.units).abs() < 1e-12, "no slowdown at full");
        for u in 0..=cfg.units {
            assert!(cost.at(u) >= -1e-12, "slowdown is non-negative, u={u}");
        }
    }

    #[test]
    fn caps_forbid_uniformly_across_objectives() {
        let m = loop_mrc(16, 2000, 32);
        let cfg = CacheConfig::new(32, 1);
        let cap = m.at(16); // baseline: the working set fits
        for obj in [
            Objective::MissRatioSum,
            Objective::Utility { curvature: 0.5 },
            Objective::ValueWeighted { weights: vec![] },
            Objective::MaxSlowdown,
        ] {
            let cost = obj.tenant_cost(0, &m, &cfg, 1.0, Some(cap));
            assert_eq!(cost.at(4), FORBIDDEN, "{obj}: thrashing is forbidden");
            assert!(cost.at(16).is_finite(), "{obj}: baseline is feasible");
        }
    }

    #[test]
    fn group_cost_is_the_dp_fold_order() {
        let costs = vec![
            CostCurve::from_raw(vec![0.5, 0.25]),
            CostCurve::from_raw(vec![0.4, 0.1]),
            CostCurve::from_raw(vec![0.3, 0.2]),
        ];
        let sum = Objective::MissRatioSum.group_cost(&costs, &[1, 0, 1]);
        assert_eq!(sum.to_bits(), (((0.0f64 + 0.25) + 0.4) + 0.2).to_bits());
        let max = Objective::MaxMissRatio.group_cost(&costs, &[0, 1, 0]);
        assert_eq!(max, 0.5);
    }
}
