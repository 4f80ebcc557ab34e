//! Property-based tests for the data-structure substrate.

// Index loops read more naturally than enumerate() when the index is the
// quantity under test (prefix/tail sums per position).
#![allow(clippy::needless_range_loop)]

use cps_dstruct::{DenseHistogram, Fenwick, LruList, MonotoneCurve, ReuseDistances};
use proptest::prelude::*;

proptest! {
    #[test]
    fn fenwick_prefix_matches_naive(updates in prop::collection::vec((0usize..64, -100i64..100), 1..200)) {
        let n = 64;
        let mut f = Fenwick::new(n);
        let mut naive = vec![0i64; n];
        for (i, d) in updates {
            f.add(i, d);
            naive[i] += d;
        }
        let mut acc = 0;
        for i in 0..n {
            acc += naive[i];
            prop_assert_eq!(f.prefix_sum(i), acc);
        }
        prop_assert_eq!(f.total(), naive.iter().sum::<i64>());
    }

    #[test]
    fn fenwick_lower_bound_agrees_with_scan(
        counts in prop::collection::vec(0i64..5, 1..50),
        k in 1i64..100,
    ) {
        let mut f = Fenwick::new(counts.len());
        for (i, &c) in counts.iter().enumerate() {
            f.add(i, c);
        }
        let expect = {
            let mut acc = 0;
            let mut found = None;
            for (i, &c) in counts.iter().enumerate() {
                acc += c;
                if acc >= k {
                    found = Some(i);
                    break;
                }
            }
            found
        };
        prop_assert_eq!(f.lower_bound(k), expect);
    }

    #[test]
    fn forward_excess_sums_match_definition(
        obs in prop::collection::vec((0usize..40, 1u64..5), 0..60),
    ) {
        // E(w+1) = E(w) − tail(w), tail(w+1) = tail(w) − f(w+1), from
        // the histogram's start, equals Σ max(t − w, 0)·f(t) at every w
        // up to and past the largest value (where both reach 0).
        let mut h = DenseHistogram::new();
        for (v, w) in &obs {
            h.add(*v, *w);
        }
        let mut e = h.excess_start();
        for w in 0..=h.buckets().len() + 1 {
            let naive: u64 = h
                .buckets()
                .iter()
                .enumerate()
                .map(|(t, &c)| t.saturating_sub(w) as u64 * c)
                .sum();
            prop_assert_eq!(e.excess(), naive, "w = {}", w);
            e.step(h.count(w + 1));
        }
    }

    #[test]
    fn lru_list_matches_model(ops in prop::collection::vec((0u8..4, 0u32..24), 1..300)) {
        use std::collections::VecDeque;
        let mut l = LruList::new();
        let mut model: VecDeque<u32> = VecDeque::new();
        for (op, id) in ops {
            match op {
                0 | 1 => {
                    if let Some(p) = model.iter().position(|&m| m == id) {
                        l.move_to_front(id);
                        model.remove(p);
                    } else {
                        l.push_front(id);
                    }
                    model.push_front(id);
                }
                2 => {
                    let got = l.pop_back();
                    let expect = model.pop_back();
                    prop_assert_eq!(got, expect);
                }
                _ => {
                    if let Some(p) = model.iter().position(|&m| m == id) {
                        l.remove(id);
                        model.remove(p);
                    }
                }
            }
            prop_assert_eq!(l.len(), model.len());
        }
        l.check_invariants();
        prop_assert_eq!(l.iter().collect::<Vec<_>>(), Vec::from(model));
    }

    #[test]
    fn reuse_distances_match_naive_stack(trace in prop::collection::vec(0u64..20, 0..150)) {
        let rd = ReuseDistances::from_trace(&trace);
        // Naive stack model.
        let mut stack: Vec<u64> = Vec::new();
        let mut hist = DenseHistogram::new();
        let mut cold = 0u64;
        for &a in &trace {
            match stack.iter().position(|&x| x == a) {
                Some(p) => {
                    hist.add(p + 1, 1);
                    stack.remove(p);
                }
                None => cold += 1,
            }
            stack.insert(0, a);
        }
        prop_assert_eq!(rd.cold, cold);
        prop_assert_eq!(rd.histogram.buckets(), hist.buckets());
    }

    #[test]
    fn miss_ratio_curve_monotone_and_bounded(trace in prop::collection::vec(0u64..30, 1..200)) {
        let rd = ReuseDistances::from_trace(&trace);
        let curve = rd.miss_ratio_curve(40);
        for v in &curve {
            prop_assert!((0.0..=1.0).contains(v));
        }
        for w in curve.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12, "LRU inclusion property violated");
        }
        // Full-size cache leaves only compulsory misses.
        prop_assert!((curve[40] - rd.cold as f64 / trace.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn curve_inverse_round_trip(
        raw in prop::collection::vec(0.0f64..10.0, 2..40),
        q in 0.0f64..1.0,
    ) {
        // Build a non-decreasing curve from cumulative sums.
        let mut acc = 0.0;
        let ys: Vec<f64> = raw.iter().map(|v| { acc += v; acc }).collect();
        let c = MonotoneCurve::from_samples(ys.clone());
        let y = ys[0] + q * (ys[ys.len() - 1] - ys[0]);
        if let Some(x) = c.inverse(y) {
            prop_assert!((c.eval(x) - y).abs() < 1e-9 * (1.0 + y.abs()));
        } else {
            prop_assert!(y > *ys.last().unwrap());
        }
    }

    #[test]
    fn envelope_convex_below_touches_endpoints(
        raw in prop::collection::vec(0.0f64..5.0, 3..40),
    ) {
        // Build a non-increasing curve (like an MRC).
        let mut acc: f64 = raw.iter().sum::<f64>() + 1.0;
        let ys: Vec<f64> = raw.iter().map(|v| { acc -= v; acc }).collect();
        let c = MonotoneCurve::from_samples(ys.clone());
        let env = c.lower_convex_envelope();
        prop_assert!(env.is_convex(1e-7), "violation {}", env.convexity_violation());
        for i in 0..c.len() {
            prop_assert!(env.at(i) <= c.at(i) + 1e-9);
        }
        prop_assert!((env.at(0) - c.at(0)).abs() < 1e-9);
        prop_assert!((env.at(c.len() - 1) - c.at(c.len() - 1)).abs() < 1e-9);
    }
}
