//! Property-based tests for the closed-form metrics.
//!
//! The central properties:
//!
//! 1. **Template round trip** — feeding a template's own moments to the
//!    matching metric reconstructs the template parameters exactly
//!    (eqs. 30–36 and 48–53 invert eqs. 21–23 and 26–28);
//! 2. **Bounds** — metric I estimates stay inside eqs. (37)–(40) for every
//!    shape ratio;
//! 3. **Invariants** — `tp = t0 + t1`, `wn = t1 + t2`, area preservation.

use proptest::prelude::*;
use xtalk_circuit::signal::InputSignal;
use xtalk_circuit::{NetRole, NetworkBuilder};
use xtalk_core::template::{LinExpTemplate, PwlTemplate};
use xtalk_core::{MetricOne, MetricTwo, OutputMoments, RobustAnalyzer, LAMBDA};

/// Realistic interconnect parameter ranges (seconds, normalized volts).
fn params() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    (
        0.0..5e-10f64,    // t0
        1e-12..5e-10f64,  // t1
        0.05..20.0f64,    // m
        0.01..0.8f64,     // vp
    )
}

/// A resistance that is usually plausible but sometimes corrupt.
fn resistance() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => 0.1..1e5f64,
        1 => Just(0.0),
        1 => -1e3..0.0f64,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
    ]
}

/// A capacitance that is usually plausible but sometimes corrupt.
fn capacitance() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => 1e-18..1e-12f64,
        1 => Just(0.0),
        1 => -1e-13..0.0f64,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
    ]
}

/// Random aggressor input: mostly ramps, sometimes steps or exponentials,
/// over a wide arrival/transition range.
fn input() -> impl Strategy<Value = InputSignal> {
    (-1e-9..1e-9f64, 1e-13..1e-8f64, 0..4u8).prop_map(|(arrival, tr, shape)| match shape {
        0 => InputSignal::step(arrival),
        1 => InputSignal::rising_exp(arrival, tr),
        2 => InputSignal::falling_ramp(arrival, tr),
        _ => InputSignal::rising_ramp(arrival, tr),
    })
}

/// A structurally complete two-pin pair with arbitrary (possibly corrupt)
/// element values, built permissively so corruption reaches the analyzer.
fn degenerate_pair(
    rd_v: f64,
    rd_a: f64,
    rw: f64,
    cg: f64,
    cl: f64,
    cc: f64,
) -> Result<xtalk_circuit::Network, xtalk_circuit::CircuitError> {
    let mut b = NetworkBuilder::permissive();
    let v = b.add_net("victim", NetRole::Victim);
    let a = b.add_net("agg0", NetRole::Aggressor);
    let v0 = b.add_node(v, "v0");
    let v1 = b.add_node(v, "v1");
    let a0 = b.add_node(a, "a0");
    b.add_driver(v, v0, rd_v)?;
    b.add_driver(a, a0, rd_a)?;
    b.add_resistor(v0, v1, rw)?;
    b.add_ground_cap(v0, cg)?;
    b.add_ground_cap(v1, cg)?;
    b.add_sink(v1, cl)?;
    b.add_sink(a0, cl)?;
    b.add_coupling_cap(a0, v1, cc)?;
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn metric_one_round_trips_pwl_templates((t0, t1, m, vp) in params()) {
        let tpl = PwlTemplate::new(t0, t1, m, vp);
        let [e1, e2, e3] = tpl.moments();
        let f = OutputMoments::from_raw(e1, e2, e3, 1.0).unwrap();
        let est = MetricOne::estimate(&f, m).unwrap();
        prop_assert!((est.vp - vp).abs() < 1e-6 * vp, "vp {} vs {vp}", est.vp);
        prop_assert!((est.t1 - t1).abs() < 1e-6 * t1);
        prop_assert!((est.t0 - t0).abs() < 1e-6 * (t0 + t1));
        prop_assert!((est.t2 - m * t1).abs() < 1e-6 * m * t1);
    }

    #[test]
    fn metric_two_round_trips_linexp_templates((t0, t1, m, vp) in params()) {
        let tpl = LinExpTemplate::new(t0, t1, m, LAMBDA, vp);
        let [e1, e2, e3] = tpl.moments();
        let f = OutputMoments::from_raw(e1, e2, e3, 1.0).unwrap();
        let est = MetricTwo::default().estimate(&f, m).unwrap();
        prop_assert!((est.vp - vp).abs() < 1e-6 * vp, "vp {} vs {vp}", est.vp);
        prop_assert!((est.t1 - t1).abs() < 1e-6 * t1);
        prop_assert!((est.t0 - t0).abs() < 1e-5 * (t0 + t1));
    }

    #[test]
    fn metric_one_estimates_stay_in_bounds(
        (t0, t1, m, vp) in params(),
        m_guess in 1e-3..1e3f64,
    ) {
        let tpl = PwlTemplate::new(t0, t1, m, vp);
        let [e1, e2, e3] = tpl.moments();
        let f = OutputMoments::from_raw(e1, e2, e3, 1.0).unwrap();
        let bounds = MetricOne::bounds(&f).unwrap();
        let est = MetricOne::estimate(&f, m_guess).unwrap();
        prop_assert!(bounds.contains(&est), "m_guess={m_guess}: {est:?} vs {bounds:?}");
    }

    #[test]
    fn estimates_satisfy_structural_invariants(
        (t0, t1, m, vp) in params(),
        m_guess in 1e-2..1e2f64,
    ) {
        let tpl = PwlTemplate::new(t0, t1, m, vp);
        let [e1, e2, e3] = tpl.moments();
        let f = OutputMoments::from_raw(e1, e2, e3, 1.0).unwrap();
        for est in [
            MetricOne::estimate(&f, m_guess).unwrap(),
            MetricTwo::default().estimate(&f, m_guess).unwrap(),
        ] {
            prop_assert!(est.vp > 0.0 && est.t1 > 0.0 && est.t2 > 0.0);
            prop_assert!((est.tp - (est.t0 + est.t1)).abs() <= 1e-9 * est.t1.max(est.tp.abs()));
            prop_assert!((est.wn - (est.t1 + est.t2)).abs() <= 1e-9 * est.wn);
            prop_assert!((est.t2 / est.t1 - m_guess).abs() <= 1e-9 * m_guess);
        }
    }

    #[test]
    fn metric_one_area_is_exactly_f1((t0, t1, m, vp) in params(), m_guess in 1e-2..1e2f64) {
        // Matching e1 forces Vp·Wn/2 = f1 regardless of the m used.
        let tpl = PwlTemplate::new(t0, t1, m, vp);
        let [e1, e2, e3] = tpl.moments();
        let f = OutputMoments::from_raw(e1, e2, e3, 1.0).unwrap();
        let est = MetricOne::estimate(&f, m_guess).unwrap();
        prop_assert!((est.area() - f.f1()).abs() < 1e-9 * f.f1());
    }

    #[test]
    fn robust_analyzer_never_panics_and_clamps(
        rd_v in resistance(),
        rd_a in resistance(),
        rw in resistance(),
        cg in capacitance(),
        cl in capacitance(),
        cc in capacitance(),
        input in input(),
    ) {
        // Random two-pin pairs whose element values are sometimes corrupt
        // (zero, negative, NaN, infinite): the robust pipeline must return
        // a structured error or an estimate that is finite everywhere with
        // vp clamped into [0, 1] — and must never panic.
        let Ok(network) = degenerate_pair(rd_v, rd_a, rw, cg, cl, cc) else {
            return Ok(()); // rejected at build time: structured
        };
        let Ok(robust) = RobustAnalyzer::new(&network) else {
            return Ok(()); // rejected by validation: structured
        };
        for (agg, _) in network.aggressor_nets() {
            match robust.analyze(agg, &input) {
                Ok(re) => {
                    let e = &re.estimate;
                    prop_assert!(
                        [e.vp, e.t0, e.t1, e.t2, e.tp, e.wn].iter().all(|x| x.is_finite()),
                        "non-finite accepted estimate: {e:?} ({})",
                        re.provenance
                    );
                    prop_assert!((0.0..=1.0).contains(&e.vp), "unclamped vp {}", e.vp);
                    prop_assert!(e.t1 > 0.0 && e.t2 > 0.0);
                }
                Err(e) => drop(e.to_string()), // structured, and Display works
            }
        }
    }

    #[test]
    fn metric_two_peak_never_exceeds_pwl_bound_times_factor(
        (t0, t1, m, vp) in params(),
        m_guess in 1e-3..1e3f64,
        linexp_source in any::<bool>(),
    ) {
        // The closed-form upper Vp bound (eq. 40) is the PWL template's
        // m → extremes; metric II's peak may exceed it by at most √72/4
        // (its α → ∞, pure-exponential-decay limit) for ANY moment
        // source — PWL- or LinExp-shaped.
        let [e1, e2, e3] = if linexp_source {
            LinExpTemplate::new(t0, t1, m, LAMBDA, vp).moments()
        } else {
            PwlTemplate::new(t0, t1, m, vp).moments()
        };
        let f = OutputMoments::from_raw(e1, e2, e3, 1.0).unwrap();
        let bounds = MetricOne::bounds(&f).unwrap();
        let est2 = MetricTwo::default().estimate(&f, m_guess).unwrap();
        let cap = bounds.vp.1 * (72f64.sqrt() / 4.0);
        prop_assert!(
            est2.vp <= cap * (1.0 + 1e-9),
            "metric II vp {} exceeds PWL bound {} × √72/4 = {cap}",
            est2.vp,
            bounds.vp.1,
        );
    }

    #[test]
    fn metric_one_stays_in_bounds_for_linexp_moments(
        (t0, t1, m, vp) in params(),
        m_guess in 1e-3..1e3f64,
    ) {
        // Bound domination must not depend on the moments coming from the
        // metric's own template family.
        let [e1, e2, e3] = LinExpTemplate::new(t0, t1, m, LAMBDA, vp).moments();
        let f = OutputMoments::from_raw(e1, e2, e3, 1.0).unwrap();
        let bounds = MetricOne::bounds(&f).unwrap();
        let est = MetricOne::estimate(&f, m_guess).unwrap();
        prop_assert!(bounds.contains(&est), "m_guess={m_guess}: {est:?} vs {bounds:?}");
    }

    #[test]
    fn robust_estimates_preserve_identities_even_when_clamped(
        rd_v in 1.0..1e4f64,
        rd_a in 1.0..1e4f64,
        rw in 0.1..1e4f64,
        cg in 1e-17..1e-13f64,
        cl in 1e-16..1e-13f64,
        cc in 1e-16..1e-13f64,
        input in input(),
    ) {
        // Healthy-element circuits: whatever rung the robust pipeline lands
        // on — including runs where the non-causal timing clamp rewrote
        // t0/t1/t2 — the accepted estimate keeps the construction
        // identities to 1e-9 relative and every field finite.
        let Ok(network) = degenerate_pair(rd_v, rd_a, rw, cg, cl, cc) else {
            return Ok(());
        };
        let Ok(robust) = RobustAnalyzer::new(&network) else {
            return Ok(());
        };
        for (agg, _) in network.aggressor_nets() {
            let Ok(re) = robust.analyze(agg, &input) else { continue };
            let e = &re.estimate;
            prop_assert!(
                [e.vp, e.t0, e.t1, e.t2, e.tp, e.wn, e.m].iter().all(|x| x.is_finite()),
                "non-finite field: {e:?} ({})",
                re.provenance
            );
            prop_assert!(
                (e.tp - (e.t0 + e.t1)).abs() <= 1e-9 * e.tp.abs().max(e.t1),
                "tp identity broken ({}): {e:?}",
                re.provenance
            );
            prop_assert!(
                (e.wn - (e.t1 + e.t2)).abs() <= 1e-9 * e.wn,
                "wn identity broken ({}): {e:?}",
                re.provenance
            );
            prop_assert!(
                (e.m - e.t2 / e.t1).abs() <= 1e-9 * e.m,
                "m identity broken ({}): {e:?}",
                re.provenance
            );
        }
    }

    #[test]
    fn cross_template_estimates_agree_on_order_of_magnitude(
        (t0, t1, m, vp) in params(),
    ) {
        // Feeding PWL moments to metric II (model mismatch) must still give
        // a sane estimate. The analytic extremes of the Vp ratio over
        // 0 < m < ∞ are bounded by √72/4 ≈ 2.12 (m → ∞ limit).
        let tpl = PwlTemplate::new(t0, t1, m, vp);
        let [e1, e2, e3] = tpl.moments();
        let f = OutputMoments::from_raw(e1, e2, e3, 1.0).unwrap();
        let est1 = MetricOne::estimate(&f, m).unwrap();
        let est2 = MetricTwo::default().estimate(&f, m).unwrap();
        let ratio = est2.vp / est1.vp;
        prop_assert!((0.4..2.13).contains(&ratio), "vp ratio {ratio}");
    }
}
