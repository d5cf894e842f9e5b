use crate::{shape_ratio_m, MetricError, NoiseBounds, NoiseEstimate, OutputMoments};

/// **New noise metric I** (paper §3.3): moment matching against the
/// piecewise-linear (triangular) template.
///
/// Given the output moments `f1, f2, f3` and a shape ratio `m = T2/T1`,
/// the closed-form solution (eqs. 30–36) is
///
/// ```text
/// T_W = √(36·f3/f1 − 18·(f2/f1)²)
/// Vp  = √(m²+m+1)/(m+1) · 2·f1/T_W
/// T1  = T_W/√(m²+m+1)            T2 = m·T1
/// T0  = −f2/f1 − (m+2)/(3·√(m²+m+1)) · T_W
/// Tp  = T0 + T1                  Wn = (m+1)·T1
/// ```
///
/// Only `+ − × ÷ √` appear — the defining property of the paper's metrics.
///
/// # Examples
///
/// Matching a triangular pulse's own moments reconstructs it exactly:
///
/// ```
/// use xtalk_core::{template::PwlTemplate, MetricOne, OutputMoments};
///
/// let pulse = PwlTemplate::new(1e-10, 4e-11, 2.0, 0.25);
/// let [e1, e2, e3] = pulse.moments();
/// let f = OutputMoments::from_raw(e1, e2, e3, 1.0)?;
/// let est = MetricOne::estimate(&f, 2.0)?;
/// assert!((est.vp - 0.25).abs() < 1e-9);
/// assert!((est.t1 - 4e-11).abs() < 1e-20);
/// assert!((est.t0 - 1e-10).abs() < 1e-19);
/// # Ok::<(), xtalk_core::MetricError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MetricOne;

impl MetricOne {
    /// Evaluates eqs. (30)–(36) for a given shape ratio `m`.
    ///
    /// # Errors
    ///
    /// * [`MetricError::BadShapeRatio`] — `m` not positive/finite.
    /// * [`MetricError::NonPhysicalMoments`] — `T_W²` negative beyond
    ///   cancellation distance (eq. 34).
    /// * [`MetricError::DegenerateWidth`] — `T_W` clamped to zero
    ///   (cancellation-negative radicand): no template fits a zero-width
    ///   pulse.
    /// * [`MetricError::NonFiniteQuantity`] /
    ///   [`MetricError::DegenerateEstimate`] — the arithmetic overflowed
    ///   or underflowed at an extreme `m`/moment combination.
    pub fn estimate(f: &OutputMoments, m: f64) -> Result<NoiseEstimate, MetricError> {
        xtalk_obs::counter!("core.metric1.estimates").add(1);
        if !(m.is_finite() && m > 0.0) {
            return Err(MetricError::BadShapeRatio { m });
        }
        let tw = f.t_w()?;
        if tw <= 0.0 {
            return Err(MetricError::DegenerateWidth { t_w: tw });
        }
        let (f1, f2) = (f.f1(), f.f2());
        let root = (m * m + m + 1.0).sqrt();
        let vp = root / (m + 1.0) * 2.0 * f1 / tw;
        let t1 = tw / root;
        let t2 = m * t1;
        let t0 = -f2 / f1 - (m + 2.0) / (3.0 * root) * tw;
        NoiseEstimate {
            vp,
            t0,
            t1,
            t2,
            tp: t0 + t1,
            wn: (m + 1.0) * t1,
            m,
            polarity: f.polarity(),
        }
        .validated()
    }

    /// Evaluates the metric with `m` estimated from the input transition
    /// time via eq. (54).
    ///
    /// # Errors
    ///
    /// Propagates [`MetricOne::estimate`] errors and
    /// [`MetricError::StepInputNeedsExplicitM`] for `t_r ≤ 0`.
    pub fn estimate_auto(f: &OutputMoments, t_r: f64) -> Result<NoiseEstimate, MetricError> {
        let m = shape_ratio_m(f.t_w()?, t_r)?;
        Self::estimate(f, m)
    }

    /// The symmetric special case `m = 1` (`T1 = T2`), eqs. (41)–(46).
    ///
    /// # Errors
    ///
    /// Propagates [`MetricOne::estimate`] errors.
    pub fn estimate_symmetric(f: &OutputMoments) -> Result<NoiseEstimate, MetricError> {
        Self::estimate(f, 1.0)
    }

    /// Closed-form bounds over all shape ratios `0 < m < ∞`
    /// (eqs. 37–40).
    ///
    /// # Errors
    ///
    /// Propagates the `T_W` computation errors;
    /// [`MetricError::DegenerateWidth`] when `T_W` clamped to zero;
    /// [`MetricError::NonFiniteQuantity`] when `2·f1/T_W` overflows.
    pub fn bounds(f: &OutputMoments) -> Result<NoiseBounds, MetricError> {
        xtalk_obs::counter!("core.metric1.bounds").add(1);
        let tw = f.t_w()?;
        if tw <= 0.0 {
            return Err(MetricError::DegenerateWidth { t_w: tw });
        }
        let c = -f.f2() / f.f1();
        let base = 2.0 * f.f1() / tw;
        if !base.is_finite() {
            return Err(MetricError::NonFiniteQuantity {
                field: "vp_bound",
                value: base,
            });
        }
        Ok(NoiseBounds {
            vp: (3.0f64.sqrt() / 2.0 * base, base),
            t0: (c - 2.0 / 3.0 * tw, c - 1.0 / 3.0 * tw),
            tp: (c - tw / 3.0, c + tw / 3.0),
            wn: (tw, 2.0 / 3.0f64.sqrt() * tw),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::PwlTemplate;

    fn moments_of(t: &PwlTemplate) -> OutputMoments {
        let [e1, e2, e3] = t.moments();
        OutputMoments::from_raw(e1, e2, e3, 1.0).unwrap()
    }

    #[test]
    fn round_trip_reconstructs_template_exactly() {
        // The key exactness property: matching a triangle's own moments
        // with the correct m returns the triangle.
        for &(t0, t1, m, vp) in &[
            (0.0, 1e-10, 1.0, 0.1),
            (2e-10, 5e-11, 3.0, 0.45),
            (1e-11, 2e-10, 0.2, 0.08),
            (5e-10, 7e-11, 10.0, 0.3),
        ] {
            let tpl = PwlTemplate::new(t0, t1, m, vp);
            let est = MetricOne::estimate(&moments_of(&tpl), m).unwrap();
            assert!((est.vp - vp).abs() < 1e-9 * vp, "vp: {} vs {vp}", est.vp);
            assert!((est.t1 - t1).abs() < 1e-9 * t1, "t1: {} vs {t1}", est.t1);
            assert!(
                (est.t0 - t0).abs() < 1e-9 * (t0.abs() + t1),
                "t0: {} vs {t0}",
                est.t0
            );
            assert!((est.t2 - m * t1).abs() < 1e-9 * m * t1);
            assert!((est.wn - tpl.wn()).abs() < 1e-9 * tpl.wn());
            assert!((est.tp - tpl.tp()).abs() < 1e-9 * tpl.tp().abs().max(t1));
        }
    }

    #[test]
    fn symmetric_case_matches_eqs_41_to_46() {
        let tpl = PwlTemplate::new(3e-10, 1e-10, 1.0, 0.2);
        let f = moments_of(&tpl);
        let est = MetricOne::estimate_symmetric(&f).unwrap();
        let tw = f.t_w().unwrap();
        // eq. 41: Vp = √3 f1 / T_W
        assert!((est.vp - 3.0f64.sqrt() * f.f1() / tw).abs() < 1e-12);
        // eq. 45: Tp = −f2/f1
        assert!((est.tp - f.centroid()).abs() < 1e-20);
        // eq. 46: Wn = 2/√3 · T_W
        assert!((est.wn - 2.0 / 3.0f64.sqrt() * tw).abs() < 1e-20);
    }

    #[test]
    fn invariants_hold_for_any_m() {
        let tpl = PwlTemplate::new(1e-10, 1e-10, 2.0, 0.3);
        let f = moments_of(&tpl);
        for &m in &[0.01, 0.1, 0.5, 1.0, 2.0, 7.0, 100.0] {
            let est = MetricOne::estimate(&f, m).unwrap();
            assert!((est.tp - (est.t0 + est.t1)).abs() < 1e-18);
            assert!((est.wn - (est.t1 + est.t2)).abs() < 1e-18);
            assert!((est.t2 / est.t1 - m).abs() < 1e-9 * m);
            // Area is preserved by moment matching: Vp·Wn/2 = f1.
            assert!((est.area() - f.f1()).abs() < 1e-9 * f.f1());
        }
    }

    #[test]
    fn estimates_stay_within_bounds_for_all_m() {
        let tpl = PwlTemplate::new(2e-10, 8e-11, 1.5, 0.25);
        let f = moments_of(&tpl);
        let bounds = MetricOne::bounds(&f).unwrap();
        for &m in &[1e-3, 0.05, 0.3, 1.0, 4.0, 50.0, 1e3] {
            let est = MetricOne::estimate(&f, m).unwrap();
            assert!(bounds.contains(&est), "m = {m}: {est:?} vs {bounds:?}");
        }
    }

    #[test]
    fn bounds_are_attained_in_the_limits() {
        let tpl = PwlTemplate::new(0.0, 1e-10, 1.0, 0.2);
        let f = moments_of(&tpl);
        let b = MetricOne::bounds(&f).unwrap();
        // m → 0: Vp → upper bound, Wn → lower bound.
        let est0 = MetricOne::estimate(&f, 1e-9).unwrap();
        assert!((est0.vp - b.vp.1).abs() < 1e-6 * b.vp.1);
        assert!((est0.wn - b.wn.0).abs() < 1e-6 * b.wn.0);
        // m → ∞: Vp → upper bound again (the minimum is at m = 1).
        let est_inf = MetricOne::estimate(&f, 1e9).unwrap();
        assert!((est_inf.vp - b.vp.1).abs() < 1e-6 * b.vp.1);
        // m = 1 attains the Vp lower bound and the Wn upper bound.
        let est1 = MetricOne::estimate(&f, 1.0).unwrap();
        assert!((est1.vp - b.vp.0).abs() < 1e-9 * b.vp.0);
        assert!((est1.wn - b.wn.1).abs() < 1e-9 * b.wn.1);
    }

    #[test]
    fn vp_bound_spread_is_about_13_percent() {
        let tpl = PwlTemplate::new(0.0, 1e-10, 1.0, 0.2);
        let f = moments_of(&tpl);
        let b = MetricOne::bounds(&f).unwrap();
        let spread = (b.vp.1 - b.vp.0) / b.vp.1;
        assert!((spread - (1.0 - 3.0f64.sqrt() / 2.0)).abs() < 1e-12);
        assert!(spread < 0.14 && spread > 0.12);
        let wn_spread = (b.wn.1 - b.wn.0) / b.wn.0;
        assert!(wn_spread < 0.16 && wn_spread > 0.15);
    }

    #[test]
    fn bad_shape_ratio_rejected() {
        let tpl = PwlTemplate::new(0.0, 1e-10, 1.0, 0.2);
        let f = moments_of(&tpl);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                MetricOne::estimate(&f, bad),
                Err(MetricError::BadShapeRatio { .. })
            ));
        }
    }

    #[test]
    fn zero_width_moments_are_a_structured_degenerate_error() {
        // Cancellation-clamped T_W = 0 (radicand a hair below zero): the
        // estimate, bounds and auto paths all return DegenerateWidth
        // instead of dividing by zero.
        let (area, c) = (2e-11, 3e-10);
        let f3 = area * c * c / 2.0 * (1.0 - 1e-13);
        let f = OutputMoments::from_raw(area, -area * c, f3, 1.0).unwrap();
        assert_eq!(f.t_w().unwrap(), 0.0);
        assert!(matches!(
            MetricOne::estimate(&f, 1.0),
            Err(MetricError::DegenerateWidth { .. })
        ));
        assert!(matches!(
            MetricOne::bounds(&f),
            Err(MetricError::DegenerateWidth { .. })
        ));
        assert!(matches!(
            MetricOne::estimate_auto(&f, 1e-10),
            Err(MetricError::DegenerateWidth { .. })
        ));
    }

    #[test]
    fn genuinely_negative_radicand_still_rejected_as_non_physical() {
        // The other branch of the discriminant guard: far-negative T_W².
        let f = OutputMoments::from_raw(1e-11, -1e-21, 1e-33, 1.0).unwrap();
        assert!(matches!(
            MetricOne::estimate(&f, 1.0),
            Err(MetricError::NonPhysicalMoments { .. })
        ));
    }

    #[test]
    fn overflowing_arithmetic_is_a_structured_error_not_nan() {
        // m = 1e300 is finite and positive — it passes the shape-ratio
        // gate — but m² overflows: root = inf, t1 = 0, vp = inf. The
        // post-validation gate must catch it.
        let tpl = PwlTemplate::new(0.0, 1e-10, 1.0, 0.2);
        let f = moments_of(&tpl);
        let err = MetricOne::estimate(&f, 1e300).unwrap_err();
        assert!(
            matches!(
                err,
                MetricError::NonFiniteQuantity { .. } | MetricError::DegenerateEstimate { .. }
            ),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn auto_m_uses_eq_54() {
        let tpl = PwlTemplate::new(0.0, 1e-10, 2.0, 0.2);
        let f = moments_of(&tpl);
        let tr = 1.2e-10;
        let est = MetricOne::estimate_auto(&f, tr).unwrap();
        let m_expect = shape_ratio_m(f.t_w().unwrap(), tr).unwrap();
        assert!((est.m - m_expect).abs() < 1e-12);
    }
}
