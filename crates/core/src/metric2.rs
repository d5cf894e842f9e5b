use crate::{shape_ratio_m, MetricError, NoiseEstimate, OutputMoments};

/// Default transition-time shape factor `λ = 1.25·(ln 10 − ln 10/9)
/// = 1.25·ln 9 ≈ 2.7465` (paper eq. 7): the conversion between the 10–90%
/// extrapolated transition time and an exponential's time constant.
pub const LAMBDA: f64 = 2.746530721670274; // 1.25 * ln(9)

/// **New noise metric II** (paper §3.4): moment matching against the
/// linear-rise / exponential-decay template.
///
/// With `α = m/λ`, the closed-form solution (eqs. 48–53) is
///
/// ```text
/// T1 = (2α+1) / √(72α⁴ + 72α³ + 24α² + 6α + 1) · T_W
/// Vp = 2·f1 / ((2α+1)·T1)
/// T0 = −f2/f1 − (6α² + 6α + 2)/(6α + 3) · T1
/// Tp = −f2/f1 − (6α² − 1)/(6α + 3) · T1
/// T2 = m·T1      τ₂ = α·T1      Wn = (m+1)·T1
/// ```
///
/// The shape ratio `m` is seeded from the piecewise-linear model via
/// eq. (54). With the default `λ` this metric is the paper's best: a
/// conservative upper bound for the peak amplitude in *all* coupling
/// scenarios (near-end included), tighter than every prior-art bound.
///
/// # Examples
///
/// Matching a linear-exponential pulse's own moments reconstructs it:
///
/// ```
/// use xtalk_core::{template::LinExpTemplate, MetricTwo, OutputMoments, LAMBDA};
///
/// let pulse = LinExpTemplate::new(1e-10, 4e-11, 1.5, LAMBDA, 0.2);
/// let [e1, e2, e3] = pulse.moments();
/// let f = OutputMoments::from_raw(e1, e2, e3, 1.0)?;
/// let est = MetricTwo::default().estimate(&f, 1.5)?;
/// assert!((est.vp - 0.2).abs() < 1e-9);
/// assert!((est.t1 - 4e-11).abs() < 1e-20);
/// # Ok::<(), xtalk_core::MetricError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricTwo {
    lambda: f64,
}

impl Default for MetricTwo {
    /// Metric II with the paper's default `λ` (eq. 7).
    fn default() -> Self {
        MetricTwo { lambda: LAMBDA }
    }
}

impl MetricTwo {
    /// Metric II with a custom `λ` (the paper notes the estimate quality
    /// depends on it; the default gives the absolute `Vp` upper bound).
    ///
    /// # Panics
    ///
    /// Panics unless `lambda` is positive and finite.
    pub fn with_lambda(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive and finite"
        );
        MetricTwo { lambda }
    }

    /// The shape factor in use.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Evaluates eqs. (48)–(53) for a given shape ratio `m`.
    ///
    /// # Errors
    ///
    /// * [`MetricError::BadShapeRatio`] — `m` not positive/finite.
    /// * [`MetricError::NonPhysicalMoments`] — `T_W²` negative beyond
    ///   cancellation distance.
    /// * [`MetricError::DegenerateWidth`] — `T_W` clamped to zero.
    /// * [`MetricError::NonFiniteQuantity`] /
    ///   [`MetricError::DegenerateEstimate`] — `T1` underflowed to zero or
    ///   the quartic `m` polynomial overflowed, which would otherwise emit
    ///   infinite `Vp`/`T1`/`T2`; callers like
    ///   [`crate::RobustAnalyzer`] route these through the fallback chain
    ///   with the failure recorded in the provenance.
    pub fn estimate(&self, f: &OutputMoments, m: f64) -> Result<NoiseEstimate, MetricError> {
        xtalk_obs::counter!("core.metric2.estimates").add(1);
        if !(m.is_finite() && m > 0.0) {
            return Err(MetricError::BadShapeRatio { m });
        }
        let tw = f.t_w()?;
        if tw <= 0.0 {
            return Err(MetricError::DegenerateWidth { t_w: tw });
        }
        let (f1, f2) = (f.f1(), f.f2());
        let a = m / self.lambda;
        let poly = 72.0 * a.powi(4) + 72.0 * a.powi(3) + 24.0 * a * a + 6.0 * a + 1.0;
        let t1 = (2.0 * a + 1.0) / poly.sqrt() * tw;
        let vp = 2.0 * f1 / ((2.0 * a + 1.0) * t1);
        let c = -f2 / f1;
        let t0 = c - (6.0 * a * a + 6.0 * a + 2.0) / (6.0 * a + 3.0) * t1;
        let tp = c - (6.0 * a * a - 1.0) / (6.0 * a + 3.0) * t1;
        let t2 = m * t1;
        NoiseEstimate {
            vp,
            t0,
            t1,
            t2,
            tp,
            wn: (m + 1.0) * t1,
            m,
            polarity: f.polarity(),
        }
        .validated()
    }

    /// Evaluates the metric with `m` from eq. (54) seeded by the input
    /// transition time.
    ///
    /// # Errors
    ///
    /// Propagates [`MetricTwo::estimate`] errors and
    /// [`MetricError::StepInputNeedsExplicitM`] for `t_r ≤ 0`.
    pub fn estimate_auto(&self, f: &OutputMoments, t_r: f64) -> Result<NoiseEstimate, MetricError> {
        let m = shape_ratio_m(f.t_w()?, t_r)?;
        self.estimate(f, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::LinExpTemplate;

    fn moments_of(t: &LinExpTemplate) -> OutputMoments {
        let [e1, e2, e3] = t.moments();
        OutputMoments::from_raw(e1, e2, e3, 1.0).unwrap()
    }

    #[test]
    fn round_trip_reconstructs_template_exactly() {
        for &(t0, t1, m, vp) in &[
            (0.0, 1e-10, 1.0, 0.1),
            (2e-10, 5e-11, 3.0, 0.45),
            (1e-11, 2e-10, 0.3, 0.08),
            (4e-10, 7e-11, 8.0, 0.3),
        ] {
            let tpl = LinExpTemplate::new(t0, t1, m, LAMBDA, vp);
            let est = MetricTwo::default().estimate(&moments_of(&tpl), m).unwrap();
            assert!((est.vp - vp).abs() < 1e-9 * vp, "vp: {} vs {vp}", est.vp);
            assert!((est.t1 - t1).abs() < 1e-9 * t1, "t1: {} vs {t1}", est.t1);
            assert!(
                (est.t0 - t0).abs() < 1e-8 * (t0.abs() + t1),
                "t0: {} vs {t0}",
                est.t0
            );
            assert!((est.t2 - m * t1).abs() < 1e-9 * m * t1);
        }
    }

    #[test]
    fn round_trip_with_custom_lambda() {
        let lambda = 3.5;
        let tpl = LinExpTemplate::new(1e-10, 6e-11, 2.0, lambda, 0.3);
        let est = MetricTwo::with_lambda(lambda)
            .estimate(&moments_of(&tpl), 2.0)
            .unwrap();
        assert!((est.vp - 0.3).abs() < 1e-9 * 0.3);
        assert!((est.t1 - 6e-11).abs() < 1e-20);
    }

    #[test]
    fn tp_is_t0_plus_t1() {
        // eq. 52 must be consistent with eq. 50: Tp − T0 = T1.
        let tpl = LinExpTemplate::new(2e-10, 9e-11, 1.2, LAMBDA, 0.2);
        let f = moments_of(&tpl);
        for &m in &[0.1, 0.7, 1.2, 3.0, 20.0] {
            let est = MetricTwo::default().estimate(&f, m).unwrap();
            assert!(
                (est.tp - (est.t0 + est.t1)).abs() < 1e-9 * est.t1,
                "m = {m}: tp − t0 = {} vs t1 = {}",
                est.tp - est.t0,
                est.t1
            );
        }
    }

    #[test]
    fn area_is_preserved_by_matching() {
        // e1 matching: Vp·T1·(α + 1/2) = f1, i.e. the template area under
        // the linear+exponential pulse equals f1.
        let tpl = LinExpTemplate::new(0.0, 1e-10, 2.0, LAMBDA, 0.25);
        let f = moments_of(&tpl);
        for &m in &[0.2, 1.0, 2.0, 10.0] {
            let est = MetricTwo::default().estimate(&f, m).unwrap();
            let a = m / LAMBDA;
            let area = est.vp * est.t1 * (a + 0.5);
            assert!((area - f.f1()).abs() < 1e-9 * f.f1());
        }
    }

    #[test]
    fn default_lambda_matches_eq_7() {
        let expect = 1.25 * (1.0f64 / 0.1).ln() - 1.25 * (1.0f64 / 0.9).ln();
        assert!((LAMBDA - expect).abs() < 1e-12);
        assert!((LAMBDA - 2.7465).abs() < 1e-4);
        assert_eq!(MetricTwo::default().lambda(), LAMBDA);
    }

    #[test]
    fn bad_shape_ratio_rejected() {
        let tpl = LinExpTemplate::new(0.0, 1e-10, 1.0, LAMBDA, 0.2);
        let f = moments_of(&tpl);
        assert!(matches!(
            MetricTwo::default().estimate(&f, -2.0),
            Err(MetricError::BadShapeRatio { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn zero_lambda_panics() {
        MetricTwo::with_lambda(0.0);
    }

    #[test]
    fn overflowing_shape_ratio_is_a_structured_error_not_inf() {
        // m = 1e300 passes the positivity gate but a⁴ overflows: poly =
        // inf, t1 = 0, vp = inf — the pre-fix escape. The validation gate
        // must return a structured error instead of non-finite metrics.
        let tpl = LinExpTemplate::new(0.0, 1e-10, 1.0, LAMBDA, 0.2);
        let f = moments_of(&tpl);
        let err = MetricTwo::default().estimate(&f, 1e300).unwrap_err();
        assert!(
            matches!(
                err,
                MetricError::NonFiniteQuantity { .. } | MetricError::DegenerateEstimate { .. }
            ),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn zero_width_moments_are_a_structured_degenerate_error() {
        // Cancellation-clamped T_W = 0: vp = 2·f1/((2a+1)·t1) would divide
        // by zero; the guard returns DegenerateWidth first.
        let (area, c) = (2e-11, 3e-10);
        let f3 = area * c * c / 2.0 * (1.0 - 1e-13);
        let f = OutputMoments::from_raw(area, -area * c, f3, 1.0).unwrap();
        assert!(matches!(
            MetricTwo::default().estimate(&f, 1.0),
            Err(MetricError::DegenerateWidth { .. })
        ));
        assert!(matches!(
            MetricTwo::default().estimate_auto(&f, 1e-10),
            Err(MetricError::DegenerateWidth { .. })
        ));
    }
}
