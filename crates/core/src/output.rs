use crate::MetricError;
use xtalk_circuit::signal::InputSignal;

/// The first three moments `f1, f2, f3` of the victim output waveform
/// `V_o(s) = (1/s)·(f1·s + f2·s² + f3·s³ + …)`, plus the pulse polarity.
///
/// These are the *only* circuit quantities the closed-form metrics
/// consume. They combine the transfer-function Taylor coefficients `h_k`
/// (from `xtalk-moments`) with the input-signal coefficients `g_k`
/// (eq. 9) through the paper's eqs. (11)–(14):
///
/// ```text
/// f1 = h1·g0
/// f2 = h1·g1 + h2·g0
/// f3 = h1·g2 + h2·g1 + h3·g0
/// ```
///
/// Physically (for the rising-equivalent pulse): `f1` is the pulse area,
/// `−f2/f1` its centroid, and `36·f3/f1 − 18·(f2/f1)²` the squared
/// characteristic width `T_W²` of eq. (34) (18× the pulse variance).
///
/// # Examples
///
/// ```
/// use xtalk_circuit::signal::InputSignal;
/// use xtalk_core::OutputMoments;
///
/// // h = [0, a1, -a1*b1, a1*(b1²-b2)] for a1=1e-11, b1=2e-10, b2=5e-21.
/// let h = [0.0, 1e-11, -2e-21, 3.5e-31];
/// let input = InputSignal::rising_ramp(0.0, 1e-10);
/// let f = OutputMoments::from_transfer(&h, &input).unwrap();
/// assert_eq!(f.f1(), 1e-11);
/// assert!(f.t_w().unwrap() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputMoments {
    f1: f64,
    f2: f64,
    f3: f64,
    polarity: f64,
}

/// Moments smaller than this fraction of "any coupling at all" are treated
/// as no noise. `f1` has units V·s; interconnect noise areas live far above
/// 1e-30.
const F1_FLOOR: f64 = 1e-30;

/// Relative tolerance classifying a non-positive `T_W²` radicand as
/// floating-point cancellation (clamped to zero) rather than genuinely
/// non-physical moments (rejected). The radicand's two terms each carry a
/// handful of ulp of rounding error; 1e-12 of their magnitude covers that
/// with two orders of margin.
const CANCELLATION_TOL: f64 = 1e-12;

impl OutputMoments {
    /// Combines transfer-function Taylor coefficients `h = [h0, h1, h2, h3]`
    /// with an input signal (eqs. 11–14). `h0` must be 0 (noise transfer);
    /// the polarity comes from the input shape.
    ///
    /// # Errors
    ///
    /// [`MetricError::NoNoise`] when `h1·g0` vanishes (no coupling).
    pub fn from_transfer(h: &[f64], input: &InputSignal) -> Result<Self, MetricError> {
        assert!(
            h.len() >= 4,
            "need transfer Taylor coefficients up to order 3"
        );
        let g = input.taylor_g();
        let f1 = h[1] * g[0];
        let f2 = h[1] * g[1] + h[2] * g[0];
        let f3 = h[1] * g[2] + h[2] * g[1] + h[3] * g[0];
        Self::from_raw(f1, f2, f3, input.noise_polarity())
    }

    /// Wraps raw moments (e.g. computed by an external tool).
    ///
    /// # Errors
    ///
    /// [`MetricError::NoNoise`] when `f1` is not positive (the
    /// rising-equivalent pulse must have positive area);
    /// [`MetricError::NonFiniteQuantity`] when `f2` or `f3` is NaN or
    /// infinite (corrupt external moments must not propagate).
    pub fn from_raw(f1: f64, f2: f64, f3: f64, polarity: f64) -> Result<Self, MetricError> {
        if !(f1.is_finite() && f1 > F1_FLOOR) {
            return Err(MetricError::NoNoise);
        }
        if !f2.is_finite() {
            return Err(MetricError::NonFiniteQuantity { field: "f2", value: f2 });
        }
        if !f3.is_finite() {
            return Err(MetricError::NonFiniteQuantity { field: "f3", value: f3 });
        }
        Ok(OutputMoments {
            f1,
            f2,
            f3,
            polarity: if polarity < 0.0 { -1.0 } else { 1.0 },
        })
    }

    /// Pulse area `f1` (V·s, normalized supply).
    pub fn f1(&self) -> f64 {
        self.f1
    }

    /// Second moment `f2` (= −area × centroid).
    pub fn f2(&self) -> f64 {
        self.f2
    }

    /// Third moment `f3` (= area × second moment / 2).
    pub fn f3(&self) -> f64 {
        self.f3
    }

    /// Pulse polarity: `+1.0` or `−1.0`.
    pub fn polarity(&self) -> f64 {
        self.polarity
    }

    /// Pulse centroid `−f2/f1` (s).
    pub fn centroid(&self) -> f64 {
        -self.f2 / self.f1
    }

    /// Characteristic pulse width `T_W = √(36·f3/f1 − 18·(f2/f1)²)`
    /// (eq. 34).
    ///
    /// The radicand is a difference of two like-sized positive terms, so
    /// exact moments of a vanishingly narrow pulse can land a few ulp
    /// *below* zero from cancellation alone. Such values are clamped to
    /// zero (returning `T_W = 0`) instead of being rejected; radicands
    /// negative beyond cancellation distance remain a hard error. Callers
    /// that divide by `T_W` must treat zero as degenerate — the metric
    /// entry points return [`MetricError::DegenerateWidth`] for it.
    ///
    /// # Errors
    ///
    /// [`MetricError::NonPhysicalMoments`] when the radicand is negative
    /// beyond floating-point cancellation distance, or not finite.
    pub fn t_w(&self) -> Result<f64, MetricError> {
        let r = self.f2 / self.f1;
        let positive_term = 36.0 * self.f3 / self.f1;
        let negative_term = 18.0 * r * r;
        let tw2 = positive_term - negative_term;
        if tw2 > 0.0 && tw2.is_finite() {
            return Ok(tw2.sqrt());
        }
        // Cancellation guard: each term carries O(eps) relative error, so
        // a radicand within eps-distance of zero (relative to the terms'
        // magnitude) is "zero" — clamp rather than reject.
        let scale = positive_term.abs().max(negative_term);
        if tw2.is_finite() && tw2.abs() <= CANCELLATION_TOL * scale {
            Ok(0.0)
        } else {
            Err(MetricError::NonPhysicalMoments { tw_squared: tw2 })
        }
    }
}

/// Estimates the template shape ratio `m = T2/T1` from the characteristic
/// width and the input transition time (eq. 54):
///
/// ```text
/// m = ( √(4·(T_W/t_r)² − 3) − 1 ) / 2
/// ```
///
/// seeded by `T1 = t_r` in the piecewise-linear model. The estimate is
/// clamped to `[M_MIN, M_MAX] = [1e-3, 1e3]`: very slow inputs push the
/// discriminant negative (the template degenerates to `T2 → 0`) and ideal
/// steps push `m → ∞`; both ends remain well inside the metric formulas'
/// valid range `0 < m < ∞`.
///
/// # Errors
///
/// [`MetricError::StepInputNeedsExplicitM`] when `t_r ≤ 0`.
///
/// # Examples
///
/// ```
/// use xtalk_core::shape_ratio_m;
///
/// // T_W = 2·t_r → m = (√13 − 1)/2 ≈ 1.3028.
/// let m = shape_ratio_m(2e-10, 1e-10).unwrap();
/// assert!((m - 1.302775637731995).abs() < 1e-12);
/// ```
pub fn shape_ratio_m(t_w: f64, t_r: f64) -> Result<f64, MetricError> {
    const M_MIN: f64 = 1e-3;
    const M_MAX: f64 = 1e3;
    if !(t_r.is_finite() && t_r > 0.0) {
        return Err(MetricError::StepInputNeedsExplicitM);
    }
    let ratio = t_w / t_r;
    let disc = 4.0 * ratio * ratio - 3.0;
    let m = if !disc.is_finite() {
        // ratio² overflowed (huge T_W against a denormal t_r): the
        // step-like end of the range, same as any ratio past the cap.
        M_MAX
    } else if disc <= 1.0 {
        // T_W ≤ t_r: the PWL seed gives m ≤ 0; degenerate to a sharp fall.
        M_MIN
    } else {
        ((disc.sqrt() - 1.0) / 2.0).clamp(M_MIN, M_MAX)
    };
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_combine_h_and_g_per_eqs_15_to_18() {
        // Rising ramp at t0=0: the paper's simplified eqs. (15)-(18).
        let (a1, b1, b2, tr) = (1e-11, 2e-10, 6e-21, 1e-10);
        let h = [0.0, a1, -a1 * b1, a1 * (b1 * b1 - b2)];
        let f = OutputMoments::from_transfer(&h, &InputSignal::rising_ramp(0.0, tr)).unwrap();
        assert_eq!(f.f1(), a1);
        let f2_expect = -a1 * (b1 + tr / 2.0);
        assert!((f.f2() - f2_expect).abs() < 1e-12 * f2_expect.abs());
        let f3_expect = a1 * (b1 * b1 - b2 + b1 * tr / 2.0 + tr * tr / 6.0);
        assert!((f.f3() - f3_expect).abs() < 1e-12 * f3_expect.abs());
        assert_eq!(f.polarity(), 1.0);
    }

    #[test]
    fn falling_input_flips_polarity_only() {
        let h = [0.0, 1e-11, -2e-21, 3.5e-31];
        let rise = OutputMoments::from_transfer(&h, &InputSignal::rising_ramp(0.0, 1e-10)).unwrap();
        let fall =
            OutputMoments::from_transfer(&h, &InputSignal::falling_ramp(0.0, 1e-10)).unwrap();
        assert_eq!(rise.f1(), fall.f1());
        assert_eq!(rise.f2(), fall.f2());
        assert_eq!(fall.polarity(), -1.0);
    }

    #[test]
    fn zero_coupling_is_no_noise() {
        let h = [0.0, 0.0, 0.0, 0.0];
        assert!(matches!(
            OutputMoments::from_transfer(&h, &InputSignal::rising_ramp(0.0, 1e-10)),
            Err(MetricError::NoNoise)
        ));
    }

    #[test]
    fn t_w_is_sqrt18_times_pulse_sigma() {
        // Construct moments of a known pulse: area A, centroid c, variance v:
        // f1 = A, f2 = -A c, f3 = A(v + c²)/2.
        let (area, c, var) = (2e-11, 3e-10, 4e-20);
        let f = OutputMoments::from_raw(area, -area * c, area * (var + c * c) / 2.0, 1.0).unwrap();
        assert!((f.centroid() - c).abs() < 1e-20);
        let tw = f.t_w().unwrap();
        assert!((tw - (18.0 * var).sqrt()).abs() < 1e-12 * tw);
    }

    #[test]
    fn non_physical_moments_rejected() {
        // Variance would be negative — far beyond cancellation distance.
        let f = OutputMoments::from_raw(1e-11, -1e-21, 1e-33, 1.0).unwrap();
        assert!(matches!(
            f.t_w(),
            Err(MetricError::NonPhysicalMoments { .. })
        ));
    }

    #[test]
    fn cancellation_negative_radicand_clamps_to_zero_width() {
        // A zero-variance pulse: f3 = f1·c²/2 exactly, so the radicand is
        // 36·c²/2 − 18·c² = 0 analytically. Perturb f3 down by one part in
        // 1e13 — well above rounding noise, still inside the cancellation
        // tolerance — and the radicand lands a hair below zero. That must
        // clamp, not reject.
        let (area, c) = (2e-11, 3e-10);
        let f3 = area * c * c / 2.0 * (1.0 - 1e-13);
        let f = OutputMoments::from_raw(area, -area * c, f3, 1.0).unwrap();
        assert_eq!(f.t_w().unwrap(), 0.0);
        // One part in 1e6 is genuinely negative: rejected.
        let f3 = area * c * c / 2.0 * (1.0 - 1e-6);
        let f = OutputMoments::from_raw(area, -area * c, f3, 1.0).unwrap();
        assert!(matches!(
            f.t_w(),
            Err(MetricError::NonPhysicalMoments { .. })
        ));
    }

    #[test]
    fn non_finite_higher_moments_rejected_up_front() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                OutputMoments::from_raw(1e-11, bad, 1e-31, 1.0),
                Err(MetricError::NonFiniteQuantity { field: "f2", .. })
            ));
            assert!(matches!(
                OutputMoments::from_raw(1e-11, -1e-21, bad, 1.0),
                Err(MetricError::NonFiniteQuantity { field: "f3", .. })
            ));
        }
    }

    #[test]
    fn shape_ratio_overflow_clamps_to_cap() {
        // T_W/t_r overflows f64 when squared: eq. (54) degenerates to the
        // step-like cap instead of propagating an infinite discriminant.
        let m = shape_ratio_m(1e200, 1e-200).unwrap();
        assert_eq!(m, 1e3);
    }

    #[test]
    fn shape_ratio_special_values() {
        // T_W = t_r → disc = 1 → clamped to the floor.
        assert!((shape_ratio_m(1e-10, 1e-10).unwrap() - 1e-3).abs() < 1e-15);
        // T_W = √3·t_r → m = 1 (the symmetric special case, eqs. 41-46).
        let m = shape_ratio_m(3.0f64.sqrt() * 1e-10, 1e-10).unwrap();
        assert!((m - 1.0).abs() < 1e-9);
        // Steps need explicit m.
        assert!(matches!(
            shape_ratio_m(1e-10, 0.0),
            Err(MetricError::StepInputNeedsExplicitM)
        ));
        // Huge ratio clamps at the cap.
        assert_eq!(shape_ratio_m(1.0, 1e-12).unwrap(), 1e3);
    }
}
