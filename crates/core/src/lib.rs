//! Closed-form crosstalk noise metrics for physical design.
//!
//! This crate implements the contribution of *Chen & Marek-Sadowska,
//! "Closed-Form Crosstalk Noise Metrics for Physical Design Applications"
//! (DATE 2002)*: two metrics that characterize the **complete** coupling
//! noise waveform on a victim net — peak amplitude `Vp`, arrival `T0`,
//! transition times `T1`/`T2`, peak time `Tp` and width `Wn` — using only
//! the five basic operations `+ − × ÷ √` on the first three moments of the
//! output waveform. No exponentials, no iteration: cheap enough for router
//! cost functions and optimization inner loops.
//!
//! # The method
//!
//! The victim output in the Laplace domain is
//! `V_o(s) = (1/s)(f₁s + f₂s² + f₃s³ + …)` with moments obtained from the
//! circuit ([`OutputMoments`], eqs. 11–14: transfer Taylor coefficients ×
//! input signal coefficients). A template waveform is then *moment-matched*
//! to `f₁, f₂, f₃`:
//!
//! * [`MetricOne`] — piecewise-linear (triangular) template, eqs. (30)–(36),
//!   with tight bounds over the shape ratio `m = T2/T1` (eqs. 37–40);
//! * [`MetricTwo`] — linear rise + exponential decay template with shape
//!   factor `λ ≈ 2.7465` (eq. 7), eqs. (48)–(53): the paper's best metric
//!   and a conservative upper bound for `Vp` in all coupling scenarios.
//!
//! The [`baselines`] module implements the prior-art metrics that the
//! paper's evaluation tables compare against (Devgan, Vittal, Yu's one- and
//! two-pole models, lumped-π).
//!
//! # Examples
//!
//! End-to-end analysis with the high-level [`NoiseAnalyzer`]:
//!
//! ```
//! use xtalk_circuit::{signal::InputSignal, NetRole, NetworkBuilder};
//! use xtalk_core::{MetricKind, NoiseAnalyzer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetworkBuilder::new();
//! let v = b.add_net("victim", NetRole::Victim);
//! let a = b.add_net("agg", NetRole::Aggressor);
//! let vn = b.add_node(v, "v0");
//! let an = b.add_node(a, "a0");
//! b.add_driver(v, vn, 500.0)?;
//! b.add_driver(a, an, 500.0)?;
//! b.add_sink(vn, 20e-15)?;
//! b.add_sink(an, 20e-15)?;
//! b.add_coupling_cap(vn, an, 30e-15)?;
//! let network = b.build()?;
//!
//! let analyzer = NoiseAnalyzer::new(&network)?;
//! let noise = analyzer.analyze(a, &InputSignal::rising_ramp(0.0, 100e-12), MetricKind::Two)?;
//! assert!(noise.vp > 0.0 && noise.vp < 1.0);
//! assert!(noise.wn > 0.0);
//! assert!((noise.tp - (noise.t0 + noise.t1)).abs() < 1e-18);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
pub mod baselines;
mod error;
mod estimate;
pub mod memo;
mod metric1;
mod metric2;
mod output;
pub mod receiver;
pub mod resilience;
pub mod superpose;
pub mod template;

pub use analyzer::{MetricKind, NoiseAnalyzer};
pub use error::MetricError;
pub use estimate::{NoiseBounds, NoiseEstimate};
pub use metric1::MetricOne;
pub use metric2::{MetricTwo, LAMBDA};
pub use output::{shape_ratio_m, OutputMoments};
pub use resilience::{
    AggressorOutcome, FallbackPolicy, Provenance, RobustAnalyzer, RobustError, RobustEstimate,
    Rung, RungError, RungFailure, SanityError, VictimAnalysis,
};
