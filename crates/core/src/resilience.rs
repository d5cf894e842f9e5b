//! Degraded-mode analysis: a policy-driven fallback chain with provenance.
//!
//! The closed-form metrics are exact *given physical moments*, but real
//! flows feed them parasitics from extractors, SPICE decks and reduction
//! heuristics that are occasionally degenerate: truncated moment series,
//! non-causal centroids, step inputs that cannot seed eq. (54), coupling
//! so extreme the template peak exceeds the supply. A screening flow must
//! not abort on the one pathological net out of a million — it must
//! degrade to a cruder but well-defined answer and *say so*.
//!
//! [`RobustAnalyzer`] wraps [`NoiseAnalyzer`] with a four-rung fallback
//! chain, ordered by fidelity:
//!
//! 1. [`Rung::MetricTwo`] — Metric II with `m` strictly seeded from the
//!    input transition time via eq. (54) (the paper's recommended metric).
//! 2. [`Rung::MetricOneSymmetric`] — Metric I's symmetric `m = 1` special
//!    case (eqs. 41–46); needs no transition time, so it covers ideal
//!    steps.
//! 3. [`Rung::Bounds`] — the conservative envelope of the closed-form
//!    `m → 0` / `m → ∞` parameter bounds (eqs. 37–40): highest peak,
//!    widest pulse, latest peak time. Covers moments whose *point*
//!    estimates fail sanity checks while the envelope is still causal.
//! 4. [`Rung::LumpedPi`] — the location-blind lumped-π baseline. The only
//!    rung that does not depend on the output moments at all, so it
//!    survives [`MetricError::NonPhysicalMoments`].
//!
//! Every estimate that clears a rung is sanity-checked (all fields
//! finite, transition times positive, causal peak, `Vp ∈ [0, 1]`); a rung
//! whose output fails the checks counts as failed and the chain descends.
//! The returned [`RobustEstimate`] carries a [`Provenance`] record: the
//! rung that produced it, every rung that failed and why, and whether the
//! peak was clamped. [`FallbackPolicy::strict`] turns any degradation
//! into a structured error instead.
//!
//! # Examples
//!
//! ```
//! use xtalk_circuit::{signal::InputSignal, NetRole, NetworkBuilder, units::*};
//! use xtalk_core::{RobustAnalyzer, Rung};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetworkBuilder::new();
//! let vic = b.add_net("victim", NetRole::Victim);
//! let agg = b.add_net("agg", NetRole::Aggressor);
//! let v0 = b.add_node(vic, "v0");
//! let v1 = b.add_node(vic, "v1");
//! b.add_driver(vic, v0, 150.0 * OHM)?;
//! b.add_resistor(v0, v1, 60.0 * OHM)?;
//! b.add_ground_cap(v1, ff(25.0))?;
//! b.add_sink(v1, ff(15.0))?;
//! let a0 = b.add_node(agg, "a0");
//! b.add_driver(agg, a0, 100.0 * OHM)?;
//! b.add_sink(a0, ff(15.0))?;
//! b.add_coupling_cap(a0, v1, ff(40.0))?;
//! let network = b.build()?;
//!
//! let analyzer = RobustAnalyzer::new(&network)?;
//! let result = analyzer.analyze(agg, &InputSignal::rising_ramp(0.0, 1e-10))?;
//! assert_eq!(result.provenance.rung(), Rung::MetricTwo);
//! assert!(!result.provenance.degraded());
//! assert!(result.estimate.vp > 0.0 && result.estimate.vp <= 1.0);
//! # Ok(())
//! # }
//! ```

use crate::baselines::lumped_pi;
use crate::superpose::{worst_case, CombinedNoise, TimingWindow};
use crate::{MetricError, MetricOne, MetricTwo, NoiseAnalyzer, NoiseBounds, NoiseEstimate, OutputMoments};
use std::error::Error;
use std::fmt;
use xtalk_circuit::{signal::InputSignal, NetId, Network, NodeId, Severity, ValidationReport};

/// One rung of the fallback chain, in descending fidelity order
/// (`MetricTwo` is the best, `LumpedPi` the crudest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// Metric II (eqs. 48–53) with `m` seeded from eq. (54).
    MetricTwo,
    /// Metric I, symmetric `m = 1` special case (eqs. 41–46).
    MetricOneSymmetric,
    /// Conservative envelope of the parameter bounds (eqs. 37–40).
    Bounds,
    /// Lumped-π baseline (moment-free, location-blind).
    LumpedPi,
}

impl Rung {
    /// The full chain, best fidelity first.
    pub const CHAIN: [Rung; 4] = [
        Rung::MetricTwo,
        Rung::MetricOneSymmetric,
        Rung::Bounds,
        Rung::LumpedPi,
    ];

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Rung::MetricTwo => "metric II",
            Rung::MetricOneSymmetric => "metric I (m = 1)",
            Rung::Bounds => "parameter bounds envelope",
            Rung::LumpedPi => "lumped-pi baseline",
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A post-hoc sanity check an estimate failed.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SanityError {
    /// A waveform field is NaN or infinite.
    NonFinite {
        /// Field name (`"vp"`, `"t0"`, …).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A transition time (`t1` or `t2`) is not positive.
    NonPositiveTransition {
        /// Field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The peak occurs before the aggressor input even switches.
    NonCausalPeak {
        /// Estimated peak time.
        tp: f64,
        /// Aggressor input arrival time.
        arrival: f64,
    },
    /// The peak amplitude lies outside `[0, 1]` (× `Vdd`).
    PeakOutOfRange {
        /// The offending peak.
        vp: f64,
    },
}

impl fmt::Display for SanityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SanityError::NonFinite { field, value } => {
                write!(f, "{field} = {value} is not finite")
            }
            SanityError::NonPositiveTransition { field, value } => {
                write!(f, "transition time {field} = {value} is not positive")
            }
            SanityError::NonCausalPeak { tp, arrival } => {
                write!(f, "peak at {tp} s precedes the input arrival {arrival} s")
            }
            SanityError::PeakOutOfRange { vp } => {
                write!(f, "peak vp = {vp} outside [0, 1] x Vdd")
            }
        }
    }
}

/// Why a specific rung failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RungError {
    /// The metric computation itself returned an error.
    Metric(MetricError),
    /// The metric produced an estimate that failed a sanity check.
    Sanity(SanityError),
}

impl fmt::Display for RungError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RungError::Metric(e) => write!(f, "{e}"),
            RungError::Sanity(e) => write!(f, "sanity check failed: {e}"),
        }
    }
}

/// One failed rung of the chain: which rung, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct RungFailure {
    /// The rung that failed.
    pub rung: Rung,
    /// Why it failed.
    pub error: RungError,
}

impl fmt::Display for RungFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.rung, self.error)
    }
}

/// How the chain degrades. The default policy walks all four rungs and
/// clamps out-of-range peaks; [`FallbackPolicy::strict`] refuses any
/// degradation.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackPolicy {
    /// Fail on the first rung failure instead of descending the chain.
    /// Also rejects networks whose validation report carries *warnings*
    /// (errors always reject).
    pub strict: bool,
    /// Accept an otherwise-sane estimate whose peak exceeds the supply by
    /// clamping `vp` into `[0, 1]` (recorded in the provenance). When
    /// `false`, such estimates fail [`SanityError::PeakOutOfRange`].
    pub clamp_vp: bool,
    /// Clamp a noise arrival `t0` that precedes both the input arrival
    /// and `t = 0` up to that floor, re-deriving `t1`/`t2` so the
    /// identities `tp = t0 + t1` and `wn = t1 + t2` (and the physical
    /// `tp`, `wn` themselves) are preserved. Every clamp is recorded in
    /// [`Provenance::timing_clamps`]. A slightly early `t0` is a template
    /// artifact the paper accepts — clamping keeps downstream consumers
    /// (timing windows, report tables) free of negative times without
    /// changing the peak or width.
    pub clamp_timing: bool,
    /// The lowest-fidelity rung the chain may descend to.
    pub floor: Rung,
}

impl Default for FallbackPolicy {
    fn default() -> Self {
        FallbackPolicy {
            strict: false,
            clamp_vp: true,
            clamp_timing: true,
            floor: Rung::LumpedPi,
        }
    }
}

impl FallbackPolicy {
    /// Full-fidelity-or-error: the first failure (including a validation
    /// warning or a would-be clamp) is returned as a structured error.
    pub fn strict() -> Self {
        FallbackPolicy {
            strict: true,
            clamp_vp: false,
            clamp_timing: false,
            floor: Rung::MetricTwo,
        }
    }

    /// [`FallbackPolicy::strict`] when `strict`, else the default — the
    /// policy behind every front end's strict switch.
    pub fn for_strict(strict: bool) -> Self {
        if strict {
            FallbackPolicy::strict()
        } else {
            FallbackPolicy::default()
        }
    }
}

/// Where an estimate came from: the rung that produced it, every rung
/// that failed before it (and why), and post-hoc adjustments.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    rung: Rung,
    failures: Vec<RungFailure>,
    clamped: bool,
    timing_clamps: Vec<&'static str>,
    validation_warnings: usize,
}

impl Provenance {
    /// The rung that produced the estimate.
    pub fn rung(&self) -> Rung {
        self.rung
    }

    /// The rungs that failed before one succeeded, in chain order.
    pub fn failures(&self) -> &[RungFailure] {
        &self.failures
    }

    /// `true` when the peak was clamped into `[0, 1]`.
    pub fn clamped(&self) -> bool {
        self.clamped
    }

    /// Names of the timing quantities adjusted by the post-hoc timing
    /// clamp (see [`FallbackPolicy::clamp_timing`]), in the order they
    /// were applied; empty when nothing was clamped. Like validation
    /// warnings, timing clamps alone do not count as degradation — a
    /// slightly early template `t0` is routine.
    pub fn timing_clamps(&self) -> &[&'static str] {
        &self.timing_clamps
    }

    /// Number of validation *warnings* on the analyzed network (errors
    /// reject the network outright at construction).
    pub fn validation_warnings(&self) -> usize {
        self.validation_warnings
    }

    /// `true` when the estimate did not come from the full-fidelity path:
    /// a rung below [`Rung::MetricTwo`] produced it, or the peak was
    /// clamped. Validation warnings alone do not count as degradation.
    pub fn degraded(&self) -> bool {
        self.rung != Rung::MetricTwo || self.clamped || !self.failures.is_empty()
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.degraded() {
            write!(f, "{} (full fidelity)", self.rung)?;
        } else {
            write!(f, "degraded to {}", self.rung)?;
            if self.clamped {
                write!(f, " (vp clamped to 1)")?;
            }
            for failure in &self.failures {
                write!(f, "; {failure}")?;
            }
        }
        if !self.timing_clamps.is_empty() {
            write!(f, "; timing clamped: {}", self.timing_clamps.join(", "))?;
        }
        if self.validation_warnings > 0 {
            write!(f, "; {} validation warning(s)", self.validation_warnings)?;
        }
        Ok(())
    }
}

/// A noise estimate plus the [`Provenance`] that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustEstimate {
    /// The waveform estimate (possibly from a fallback rung).
    pub estimate: NoiseEstimate,
    /// Which rung produced it and what failed along the way.
    pub provenance: Provenance,
}

/// Structured failure of the degraded-mode pipeline: either the inputs
/// were rejected up front, or every permitted rung failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RobustError {
    /// `Network::validate` found errors (or, under a strict policy,
    /// warnings). The report lists every finding.
    InvalidNetwork(ValidationReport),
    /// The underlying moment engine could not be constructed.
    Engine(MetricError),
    /// Strict policy: the first rung failed and degradation is forbidden.
    StrictDegradation(RungFailure),
    /// Every rung down to the policy floor failed.
    Exhausted(Vec<RungFailure>),
}

impl RobustError {
    /// True when the analysis failed *only* because the configuration
    /// produces no noise at all (every involved rung reported
    /// [`MetricError::NoNoise`]) — e.g. a victim with no switching
    /// aggressor. Callers screening many aggressors treat this as a
    /// legitimate zero-noise contribution rather than a failure.
    #[must_use]
    pub fn is_no_noise(&self) -> bool {
        let no_noise =
            |f: &RungFailure| matches!(f.error, RungError::Metric(MetricError::NoNoise));
        match self {
            RobustError::Engine(MetricError::NoNoise) => true,
            RobustError::StrictDegradation(f) => no_noise(f),
            RobustError::Exhausted(fails) => !fails.is_empty() && fails.iter().all(no_noise),
            _ => false,
        }
    }
}

impl fmt::Display for RobustError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RobustError::InvalidNetwork(report) => {
                write!(f, "network failed validation:\n{report}")
            }
            RobustError::Engine(e) => write!(f, "moment engine construction failed: {e}"),
            RobustError::StrictDegradation(failure) => {
                write!(f, "strict policy forbids degradation: {failure}")
            }
            RobustError::Exhausted(failures) => {
                write!(f, "every fallback rung failed:")?;
                for failure in failures {
                    write!(f, " [{failure}]")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for RobustError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RobustError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MetricError> for RobustError {
    fn from(e: MetricError) -> Self {
        RobustError::Engine(e)
    }
}

/// What one aggressor of [`RobustAnalyzer::analyze_all`] resolved to.
#[derive(Debug, Clone, PartialEq)]
pub enum AggressorOutcome {
    /// A provenance-tagged estimate.
    Estimate(RobustEstimate),
    /// The aggressor induces no noise at the victim output — a legitimate
    /// zero contribution, not a failure.
    NoCoupling,
    /// Every permitted rung failed (or a strict policy refused to
    /// degrade).
    Failed(RobustError),
}

/// One victim's analysis: a row per aggressor, in the order asked, plus
/// the combined view over its estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimAnalysis {
    /// `(aggressor, outcome)` rows.
    pub rows: Vec<(NetId, AggressorOutcome)>,
}

impl VictimAnalysis {
    /// The estimates, in row order.
    pub fn estimates(&self) -> impl Iterator<Item = &RobustEstimate> {
        self.rows.iter().filter_map(|(_, outcome)| match outcome {
            AggressorOutcome::Estimate(e) => Some(e),
            _ => None,
        })
    }

    /// The first failed row: its index and why it failed.
    pub fn first_failure(&self) -> Option<(usize, &RobustError)> {
        self.rows
            .iter()
            .enumerate()
            .find_map(|(i, (_, outcome))| match outcome {
                AggressorOutcome::Failed(e) => Some((i, e)),
                _ => None,
            })
    }

    /// Worst-case superposition ([`worst_case`]) of every estimate with a
    /// pinned timing window; `None` when no row has an estimate.
    pub fn worst_case(&self) -> Option<CombinedNoise> {
        let contributions: Vec<_> = self
            .estimates()
            .map(|e| (e.estimate, TimingWindow::pinned()))
            .collect();
        (!contributions.is_empty()).then(|| worst_case(&contributions))
    }

    /// The lowest-fidelity rung any estimate came from.
    pub fn worst_rung(&self) -> Option<Rung> {
        self.estimates().map(|e| e.provenance.rung()).max()
    }

    /// True when any estimate degraded or any row failed.
    pub fn degraded(&self) -> bool {
        self.first_failure().is_some() || self.estimates().any(|e| e.provenance.degraded())
    }
}

/// [`NoiseAnalyzer`] wrapped in validation gating and the fallback chain.
///
/// Construction runs [`Network::validate`] and rejects networks with
/// error-severity findings; every analysis walks the rung chain under the
/// configured [`FallbackPolicy`] and returns a provenance-tagged
/// [`RobustEstimate`] or a structured [`RobustError`] — never a panic.
#[derive(Debug)]
pub struct RobustAnalyzer<'a> {
    inner: NoiseAnalyzer<'a>,
    policy: FallbackPolicy,
    validation: ValidationReport,
}

impl<'a> RobustAnalyzer<'a> {
    /// Builds the analyzer with the default (fully degrading) policy.
    ///
    /// # Errors
    ///
    /// [`RobustError::InvalidNetwork`] when validation finds errors;
    /// [`RobustError::Engine`] when the moment engine cannot be built.
    pub fn new(network: &'a Network) -> Result<Self, RobustError> {
        Self::with_policy(network, FallbackPolicy::default())
    }

    /// Builds the analyzer with an explicit policy.
    ///
    /// # Errors
    ///
    /// As [`RobustAnalyzer::new`]; under [`FallbackPolicy::strict`],
    /// warning-severity findings also reject the network.
    pub fn with_policy(network: &'a Network, policy: FallbackPolicy) -> Result<Self, RobustError> {
        let validation = network.validate();
        let rejected = validation.has_errors() || (policy.strict && !validation.is_clean());
        if rejected {
            return Err(RobustError::InvalidNetwork(validation));
        }
        let inner = NoiseAnalyzer::new(network).map_err(RobustError::Engine)?;
        Ok(RobustAnalyzer {
            inner,
            policy,
            validation,
        })
    }

    /// The wrapped full-fidelity analyzer.
    pub fn inner(&self) -> &NoiseAnalyzer<'a> {
        &self.inner
    }

    /// The active policy.
    pub fn policy(&self) -> &FallbackPolicy {
        &self.policy
    }

    /// The construction-time validation report (warnings only — errors
    /// would have rejected the network).
    pub fn validation(&self) -> &ValidationReport {
        &self.validation
    }

    /// Provenance-tagged estimate for one aggressor at the victim output.
    ///
    /// # Errors
    ///
    /// [`RobustError::Exhausted`] when every permitted rung fails,
    /// [`RobustError::StrictDegradation`] under a strict policy.
    pub fn analyze(
        &self,
        aggressor: NetId,
        input: &InputSignal,
    ) -> Result<RobustEstimate, RobustError> {
        self.analyze_at(aggressor, input, self.inner.network().victim_output())
    }

    /// Like [`RobustAnalyzer::analyze`], observed at an arbitrary victim
    /// node.
    ///
    /// # Errors
    ///
    /// As [`RobustAnalyzer::analyze`].
    pub fn analyze_at(
        &self,
        aggressor: NetId,
        input: &InputSignal,
        node: NodeId,
    ) -> Result<RobustEstimate, RobustError> {
        let moments = self.inner.output_moments_at(aggressor, input, node);
        self.chain(moments, aggressor, input)
    }

    /// The per-victim analysis every front end shares: each aggressor in
    /// `aggressors` switches alone with `input`, in order, and lands in
    /// one row — an estimate, no coupling (the failure
    /// [`RobustError::is_no_noise`]), or failed. Failures are collected
    /// rather than aborting the victim, except under a strict policy,
    /// where the first failed row ends the list: strict refuses the
    /// victim as a whole, so later rows could not change the answer.
    pub fn analyze_all(&self, aggressors: &[NetId], input: &InputSignal) -> VictimAnalysis {
        let mut rows = Vec::with_capacity(aggressors.len());
        for &aggressor in aggressors {
            let outcome = match self.analyze(aggressor, input) {
                Ok(estimate) => AggressorOutcome::Estimate(estimate),
                Err(e) if e.is_no_noise() => AggressorOutcome::NoCoupling,
                Err(e) => AggressorOutcome::Failed(e),
            };
            let stop = self.policy.strict && matches!(outcome, AggressorOutcome::Failed(_));
            rows.push((aggressor, outcome));
            if stop {
                break;
            }
        }
        VictimAnalysis { rows }
    }

    /// Walks the rung chain over precomputed output moments.
    fn chain(
        &self,
        moments: Result<OutputMoments, MetricError>,
        aggressor: NetId,
        input: &InputSignal,
    ) -> Result<RobustEstimate, RobustError> {
        let mut failures = Vec::new();
        for rung in Rung::CHAIN {
            if rung > self.policy.floor {
                break;
            }
            let attempt = self.try_rung(rung, &moments, aggressor, input);
            match attempt {
                Ok(mut estimate) => match sanity_check(&estimate, input) {
                    Ok(()) => {
                        return Ok(self.accept(estimate, rung, failures, false, input));
                    }
                    // The range check runs last, so an out-of-range peak
                    // means everything else about the estimate is sane.
                    Err(SanityError::PeakOutOfRange { .. })
                        if self.policy.clamp_vp && !self.policy.strict =>
                    {
                        estimate.vp = estimate.vp.clamp(0.0, 1.0);
                        return Ok(self.accept(estimate, rung, failures, true, input));
                    }
                    Err(sanity) => failures.push(RungFailure {
                        rung,
                        error: RungError::Sanity(sanity),
                    }),
                },
                Err(e) => failures.push(RungFailure {
                    rung,
                    error: RungError::Metric(e),
                }),
            }
            if self.policy.strict {
                let first = failures.remove(0);
                xtalk_obs::counter!("resilience.strict_refusals").add(1);
                return Err(RobustError::StrictDegradation(first));
            }
        }
        xtalk_obs::counter!("resilience.exhausted").add(1);
        Err(RobustError::Exhausted(failures))
    }

    fn accept(
        &self,
        mut estimate: NoiseEstimate,
        rung: Rung,
        failures: Vec<RungFailure>,
        clamped: bool,
        input: &InputSignal,
    ) -> RobustEstimate {
        let timing_clamps = if self.policy.clamp_timing {
            clamp_timing(&mut estimate, input.arrival().min(0.0))
        } else {
            Vec::new()
        };
        // Which rung answered, and what was adjusted on the way out — the
        // degradation-rate telemetry the CI health gate watches
        // (`resilience.rung.lumped` must stay 0 on healthy fixtures).
        match rung {
            Rung::MetricTwo => xtalk_obs::counter!("resilience.rung.metric2").add(1),
            Rung::MetricOneSymmetric => {
                xtalk_obs::counter!("resilience.rung.metric1_m1").add(1);
            }
            Rung::Bounds => xtalk_obs::counter!("resilience.rung.bounds").add(1),
            Rung::LumpedPi => xtalk_obs::counter!("resilience.rung.lumped").add(1),
        }
        if clamped {
            xtalk_obs::counter!("resilience.vp_clamps").add(1);
        }
        if !timing_clamps.is_empty() {
            xtalk_obs::counter!("resilience.timing_clamps").add(1);
        }
        RobustEstimate {
            estimate,
            provenance: Provenance {
                rung,
                failures,
                clamped,
                timing_clamps,
                validation_warnings: self
                    .validation
                    .with_severity(Severity::Warning)
                    .count(),
            },
        }
    }

    fn try_rung(
        &self,
        rung: Rung,
        moments: &Result<OutputMoments, MetricError>,
        aggressor: NetId,
        input: &InputSignal,
    ) -> Result<NoiseEstimate, MetricError> {
        match rung {
            Rung::MetricTwo => {
                let f = moments.clone()?;
                // Strictly seed m from eq. (54): ideal steps fail here
                // (StepInputNeedsExplicitM) and degrade to the symmetric
                // rung, which needs no transition time.
                MetricTwo::default().estimate_auto(&f, input.effective_rise_time())
            }
            Rung::MetricOneSymmetric => MetricOne::estimate_symmetric(&moments.clone()?),
            Rung::Bounds => {
                let f = moments.clone()?;
                let bounds = MetricOne::bounds(&f)?;
                Ok(envelope_estimate(&bounds, f.polarity()))
            }
            Rung::LumpedPi => {
                let unstable = MetricError::BaselineUnstable {
                    baseline: "lumped-pi",
                };
                let base = lumped_pi(self.inner.network(), aggressor, input)?;
                let vp = base.vp.ok_or(unstable.clone())?;
                let tp = base.tp.ok_or(unstable.clone())?;
                let t1 = tp - input.arrival();
                if !(t1.is_finite() && t1 > 0.0) {
                    return Err(unstable);
                }
                // The baseline captures only (Vp, Tp); fill in a symmetric
                // triangle peaking at Tp so downstream consumers get a
                // complete waveform.
                Ok(NoiseEstimate {
                    vp,
                    t0: input.arrival(),
                    t1,
                    t2: t1,
                    tp,
                    wn: 2.0 * t1,
                    m: 1.0,
                    polarity: input.noise_polarity(),
                })
            }
        }
    }
}

/// The conservative corner of the closed-form bounds (eqs. 37–40):
/// highest peak, widest pulse, latest peak time, symmetric flanks. The
/// invariants `tp = t0 + t1` and `wn = t1 + t2` are kept by deriving `t0`
/// from the chosen `tp` and `t1`.
fn envelope_estimate(bounds: &NoiseBounds, polarity: f64) -> NoiseEstimate {
    let wn = bounds.wn.1;
    let t1 = wn / 2.0;
    let tp = bounds.tp.1;
    NoiseEstimate {
        vp: bounds.vp.1,
        t0: tp - t1,
        t1,
        t2: t1,
        tp,
        wn,
        m: 1.0,
        polarity,
    }
}

/// Clamps a noise arrival that precedes `floor` (`min(arrival, 0)`) up to
/// it, recording which fields changed. The physical quantities — peak
/// time `tp` and width `wn` — are preserved to within one rounding step;
/// `t1` and `t2` are re-derived (`t1' = tp − floor`, `t2' = wn − t1'`) and
/// `tp`/`wn` recomputed from the parts so `tp = t0 + t1` and
/// `wn = t1 + t2` hold *exactly* post-clamp. Since `t0 < floor ≤ tp`
/// implies `0 < t1' < t1` and `t2' > t2 > 0`, the adjusted transition
/// times stay positive; the one unclampable corner (`tp` exactly at the
/// floor, which would need `t1' = 0`) is left untouched.
fn clamp_timing(e: &mut NoiseEstimate, floor: f64) -> Vec<&'static str> {
    let mut clamps = Vec::new();
    if e.t0 < floor {
        let t1 = e.tp - floor;
        if t1 > 0.0 {
            e.t0 = floor;
            e.t1 = t1;
            e.t2 = e.wn - t1;
            e.tp = floor + t1;
            e.wn = t1 + e.t2;
            e.m = e.t2 / e.t1;
            clamps.push("t0");
            clamps.push("t1");
            clamps.push("t2");
        }
    }
    clamps
}

/// Post-hoc checks, ordered so the recoverable failure (peak out of
/// range) is reported only when everything else passed.
fn sanity_check(e: &NoiseEstimate, input: &InputSignal) -> Result<(), SanityError> {
    for (field, value) in [
        ("vp", e.vp),
        ("t0", e.t0),
        ("t1", e.t1),
        ("t2", e.t2),
        ("tp", e.tp),
        ("wn", e.wn),
        ("m", e.m),
        ("polarity", e.polarity),
    ] {
        if !value.is_finite() {
            return Err(SanityError::NonFinite { field, value });
        }
    }
    for (field, value) in [("t1", e.t1), ("t2", e.t2)] {
        if value <= 0.0 {
            return Err(SanityError::NonPositiveTransition { field, value });
        }
    }
    // t0 may legitimately sit slightly before the arrival (a template
    // artifact the paper accepts), but a *peak* before the input switches
    // is non-causal.
    if e.tp < input.arrival() {
        return Err(SanityError::NonCausalPeak {
            tp: e.tp,
            arrival: input.arrival(),
        });
    }
    if !(0.0..=1.0).contains(&e.vp) {
        return Err(SanityError::PeakOutOfRange { vp: e.vp });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_circuit::{NetRole, NetworkBuilder};

    fn coupled_network() -> (Network, NetId) {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, 300.0).unwrap();
        b.add_driver(a, a0, 150.0).unwrap();
        b.add_resistor(v0, v1, 80.0).unwrap();
        b.add_ground_cap(v0, 5e-15).unwrap();
        b.add_ground_cap(v1, 5e-15).unwrap();
        b.add_sink(v1, 10e-15).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_coupling_cap(a0, v1, 15e-15).unwrap();
        (b.build().unwrap(), a)
    }

    #[test]
    fn healthy_network_uses_metric_two_with_clean_provenance() {
        let (net, agg) = coupled_network();
        let analyzer = RobustAnalyzer::new(&net).unwrap();
        let r = analyzer
            .analyze(agg, &InputSignal::rising_ramp(0.0, 1e-10))
            .unwrap();
        assert_eq!(r.provenance.rung(), Rung::MetricTwo);
        assert!(r.provenance.failures().is_empty());
        assert!(!r.provenance.degraded());
        assert!(!r.provenance.clamped());
        assert!(r.estimate.vp > 0.0 && r.estimate.vp <= 1.0);
        assert!(r.provenance.to_string().contains("full fidelity"));
    }

    #[test]
    fn step_input_degrades_to_symmetric_metric_one() {
        // Eq. (54) cannot seed m for an ideal step, so the chain records a
        // StepInputNeedsExplicitM failure on rung 1 and lands on rung 2.
        let (net, agg) = coupled_network();
        let analyzer = RobustAnalyzer::new(&net).unwrap();
        let r = analyzer.analyze(agg, &InputSignal::step(0.0)).unwrap();
        assert_eq!(r.provenance.rung(), Rung::MetricOneSymmetric);
        assert!(r.provenance.degraded());
        assert_eq!(r.provenance.failures().len(), 1);
        assert_eq!(r.provenance.failures()[0].rung, Rung::MetricTwo);
        assert!(matches!(
            r.provenance.failures()[0].error,
            RungError::Metric(MetricError::StepInputNeedsExplicitM)
        ));
        // The symmetric rung emits m = 1; the timing clamp may re-derive m
        // from the clamped flanks, but the identities must stay exact.
        if r.provenance.timing_clamps().is_empty() {
            assert!((r.estimate.m - 1.0).abs() < 1e-12);
        }
        assert_eq!(r.estimate.tp, r.estimate.t0 + r.estimate.t1);
        assert_eq!(r.estimate.wn, r.estimate.t1 + r.estimate.t2);
    }

    #[test]
    fn non_causal_point_estimates_degrade_to_bounds_envelope() {
        // A slightly positive f2 puts the centroid before the arrival.
        // With a fast ramp, eq. (54) seeds a large m, so both point
        // estimates peak at or before the centroid — non-causal — while
        // the bounds envelope's latest peak time c + T_W/3 is still
        // causal.
        let (net, agg) = coupled_network();
        let analyzer = RobustAnalyzer::new(&net).unwrap();
        let input = InputSignal::rising_ramp(0.0, 1e-12);
        let f1 = 1e-11;
        let c = -1e-11; // centroid slightly negative: non-causal peak
        let tw = 1e-10;
        let f3 = (tw * tw / 18.0 + c * c) * f1 / 2.0;
        let moments = OutputMoments::from_raw(f1, -f1 * c, f3, 1.0);
        let r = analyzer.chain(moments, agg, &input).unwrap();
        assert_eq!(r.provenance.rung(), Rung::Bounds);
        assert_eq!(r.provenance.failures().len(), 2);
        for failure in r.provenance.failures() {
            assert!(matches!(
                failure.error,
                RungError::Sanity(SanityError::NonCausalPeak { .. })
            ));
        }
        assert!(r.estimate.tp >= 0.0);
        assert!(r.estimate.vp > 0.0 && r.estimate.vp <= 1.0);
    }

    #[test]
    fn non_physical_moments_degrade_to_lumped_baseline() {
        // T_W² < 0 kills every moment-based rung; only the moment-free
        // lumped-π baseline survives.
        let (net, agg) = coupled_network();
        let analyzer = RobustAnalyzer::new(&net).unwrap();
        let input = InputSignal::rising_ramp(0.0, 1e-10);
        let moments = OutputMoments::from_raw(1e-11, -1e-21, 1e-33, 1.0);
        let r = analyzer.chain(moments, agg, &input).unwrap();
        assert_eq!(r.provenance.rung(), Rung::LumpedPi);
        assert_eq!(r.provenance.failures().len(), 3);
        for failure in r.provenance.failures() {
            assert!(matches!(
                failure.error,
                RungError::Metric(MetricError::NonPhysicalMoments { .. })
            ));
        }
        assert!(r.estimate.vp > 0.0 && r.estimate.t1 > 0.0);
        assert!(r.provenance.to_string().contains("degraded to lumped-pi"));
    }

    #[test]
    fn moment_error_exhausts_the_whole_chain_when_lumped_fails_too() {
        // A step input breaks eq. (54) *and* the lumped baseline (which
        // needs a positive transition time); bad moments kill the rest.
        let (net, agg) = coupled_network();
        let analyzer = RobustAnalyzer::new(&net).unwrap();
        let moments = OutputMoments::from_raw(1e-11, -1e-21, 1e-33, 1.0);
        let err = analyzer
            .chain(moments, agg, &InputSignal::step(0.0))
            .unwrap_err();
        match err {
            RobustError::Exhausted(failures) => assert_eq!(failures.len(), 4),
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn oversized_peak_is_clamped_and_recorded() {
        // Huge area over a narrow width: vp = 2·f1/T_W > 1.
        let (net, agg) = coupled_network();
        let analyzer = RobustAnalyzer::new(&net).unwrap();
        let input = InputSignal::rising_ramp(0.0, 1e-10);
        let f1 = 1e-9; // 100× a realistic noise area
        let c = 2e-10;
        let tw = 1e-10;
        let f3 = (tw * tw / 18.0 + c * c) * f1 / 2.0;
        let moments = OutputMoments::from_raw(f1, -f1 * c, f3, 1.0);
        let r = analyzer.chain(moments, agg, &input).unwrap();
        assert_eq!(r.estimate.vp, 1.0);
        assert!(r.provenance.clamped());
        assert!(r.provenance.degraded());
        assert_eq!(r.provenance.rung(), Rung::MetricTwo);
    }

    #[test]
    fn early_template_arrival_is_clamped_with_identities_preserved() {
        // Moments whose centroid sits close to t = 0 put the template's
        // extrapolated t0 before the input switches. The default policy
        // clamps t0 up to 0, preserving tp and wn and re-deriving t1/t2 so
        // the identities hold exactly — and records the clamp.
        let (net, agg) = coupled_network();
        let analyzer = RobustAnalyzer::new(&net).unwrap();
        let input = InputSignal::rising_ramp(0.0, 1e-10);
        let f1 = 1e-11;
        let c = 6e-11; // centroid barely after the arrival
        let tw = 3e-10; // wide pulse: t0 = c − extent lands negative
        let f3 = (tw * tw / 18.0 + c * c) * f1 / 2.0;
        let moments = OutputMoments::from_raw(f1, -f1 * c, f3, 1.0);
        let r = analyzer.chain(moments, agg, &input).unwrap();
        let e = &r.estimate;
        assert_eq!(e.t0, 0.0, "t0 clamped to the arrival floor");
        assert!(r.provenance.timing_clamps().contains(&"t0"));
        assert!(e.t1 > 0.0 && e.t2 > 0.0);
        assert_eq!(e.tp, e.t0 + e.t1, "tp identity exact post-clamp");
        assert_eq!(e.wn, e.t1 + e.t2, "wn identity exact post-clamp");
        assert!((e.m - e.t2 / e.t1).abs() <= 1e-12 * e.m);
        // A timing clamp alone is not degradation (like validation
        // warnings) — the estimate still came from the best rung.
        assert!(!r.provenance.degraded());
        assert!(r.provenance.to_string().contains("timing clamped: t0"));

        // The same moments with clamping disabled keep the raw template.
        let policy = FallbackPolicy {
            clamp_timing: false,
            ..FallbackPolicy::default()
        };
        let analyzer = RobustAnalyzer::with_policy(&net, policy).unwrap();
        let moments = OutputMoments::from_raw(f1, -f1 * c, f3, 1.0);
        let raw = analyzer.chain(moments, agg, &input).unwrap();
        assert!(raw.estimate.t0 < 0.0);
        assert!(raw.provenance.timing_clamps().is_empty());
    }

    #[test]
    fn causal_arrival_is_not_touched_by_the_timing_clamp() {
        // A centroid far past the arrival with a narrow pulse keeps t0
        // comfortably positive — the clamp must be a no-op.
        let (net, agg) = coupled_network();
        let analyzer = RobustAnalyzer::new(&net).unwrap();
        let input = InputSignal::rising_ramp(0.0, 1e-10);
        let f1 = 1e-11;
        let c = 5e-10;
        let tw = 1e-10;
        let f3 = (tw * tw / 18.0 + c * c) * f1 / 2.0;
        let moments = OutputMoments::from_raw(f1, -f1 * c, f3, 1.0);
        let r = analyzer.chain(moments, agg, &input).unwrap();
        assert!(r.estimate.t0 > 0.0);
        assert!(r.provenance.timing_clamps().is_empty());
        assert!(!r.provenance.to_string().contains("timing clamped"));
        assert!(r.estimate.t1 > 0.0 && r.estimate.t2 > 0.0);
        assert!((r.estimate.tp - (r.estimate.t0 + r.estimate.t1)).abs() <= 1e-12 * r.estimate.t1);
    }

    #[test]
    fn negative_arrival_keeps_its_own_floor() {
        // An input switching at t = −50 ps may legitimately produce noise
        // before t = 0; the floor is min(arrival, 0), not 0.
        let (net, agg) = coupled_network();
        let analyzer = RobustAnalyzer::new(&net).unwrap();
        let r = analyzer
            .analyze(agg, &InputSignal::rising_ramp(-5e-11, 1e-10))
            .unwrap();
        assert!(r.estimate.t0 >= -5e-11 - 1e-24);
        assert!(r.estimate.t1 > 0.0 && r.estimate.t2 > 0.0);
    }

    #[test]
    fn strict_policy_errors_instead_of_degrading() {
        let (net, agg) = coupled_network();
        let analyzer = RobustAnalyzer::with_policy(&net, FallbackPolicy::strict()).unwrap();
        // Healthy ramp still works at full fidelity.
        let ok = analyzer
            .analyze(agg, &InputSignal::rising_ramp(0.0, 1e-10))
            .unwrap();
        assert!(!ok.provenance.degraded());
        // A step would degrade: strict mode refuses.
        let err = analyzer.analyze(agg, &InputSignal::step(0.0)).unwrap_err();
        match err {
            RobustError::StrictDegradation(failure) => {
                assert_eq!(failure.rung, Rung::MetricTwo);
            }
            other => panic!("expected StrictDegradation, got {other:?}"),
        }
    }

    #[test]
    fn policy_floor_limits_the_descent() {
        let (net, agg) = coupled_network();
        let policy = FallbackPolicy {
            floor: Rung::MetricOneSymmetric,
            ..FallbackPolicy::default()
        };
        let analyzer = RobustAnalyzer::with_policy(&net, policy).unwrap();
        // Non-physical moments would need the lumped rung; the floor
        // stops the chain after rung 2.
        let moments = OutputMoments::from_raw(1e-11, -1e-21, 1e-33, 1.0);
        let err = analyzer
            .chain(moments, agg, &InputSignal::rising_ramp(0.0, 1e-10))
            .unwrap_err();
        match err {
            RobustError::Exhausted(failures) => assert_eq!(failures.len(), 2),
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_network_is_rejected_at_construction() {
        let mut b = NetworkBuilder::permissive();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, f64::NAN).unwrap();
        b.add_driver(a, a0, 150.0).unwrap();
        b.add_ground_cap(v0, 5e-15).unwrap();
        b.add_sink(v0, 10e-15).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_coupling_cap(a0, v0, 15e-15).unwrap();
        let net = b.build().unwrap();
        match RobustAnalyzer::new(&net) {
            Err(RobustError::InvalidNetwork(report)) => assert!(report.has_errors()),
            other => panic!("expected InvalidNetwork, got {other:?}"),
        }
    }

    #[test]
    fn strict_policy_rejects_networks_with_warnings() {
        // An uncoupled victim is a warning — fine by default, fatal in
        // strict mode.
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, 300.0).unwrap();
        b.add_driver(a, a0, 150.0).unwrap();
        b.add_ground_cap(v0, 5e-15).unwrap();
        b.add_sink(v0, 10e-15).unwrap();
        b.add_ground_cap(a0, 5e-15).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        let net = b.build().unwrap();
        assert!(RobustAnalyzer::new(&net).is_ok());
        assert!(matches!(
            RobustAnalyzer::with_policy(&net, FallbackPolicy::strict()),
            Err(RobustError::InvalidNetwork(_))
        ));
    }

    #[test]
    fn validation_warnings_are_carried_into_provenance() {
        // A capacitance-free interior node on the victim draws a
        // FloatingNode warning (the driver root is exempt); the default
        // policy analyzes anyway and reports it.
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let v2 = b.add_node(v, "v2");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, 300.0).unwrap();
        b.add_driver(a, a0, 150.0).unwrap();
        b.add_ground_cap(v0, 2e-15).unwrap();
        b.add_resistor(v0, v1, 40.0).unwrap(); // v1: no capacitance at all
        b.add_resistor(v1, v2, 40.0).unwrap();
        b.add_ground_cap(v2, 5e-15).unwrap();
        b.add_sink(v2, 10e-15).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_coupling_cap(a0, v2, 15e-15).unwrap();
        let net = b.build().unwrap();
        let agg = a;
        let analyzer = RobustAnalyzer::new(&net).unwrap();
        let warnings = analyzer
            .validation()
            .with_severity(Severity::Warning)
            .count();
        assert!(warnings >= 1);
        let r = analyzer
            .analyze(agg, &InputSignal::rising_ramp(0.0, 1e-10))
            .unwrap();
        assert_eq!(r.provenance.validation_warnings(), warnings);
        assert!(!r.provenance.degraded());
        assert!(r.provenance.to_string().contains("validation warning"));
    }

    #[test]
    fn analyze_all_collects_per_aggressor_results() {
        let (net, agg) = coupled_network();
        let analyzer = RobustAnalyzer::new(&net).unwrap();
        let provenance = |input: InputSignal| -> Vec<bool> {
            let analysis = analyzer.analyze_all(&[agg, agg], &input);
            assert_eq!(analysis.rows.len(), 2);
            analysis
                .estimates()
                .map(|e| e.provenance.degraded())
                .collect()
        };
        assert_eq!(
            provenance(InputSignal::rising_ramp(0.0, 1e-10)),
            [false, false]
        );
        assert_eq!(provenance(InputSignal::step(0.0)), [true, true]);
    }

    #[test]
    fn error_messages_are_specific() {
        let failure = RungFailure {
            rung: Rung::MetricTwo,
            error: RungError::Metric(MetricError::NoNoise),
        };
        assert!(failure.to_string().contains("metric II"));
        let err = RobustError::Exhausted(vec![failure.clone()]);
        assert!(err.to_string().contains("every fallback rung failed"));
        let strict = RobustError::StrictDegradation(failure);
        assert!(strict.to_string().contains("strict policy"));
        let sanity = SanityError::PeakOutOfRange { vp: 1.5 };
        assert!(sanity.to_string().contains("1.5"));
    }
}
