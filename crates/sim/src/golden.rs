//! One-call golden measurement: simulate, measure, retry the horizon.
//!
//! Every consumer that wants a golden (simulated) waveform measurement —
//! the paper-table evaluation harness, the differential audit, ad-hoc
//! comparisons — needs the same three steps: build a [`TransientSim`],
//! run it with [`SimOptions::auto`], and extract the waveform parameters
//! with [`measure_noise`]. Slowly decaying tails need one extra wrinkle:
//! when the pulse has not fallen back below the 50% crossing by the end
//! of the auto horizon, [`measure_noise`] reports [`SimError::Truncated`]
//! and the horizon (and step, keeping the point count constant) must grow
//! until the tail fits. This module packages that loop so the retry
//! policy cannot drift between callers.

use crate::engine::{run_lanes, LaneJob};
use crate::{
    analytic, fast_tier, measure_noise, sim_mode, FastTier, NoiseWaveformParams, SimError, SimMode,
    SimOptions, SimResult, SimWorkspace, TransientSim, Waveform, BATCH_LANES,
};
use xtalk_circuit::{signal::InputSignal, NetId, Network, NodeId};

/// Longest horizon the retry loop grows to before giving up: 1 µs, three
/// orders of magnitude beyond any realistic on-chip noise tail. A pulse
/// still truncated at this horizon is reported as [`SimError::Truncated`].
pub const MAX_HORIZON: f64 = 1e-6;

/// Factor the horizon (and step) grow by on each truncation retry.
const HORIZON_GROWTH: f64 = 4.0;

/// Largest sample count the fixed-mode resume path lets the stitched
/// waveform grow to before giving up on the fine grid and re-running the
/// whole horizon coarsened (the pre-resume behaviour). Retries multiply
/// the sample count by [`HORIZON_GROWTH`], so this bounds memory at a
/// few tens of MB while covering every realistic tail.
const RESUME_SAMPLE_CAP: usize = 4_000_000;

/// Which golden tier produced a measurement — the provenance consumers
/// (serve's deadline stamp, the audit) record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenTier {
    /// Closed-form pole superposition ([`analytic::analytic_noise`]).
    Analytic,
    /// Transient time-stepping simulation (fixed or adaptive).
    Transient,
}

impl GoldenTier {
    /// Stable name for provenance stamps.
    pub fn as_str(self) -> &'static str {
        match self {
            GoldenTier::Analytic => "analytic",
            GoldenTier::Transient => "transient",
        }
    }
}

/// Per-call golden policy: stepping mode and fast-tier gate. The default
/// (`Fixed`/`Off`) is the historical behaviour;
/// [`GoldenOpts::from_globals`] picks up the process-wide `--sim` /
/// `--fast-tier` switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GoldenOpts {
    /// Time-marching strategy for the transient tier.
    pub mode: SimMode,
    /// Analytic fast-tier policy.
    pub tier: FastTier,
}

impl GoldenOpts {
    /// Resolves the process-wide flags/environment
    /// ([`crate::sim_mode`], [`crate::fast_tier`]).
    pub fn from_globals() -> Self {
        GoldenOpts {
            mode: sim_mode(),
            tier: fast_tier(),
        }
    }
}

/// Golden waveform parameters at the victim output for a single
/// aggressor, with a fresh workspace. See [`golden_noise_with`].
///
/// # Errors
///
/// As [`golden_noise_with`].
///
/// # Examples
///
/// ```
/// use xtalk_circuit::{signal::InputSignal, NetRole, NetworkBuilder};
/// use xtalk_sim::golden::golden_noise;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetworkBuilder::new();
/// let v = b.add_net("v", NetRole::Victim);
/// let a = b.add_net("a", NetRole::Aggressor);
/// let vn = b.add_node(v, "v0");
/// let an = b.add_node(a, "a0");
/// b.add_driver(v, vn, 1000.0)?;
/// b.add_driver(a, an, 1000.0)?;
/// b.add_sink(vn, 20e-15)?;
/// b.add_sink(an, 20e-15)?;
/// b.add_coupling_cap(vn, an, 40e-15)?;
/// let network = b.build()?;
///
/// let golden = golden_noise(&network, a, &InputSignal::rising_ramp(0.0, 1e-10))?;
/// assert!(golden.vp > 0.0 && golden.wn > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn golden_noise(
    network: &Network,
    aggressor: NetId,
    input: &InputSignal,
) -> Result<NoiseWaveformParams, SimError> {
    golden_noise_with(
        network,
        &[(aggressor, *input)],
        network.victim_output(),
        &mut SimWorkspace::new(),
    )
}

/// Golden waveform parameters at `node`, reusing a caller-provided
/// workspace (one per worker thread in batch flows; the retries within a
/// case recycle the factorization buffers).
///
/// The measured polarity is taken from the first stimulus — callers with
/// several simultaneous aggressors must switch them in the same
/// direction, which is the worst-case alignment the paper analyzes.
///
/// # Errors
///
/// Any [`SimError`] from setup, integration, or measurement.
/// [`SimError::Truncated`] is retried with a `4×` longer horizon (and
/// proportionally coarser step) until [`MAX_HORIZON`]; it escapes only
/// when even that horizon cannot contain the pulse.
pub fn golden_noise_with(
    network: &Network,
    stimuli: &[(NetId, InputSignal)],
    node: NodeId,
    workspace: &mut SimWorkspace,
) -> Result<NoiseWaveformParams, SimError> {
    golden_noise_tiered(network, stimuli, node, workspace, &GoldenOpts::from_globals())
        .map(|(params, _)| params)
}

/// [`golden_noise_with`] with an explicit [`GoldenOpts`] policy, also
/// reporting which tier produced the measurement.
///
/// With `tier != Off` the analytic fast tier is tried first; any
/// [`analytic::FastTierFallback`] falls through to the transient
/// simulator (counted per reason in `sim.fast_tier.fallback.*`). The
/// transient tier steps fixed or adaptive per `mode`; on truncation the
/// fixed march resumes from its final state over a 4× coarser extension
/// (no re-integration of the covered span), while the adaptive march —
/// whose settled tail costs only a handful of steps — simply re-runs
/// with the grown horizon.
///
/// # Errors
///
/// As [`golden_noise_with`].
pub fn golden_noise_tiered(
    network: &Network,
    stimuli: &[(NetId, InputSignal)],
    node: NodeId,
    workspace: &mut SimWorkspace,
    gopts: &GoldenOpts,
) -> Result<(NoiseWaveformParams, GoldenTier), SimError> {
    let job = GoldenJob {
        network,
        stimuli,
        node,
    };
    golden_noise_batch(&[job], workspace, gopts)
        .pop()
        .expect("one result per job")
}

/// A golden measurement and the tier that produced it, or why none could
/// be made.
pub type Golden = Result<(NoiseWaveformParams, GoldenTier), SimError>;

/// One golden measurement request for [`golden_noise_batch`]: the
/// arguments [`golden_noise_tiered`] takes per call.
#[derive(Debug, Clone, Copy)]
pub struct GoldenJob<'a> {
    /// The network to simulate.
    pub network: &'a Network,
    /// Aggressor stimuli (see [`golden_noise_with`] for the polarity
    /// convention).
    pub stimuli: &'a [(NetId, InputSignal)],
    /// The node to measure.
    pub node: NodeId,
}

/// [`golden_noise_tiered`] for many jobs at once: returns exactly what
/// `golden_noise_tiered` returns for each job, in job order, under every
/// [`GoldenOpts`] — and records the same `sim.golden.*` counters.
///
/// A probe `node` other than the network's victim output fails with a
/// `BadOptions` error once the fast tier has declined, before any
/// simulator is built: the transient tier records only the victim output.
///
/// Jobs whose fixed-step march runs on the sparse backend are grouped by
/// the symbolic structure of their systems (the G∪C union pattern, hence
/// one ordering, `L` pattern and stepping pattern), and each group's
/// first segments march [`BATCH_LANES`] at a time in lockstep through the
/// permuted-space stepping kernel. Lanes may differ in values, `dt`,
/// step count and stimuli; each lane does exactly the
/// floating-point work its own march would. Everything else takes the
/// per-job path: an analytic-tier hit, a group of one, the horizon
/// extensions of a lane whose pulse is truncated, and — marched whole
/// under the `sim.golden` span — a call with a single job (which is what
/// [`golden_noise_tiered`] makes), the adaptive mode and a dense system.
///
/// Every job's simulator is alive until its group has marched, so
/// callers bound memory by the number of jobs they pass at once.
pub fn golden_noise_batch(
    jobs: &[GoldenJob<'_>],
    workspace: &mut SimWorkspace,
    gopts: &GoldenOpts,
) -> Vec<Golden> {
    let mut out: Vec<Option<Golden>> = jobs.iter().map(|_| None).collect();
    // Fixed-step sparse jobs waiting for a lane, grouped by union pattern.
    let mut pending: Vec<Pending<'_>> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let polarity = match polarity_of(job.stimuli) {
            Ok(p) => p,
            Err(e) => {
                out[i] = Some(Err(e));
                continue;
            }
        };
        xtalk_obs::counter!("sim.golden.runs").add(1);
        if let Some(params) = fast_tier_hit(job.network, job.stimuli, job.node, gopts.tier) {
            out[i] = Some(Ok((params, GoldenTier::Analytic)));
            continue;
        }
        if job.node != job.network.victim_output() {
            out[i] = Some(Err(probe_err(job.node)));
            continue;
        }
        let sim = match TransientSim::new(job.network) {
            Ok(sim) => sim,
            Err(e) => {
                out[i] = Some(Err(e));
                continue;
            }
        };
        let options = SimOptions::auto(job.network, job.stimuli);
        if jobs.len() == 1 || gopts.mode == SimMode::Adaptive || !sim.uses_sparse_solver() {
            let _span = xtalk_obs::span!("sim.golden");
            out[i] = Some(
                transient(&sim, job, polarity, gopts.mode, workspace)
                    .map(|p| (p, GoldenTier::Transient)),
            );
            continue;
        }
        if let Err(e) = sim.check_run(job.stimuli, &options) {
            out[i] = Some(Err(e));
            continue;
        }
        let pattern = sim.union_pattern().expect("sparse simulator");
        let group = groups.iter().position(|g| {
            pending[g[0]]
                .sim
                .union_pattern()
                .is_some_and(|p| p.same_pattern(pattern))
        });
        match group {
            Some(g) => groups[g].push(pending.len()),
            None => groups.push(vec![pending.len()]),
        }
        pending.push(Pending {
            job: i,
            sim,
            options,
            polarity,
        });
    }

    for group in &groups {
        for chunk in group.chunks(BATCH_LANES) {
            let _span = xtalk_obs::span!("sim.golden.batch");
            xtalk_obs::histogram!(perf: "sim.golden.lanes").record(chunk.len() as u64);
            let lanes: Vec<LaneJob<'_, '_>> = chunk
                .iter()
                .map(|&p| LaneJob {
                    sim: &pending[p].sim,
                    stimuli: jobs[pending[p].job].stimuli,
                    options: &pending[p].options,
                })
                .collect();
            let runs = if let [lane] = lanes.as_slice() {
                // A group of one marches alone, through the same kernel.
                vec![lane
                    .sim
                    .run_with(lane.stimuli, lane.options, workspace)
                    .map(|res| (res, workspace.final_state().to_vec()))]
            } else {
                run_lanes(&lanes, workspace)
            };
            for (&p, run) in chunk.iter().zip(runs) {
                let Pending {
                    job: i,
                    sim,
                    options,
                    polarity,
                } = &pending[p];
                out[*i] = Some(run.and_then(|(res, state)| {
                    finish_fixed(sim, &jobs[*i], *polarity, options.clone(), &res, Some(state), workspace)
                        .map(|p| (p, GoldenTier::Transient))
                }));
            }
        }
    }
    out.into_iter()
        .map(|r| r.expect("every job resolved"))
        .collect()
}

/// A sparse fixed-step job waiting for its lane.
struct Pending<'a> {
    job: usize,
    sim: TransientSim<'a>,
    options: SimOptions,
    polarity: f64,
}

/// The measured polarity of a stimulus list (its first stimulus').
fn polarity_of(stimuli: &[(NetId, InputSignal)]) -> Result<f64, SimError> {
    match stimuli.first() {
        Some((_, input)) => Ok(input.noise_polarity()),
        None => Err(SimError::BadOptions {
            detail: "golden measurement needs at least one stimulus".into(),
        }),
    }
}

/// The analytic fast tier, when `tier` allows it and the fit is trusted;
/// a fallback is counted per reason.
fn fast_tier_hit(
    network: &Network,
    stimuli: &[(NetId, InputSignal)],
    node: NodeId,
    tier: FastTier,
) -> Option<NoiseWaveformParams> {
    if tier == FastTier::Off {
        return None;
    }
    match analytic::analytic_noise(network, stimuli, node, tier) {
        Ok(params) => {
            xtalk_obs::counter!(perf: "sim.fast_tier.hits").add(1);
            Some(params)
        }
        Err(reason) => {
            xtalk_obs::counter!(perf: "sim.fast_tier.fallback").add(1);
            reason.record();
            None
        }
    }
}

/// Det-class workload record on success: the final horizon in units of
/// the initial auto step — identical across stepping modes and resume
/// strategies by construction.
fn record_steps(t_stop: f64, dt0: f64) {
    xtalk_obs::histogram!("sim.golden.steps").record((t_stop / dt0).max(0.0) as u64);
}

fn probe_err(node: NodeId) -> SimError {
    SimError::BadOptions {
        detail: format!("probe node {node:?} is not part of the simulated network"),
    }
}

/// The transient tier of one job, stepping fixed or adaptive per `mode`.
fn transient(
    sim: &TransientSim<'_>,
    job: &GoldenJob<'_>,
    polarity: f64,
    mode: SimMode,
    workspace: &mut SimWorkspace,
) -> Result<NoiseWaveformParams, SimError> {
    let (stimuli, node) = (job.stimuli, job.node);
    let mut opts = SimOptions::auto(job.network, stimuli);
    if mode == SimMode::Adaptive {
        // Adaptive tail steps are cheap, so truncation retries just
        // re-run with the grown horizon (and step, keeping the base-grid
        // point count constant).
        let dt0 = opts.dt;
        loop {
            let res = sim.run_adaptive_with(stimuli, &opts, workspace)?;
            let waveform = res.probe(node).ok_or_else(|| probe_err(node))?;
            match measure_noise(waveform, polarity) {
                Ok(params) => {
                    record_steps(opts.t_stop, dt0);
                    return Ok(params);
                }
                Err(SimError::Truncated) if opts.t_stop < MAX_HORIZON => {
                    xtalk_obs::counter!("sim.golden.horizon_retries").add(1);
                    opts.t_stop *= HORIZON_GROWTH;
                    opts.dt *= HORIZON_GROWTH;
                }
                Err(e) => return Err(e),
            }
        }
    }
    // Fixed-step march. The first segment integrates from DC; a
    // truncated pulse is *resumed* from the segment's final state.
    let res = sim.run_with(stimuli, &opts, workspace)?;
    finish_fixed(sim, job, polarity, opts, &res, None, workspace)
}

/// Measures a first fixed-step segment `first` (run with `opts` from DC)
/// and, while the pulse is truncated, resumes the march from the
/// segment's final state over a 4× coarser extension instead of
/// re-paying the covered horizon. `state` is that final state, or `None`
/// when `workspace` still holds it (the segment marched through it).
fn finish_fixed(
    sim: &TransientSim<'_>,
    job: &GoldenJob<'_>,
    polarity: f64,
    mut opts: SimOptions,
    first: &SimResult,
    state: Option<Vec<f64>>,
    workspace: &mut SimWorkspace,
) -> Result<NoiseWaveformParams, SimError> {
    let (stimuli, node) = (job.stimuli, job.node);
    let dt0 = opts.dt;
    let waveform = first.probe(node).ok_or_else(|| probe_err(node))?;
    match measure_noise(waveform, polarity) {
        Ok(params) => {
            record_steps(opts.t_stop, dt0);
            return Ok(params);
        }
        Err(SimError::Truncated) if opts.t_stop < MAX_HORIZON => {}
        Err(e) => return Err(e),
    }

    // Resume state: the stitched uniform waveform so far and the node
    // voltages at its end.
    let mut samples: Vec<f64> = waveform.samples().to_vec();
    let mut cur_dt = opts.dt;
    let mut state: Vec<f64> = state.unwrap_or_else(|| workspace.final_state().to_vec());
    let ratio = HORIZON_GROWTH as usize;
    loop {
        xtalk_obs::counter!("sim.golden.horizon_retries").add(1);
        if samples.len().saturating_mul(ratio) > RESUME_SAMPLE_CAP {
            // The stitched fine grid would outgrow the cap: fall back to
            // the coarsen-and-rerun policy for this and later retries.
            cur_dt *= HORIZON_GROWTH;
            opts.t_stop *= HORIZON_GROWTH;
            let full = SimOptions {
                dt: cur_dt,
                ..opts.clone()
            };
            let res = sim.run_with(stimuli, &full, workspace)?;
            samples = res.probe(node).ok_or_else(|| probe_err(node))?.samples().to_vec();
        } else {
            xtalk_obs::counter!("sim.golden.retry_resumes").add(1);
            // Extend from the exact end of the stitched grid with a 4×
            // coarser step (the tail is smooth), then upsample the
            // extension back onto the fine grid so the waveform stays
            // uniform.
            let t_end = (samples.len() - 1) as f64 * cur_dt;
            let ext = SimOptions {
                dt: cur_dt * HORIZON_GROWTH,
                t_stop: opts.t_stop * HORIZON_GROWTH,
                ..opts.clone()
            };
            let res = sim.run_span_with(stimuli, &ext, workspace, Some((t_end, &state)))?;
            let ext_wf = res.probe(node).ok_or_else(|| probe_err(node))?;
            for pair in ext_wf.samples().windows(2) {
                let (v0, v1) = (pair[0], pair[1]);
                for j in 1..=ratio {
                    let frac = j as f64 / ratio as f64;
                    samples.push(v0 + (v1 - v0) * frac);
                }
            }
            opts.t_stop *= HORIZON_GROWTH;
        }
        state.clear();
        state.extend_from_slice(workspace.final_state());
        let wave = Waveform::new(0.0, cur_dt, samples.clone());
        match measure_noise(&wave, polarity) {
            Ok(params) => {
                record_steps(opts.t_stop, dt0);
                return Ok(params);
            }
            Err(SimError::Truncated) if opts.t_stop < MAX_HORIZON => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_circuit::{NetRole, NetworkBuilder};

    fn coupled() -> (Network, NetId) {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let vn = b.add_node(v, "v0");
        let an = b.add_node(a, "a0");
        b.add_driver(v, vn, 1000.0).unwrap();
        b.add_driver(a, an, 1000.0).unwrap();
        b.add_sink(vn, 20e-15).unwrap();
        b.add_sink(an, 20e-15).unwrap();
        b.add_coupling_cap(vn, an, 40e-15).unwrap();
        (b.build().unwrap(), a)
    }

    #[test]
    fn matches_the_manual_simulate_and_measure_path() {
        let (net, agg) = coupled();
        let input = InputSignal::rising_ramp(0.0, 1e-10);
        let golden = golden_noise(&net, agg, &input).unwrap();

        let sim = TransientSim::new(&net).unwrap();
        let stim = [(agg, input)];
        let opts = SimOptions::auto(&net, &stim);
        let res = sim.run(&stim, &opts).unwrap();
        let manual =
            measure_noise(res.probe(net.victim_output()).unwrap(), 1.0).unwrap();
        assert_eq!(golden.vp, manual.vp);
        assert_eq!(golden.wn, manual.wn);
        assert_eq!(golden.tp, manual.tp);
    }

    #[test]
    fn empty_stimuli_is_a_structured_error() {
        let (net, _) = coupled();
        let err = golden_noise_with(
            &net,
            &[],
            net.victim_output(),
            &mut SimWorkspace::new(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::BadOptions { .. }));
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let (net, agg) = coupled();
        let input = InputSignal::rising_ramp(0.0, 1e-10);
        let mut ws = SimWorkspace::new();
        let first = golden_noise_with(&net, &[(agg, input)], net.victim_output(), &mut ws).unwrap();
        let second =
            golden_noise_with(&net, &[(agg, input)], net.victim_output(), &mut ws).unwrap();
        assert_eq!(first.vp, second.vp);
        assert_eq!(first.t0, second.t0);
    }
}
