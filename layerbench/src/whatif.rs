//! `whatif-eco`: a seeded edit script on a `WhatIf` session over a
//! 256-lane Figure-4 cluster, made by the `xtalk optimize` inner loop's
//! own rule (`crates/cli/src/optimize_cmd.rs`): every iteration trials a
//! driver upsizing and a wire spreading of one noisy net (`apply`, score
//! the returned report, `revert`), then keeps the better of the two
//! (`apply` only). It reaches the moment and metric layers through
//! incremental repair, beside queries, where `screen-pex` reaches them
//! cold and read-only; the measured loop touches no parser, island or
//! golden code.

use std::time::{Duration, Instant};

use xtalk_circuit::signal::InputSignal;
use xtalk_circuit::{Delta, NetId, Network};
use xtalk_core::memo::MemoStats;
use xtalk_incr::{NoiseReport, SessionStats, WhatIf, WhatIfConfig};
use xtalk_sim::{golden_noise_tiered, GoldenOpts, SimWorkspace};
use xtalk_tech::{ClusterSpec, Technology};

use crate::clock::ClockProbe;
use crate::layers::Layers;
use crate::{
    another_fits, fast_median, fastest_per_op, fastest_rep_percentiles, ops_per_s, EndToEnd,
    Measured, Outcome, Rng, Stat,
};

/// Lanes in the cluster.
const LANES: usize = 256;
/// Optimizer iterations per script: a trial of each legal candidate
/// (two until a floor is reached), then one kept edit. Every pass
/// replays the same script on a fresh session.
const ITERATIONS: usize = 384;
/// Each iteration's target is a seeded pick among this many noisiest
/// nets of the current report. The optimizer always takes the noisiest;
/// a short list keeps its one-neighbourhood focus while the seed varies
/// the script.
const TARGETS: usize = 4;
/// The optimizer's repair factors and floors (`optimize_cmd.rs`).
const DRIVER_SHRINK: f64 = 0.8;
const MIN_DRIVER_OHMS: f64 = 30.0;
const CAP_SHRINK: f64 = 0.8;
const MIN_COUPLING_FARADS: f64 = 1e-16;
/// Clock probe samples taken before each untraced pass.
const CLOCK_PER_PASS: usize = 2;
/// In a run's first pass, every this many steps the session's report is
/// checked against a fresh session rebuilt from the edited network.
const REBUILD_EVERY: usize = 128;

/// One script step: a delta, kept (`apply` only) or trialled (`apply`
/// then `revert`).
#[derive(Clone, Copy)]
struct Step {
    delta: Delta,
    accept: bool,
}

/// The optimizer's legal repairs for `net`: upsize its driver, and thin
/// its largest incident coupling capacitor (table order breaks ties).
fn candidates(base: &Network, net: NetId) -> Vec<Delta> {
    let mut out = Vec::new();
    let upsized = base.net(net).driver().ohms * DRIVER_SHRINK;
    if upsized >= MIN_DRIVER_OHMS {
        out.push(Delta::ResizeDriver { net, ohms: upsized });
    }
    let mut best: Option<(usize, f64)> = None;
    for (i, cc) in base.coupling_caps().iter().enumerate() {
        if base.node_net(cc.a) != net && base.node_net(cc.b) != net {
            continue;
        }
        if best.map_or(true, |(_, f)| cc.farads > f) {
            best = Some((i, cc.farads));
        }
    }
    if let Some((index, farads)) = best {
        let thinned = farads * CAP_SHRINK;
        if thinned >= MIN_COUPLING_FARADS {
            out.push(Delta::SetCouplingCap {
                index,
                farads: thinned,
            });
        }
    }
    out
}

fn worst_vp(report: &NoiseReport) -> f64 {
    report.worst().map_or(0.0, |w| w.vp)
}

/// Runs the optimizer loop once on a plain session and records every
/// call it makes. Unlike the optimizer, the loop keeps the better trial
/// even when it does not lower the cluster-worst peak, so every seed
/// gets a script of the same length.
fn script(seed: u64, base: &Network) -> Result<Vec<Step>, String> {
    let mut rng = Rng::new(seed);
    let ids: Vec<NetId> = base.nets().map(|(id, _)| id).collect();
    let mut session = WhatIf::new(base.clone(), WhatIfConfig::default())
        .map_err(|e| format!("session build failed: {e}"))?;
    let mut report = session.report();
    let mut steps = Vec::with_capacity(3 * ITERATIONS);
    let mut iterations = 0;
    let mut misses = 0;
    while iterations < ITERATIONS {
        let noisiest = report.nets.len().min(TARGETS);
        if noisiest == 0 || misses > 64 * TARGETS {
            return Err("the optimizer loop ran out of legal moves".into());
        }
        let target = ids[report.nets[rng.below(noisiest)].index];
        let cands = candidates(session.base(), target);
        if cands.is_empty() {
            misses += 1;
            continue;
        }
        let mut best: Option<(Delta, f64)> = None;
        for &delta in &cands {
            let score = worst_vp(&session.apply(&delta).map_err(|e| e.to_string())?);
            session.revert().map_err(|e| e.to_string())?;
            steps.push(Step {
                delta,
                accept: false,
            });
            if best.map_or(true, |(_, s)| score < s) {
                best = Some((delta, score));
            }
        }
        let (delta, _) = best.expect("at least one candidate");
        report = session.apply(&delta).map_err(|e| e.to_string())?;
        steps.push(Step {
            delta,
            accept: true,
        });
        iterations += 1;
    }
    Ok(steps)
}

/// Everything one pass of the script produced.
struct Pass {
    /// `WhatIf::new` plus the first `report()` (s).
    build_s: f64,
    /// Duration of every `apply`/`revert` call (s).
    calls_s: Vec<f64>,
    /// Calls attempted and calls rejected or mismatched.
    attempted: u64,
    failed: u64,
    final_json: String,
    final_report: NoiseReport,
    final_base: Network,
    stats: SessionStats,
    memo: MemoStats,
    problems: Vec<String>,
}

/// Times `f`, through the layer table when tracing.
fn timed<T>(
    layers: &mut Option<&mut Layers>,
    layer: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let t = Instant::now();
    let out = match layers {
        Some(l) => l.time(layer, f),
        None => f(),
    };
    (out, t.elapsed())
}

fn pass(
    base: &Network,
    steps: &[Step],
    rebuild_checks: bool,
    mut layers: Option<&mut Layers>,
) -> Result<Pass, String> {
    let start = base.clone();
    let (built, build) = timed(&mut layers, "incr.build", || {
        WhatIf::new(start, WhatIfConfig::default()).map(|mut s| {
            let first = s.report();
            (s, first)
        })
    });
    let (mut session, mut current) = built.map_err(|e| format!("session build failed: {e}"))?;
    let mut wall = build;
    let mut calls_s = Vec::with_capacity(2 * steps.len());
    let (mut attempted, mut failed) = (0, 0);
    let mut problems = Vec::new();
    for (k, step) in steps.iter().enumerate() {
        attempted += 1;
        let (applied, took) = timed(&mut layers, "incr.apply", || session.apply(&step.delta));
        wall += took;
        calls_s.push(took.as_secs_f64());
        let report = match applied {
            Ok(r) => r,
            Err(e) => {
                failed += 1;
                problems.push(format!("step {k}: delta rejected: {e}"));
                continue;
            }
        };
        if step.accept {
            current = report;
        } else {
            attempted += 1;
            let (reverted, took) = timed(&mut layers, "incr.revert", || session.revert());
            wall += took;
            calls_s.push(took.as_secs_f64());
            if !matches!(&reverted, Ok(Some(r)) if *r == current) {
                failed += 1;
                problems.push(format!("step {k}: revert did not restore the prior report"));
            }
        }
        if rebuild_checks && (k + 1) % REBUILD_EVERY == 0 {
            let fresh = WhatIf::new(session.base().clone(), WhatIfConfig::default())
                .map(|mut s| s.report().to_json());
            if fresh.as_deref().ok() != Some(current.to_json().as_str()) {
                failed += 1;
                problems.push(format!("step {k}: report differs from a rebuilt session"));
            }
        }
    }
    if let Some(l) = layers {
        l.add_wall(wall);
    }
    Ok(Pass {
        build_s: build.as_secs_f64(),
        calls_s,
        attempted,
        failed,
        final_json: current.to_json(),
        final_report: current,
        final_base: session.base().clone(),
        stats: session.stats(),
        memo: session.memo_stats(),
        problems,
    })
}

/// Accuracy of the final state: the declared victim's incremental `vp`
/// against a golden transient of the whole edited cluster with every
/// directly coupled aggressor switching (%). Runs once, outside the
/// measured calls; `None` when the golden run fails.
fn golden_err_pct(base: &Network, report: &NoiseReport) -> Option<f64> {
    let config = WhatIfConfig::default();
    let input = InputSignal::rising_ramp(config.arrival, config.slew);
    let victim = base.victim();
    let stimuli: Vec<_> = base
        .aggressor_nets()
        .filter(|(agg, _)| base.couplings_between(*agg, victim).next().is_some())
        .map(|(agg, _)| (agg, input))
        .collect();
    let (golden, _) = golden_noise_tiered(
        base,
        &stimuli,
        base.victim_output(),
        &mut SimWorkspace::new(),
        &GoldenOpts::from_globals(),
    )
    .ok()?;
    let row = report.nets.iter().find(|n| n.index == victim.index())?;
    (golden.vp != 0.0).then(|| ((row.vp - golden.vp) / golden.vp * 100.0).abs())
}

/// Checks a later pass against the run's first: the same script on a
/// fresh session must end in the same report and the same counters.
fn same_as(reference: &Pass, p: &Pass, problems: &mut Vec<String>) {
    if p.final_json != reference.final_json {
        problems.push("final report differs between passes".into());
    }
    if p.stats != reference.stats
        || p.memo.hits != reference.memo.hits
        || p.memo.misses != reference.memo.misses
    {
        problems.push("session counters differ between passes".into());
    }
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let started = Instant::now();
    let (base, _) = match ClusterSpec::figure4_family(LANES).build(&Technology::p25()) {
        Ok(b) => b,
        Err(e) => return Outcome::failed(vec![format!("cluster build failed: {e}")]),
    };
    let steps = match script(seed, &base) {
        Ok(s) => s,
        Err(e) => return Outcome::failed(vec![e]),
    };
    let t = Instant::now();
    let reference = match pass(&base, &steps, true, None) {
        Ok(p) => p,
        Err(e) => return Outcome::failed(vec![e]),
    };
    let mut passes_s = vec![t.elapsed().as_secs_f64()];
    let mut problems = reference.problems.clone();
    // The accuracy probe runs before the measured passes so that the
    // budget covers it.
    let err = if trace {
        None
    } else {
        let err = golden_err_pct(&reference.final_base, &reference.final_report);
        if err.is_none() {
            problems.push("golden reference of the final cluster failed".into());
        }
        err
    };
    let mut attempted = reference.attempted;
    let mut failed = reference.failed;
    let mut layers = Layers::default();
    let mut setup = vec![reference.build_s];
    let mut calls_s = vec![reference.calls_s.clone()];
    let mut clock = ClockProbe::default();
    while another_fits(started, budget, &passes_s) {
        if !trace {
            clock.sample(CLOCK_PER_PASS);
        }
        let traced_layers = if trace { Some(&mut layers) } else { None };
        let t = Instant::now();
        let p = match pass(&base, &steps, false, traced_layers) {
            Ok(p) => p,
            Err(e) => {
                problems.push(e);
                break;
            }
        };
        same_as(&reference, &p, &mut problems);
        problems.extend(p.problems.iter().cloned());
        attempted += p.attempted;
        failed += p.failed;
        passes_s.push(t.elapsed().as_secs_f64());
        setup.push(p.build_s);
        calls_s.push(p.calls_s);
    }
    let repeats = calls_s.len();

    if trace {
        let st = reference.stats;
        layers.set(
            "incr.query.hit_ratio",
            st.hits as f64 / st.queries.max(1) as f64,
        );
        layers.set("incr.invalidated", st.invalidated as f64);
        let memo = reference.memo;
        layers.set(
            "core.memo.hit_ratio",
            memo.hits as f64 / memo.queries().max(1) as f64,
        );
        layers.set("ops", (attempted - reference.attempted) as f64);
        let reference_s = reference.build_s + reference.calls_s.iter().sum::<f64>();
        layers.set("untraced.wall_s", reference_s * (repeats - 1) as f64);
        return Outcome {
            correct: problems.is_empty() && repeats > 1,
            attempted,
            failed,
            repeats: repeats - 1,
            problems,
            measured: Measured::Layers(layers),
        };
    }

    let calls_per_s = ops_per_s(&fastest_per_op(&calls_s));
    let (p50, p99) = fastest_rep_percentiles(&calls_s);
    let rows = reference.final_report.nets.len();
    let clean = reference
        .final_report
        .nets
        .iter()
        .filter(|n| n.skipped == 0)
        .count();
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        repeats,
        problems,
        measured: Measured::EndToEnd(EndToEnd {
            setup: fast_median(&setup),
            throughput_ops_s: calls_per_s,
            latency_p50: p50,
            latency_p99: p99,
            clean_frac: clean as f64 / rows.max(1) as f64,
            metric2_err_mean_pct: Stat {
                value: err.unwrap_or(f64::NAN),
                samples: usize::from(err.is_some()),
            },
            clock,
        }),
    }
}
