//! `screen-pex`: one `screen_deck` call per repetition on the stock PEX
//! deck — the batch full-chip use case. It never touches serve or incr.

use std::time::{Duration, Instant};

use xtalk_circuit::cluster::CouplingClusters;
use xtalk_circuit::spice::stream::{DeckIndex, StreamOptions};
use xtalk_core::superpose::{worst_case, TimingWindow};
use xtalk_core::{FallbackPolicy, RobustAnalyzer};
use xtalk_eval::screen::{screen_deck, ScreenConfig, ScreenReport};
use xtalk_exec::Jobs;
use xtalk_sim::{golden_noise_tiered, GoldenOpts, SimWorkspace};
use xtalk_tech::{PexDeckSpec, Technology};

use crate::clock::ClockProbe;
use crate::layers::{rung_counter, tier_counter, Layers};
use crate::marks::{segmented, FastestSegments};
use crate::{another_fits, EndToEnd, Measured, Outcome, Rng, Stat};

/// Set-up (deck index + partition) samples taken beside each screen.
const SETUP_PER_CALL: usize = 6;
/// Clock probe samples taken beside each screen.
const CLOCK_PER_CALL: usize = 40;

/// The stock screening deck: 128 buses of 16 lanes, 4 segments, folded
/// cards (2048 nets in 128 islands). The seed only picks which lane the
/// deck declares `victim`; screening re-designates every net in turn, so
/// the work is the same for every seed.
fn deck(seed: u64) -> String {
    let mut spec = PexDeckSpec::new(128, 16, 4);
    spec.fold_cards = true;
    let lane = Rng::new(seed).below(spec.net_count());
    spec.victim = (lane / spec.bits, lane % spec.bits);
    spec.deck_string(&Technology::p25())
}

fn config() -> ScreenConfig {
    ScreenConfig {
        jobs: Jobs::Count(1),
        ..ScreenConfig::default()
    }
}

fn stream_options(config: &ScreenConfig) -> StreamOptions {
    StreamOptions {
        limits: config.limits.clone(),
        lenient: !config.strict,
    }
}

/// The per-net outputs the traced pass must reproduce bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct NetOut {
    vp_bits: u64,
    escalated: bool,
    golden_bits: Option<u64>,
    failed: bool,
}

fn outputs(report: &ScreenReport) -> Vec<NetOut> {
    let mut out = vec![None; report.nets_total];
    for n in &report.nets {
        out[n.index] = Some(NetOut {
            vp_bits: n.vp.to_bits(),
            escalated: n.escalated,
            golden_bits: n.golden_vp.map(f64::to_bits),
            failed: n.error.is_some(),
        });
    }
    out.into_iter()
        .map(|n| n.expect("report lists every net once"))
        .collect()
}

/// Accounting and ranking checks on one report.
fn check_report(report: &ScreenReport, problems: &mut Vec<String>) {
    if report.screened + report.escalated + report.failed != report.nets_total
        || report.nets.len() != report.nets_total
    {
        problems.push(format!(
            "screen accounting: screened {} + escalated {} + failed {} != nets {}",
            report.screened, report.escalated, report.failed, report.nets_total
        ));
    }
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let deck = deck(seed);
    let config = config();
    if trace {
        traced(&deck, &config, budget)
    } else {
        untraced(&deck, &config, budget)
    }
}

/// Indexes and partitions the deck once; returns its segment times.
fn setup_once(deck: &str, config: &ScreenConfig) -> Vec<f64> {
    let ((), segments) = segmented(|| {
        let index = DeckIndex::from_reader(deck.as_bytes(), stream_options(config))
            .expect("the generated deck indexes");
        std::hint::black_box(CouplingClusters::partition(&index));
    });
    segments
}

fn untraced(deck: &str, config: &ScreenConfig, budget: Duration) -> Outcome {
    let started = Instant::now();
    let mut problems = Vec::new();
    let mut setup = FastestSegments::default();
    let mut screens = FastestSegments::default();
    let mut calls_s = Vec::new();
    let mut clock = ClockProbe::default();
    let mut first: Option<(ScreenReport, String)> = None;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    while another_fits(started, budget, &calls_s) {
        clock.sample(CLOCK_PER_CALL);
        // Set-up samples spread over the run, beside each screen.
        for _ in 0..SETUP_PER_CALL {
            setup.add(&setup_once(deck, config));
        }
        let (report, segments) = segmented(|| screen_deck(deck.as_bytes(), config));
        calls_s.push(segments.iter().sum());
        screens.add(&segments);
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                problems.push(format!("screen_deck failed: {e}"));
                break;
            }
        };
        check_report(&report, &mut problems);
        attempted += report.nets_total as u64;
        failed += report.failed as u64;
        let json = report.to_json();
        match &first {
            None => first = Some((report, json)),
            Some((_, first_json)) if *first_json != json => {
                problems.push("screen report changed between repetitions".into());
            }
            Some(_) => {}
        }
    }
    let Some((report, _)) = first else {
        return Outcome::failed(problems);
    };

    let nets = report.nets_total as f64;
    // One operation per repetition, the whole-deck screen, so p50 and
    // p99 are the same figure: its latency, from each segment's fastest
    // repetition.
    let screen_s = screens.total();
    let latency = Stat {
        value: screen_s * 1e6,
        samples: screens.reps(),
    };
    let clean = report
        .nets
        .iter()
        .filter(|n| !n.degraded && n.error.is_none())
        .count();
    let errs: Vec<f64> = report
        .nets
        .iter()
        .filter_map(|n| {
            n.golden_vp
                .filter(|g| *g != 0.0)
                .map(|g| ((n.vp - g) / g * 100.0).abs())
        })
        .collect();
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        repeats: calls_s.len(),
        problems,
        measured: Measured::EndToEnd(EndToEnd {
            setup: Stat {
                value: setup.total(),
                samples: setup.reps(),
            },
            throughput_ops_s: nets / screen_s,
            latency_p50: latency,
            latency_p99: latency,
            clean_frac: clean as f64 / nets,
            metric2_err_mean_pct: Stat {
                value: errs.iter().sum::<f64>() / errs.len().max(1) as f64,
                samples: errs.len(),
            },
            clock,
        }),
    }
}

/// One screen of the whole deck through the layers' public calls, in
/// the order `screen_deck` makes them with one worker.
fn traced_pass(
    deck: &str,
    config: &ScreenConfig,
    layers: &mut Layers,
) -> Result<Vec<NetOut>, String> {
    let index = layers
        .time("circuit.stream_index", || {
            DeckIndex::from_reader(deck.as_bytes(), stream_options(config))
        })
        .map_err(|e| e.to_string())?;
    let clusters = layers.time("circuit.partition", || CouplingClusters::partition(&index));
    let policy = FallbackPolicy::default();
    let input = config.input();
    let gopts = GoldenOpts::from_globals();
    let mut ws = SimWorkspace::new();
    let mut out = Vec::with_capacity(index.net_count());
    for net in 0..index.net_count() {
        let mut result = NetOut {
            vp_bits: 0f64.to_bits(),
            escalated: false,
            golden_bits: None,
            failed: true,
        };
        let Ok(network) = layers.time("circuit.island", || clusters.victim_network(&index, net))
        else {
            out.push(result);
            continue;
        };
        let Ok(robust) = layers.time("core.analyzer_build", || {
            RobustAnalyzer::with_policy(&network, policy.clone())
        }) else {
            out.push(result);
            continue;
        };
        let victim = network.victim();
        let mut contributions = Vec::new();
        let mut stimuli = Vec::new();
        let mut degraded = false;
        let mut hard_error = false;
        for (agg, _) in network.nets() {
            if agg == victim || network.couplings_between(agg, victim).next().is_none() {
                continue;
            }
            stimuli.push((agg, input));
            match layers.time("core.chain", || robust.analyze(agg, &input)) {
                Ok(re) => {
                    layers.count(rung_counter(re.provenance.rung()), 1.0);
                    degraded |= re.provenance.degraded();
                    contributions.push((re.estimate, TimingWindow::pinned()));
                }
                Err(e) if e.is_no_noise() => {}
                Err(_) => {
                    layers.count("core.chain.failed", 1.0);
                    hard_error = true;
                    break;
                }
            }
        }
        if hard_error {
            layers.count("degraded", 1.0);
            out.push(result);
            continue;
        }
        result.failed = false;
        let mut ratio = 0.0;
        if !contributions.is_empty() {
            let combined = layers.time("core.superpose", || worst_case(&contributions));
            result.vp_bits = combined.vp.to_bits();
            ratio = if config.threshold > 0.0 {
                combined.vp / config.threshold
            } else {
                f64::INFINITY
            };
        }
        result.escalated = !contributions.is_empty() && ratio >= config.escalate_ratio;
        if result.escalated && config.escalate {
            let network = &network;
            match layers.time("sim.golden", || {
                golden_noise_tiered(network, &stimuli, network.victim_output(), &mut ws, &gopts)
            }) {
                Ok((params, tier)) => {
                    result.golden_bits = Some(params.vp.to_bits());
                    layers.count(tier_counter(tier), 1.0);
                }
                Err(_) => {
                    degraded = true;
                    layers.count("sim.golden.failed", 1.0);
                }
            }
        }
        if degraded {
            layers.count("degraded", 1.0);
        }
        out.push(result);
    }
    Ok(out)
}

fn traced(deck: &str, config: &ScreenConfig, budget: Duration) -> Outcome {
    let started = Instant::now();
    let mut problems = Vec::new();
    let t = Instant::now();
    let reference = screen_deck(deck.as_bytes(), config);
    let reference_s = t.elapsed().as_secs_f64();
    let reference = match reference {
        Ok(r) => r,
        Err(e) => return Outcome::failed(vec![format!("screen_deck failed: {e}")]),
    };
    check_report(&reference, &mut problems);
    let expected = outputs(&reference);

    let mut layers = Layers::default();
    let mut passes_s = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    while another_fits(started, budget, &passes_s) {
        let t = Instant::now();
        let got = traced_pass(deck, config, &mut layers);
        let took = t.elapsed();
        layers.add_wall(took);
        passes_s.push(took.as_secs_f64());
        let got = match got {
            Ok(g) => g,
            Err(e) => {
                problems.push(format!("traced pass failed to index the deck: {e}"));
                break;
            }
        };
        attempted += got.len() as u64;
        failed += got.iter().filter(|n| n.failed).count() as u64;
        let mismatched: Vec<usize> = (0..expected.len().max(got.len()))
            .filter(|&i| expected.get(i) != got.get(i))
            .collect();
        if !mismatched.is_empty() {
            problems.push(format!(
                "traced pass differs from screen_deck on {} net(s), first net {}",
                mismatched.len(),
                mismatched[0]
            ));
        }
    }
    layers.set("ops", attempted as f64);
    layers.set("untraced.wall_s", reference_s * passes_s.len() as f64);
    layers.finish_chain_ratio();
    Outcome {
        correct: problems.is_empty(),
        attempted: attempted.max(1),
        failed,
        repeats: passes_s.len(),
        problems,
        measured: Measured::Layers(layers),
    }
}
