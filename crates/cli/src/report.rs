use crate::args::{DelayMetricArg, Invocation, MetricArg, ShapeArg};
use std::error::Error;
use std::fmt::Write as _;
use xtalk_circuit::{signal::InputSignal, NetId, Network, Severity};
use xtalk_core::{
    AggressorOutcome, FallbackPolicy, MetricError, MetricKind, NoiseEstimate, Provenance,
    RobustAnalyzer,
};
use xtalk_delay::{DelayAnalyzer, DelayMetric};
use xtalk_exec::par_map_indexed_with;
use xtalk_sim::{golden_noise_with, SimWorkspace};

/// `info` sub-command: structure summary.
pub fn info_report(network: &Network) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} nodes, {} nets, {} resistors, {} ground caps, {} coupling caps",
        network.node_count(),
        network.net_count(),
        network.resistors().len(),
        network.ground_caps().len(),
        network.coupling_caps().len()
    );
    for (id, net) in network.nets() {
        let cc: f64 = network
            .coupling_caps()
            .iter()
            .filter(|c| network.node_net(c.a) == id || network.node_net(c.b) == id)
            .map(|c| c.farads)
            .sum();
        let _ = writeln!(
            out,
            "  {:<12} {:?}: {} nodes, driver {:.0} ohm, R {:.0} ohm, C {:.1} fF, coupling {:.1} fF",
            net.name(),
            net.role(),
            net.nodes().len(),
            net.driver().ohms,
            network.net_total_res(id),
            network.net_total_cap(id) * 1e15,
            cc * 1e15
        );
    }
    let _ = writeln!(
        out,
        "victim output: {}",
        network.node_name(network.victim_output())
    );
    out
}

fn input_for(inv: &Invocation) -> InputSignal {
    match inv.shape {
        ShapeArg::Ramp => InputSignal::rising_ramp(inv.arrival, inv.slew),
        ShapeArg::Exp => InputSignal::rising_exp(inv.arrival, inv.slew),
        ShapeArg::Step => InputSignal::step(inv.arrival),
    }
}

/// What one aggressor row resolved to after the analysis attempt.
enum RowOutcome {
    /// An estimate, with fallback provenance when metric II ran through
    /// the robust chain.
    Estimate(NoiseEstimate, Option<Provenance>),
    /// The aggressor does not couple into the victim output.
    NoCoupling,
    /// Analysis failed on every permitted path (non-strict mode only).
    Failed(String),
}

/// `noise` sub-command: per-aggressor estimates (each aggressor switching
/// alone), optional golden cross-check and budget flags.
///
/// The default metric II path runs through [`RobustAnalyzer`]: when the
/// preferred metric fails, the report degrades rung by rung instead of
/// aborting, annotates each degraded row, and the returned flag tells the
/// binary to exit with code 2. Under `--strict` any degradation (including
/// deck validation warnings) is a hard error instead.
///
/// # Errors
///
/// Propagates analysis/simulation failures; under `--strict`, also any
/// condition that would otherwise merely degrade the run.
pub fn noise_report(network: &Network, inv: &Invocation) -> Result<(String, bool), Box<dyn Error>> {
    let robust = RobustAnalyzer::with_policy(network, FallbackPolicy::for_strict(inv.strict))?;
    let input = input_for(inv);
    let mut out = String::new();
    let mut degraded = false;
    let _ = writeln!(
        out,
        "noise at victim output {} ({:?} input, slew {:.0} ps, metric {:?}{}):",
        network.node_name(network.victim_output()),
        inv.shape,
        inv.slew * 1e12,
        inv.metric,
        if inv.strict { ", strict" } else { "" }
    );
    let warnings: Vec<String> = robust
        .validation()
        .with_severity(Severity::Warning)
        .map(ToString::to_string)
        .collect();
    if !warnings.is_empty() {
        let _ = writeln!(out, "deck validation: {} warning(s)", warnings.len());
        for w in &warnings {
            let _ = writeln!(out, "  - {w}");
        }
    }
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "aggressor", "Vp(Vdd)", "Tp (ps)", "Wn (ps)", "T1 (ps)", "flag"
    );

    let (aggressors, names): (Vec<NetId>, Vec<&str>) = network
        .aggressor_nets()
        .filter(|(_, net)| match &inv.aggressor {
            Some(wanted) => net.name() == wanted,
            None => true,
        })
        .map(|(agg, net)| (agg, net.name()))
        .unzip();
    let outcomes: Vec<Result<RowOutcome, String>> = match inv.metric {
        // The default metric runs through the per-victim fallback path,
        // which under --strict ends at the first failed row.
        MetricArg::Two => robust
            .analyze_all(&aggressors, &input)
            .rows
            .into_iter()
            .map(|(_, outcome)| match outcome {
                AggressorOutcome::Estimate(re) => {
                    Ok(RowOutcome::Estimate(re.estimate, Some(re.provenance)))
                }
                AggressorOutcome::NoCoupling => Ok(RowOutcome::NoCoupling),
                AggressorOutcome::Failed(e) if inv.strict => Err(e.to_string()),
                AggressorOutcome::Failed(e) => Ok(RowOutcome::Failed(e.to_string())),
            })
            .collect(),
        // Explicitly requested metrics run as asked, with no fallback —
        // but a per-aggressor failure still only degrades the report
        // unless --strict.
        MetricArg::One | MetricArg::Closed => aggressors
            .iter()
            .map(|&agg| {
                let analyzer = robust.inner();
                let analyzed = match inv.metric {
                    MetricArg::Closed => analyzer.analyze_closed_form(agg, &input, MetricKind::Two),
                    _ => analyzer.analyze(agg, &input, MetricKind::One),
                };
                match analyzed {
                    Ok(est) => Ok(RowOutcome::Estimate(est, None)),
                    Err(MetricError::NoNoise) => Ok(RowOutcome::NoCoupling),
                    Err(e) if inv.strict => Err(e.to_string()),
                    Err(e) => Ok(RowOutcome::Failed(e.to_string())),
                }
            })
            .collect(),
    };
    // The golden cross-checks are independent, so they fan out over the
    // workers; rows are rendered serially in net order afterwards, which
    // keeps the report byte-identical for every --jobs value. A strict
    // failure or golden error aborts with the lowest-index error.
    let goldens = par_map_indexed_with(
        &outcomes,
        inv.jobs,
        SimWorkspace::new,
        |ws, i, outcome| match (outcome, inv.golden) {
            (Ok(RowOutcome::Estimate(..)), true) => {
                let stimuli = [(aggressors[i], input)];
                let node = network.victim_output();
                Some(golden_noise_with(network, &stimuli, node, ws))
            }
            _ => None,
        },
    )?;

    let mut any = false;
    for ((name, outcome), golden) in names.iter().zip(outcomes).zip(goldens) {
        let outcome = outcome.map_err(|e| -> Box<dyn Error> { e.into() })?;
        let golden = golden.transpose()?;
        match outcome {
            RowOutcome::Estimate(est, provenance) => {
                any = true;
                let flag = match inv.threshold {
                    Some(budget) if est.vp > budget => "VIOLATION",
                    Some(_) => "ok",
                    None => "",
                };
                let _ = writeln!(
                    out,
                    "{:<14} {:>8.4} {:>10.1} {:>10.1} {:>10.1} {:>9}",
                    name,
                    est.vp,
                    est.tp * 1e12,
                    est.wn * 1e12,
                    est.t1 * 1e12,
                    flag
                );
                if let Some(p) = provenance {
                    if p.degraded() {
                        degraded = true;
                        let _ = writeln!(out, "  warning: {p}");
                    }
                }
                if let Some(golden) = golden {
                    let _ = writeln!(
                        out,
                        "{:<14} {:>8.4} {:>10.1} {:>10.1} {:>10.1} {:>9}",
                        "  (simulated)",
                        golden.vp,
                        golden.tp * 1e12,
                        golden.wn * 1e12,
                        golden.t1 * 1e12,
                        format!("{:+.0}%", (est.vp - golden.vp) / golden.vp * 100.0)
                    );
                }
            }
            RowOutcome::NoCoupling => {
                let _ = writeln!(
                    out,
                    "{:<14} {:>8} (no coupling into the victim output)",
                    name,
                    "-"
                );
            }
            RowOutcome::Failed(msg) => {
                any = true;
                degraded = true;
                let _ = writeln!(out, "{:<14} {:>8} analysis failed: {msg}", name, "-");
            }
        }
    }
    if !any {
        let _ = writeln!(
            out,
            "no coupled aggressors found{}",
            inv.aggressor
                .as_deref()
                .map(|n| format!(" matching {n:?}"))
                .unwrap_or_default()
        );
    }
    if degraded {
        let _ = writeln!(
            out,
            "NOTE: run degraded (fallback metrics or failed rows above); exit code 2"
        );
    }
    Ok((out, degraded))
}

/// `delay` sub-command: victim delay window under switch factors.
///
/// # Errors
///
/// Propagates analysis failures.
pub fn delay_report(network: &Network, inv: &Invocation) -> Result<String, Box<dyn Error>> {
    let metric = match inv.delay_metric {
        DelayMetricArg::Elmore => DelayMetric::Elmore,
        DelayMetricArg::D2m => DelayMetric::D2m,
        DelayMetricArg::TwoPole => DelayMetric::TwoPole,
    };
    let analyzer = DelayAnalyzer::new(network);
    let quiet = analyzer.delay(&[], metric)?;
    let (best, worst) = analyzer.delay_window(metric)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "victim 50% delay to {} ({:?} metric):",
        network.node_name(network.victim_output()),
        inv.delay_metric
    );
    let _ = writeln!(out, "  best case (all aggressors along):  {:.1} ps", best * 1e12);
    let _ = writeln!(out, "  quiet aggressors:                  {:.1} ps", quiet * 1e12);
    let _ = writeln!(out, "  worst case (all against):          {:.1} ps", worst * 1e12);
    let _ = writeln!(
        out,
        "  coupling-induced uncertainty:      {:.1} ps ({:.0}%)",
        (worst - best) * 1e12,
        (worst - best) / quiet * 100.0
    );
    if let Ok(slew) = analyzer.slew(&[]) {
        let _ = writeln!(
            out,
            "  output transition (quiet, 10-90%): {:.1} ps",
            slew * 1e12
        );
    }
    Ok(out)
}

/// `reduce` sub-command: TICER quick-node elimination; the reduced deck
/// goes to stdout so it can be piped into a file or another tool.
///
/// # Errors
///
/// Propagates reduction failures.
pub fn reduce_report(network: &Network, inv: &Invocation) -> Result<String, Box<dyn Error>> {
    let tau = inv
        .reduce_tau
        .unwrap_or_else(|| xtalk_moments::tree::open_circuit_b1(network) * 1e-3);
    let reduced = xtalk_circuit::reduce::reduce_quick_nodes(network, tau)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "* xtalk reduce: {} -> {} nodes (tau threshold {:.3e} s)",
        network.node_count(),
        reduced.node_count(),
        tau
    );
    out.push_str(&xtalk_circuit::spice::write_deck(&reduced));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{Command, Invocation};
    use xtalk_circuit::{NetRole, NetworkBuilder};

    fn sample_network() -> Network {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("victim", NetRole::Victim);
        let a = b.add_net("agg0", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, 300.0).unwrap();
        b.add_driver(a, a0, 150.0).unwrap();
        b.add_resistor(v0, v1, 60.0).unwrap();
        b.add_ground_cap(v0, 2e-15).unwrap();
        b.add_ground_cap(v1, 8e-15).unwrap();
        b.add_sink(v1, 12e-15).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_coupling_cap(a0, v1, 25e-15).unwrap();
        b.build().unwrap()
    }

    fn invocation(command: Command) -> Invocation {
        Invocation {
            command,
            deck_path: "unused".into(),
            slew: 100e-12,
            arrival: 0.0,
            shape: ShapeArg::Ramp,
            metric: MetricArg::Two,
            delay_metric: DelayMetricArg::TwoPole,
            golden: false,
            threshold: None,
            reduce_tau: None,
            aggressor: None,
            strict: false,
            jobs: xtalk_exec::Jobs::Auto,
        }
    }

    #[test]
    fn info_lists_nets_and_totals() {
        let report = info_report(&sample_network());
        assert!(report.contains("victim"));
        assert!(report.contains("agg0"));
        assert!(report.contains("coupling"));
        assert!(report.contains("victim output: v1"));
    }

    #[test]
    fn noise_report_contains_estimates() {
        let net = sample_network();
        let (report, degraded) = noise_report(&net, &invocation(Command::Noise)).unwrap();
        assert!(report.contains("agg0"));
        assert!(report.contains("Vp"));
        assert!(!report.contains("VIOLATION"));
        assert!(!degraded, "healthy deck must not be flagged degraded");
        assert!(!report.contains("warning:"));
    }

    #[test]
    fn threshold_flags_violations() {
        let net = sample_network();
        let mut inv = invocation(Command::Noise);
        inv.threshold = Some(1e-6); // everything violates
        let (report, _) = noise_report(&net, &inv).unwrap();
        assert!(report.contains("VIOLATION"));
        inv.threshold = Some(0.99); // nothing violates
        let (report, _) = noise_report(&net, &inv).unwrap();
        assert!(report.contains("ok"));
    }

    #[test]
    fn golden_flag_adds_simulated_row() {
        let net = sample_network();
        let mut inv = invocation(Command::Noise);
        inv.golden = true;
        let (report, _) = noise_report(&net, &inv).unwrap();
        assert!(report.contains("(simulated)"));
        assert!(report.contains('%'));
    }

    #[test]
    fn closed_form_metric_works_through_cli_path() {
        let net = sample_network();
        let mut inv = invocation(Command::Noise);
        inv.metric = MetricArg::Closed;
        let (report, degraded) = noise_report(&net, &inv).unwrap();
        assert!(report.contains("agg0"));
        assert!(!degraded);
    }

    #[test]
    fn aggressor_filter_limits_the_report() {
        let net = sample_network();
        let mut inv = invocation(Command::Noise);
        inv.aggressor = Some("agg0".into());
        let (report, _) = noise_report(&net, &inv).unwrap();
        assert!(report.contains("agg0"));
        inv.aggressor = Some("nonexistent".into());
        let (report, _) = noise_report(&net, &inv).unwrap();
        assert!(report.contains("no coupled aggressors found matching"));
    }

    #[test]
    fn step_input_degrades_and_annotates_the_row() {
        // An ideal step defeats metric II's eq.-54 seeding; the robust
        // chain falls back to the symmetric metric I rung and the run is
        // flagged degraded so the binary can exit with code 2.
        let net = sample_network();
        let mut inv = invocation(Command::Noise);
        inv.shape = ShapeArg::Step;
        let (report, degraded) = noise_report(&net, &inv).unwrap();
        assert!(degraded, "fallback must flag the run degraded");
        assert!(report.contains("warning: degraded to metric I"), "{report}");
        assert!(report.contains("exit code 2"), "{report}");
    }

    #[test]
    fn strict_mode_refuses_to_degrade() {
        let net = sample_network();
        let mut inv = invocation(Command::Noise);
        inv.shape = ShapeArg::Step;
        inv.strict = true;
        let err = noise_report(&net, &inv).unwrap_err().to_string();
        assert!(err.contains("strict"), "{err}");
    }

    #[test]
    fn reduce_report_emits_a_parseable_smaller_deck() {
        // A chain with removable internal nodes.
        let mut b = NetworkBuilder::new();
        let v = b.add_net("victim", NetRole::Victim);
        let a = b.add_net("agg0", NetRole::Aggressor);
        let mut vp = b.add_node(v, "v0");
        b.add_driver(v, vp, 300.0).unwrap();
        for i in 1..=8 {
            let n = b.add_node(v, format!("v{i}"));
            b.add_resistor(vp, n, 10.0).unwrap();
            b.add_ground_cap(n, 1e-15).unwrap();
            vp = n;
        }
        b.add_sink(vp, 10e-15).unwrap();
        let a0 = b.add_node(a, "a0");
        b.add_driver(a, a0, 150.0).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_coupling_cap(a0, vp, 20e-15).unwrap();
        let net = b.build().unwrap();

        let report = reduce_report(&net, &invocation(Command::Reduce)).unwrap();
        assert!(report.contains("-> "));
        // The emitted deck parses back and is smaller.
        let deck: String = report
            .lines()
            .skip(1)
            .collect::<Vec<_>>()
            .join("\n");
        let reduced = xtalk_circuit::spice::parse_deck(&deck).unwrap();
        assert!(reduced.node_count() < net.node_count());
    }

    #[test]
    fn delay_report_orders_window() {
        let net = sample_network();
        let report = delay_report(&net, &invocation(Command::Delay)).unwrap();
        assert!(report.contains("best case"));
        assert!(report.contains("worst case"));
        // Extract the three numbers and check ordering.
        let ps: Vec<f64> = report
            .lines()
            .filter_map(|l| l.split_whitespace().rev().nth(1)?.parse().ok())
            .collect();
        assert!(ps.len() >= 3);
        assert!(ps[0] < ps[1] && ps[1] < ps[2], "{ps:?}");
    }
}
