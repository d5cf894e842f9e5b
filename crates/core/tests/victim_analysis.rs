//! `RobustAnalyzer::analyze_all` — the one per-victim path — against
//! per-aggressor `analyze` calls on a PEX-shaped bus slice whose
//! aggressors cover every row outcome.

use xtalk_circuit::signal::InputSignal;
use xtalk_circuit::{NetId, NetRole, Network, NetworkBuilder};
use xtalk_core::superpose::{worst_case, TimingWindow};
use xtalk_core::{AggressorOutcome, FallbackPolicy, RobustAnalyzer, RobustError, Rung};

const SEGMENTS: usize = 4;

/// Lanes 4..=9 of a stock PEX bus (11 Ω, 2.5 fF per segment, 25 fF
/// loads, 5 fF neighbour and 1.25 fF second-neighbour coupling per
/// segment), victim on lane 7, weakly driven lane 8. Returns the network
/// and the aggressors of lanes 4, 6 and 9:
/// - lane 6 couples straight into the victim — a metric II estimate;
/// - lane 4 reaches the victim only through other lanes — no coupling;
/// - lane 9 reaches it directly and across the weak lane, and its
///   moments have a negative squared width — only the lumped-π rung
///   answers, so a strict policy fails it.
fn bus_slice() -> Result<(Network, [NetId; 3]), Box<dyn std::error::Error>> {
    let mut b = NetworkBuilder::new();
    let mut nets = Vec::new();
    let mut nodes = Vec::new();
    for lane in 4..=9 {
        let role = if lane == 7 {
            NetRole::Victim
        } else {
            NetRole::Aggressor
        };
        let net = b.add_net(format!("bit{lane}"), role);
        let taps: Vec<_> = (0..=SEGMENTS)
            .map(|s| b.add_node(net, format!("l{lane}_{s}")))
            .collect();
        let driver = if lane == 8 { 240.0 } else { 30.0 };
        b.add_driver(net, taps[0], driver)?;
        for s in 1..=SEGMENTS {
            b.add_resistor(taps[s - 1], taps[s], 11.0)?;
            b.add_ground_cap(taps[s], 2.5e-15)?;
        }
        b.add_sink(taps[SEGMENTS], 25e-15)?;
        nets.push(net);
        nodes.push(taps);
    }
    let count = nets.len();
    for i in 0..count {
        for (j, cc) in [(i + 1, 5e-15), (i + 2, 1.25e-15)] {
            if j < count {
                for (&x, &y) in nodes[i].iter().zip(&nodes[j]).skip(1) {
                    b.add_coupling_cap(x, y, cc)?;
                }
            }
        }
    }
    let network = b.build()?;
    Ok((network, [nets[2], nets[0], nets[5]]))
}

/// Bit-level equality of two rows, via their `Debug` renderings (which
/// print every `f64` in shortest round-trip form).
fn same_bits<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn check_rows_match_per_aggressor_calls(policy: FallbackPolicy) -> Vec<AggressorOutcome> {
    let (network, aggressors) = bus_slice().expect("bus slice builds");
    let robust = RobustAnalyzer::with_policy(&network, policy).expect("network validates");
    let input = InputSignal::rising_ramp(0.0, 100e-12);
    let analysis = robust.analyze_all(&aggressors, &input);
    let mut singles = Vec::new();
    for (&(agg, ref outcome), &want) in analysis.rows.iter().zip(&aggressors) {
        assert_eq!(agg, want, "rows keep the order asked");
        match (outcome, robust.analyze(agg, &input)) {
            (AggressorOutcome::Estimate(row), Ok(single)) => {
                assert!(same_bits(row, &single), "{row:?} vs {single:?}");
                singles.push(single);
            }
            (AggressorOutcome::NoCoupling, Err(e)) => assert!(e.is_no_noise(), "{e}"),
            (AggressorOutcome::Failed(row), Err(single)) => {
                assert!(!single.is_no_noise());
                assert!(same_bits(row, &single), "{row:?} vs {single:?}");
            }
            (row, single) => panic!("row {row:?} disagrees with analyze: {single:?}"),
        }
    }

    // The combined view is worst-case superposition of the per-aggressor
    // estimates with pinned windows.
    let contributions: Vec<_> = singles
        .iter()
        .map(|e| (e.estimate, TimingWindow::pinned()))
        .collect();
    let combined = analysis.worst_case().expect("estimates combine");
    assert!(same_bits(&combined, &worst_case(&contributions)));
    assert_eq!(
        analysis.worst_rung(),
        singles.iter().map(|e| e.provenance.rung()).max()
    );
    assert_eq!(
        analysis.degraded(),
        analysis.first_failure().is_some() || singles.iter().any(|e| e.provenance.degraded())
    );
    analysis
        .rows
        .into_iter()
        .map(|(_, outcome)| outcome)
        .collect()
}

#[test]
fn strict_rows_cover_estimate_no_coupling_and_failure() {
    let outcomes = check_rows_match_per_aggressor_calls(FallbackPolicy::strict());
    assert_eq!(outcomes.len(), 3);
    assert!(matches!(&outcomes[0], AggressorOutcome::Estimate(e) if !e.provenance.degraded()));
    assert!(matches!(outcomes[1], AggressorOutcome::NoCoupling));
    assert!(matches!(
        outcomes[2],
        AggressorOutcome::Failed(RobustError::StrictDegradation(_))
    ));
}

#[test]
fn default_policy_answers_every_row_and_reports_the_worst_rung() {
    let outcomes = check_rows_match_per_aggressor_calls(FallbackPolicy::default());
    assert_eq!(outcomes.len(), 3);
    assert!(matches!(outcomes[1], AggressorOutcome::NoCoupling));
    let AggressorOutcome::Estimate(lumped) = &outcomes[2] else {
        panic!("the lumped rung answers lane 9: {:?}", outcomes[2]);
    };
    assert_eq!(lumped.provenance.rung(), Rung::LumpedPi);
}

#[test]
fn strict_failure_ends_the_rows_and_degrades_the_victim() {
    let (network, [direct, indirect, bipolar]) = bus_slice().expect("bus slice builds");
    let robust =
        RobustAnalyzer::with_policy(&network, FallbackPolicy::strict()).expect("network validates");
    let input = InputSignal::rising_ramp(0.0, 100e-12);
    let analysis = robust.analyze_all(&[bipolar, direct, indirect], &input);
    assert_eq!(
        analysis.rows.len(),
        1,
        "strict stops at the first failed row"
    );
    assert_eq!(analysis.first_failure().map(|(i, _)| i), Some(0));
    assert!(analysis.degraded());
    assert!(analysis.worst_case().is_none());
    assert!(analysis.worst_rung().is_none());

    let none = robust.analyze_all(&[], &input);
    assert!(none.rows.is_empty() && !none.degraded() && none.worst_case().is_none());
}
