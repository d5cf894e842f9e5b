//! Equivalence of the incremental session with the plain algorithms it
//! replaces: every report equals a freshly built session's report and
//! the full `sort_by` ranking of its own rows, under scripts that mix all
//! five delta kinds with reverts; and a fixed script's query and memo
//! accounting is pinned, so ranking or routing changes cannot shift the
//! hit/miss/invalidation counts silently.

#![allow(clippy::unwrap_used)] // test code; helpers sit outside #[test] fns

use proptest::prelude::*;
use xtalk_circuit::{Delta, NetId, Network, NodeId};
use xtalk_core::memo::MemoStats;
use xtalk_incr::{NetNoise, NoiseReport, SessionStats, WhatIf, WhatIfConfig};
use xtalk_tech::{ClusterSpec, Technology};

/// One script step, with its target as a fraction of the element table
/// so any script fits any cluster.
#[derive(Debug, Clone)]
enum Step {
    Driver(f64, f64),
    Sink(f64, f64),
    Resistor(f64, f64),
    GroundCap(f64, f64),
    Coupling(f64, f64),
    Revert,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0.0..1.0f64, 40.0..500.0f64).prop_map(|(t, v)| Step::Driver(t, v)),
        (0.0..1.0f64, 1e-15..4e-14f64).prop_map(|(t, v)| Step::Sink(t, v)),
        (0.0..1.0f64, 2.0..120.0f64).prop_map(|(t, v)| Step::Resistor(t, v)),
        (0.0..1.0f64, 5e-16..1e-14f64).prop_map(|(t, v)| Step::GroundCap(t, v)),
        (0.0..1.0f64, 1e-15..3e-14f64).prop_map(|(t, v)| Step::Coupling(t, v)),
        Just(Step::Revert),
    ]
}

fn pick(frac: f64, len: usize) -> usize {
    ((frac * len as f64) as usize).min(len - 1)
}

fn sink_nodes(net: &Network) -> Vec<NodeId> {
    net.nets()
        .flat_map(|(_, n)| n.sinks().iter().map(|s| s.node))
        .collect()
}

fn as_delta(step: &Step, net: &Network) -> Option<Delta> {
    Some(match *step {
        Step::Driver(t, ohms) => {
            let nets: Vec<NetId> = net.nets().map(|(id, _)| id).collect();
            Delta::ResizeDriver { net: nets[pick(t, nets.len())], ohms }
        }
        Step::Sink(t, farads) => {
            let sinks = sink_nodes(net);
            Delta::SetSinkCap { node: sinks[pick(t, sinks.len())], farads }
        }
        Step::Resistor(t, ohms) => Delta::SetResistor {
            index: pick(t, net.resistors().len()),
            ohms,
        },
        Step::GroundCap(t, farads) => Delta::SetGroundCap {
            index: pick(t, net.ground_caps().len()),
            farads,
        },
        Step::Coupling(t, farads) => Delta::SetCouplingCap {
            index: pick(t, net.coupling_caps().len()),
            farads,
        },
        Step::Revert => return None,
    })
}

fn figure4(lanes: usize) -> (Network, Vec<NetId>) {
    ClusterSpec::figure4_family(lanes)
        .build(&Technology::p25())
        .unwrap()
}

/// The reference ranking: the report's own rows collected in index
/// order, then stably sorted by `vp` descending with ties by index.
fn reference_ranking(report: &NoiseReport) -> Vec<NetNoise> {
    let mut rows = report.nets.clone();
    rows.sort_by_key(|n| n.index);
    rows.sort_by(|a, b| {
        b.vp.partial_cmp(&a.vp)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index))
    });
    rows
}

fn check(session: &WhatIf, report: &NoiseReport) -> Result<(), TestCaseError> {
    let fresh = WhatIf::new(session.base().clone(), WhatIfConfig::default())
        .unwrap()
        .report();
    prop_assert_eq!(report, &fresh);
    prop_assert_eq!(report.to_json(), fresh.to_json());
    prop_assert_eq!(&report.nets, &reference_ranking(report));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random scripts over all five delta kinds and reverts on Figure-4
    /// clusters of 2, 16 and 64 lanes: every report equals a fresh
    /// session's and the full-sort ranking of its rows.
    #[test]
    fn every_report_matches_a_fresh_session_and_a_full_sort(
        size in 0usize..3,
        script in prop::collection::vec(step(), 1..10),
    ) {
        let lanes = [2, 16, 64][size];
        let (base, _) = figure4(lanes);
        let mut session = WhatIf::new(base, WhatIfConfig::default()).unwrap();
        let first = session.report();
        check(&session, &first)?;
        for s in &script {
            let report = match as_delta(s, session.base()) {
                Some(d) => session.apply(&d).unwrap(),
                None => match session.revert().unwrap() {
                    Some(r) => r,
                    None => continue,
                },
            };
            check(&session, &report)?;
        }
    }
}

/// The fixed script behind [`session_accounting_is_pinned`]: every delta
/// kind, reverts in between, on a 64-lane cluster.
fn fixed_script() -> WhatIf {
    let (base, lanes) = figure4(64);
    let sink = base.net(lanes[31]).sinks()[0].node;
    let ncc = base.coupling_caps().len();
    let nres = base.resistors().len();
    let ngc = base.ground_caps().len();
    let mut s = WhatIf::new(base, WhatIfConfig::default()).unwrap();
    s.report();
    s.apply(&Delta::ResizeDriver { net: lanes[0], ohms: 90.0 }).unwrap();
    s.apply(&Delta::SetCouplingCap { index: 7, farads: 9e-15 }).unwrap();
    s.revert().unwrap();
    s.apply(&Delta::SetResistor { index: nres / 2, ohms: 30.0 }).unwrap();
    s.apply(&Delta::SetGroundCap { index: ngc - 1, farads: 1e-15 }).unwrap();
    s.apply(&Delta::SetSinkCap { node: sink, farads: 20e-15 }).unwrap();
    s.revert().unwrap();
    s.revert().unwrap();
    s.apply(&Delta::ResizeDriver { net: lanes[63], ohms: 70.0 }).unwrap();
    s.apply(&Delta::SetCouplingCap { index: ncc - 1, farads: 2e-15 }).unwrap();
    s.apply(&Delta::ResizeDriver { net: lanes[0], ohms: 90.0 }).unwrap();
    s.revert().unwrap();
    s.report();
    s
}

/// Query, invalidation and memo counts of [`fixed_script`], recorded
/// from the full-scan, full-sort session. Layerbench derives
/// `incr.query.hit_ratio`, `incr.invalidated` and `core.memo.hit_ratio`
/// from exactly these counters.
#[test]
fn session_accounting_is_pinned() {
    let s = fixed_script();
    assert_eq!(
        s.stats(),
        SessionStats {
            queries: 896,
            hits: 805,
            misses: 91,
            invalidated: 27,
            deltas: 8,
            reverts: 4,
        }
    );
    assert_eq!(s.memo_stats(), MemoStats { hits: 266, misses: 76 });
}
