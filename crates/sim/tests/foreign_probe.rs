//! A golden job probing a node the transient tier does not record fails
//! before any simulator is built. Its own test binary: it reads the
//! process-wide `sim.solve.path.*` counters, which a concurrently running
//! test would move.

use xtalk_circuit::{signal::InputSignal, NetRole, NetworkBuilder};
use xtalk_sim::{
    golden_noise_batch, golden_noise_tiered, GoldenJob, GoldenOpts, SimError, SimWorkspace,
};

#[test]
fn foreign_probe_fails_before_the_simulator_is_built() {
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
    let network = b.build().unwrap();
    let stimuli = [(a, InputSignal::rising_ramp(0.0, 1e-10))];
    let gopts = GoldenOpts::default();
    let mut ws = SimWorkspace::new();
    xtalk_obs::enable_metrics();
    let solver_builds = || -> u64 {
        xtalk_obs::snapshot()
            .counters_with_prefix("sim.solve.path.")
            .map(|(_, n)| n)
            .sum()
    };
    let runs = || {
        xtalk_obs::snapshot()
            .counter("sim.golden.runs")
            .unwrap_or(0)
    };

    // The victim output marches, building one simulator.
    let (before, runs_before) = (solver_builds(), runs());
    golden_noise_tiered(&network, &stimuli, network.victim_output(), &mut ws, &gopts).unwrap();
    assert_eq!(solver_builds(), before + 1);
    assert_eq!(runs(), runs_before + 1);

    // The aggressor's driver node fails with the historical error text,
    // counted as a golden run but with no simulator built.
    let (before, runs_before) = (solver_builds(), runs());
    let err = golden_noise_tiered(&network, &stimuli, an, &mut ws, &gopts).unwrap_err();
    assert!(matches!(err, SimError::BadOptions { .. }));
    assert_eq!(
        err.to_string(),
        SimError::BadOptions {
            detail: format!("probe node {an:?} is not part of the simulated network"),
        }
        .to_string()
    );
    let job = GoldenJob {
        network: &network,
        stimuli: &stimuli,
        node: an,
    };
    let batched = golden_noise_batch(&[job, job], &mut ws, &gopts);
    assert!(batched
        .iter()
        .all(|r| r.as_ref().is_err_and(|e| e.to_string() == err.to_string())));
    assert_eq!(
        solver_builds(),
        before,
        "a failing job moves no sim.solve.path counter"
    );
    assert_eq!(runs(), runs_before + 3);
}
