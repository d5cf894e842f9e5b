//! Lane-batched golden measurement is exactly the per-job measurement.
//!
//! [`golden_noise_batch`] marches same-pattern sparse systems in lockstep
//! through the lane-batched stepping kernel. Its contract is that each
//! job's result is bit-identical to a [`golden_noise_tiered`] call on that
//! job alone, under every [`GoldenOpts`]. The batches here mix:
//!
//! * a shared-pattern group of random branching networks, more jobs than
//!   one march holds, with R/C values, stimuli (shape, slew, arrival,
//!   aggressor count) and observation node drawn per lane — so lanes
//!   differ in `dt`, step count, sources and probe;
//! * a truncating lane (a slow exponential on a fast network) inside that
//!   group, which must resume per job;
//! * a singleton group (a different topology) and a dense-backend job.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xtalk_circuit::{signal::InputSignal, NetId, NetRole, Network, NetworkBuilder};
use xtalk_moments::tree::open_circuit_b1;
use xtalk_sim::{
    golden_noise_batch, golden_noise_tiered, measure_noise, FastTier, GoldenJob, GoldenOpts,
    SimError, SimMode, SimOptions, SimWorkspace, TransientSim, BATCH_LANES,
};

/// The structure of a branching victim with two coupled aggressor
/// chains; every lane built from one topology has the same elements in
/// the same order, hence the same sparsity pattern.
#[derive(Debug, Clone)]
struct Topology {
    segs: usize,
    branch_at: usize,
    branch_len: usize,
    /// `(aggressor 0/1, victim chain position)` coupling sites.
    couplings: Vec<(usize, usize)>,
}

fn topology(rng: &mut StdRng) -> Topology {
    let segs = rng.random_range(4..7);
    let mut couplings = Vec::new();
    for pos in 1..=segs {
        for agg in 0..2 {
            if rng.random_bool(0.6) {
                couplings.push((agg, pos));
            }
        }
    }
    if couplings.is_empty() {
        couplings.push((0, segs));
    }
    Topology {
        segs,
        branch_at: rng.random_range(1..segs),
        branch_len: rng.random_range(1..4),
        couplings,
    }
}

/// Builds one lane of `topo` with R/C values from `rng`, observing the
/// chain end or the branch end.
fn build(topo: &Topology, rng: &mut StdRng, branch_output: bool) -> (Network, [NetId; 2]) {
    let mut b = NetworkBuilder::new();
    let v = b.add_net("v", NetRole::Victim);
    let aggs = [
        b.add_net("a0", NetRole::Aggressor),
        b.add_net("a1", NetRole::Aggressor),
    ];
    let chain = |b: &mut NetworkBuilder, net: NetId, tag: &str, len: usize, rng: &mut StdRng| {
        let mut nodes = vec![b.add_node(net, format!("{tag}0"))];
        b.add_driver(net, nodes[0], rng.random_range(40.0..400.0))
            .unwrap();
        for i in 1..=len {
            let n = b.add_node(net, format!("{tag}{i}"));
            b.add_resistor(nodes[i - 1], n, rng.random_range(5.0..60.0))
                .unwrap();
            b.add_ground_cap(n, rng.random_range(1e-15..6e-15)).unwrap();
            nodes.push(n);
        }
        nodes
    };
    let vn = chain(&mut b, v, "v", topo.segs, rng);
    let an = [
        chain(&mut b, aggs[0], "x", topo.segs, rng),
        chain(&mut b, aggs[1], "y", topo.segs, rng),
    ];
    let mut prev = vn[topo.branch_at];
    for i in 0..topo.branch_len {
        let n = b.add_node(v, format!("b{i}"));
        b.add_resistor(prev, n, rng.random_range(5.0..60.0))
            .unwrap();
        b.add_ground_cap(n, rng.random_range(1e-15..6e-15)).unwrap();
        prev = n;
    }
    let (chain_end, branch_end) = (vn[topo.segs], prev);
    b.add_sink(chain_end, rng.random_range(3e-15..12e-15))
        .unwrap();
    b.add_sink(branch_end, rng.random_range(3e-15..12e-15))
        .unwrap();
    for a in &an {
        b.add_sink(a[topo.segs], rng.random_range(3e-15..12e-15))
            .unwrap();
    }
    for &(agg, pos) in &topo.couplings {
        b.add_coupling_cap(an[agg][pos], vn[pos], rng.random_range(2e-15..15e-15))
            .unwrap();
    }
    b.set_victim_output(if branch_output { branch_end } else { chain_end });
    (b.build().unwrap(), aggs)
}

/// A random stimulus list: one or both aggressors, ramps or
/// exponentials, rising or falling (all in one direction, the golden
/// convention), staggered arrivals.
fn stimuli(rng: &mut StdRng, aggs: [NetId; 2]) -> Vec<(NetId, InputSignal)> {
    let rising = rng.random_bool(0.5);
    let exp = rng.random_bool(0.3);
    let count = rng.random_range(1..3);
    (0..count)
        .map(|k| {
            let arrival = rng.random_range(0.0..5e-11);
            let slew = rng.random_range(3e-11..3e-10);
            let sig = match (rising, exp) {
                (true, false) => InputSignal::rising_ramp(arrival, slew),
                (false, false) => InputSignal::falling_ramp(arrival, slew),
                (true, true) => InputSignal::rising_exp(arrival, slew),
                (false, true) => InputSignal::falling_exp(arrival, slew),
            };
            (aggs[k], sig)
        })
        .collect()
}

/// A lumped coupled pair: small enough for the dense backend.
fn lumped_pair(rng: &mut StdRng) -> (Network, NetId) {
    let mut b = NetworkBuilder::new();
    let v = b.add_net("v", NetRole::Victim);
    let a = b.add_net("a", NetRole::Aggressor);
    let vn = b.add_node(v, "v0");
    let an = b.add_node(a, "a0");
    b.add_driver(v, vn, rng.random_range(200.0..900.0)).unwrap();
    b.add_driver(a, an, rng.random_range(200.0..900.0)).unwrap();
    b.add_sink(vn, rng.random_range(5e-15..20e-15)).unwrap();
    b.add_sink(an, rng.random_range(5e-15..20e-15)).unwrap();
    b.add_coupling_cap(vn, an, rng.random_range(5e-15..30e-15))
        .unwrap();
    (b.build().unwrap(), a)
}

/// Every field the measurement reports, as bits, plus the tier; errors
/// by their rendering.
fn fingerprint(
    r: &Result<(xtalk_sim::NoiseWaveformParams, xtalk_sim::GoldenTier), SimError>,
) -> Result<([u64; 7], &'static str), String> {
    match r {
        Ok((p, tier)) => Ok((
            [p.vp, p.tp, p.t0, p.t1, p.t2, p.wn, p.area].map(f64::to_bits),
            tier.as_str(),
        )),
        Err(e) => Err(e.to_string()),
    }
}

struct Case {
    networks: Vec<Network>,
    stimuli: Vec<Vec<(NetId, InputSignal)>>,
    /// Job order: a shuffle interleaving the groups.
    order: Vec<usize>,
    truncating: usize,
}

fn case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = topology(&mut rng);
    let mut networks = Vec::new();
    let mut stims = Vec::new();
    // The shared group: more lanes than one march holds.
    for _ in 0..BATCH_LANES + 3 {
        let branch = rng.random_bool(0.5);
        let (net, aggs) = build(&topo, &mut rng, branch);
        stims.push(stimuli(&mut rng, aggs));
        networks.push(net);
    }
    // A truncating lane in the same group: an exponential slower than
    // the auto horizon's 25·b1 tail allowance.
    let (net, aggs) = build(&topo, &mut rng, false);
    let slew = 5000.0 * open_circuit_b1(&net);
    stims.push(vec![(aggs[0], InputSignal::rising_exp(0.0, slew))]);
    networks.push(net);
    let truncating = networks.len() - 1;
    // A singleton group and a dense job.
    let mut other = topo.clone();
    other.segs += 1;
    other.couplings.push((1, other.segs));
    let (net, aggs) = build(&other, &mut rng, true);
    stims.push(stimuli(&mut rng, aggs));
    networks.push(net);
    let (net, agg) = lumped_pair(&mut rng);
    stims.push(vec![(agg, InputSignal::rising_ramp(0.0, 1e-10))]);
    networks.push(net);
    let mut order: Vec<usize> = (0..networks.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    Case {
        networks,
        stimuli: stims,
        order,
        truncating,
    }
}

fn check(case: &Case, gopts: &GoldenOpts) -> Result<(), TestCaseError> {
    let jobs: Vec<GoldenJob<'_>> = case
        .order
        .iter()
        .map(|&i| GoldenJob {
            network: &case.networks[i],
            stimuli: &case.stimuli[i],
            node: case.networks[i].victim_output(),
        })
        .collect();
    let mut ws = SimWorkspace::new();
    let batched = golden_noise_batch(&jobs, &mut ws, gopts);
    prop_assert_eq!(batched.len(), jobs.len());
    for (i, (job, got)) in jobs.iter().zip(&batched).enumerate() {
        let want = golden_noise_tiered(
            job.network,
            job.stimuli,
            job.node,
            &mut SimWorkspace::new(),
            gopts,
        );
        prop_assert_eq!(
            fingerprint(got),
            fingerprint(&want),
            "job {} under {:?}",
            i,
            gopts
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batch_equals_per_job_bit_for_bit(seed in 0u64..1_000_000, pick in 0usize..5) {
        let case = case(seed);
        // The mix really holds what the contract is about.
        let sparse = case
            .networks
            .iter()
            .filter(|n| TransientSim::new(n).unwrap().uses_sparse_solver())
            .count();
        prop_assert_eq!(sparse, case.networks.len() - 1);
        let net = &case.networks[case.truncating];
        let stim = &case.stimuli[case.truncating];
        let first = TransientSim::new(net)
            .unwrap()
            .run(stim, &SimOptions::auto(net, stim))
            .unwrap();
        prop_assert!(matches!(
            measure_noise(first.probe(net.victim_output()).unwrap(), 1.0),
            Err(SimError::Truncated)
        ));

        check(&case, &GoldenOpts::default())?;
        let other = [
            GoldenOpts { mode: SimMode::Adaptive, tier: FastTier::Off },
            GoldenOpts { mode: SimMode::Fixed, tier: FastTier::Auto },
            GoldenOpts { mode: SimMode::Fixed, tier: FastTier::On },
            GoldenOpts { mode: SimMode::Adaptive, tier: FastTier::Auto },
            GoldenOpts { mode: SimMode::Fixed, tier: FastTier::Off },
        ][pick];
        check(&case, &other)?;
    }
}

#[test]
fn empty_stimuli_and_foreign_probes_fail_as_per_job() {
    let mut rng = StdRng::seed_from_u64(7);
    let topo = topology(&mut rng);
    let (a, aggs_a) = build(&topo, &mut rng, false);
    let (b, aggs_b) = build(&topo, &mut rng, true);
    let stim_a = vec![(aggs_a[0], InputSignal::rising_ramp(0.0, 1e-10))];
    let stim_b = vec![(aggs_b[1], InputSignal::falling_ramp(0.0, 2e-10))];
    // A node of `a` that is not its observation node: the fixed march
    // records only the victim output, so the probe lookup fails after it.
    let foreign = a.net(aggs_a[0]).driver().node;
    let jobs = [
        GoldenJob {
            network: &a,
            stimuli: &stim_a,
            node: a.victim_output(),
        },
        GoldenJob {
            network: &b,
            stimuli: &[],
            node: b.victim_output(),
        },
        GoldenJob {
            network: &a,
            stimuli: &stim_a,
            node: foreign,
        },
        GoldenJob {
            network: &b,
            stimuli: &stim_b,
            node: b.victim_output(),
        },
    ];
    let gopts = GoldenOpts::default();
    let batched = golden_noise_batch(&jobs, &mut SimWorkspace::new(), &gopts);
    for (job, got) in jobs.iter().zip(&batched) {
        let want = golden_noise_tiered(
            job.network,
            job.stimuli,
            job.node,
            &mut SimWorkspace::new(),
            &gopts,
        );
        assert_eq!(fingerprint(got), fingerprint(&want));
    }
    assert!(batched[1].is_err() && batched[2].is_err());
    assert!(batched[0].is_ok() && batched[3].is_ok());
}
