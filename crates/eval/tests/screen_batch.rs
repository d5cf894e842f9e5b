//! Batched golden escalation in `screen_deck` measures every flagged net
//! exactly as a per-net [`golden_noise_tiered`] call would.
//!
//! The deck joins three PEX bus arrays with different segment counts, so
//! the escalated islands fall into two shared-pattern groups (one larger
//! than a single lockstep march) and one island with a pattern of its
//! own.

#![allow(clippy::unwrap_used)] // test code; helpers sit outside #[test] fns

use std::collections::HashMap;
use xtalk_circuit::cluster::CouplingClusters;
use xtalk_circuit::spice::stream::{DeckIndex, StreamOptions};
use xtalk_eval::screen::{screen_deck, ScreenConfig};
use xtalk_exec::Jobs;
use xtalk_sim::{golden_noise_tiered, GoldenOpts, SimWorkspace, BATCH_LANES};
use xtalk_tech::{PexDeckSpec, Technology};

/// One bus array's deck, re-labelled to follow `first_net` earlier nets:
/// net indices and driver cards shift, node and element names get a
/// per-array prefix, and every net is an aggressor unless `keep_victim`.
fn relabelled(
    spec: &PexDeckSpec,
    tag: &str,
    first_net: usize,
    keep_victim: bool,
) -> (Vec<String>, Vec<String>, Option<String>) {
    let deck = spec.deck_string(&Technology::p25());
    let (mut nets, mut elements, mut output) = (Vec::new(), Vec::new(), None);
    let node = |tok: &str| {
        if tok == "0" {
            tok.to_string()
        } else {
            format!("{tag}{tok}")
        }
    };
    for line in deck.lines() {
        let toks: Vec<&str> = line.split_whitespace().collect();
        if let Some(rest) = line.strip_prefix("*! net ") {
            let f: Vec<&str> = rest.split_whitespace().collect();
            let idx: usize = f[0].parse().unwrap();
            let role = if keep_victim { f[1] } else { "aggressor" };
            nets.push(format!("*! net {} {role} {tag}{}", idx + first_net, f[2]));
        } else if line.starts_with("*! output") {
            output = Some(format!("*! output {}", node(toks[2])));
        } else if line.starts_with('*') || line.starts_with('.') || line.starts_with("VDRV") {
            continue;
        } else if let Some(idx) = toks[0].strip_prefix("RDRV") {
            let idx: usize = idx.parse().unwrap();
            elements.push(format!(
                "RDRV{} {} {} {}",
                idx + first_net,
                node(toks[1]),
                node(toks[2]),
                toks[3]
            ));
        } else if toks[0].starts_with("CC") || toks[0].starts_with('R') {
            elements.push(format!(
                "{}{tag} {} {} {}",
                toks[0],
                node(toks[1]),
                node(toks[2]),
                toks[3]
            ));
        } else {
            elements.push(format!("{}{tag} {} 0 {}", toks[0], node(toks[1]), toks[3]));
        }
    }
    (nets, elements, output.filter(|_| keep_victim))
}

/// Three bus arrays in one deck: 9 buses of 2 segments (more escalated
/// islands than one march holds), 2 buses of 3 segments and 1 bus of 4.
fn mixed_deck() -> String {
    let spec_of = |buses, segments| {
        let mut s = PexDeckSpec::new(buses, 8, segments);
        s.weak_every = 8;
        s
    };
    let specs = [spec_of(9, 2), spec_of(2, 3), spec_of(1, 4)];
    let (mut nets, mut elements, mut output) = (Vec::new(), Vec::new(), None);
    let mut first = 0;
    for (k, spec) in specs.iter().enumerate() {
        let (n, e, o) = relabelled(spec, &format!("a{k}_"), first, k == 0);
        first += spec.net_count();
        nets.extend(n);
        elements.extend(e);
        output = output.or(o);
    }
    let mut deck = String::from("* three bus arrays\n");
    for line in nets.iter().chain(&output).chain(&elements) {
        deck.push_str(line);
        deck.push('\n');
    }
    deck.push_str(".end\n");
    deck
}

#[test]
fn batched_escalation_matches_per_net_golden() {
    let deck = mixed_deck();
    let config = ScreenConfig {
        jobs: Jobs::Count(1),
        ..ScreenConfig::default()
    };
    let report = screen_deck(deck.as_bytes(), &config).unwrap();
    let parallel = screen_deck(
        deck.as_bytes(),
        &ScreenConfig {
            jobs: Jobs::Count(2),
            ..config.clone()
        },
    )
    .unwrap();
    assert_eq!(report.to_json(), parallel.to_json());

    // Reference: each escalated net alone, through the per-net call.
    let index = DeckIndex::from_reader(
        deck.as_bytes(),
        StreamOptions {
            limits: config.limits.clone(),
            lenient: true,
        },
    )
    .unwrap();
    let clusters = CouplingClusters::partition(&index);
    let input = config.input();
    let mut ws = SimWorkspace::new();
    let mut per_pattern: HashMap<usize, usize> = HashMap::new();
    let escalated: Vec<_> = report.nets.iter().filter(|n| n.escalated).collect();
    for n in &escalated {
        let network = clusters.victim_network(&index, n.index).unwrap();
        let victim = network.victim();
        let stimuli: Vec<_> = network
            .nets()
            .filter(|&(agg, _)| {
                agg != victim && network.couplings_between(agg, victim).next().is_some()
            })
            .map(|(agg, _)| (agg, input))
            .collect();
        let (params, tier) = golden_noise_tiered(
            &network,
            &stimuli,
            network.victim_output(),
            &mut ws,
            &GoldenOpts::from_globals(),
        )
        .unwrap();
        assert_eq!(
            n.golden_vp.map(f64::to_bits),
            Some(params.vp.to_bits()),
            "net {}",
            n.net
        );
        assert_eq!(n.golden_tier, Some(tier.as_str()), "net {}", n.net);
        *per_pattern.entry(network.node_count()).or_default() += 1;
    }
    // Two shared groups (one spanning several marches) and a unique one.
    let mut sizes: Vec<usize> = per_pattern.values().copied().collect();
    sizes.sort_unstable();
    assert_eq!(sizes, vec![1, 2, 9]);
    assert!(
        sizes[2] > BATCH_LANES,
        "the large group spans several marches"
    );
    assert_eq!(escalated.len(), 12);
}
