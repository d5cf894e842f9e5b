//! Shared fixtures for the benchmarks.
//!
//! The benches time pipelines and write the `BENCH_*.json` artifacts; the
//! paper's tables and Figure 5 themselves come from the `xtalk-eval`
//! binaries (`table1`, `table2`, `table3`, `figure5`) and from
//! `xtalk sweep --family all`.

use xtalk_circuit::{signal::InputSignal, NetId, Network};
use xtalk_tech::{CouplingDirection, Technology, TwoPinSpec};

pub mod diff;

/// A mid-range two-pin coupling circuit used by the throughput benches.
pub fn reference_two_pin() -> (Network, NetId, InputSignal) {
    let tech = Technology::p25();
    let spec = TwoPinSpec {
        l1: 0.3e-3,
        l2: 0.8e-3,
        l3: 1.5e-3,
        direction: CouplingDirection::FarEnd,
        victim_driver: 200.0,
        aggressor_driver: 150.0,
        victim_load: 20e-15,
        aggressor_load: 20e-15,
        segments_per_mm: 8,
    };
    let (network, aggressor) = spec.build(&tech).expect("reference spec is valid");
    (network, aggressor, InputSignal::rising_ramp(0.0, 100e-12))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_circuit_builds() {
        let (net, agg, input) = reference_two_pin();
        assert!(net.node_count() > 10);
        assert!(net.couplings_between(agg, net.victim()).count() > 0);
        assert!(input.transition() > 0.0);
    }
}
