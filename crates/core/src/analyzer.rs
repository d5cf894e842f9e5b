use crate::{
    MetricError, MetricOne, MetricTwo, NoiseBounds, NoiseEstimate, OutputMoments,
};
use xtalk_circuit::{signal::InputSignal, NetId, Network, NodeId};
use xtalk_moments::MomentEngine;

/// Which closed-form metric to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MetricKind {
    /// Metric I with `m` from eq. (54); symmetric `m = 1` for steps.
    One,
    /// Metric I with the fixed symmetric shape `m = 1` (eqs. 41–46).
    OneSymmetric,
    /// Metric II with the default `λ` — the paper's recommended metric.
    #[default]
    Two,
}

/// High-level facade: network in, noise estimates out.
///
/// Owns a factored [`MomentEngine`] for the network, so per-aggressor
/// estimates cost a few `O(n²)` solves plus constant-time metric formulas.
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct NoiseAnalyzer<'a> {
    network: &'a Network,
    engine: MomentEngine,
}

impl<'a> NoiseAnalyzer<'a> {
    /// Builds the analyzer (factors the MNA system once).
    ///
    /// # Errors
    ///
    /// Propagates moment-engine construction failures.
    pub fn new(network: &'a Network) -> Result<Self, MetricError> {
        Ok(NoiseAnalyzer {
            network,
            engine: MomentEngine::new(network)?,
        })
    }

    /// The analyzed network.
    pub fn network(&self) -> &Network {
        self.network
    }

    /// The underlying moment engine (for baselines and diagnostics).
    pub fn engine(&self) -> &MomentEngine {
        &self.engine
    }

    /// Exact transfer Taylor coefficients `h0..h3` from `aggressor` to the
    /// victim output.
    ///
    /// # Errors
    ///
    /// Propagates moment-engine failures.
    pub fn transfer_taylor(&self, aggressor: NetId) -> Result<Vec<f64>, MetricError> {
        Ok(self
            .engine
            .transfer_taylor(aggressor, self.network.victim_output(), 4)?)
    }

    /// Output moments `f1..f3` for one aggressor and input, observed at the
    /// victim output (eqs. 11–14).
    ///
    /// # Errors
    ///
    /// [`MetricError::NoNoise`] when the aggressor couples nothing into
    /// the observation node.
    pub fn output_moments(
        &self,
        aggressor: NetId,
        input: &InputSignal,
    ) -> Result<OutputMoments, MetricError> {
        self.output_moments_at(aggressor, input, self.network.victim_output())
    }

    /// Like [`NoiseAnalyzer::output_moments`], observed at an arbitrary
    /// victim node.
    ///
    /// # Errors
    ///
    /// As [`NoiseAnalyzer::output_moments`].
    pub fn output_moments_at(
        &self,
        aggressor: NetId,
        input: &InputSignal,
        node: NodeId,
    ) -> Result<OutputMoments, MetricError> {
        let h = self.engine.transfer_taylor(aggressor, node, 4)?;
        OutputMoments::from_transfer(&h, input)
    }

    /// Full closed-form noise estimate for one aggressor switching.
    ///
    /// # Errors
    ///
    /// Propagates moment and metric errors ([`MetricError::NoNoise`],
    /// [`MetricError::NonPhysicalMoments`], …).
    pub fn analyze(
        &self,
        aggressor: NetId,
        input: &InputSignal,
        kind: MetricKind,
    ) -> Result<NoiseEstimate, MetricError> {
        self.analyze_at(aggressor, input, kind, self.network.victim_output())
    }

    /// Like [`NoiseAnalyzer::analyze`], observed at an arbitrary victim
    /// node (e.g. a non-critical sink of a multi-fanout victim).
    ///
    /// # Errors
    ///
    /// As [`NoiseAnalyzer::analyze`].
    pub fn analyze_at(
        &self,
        aggressor: NetId,
        input: &InputSignal,
        kind: MetricKind,
        node: NodeId,
    ) -> Result<NoiseEstimate, MetricError> {
        let f = self.output_moments_at(aggressor, input, node)?;
        Self::estimate_from_moments(&f, input, kind)
    }

    /// The paper's *fully closed-form* pipeline: the transfer coefficients
    /// come from the tree formulas (`a1`, `b1`, `b2` — refs. \[11\]\[13\]; no
    /// matrix solve anywhere) instead of the exact MNA recursion. A few
    /// percent less accurate than [`NoiseAnalyzer::analyze`] (the
    /// second-order numerator terms are truncated, as in the paper), but
    /// `O(n + k²)` per net with five basic operations only.
    ///
    /// # Errors
    ///
    /// As [`NoiseAnalyzer::analyze`].
    pub fn analyze_closed_form(
        &self,
        aggressor: NetId,
        input: &InputSignal,
        kind: MetricKind,
    ) -> Result<NoiseEstimate, MetricError> {
        let fit = xtalk_moments::tree::closed_form_fit(
            self.network,
            aggressor,
            self.network.victim_output(),
        );
        let f = OutputMoments::from_transfer(&fit.taylor(), input)?;
        Self::estimate_from_moments(&f, input, kind)
    }

    fn estimate_from_moments(
        f: &OutputMoments,
        input: &InputSignal,
        kind: MetricKind,
    ) -> Result<NoiseEstimate, MetricError> {
        Self::estimate_for(f, input.effective_rise_time(), kind)
    }

    /// Single-case metric dispatch on already-computed output moments:
    /// `t_r` is the input's effective rise time (`≤ 0` = ideal step, which
    /// falls back to the symmetric shape `m = 1`).
    ///
    /// # Errors
    ///
    /// Propagates the metric errors of [`MetricOne`] / [`MetricTwo`].
    pub fn estimate_for(
        f: &OutputMoments,
        t_r: f64,
        kind: MetricKind,
    ) -> Result<NoiseEstimate, MetricError> {
        match kind {
            MetricKind::One => {
                if t_r > 0.0 {
                    MetricOne::estimate_auto(f, t_r)
                } else {
                    MetricOne::estimate_symmetric(f)
                }
            }
            MetricKind::OneSymmetric => MetricOne::estimate_symmetric(f),
            MetricKind::Two => {
                let metric = MetricTwo::default();
                if t_r > 0.0 {
                    metric.estimate_auto(f, t_r)
                } else {
                    metric.estimate(f, 1.0)
                }
            }
        }
    }

    /// Closed-form parameter bounds (eqs. 37–40) for one aggressor.
    ///
    /// # Errors
    ///
    /// As [`NoiseAnalyzer::output_moments`].
    pub fn bounds(
        &self,
        aggressor: NetId,
        input: &InputSignal,
    ) -> Result<NoiseBounds, MetricError> {
        let f = self.output_moments(aggressor, input)?;
        MetricOne::bounds(&f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_circuit::{NetRole, NetworkBuilder};

    fn two_aggressor_network() -> (Network, Vec<NetId>) {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a1 = b.add_net("a1", NetRole::Aggressor);
        let a2 = b.add_net("a2", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let a1n = b.add_node(a1, "a1n");
        let a2n = b.add_node(a2, "a2n");
        b.add_driver(v, v0, 300.0).unwrap();
        b.add_driver(a1, a1n, 150.0).unwrap();
        b.add_driver(a2, a2n, 150.0).unwrap();
        b.add_resistor(v0, v1, 80.0).unwrap();
        b.add_ground_cap(v1, 5e-15).unwrap();
        b.add_sink(v1, 10e-15).unwrap();
        b.add_sink(a1n, 10e-15).unwrap();
        b.add_sink(a2n, 10e-15).unwrap();
        b.add_coupling_cap(a1n, v1, 15e-15).unwrap();
        b.add_coupling_cap(a2n, v0, 8e-15).unwrap();
        let net = b.build().unwrap();
        let aggs = net.aggressor_nets().map(|(id, _)| id).collect();
        (net, aggs)
    }

    #[test]
    fn all_metric_kinds_produce_consistent_estimates() {
        let (net, aggs) = two_aggressor_network();
        let analyzer = NoiseAnalyzer::new(&net).unwrap();
        let input = InputSignal::rising_ramp(0.0, 1e-10);
        for kind in [MetricKind::One, MetricKind::OneSymmetric, MetricKind::Two] {
            let est = analyzer.analyze(aggs[0], &input, kind).unwrap();
            assert!(est.vp > 0.0 && est.vp < 1.0, "{kind:?}: vp = {}", est.vp);
            assert!((est.tp - (est.t0 + est.t1)).abs() < 1e-9 * est.t1);
            assert!((est.wn - (est.t1 + est.t2)).abs() < 1e-9 * est.wn);
        }
    }

    #[test]
    fn estimates_respect_bounds() {
        let (net, aggs) = two_aggressor_network();
        let analyzer = NoiseAnalyzer::new(&net).unwrap();
        let input = InputSignal::rising_ramp(0.0, 1.2e-10);
        let bounds = analyzer.bounds(aggs[0], &input).unwrap();
        for kind in [MetricKind::One, MetricKind::OneSymmetric] {
            let est = analyzer.analyze(aggs[0], &input, kind).unwrap();
            assert!(bounds.contains(&est), "{kind:?}: {est:?} vs {bounds:?}");
        }
    }

    #[test]
    fn closer_coupling_gives_larger_noise() {
        // a1 couples at the output node, a2 at the driver node: a1's noise
        // at the output must be larger (coupling-location effect).
        let (net, aggs) = two_aggressor_network();
        let analyzer = NoiseAnalyzer::new(&net).unwrap();
        let input = InputSignal::rising_ramp(0.0, 1e-10);
        let near = analyzer.analyze(aggs[0], &input, MetricKind::Two).unwrap();
        let far = analyzer.analyze(aggs[1], &input, MetricKind::Two).unwrap();
        assert!(near.vp > far.vp, "{} vs {}", near.vp, far.vp);
    }

    #[test]
    fn closed_form_pipeline_tracks_exact_moments() {
        let (net, aggs) = two_aggressor_network();
        let analyzer = NoiseAnalyzer::new(&net).unwrap();
        let input = InputSignal::rising_ramp(0.0, 1e-10);
        for kind in [MetricKind::One, MetricKind::Two] {
            let exact = analyzer.analyze(aggs[0], &input, kind).unwrap();
            let closed = analyzer.analyze_closed_form(aggs[0], &input, kind).unwrap();
            // Same a1 (both exact); b2 truncation perturbs the rest a little.
            assert!(
                (closed.vp - exact.vp).abs() < 0.3 * exact.vp,
                "{kind:?}: {} vs {}",
                closed.vp,
                exact.vp
            );
            assert!((closed.wn - exact.wn).abs() < 0.5 * exact.wn);
            assert!(closed.t1 > 0.0 && closed.t2 > 0.0);
        }
    }

    #[test]
    fn falling_input_flips_polarity() {
        let (net, aggs) = two_aggressor_network();
        let analyzer = NoiseAnalyzer::new(&net).unwrap();
        let rise = analyzer
            .analyze(aggs[0], &InputSignal::rising_ramp(0.0, 1e-10), MetricKind::Two)
            .unwrap();
        let fall = analyzer
            .analyze(aggs[0], &InputSignal::falling_ramp(0.0, 1e-10), MetricKind::Two)
            .unwrap();
        assert_eq!(rise.vp, fall.vp);
        assert_eq!(rise.polarity, 1.0);
        assert_eq!(fall.polarity, -1.0);
        assert_eq!(fall.signed_vp(), -rise.vp);
    }

    #[test]
    fn step_input_falls_back_to_symmetric_shape() {
        let (net, aggs) = two_aggressor_network();
        let analyzer = NoiseAnalyzer::new(&net).unwrap();
        let est = analyzer
            .analyze(aggs[0], &InputSignal::step(0.0), MetricKind::One)
            .unwrap();
        assert!((est.m - 1.0).abs() < 1e-12);
        assert!(est.vp > 0.0);
    }

    #[test]
    fn observation_node_matters() {
        let (net, aggs) = two_aggressor_network();
        let analyzer = NoiseAnalyzer::new(&net).unwrap();
        let input = InputSignal::rising_ramp(0.0, 1e-10);
        let driver_node = net.victim_net().driver().node;
        let at_driver = analyzer
            .analyze_at(aggs[0], &input, MetricKind::Two, driver_node)
            .unwrap();
        let at_output = analyzer.analyze(aggs[0], &input, MetricKind::Two).unwrap();
        // Coupling sits at the output node; the driver node sees less.
        assert!(at_driver.vp < at_output.vp);
    }
}
