//! Per-layer accounting for traced runs.
//!
//! The benchmark times each call it makes into a layer's public function
//! and adds the per-workload counters beside them. Layer names follow
//! the crates the calls land in (`circuit.*`, `core.*`, `sim.*`,
//! `serve.*`, `incr.*`). Every traced run reports the whole catalogue
//! below, so a layer a workload bypasses shows as zero calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use xtalk_core::Rung;
use xtalk_sim::GoldenTier;

use crate::percentile;

/// Timed layers, and whether per-call percentiles are published for
/// them (only layers called at least a thousand times in a run).
const TIMED: [(&str, bool); 12] = [
    ("circuit.stream_index", false),
    ("circuit.partition", false),
    ("circuit.island", true),
    ("core.analyzer_build", true),
    ("core.chain", true),
    ("core.superpose", true),
    ("sim.golden", true),
    ("serve.decode", true),
    ("circuit.deck_parse", true),
    ("incr.build", false),
    ("incr.apply", true),
    ("incr.revert", true),
];

/// Counters and ratios, with their units.
const COUNTS: [(&str, &str); 16] = [
    ("core.chain.metric2", "count"),
    ("core.chain.metric1", "count"),
    ("core.chain.bounds", "count"),
    ("core.chain.lumped_pi", "count"),
    ("core.chain.failed", "count"),
    ("core.chain.useful_ratio", "ratio"),
    ("sim.golden.analytic", "count"),
    ("sim.golden.transient", "count"),
    ("sim.golden.failed", "count"),
    ("serve.transport.mean_us", "us"),
    ("incr.query.hit_ratio", "ratio"),
    ("incr.invalidated", "count"),
    ("core.memo.hit_ratio", "ratio"),
    ("degraded", "count"),
    ("ops", "count"),
    ("untraced.wall_s", "s"),
];

/// Counter of the rung that answered a chain call.
pub fn rung_counter(rung: Rung) -> &'static str {
    match rung {
        Rung::MetricTwo => "core.chain.metric2",
        Rung::MetricOneSymmetric => "core.chain.metric1",
        Rung::Bounds => "core.chain.bounds",
        Rung::LumpedPi => "core.chain.lumped_pi",
    }
}

/// Counter of the golden tier that produced a reference.
pub fn tier_counter(tier: GoldenTier) -> &'static str {
    match tier {
        GoldenTier::Analytic => "sim.golden.analytic",
        GoldenTier::Transient => "sim.golden.transient",
    }
}

#[derive(Default)]
struct Timed {
    busy: Duration,
    samples_ns: Vec<u64>,
}

/// Layer timings and counters of one traced run.
#[derive(Default)]
pub struct Layers {
    timed: BTreeMap<&'static str, Timed>,
    counts: BTreeMap<&'static str, f64>,
    wall: Duration,
}

impl Layers {
    /// Times one call into `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let took = started.elapsed();
        debug_assert!(
            TIMED.iter().any(|(n, _)| *n == layer),
            "unknown layer {layer}"
        );
        let t = self.timed.entry(layer).or_default();
        t.busy += took;
        t.samples_ns
            .push(u64::try_from(took.as_nanos()).unwrap_or(u64::MAX));
        out
    }

    /// Adds `by` to counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        debug_assert!(
            COUNTS.iter().any(|(n, _)| *n == name),
            "unknown counter {name}"
        );
        *self.counts.entry(name).or_default() += by;
    }

    /// Sets counter `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            COUNTS.iter().any(|(n, _)| *n == name),
            "unknown counter {name}"
        );
        self.counts.insert(name, value);
    }

    /// Adds traced wall time: the stretch the layers are accounted
    /// against, excluding the benchmark's own output checks. The same
    /// work untraced goes to the `untraced.wall_s` counter, so the gap
    /// between the two is the tracing overhead.
    pub fn add_wall(&mut self, d: Duration) {
        self.wall += d;
    }

    fn busy_total(&self) -> Duration {
        self.timed.values().map(|t| t.busy).sum()
    }

    fn unaccounted_s(&self) -> f64 {
        self.wall.as_secs_f64() - self.busy_total().as_secs_f64()
    }

    /// Mean traced wall time per operation (µs) over `ops` operations.
    pub fn mean_wall_us(&self, ops: usize) -> f64 {
        self.wall.as_secs_f64() * 1e6 / ops.max(1) as f64
    }

    /// Derives the useful-work ratio of the robust chain: the share of
    /// chain calls answered by its first rung, Metric II.
    pub fn finish_chain_ratio(&mut self) {
        let calls = self
            .timed
            .get("core.chain")
            .map_or(0, |t| t.samples_ns.len());
        let metric2 = self
            .counts
            .get("core.chain.metric2")
            .copied()
            .unwrap_or(0.0);
        if calls > 0 {
            self.set("core.chain.useful_ratio", metric2 / calls as f64);
        }
    }

    fn percentiles_us(&self, layer: &str) -> (f64, f64) {
        let Some(t) = self.timed.get(layer) else {
            return (0.0, 0.0);
        };
        if t.samples_ns.is_empty() {
            return (0.0, 0.0);
        }
        let mut us: Vec<f64> = t.samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        us.sort_by(f64::total_cmp);
        (percentile(&us, 0.50), percentile(&us, 0.99))
    }

    /// Every per-layer metric, in catalogue order.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let mut out = Vec::new();
        for (layer, pct) in TIMED {
            let (calls, busy) = self
                .timed
                .get(layer)
                .map_or((0, 0.0), |t| (t.samples_ns.len(), t.busy.as_secs_f64()));
            out.push((format!("{layer}.calls"), calls as f64, "count"));
            out.push((format!("{layer}.busy_s"), busy, "s"));
            if pct {
                let (p50, p99) = self.percentiles_us(layer);
                out.push((format!("{layer}.p50_us"), p50, "us"));
                out.push((format!("{layer}.p99_us"), p99, "us"));
            }
        }
        for (name, unit) in COUNTS {
            let v = self.counts.get(name).copied().unwrap_or(0.0);
            out.push((name.to_string(), v, unit));
        }
        out.push(("traced.wall_s".into(), self.wall.as_secs_f64(), "s"));
        out.push(("unaccounted.busy_s".into(), self.unaccounted_s(), "s"));
        out
    }

    /// Human-readable layer table: calls, busy time, share of traced
    /// wall time, and per-call percentiles.
    pub fn table(&self) -> String {
        let wall = self.wall.as_secs_f64();
        let share = |s: f64| if wall > 0.0 { s / wall * 100.0 } else { 0.0 };
        let mut out = format!(
            "{:<22} {:>9} {:>10} {:>7} {:>11} {:>11}\n",
            "layer", "calls", "busy_s", "share%", "p50_us", "p99_us"
        );
        for (layer, _) in TIMED {
            let Some(t) = self.timed.get(layer) else {
                continue;
            };
            let (p50, p99) = self.percentiles_us(layer);
            let busy = t.busy.as_secs_f64();
            let _ = writeln!(
                out,
                "{layer:<22} {:>9} {busy:>10.4} {:>7.2} {p50:>11.2} {p99:>11.2}",
                t.samples_ns.len(),
                share(busy)
            );
        }
        let un = self.unaccounted_s();
        let _ = writeln!(
            out,
            "{:<22} {:>9} {un:>10.4} {:>7.2}",
            "unaccounted",
            "-",
            share(un)
        );
        let _ = writeln!(
            out,
            "{:<22} {:>9} {wall:>10.4} {:>7.2}",
            "traced wall", "-", 100.0
        );
        for (name, _) in COUNTS {
            if let Some(v) = self.counts.get(name) {
                let _ = writeln!(out, "{name:<30} {v}");
            }
        }
        out
    }
}
