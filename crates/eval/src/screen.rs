//! Full-chip screen-then-escalate pipeline.
//!
//! This is the paper's methodology applied at chip scale: the
//! closed-form metrics are cheap enough to screen *every* net of a flat
//! extracted deck, so only the small fraction that actually threatens a
//! noise failure ever pays for transient simulation. The pipeline:
//!
//! 1. **Stream** the deck through
//!    [`DeckIndex::from_reader`](xtalk_circuit::spice::stream::DeckIndex)
//!    — bounded memory, `+` continuation support, optional lenient
//!    skipping of benign directives.
//! 2. **Partition** nets into coupling islands with
//!    [`CouplingClusters`](xtalk_circuit::cluster::CouplingClusters).
//! 3. **Screen** (`screen.analyze`) every net as the victim of its
//!    island: validation → moments → Metric II through the resilience
//!    chain ([`RobustAnalyzer`]), per-aggressor estimates combined by
//!    worst-case superposition. This closed-form pass only *flags* nets
//!    whose ratio `peak noise / threshold` reaches
//!    [`ScreenConfig::escalate_ratio`]; nets are ranked by that ratio.
//! 4. **Escalate** (`screen.escalate`) the flagged nets to the tiered
//!    golden simulator for a reference peak. Flagged victims are
//!    re-materialized in ascending net index, [`BATCH_LANES`] at a time
//!    per worker, and handed to [`golden_noise_batch`], which marches
//!    islands sharing one sparsity pattern in lockstep through the
//!    lane-batched stepping kernel. Each result is bit-identical to a
//!    per-net [`golden_noise_tiered`](xtalk_sim::golden_noise_tiered)
//!    call; at most `jobs × BATCH_LANES` islands are alive at a time.
//!
//! Work is parallel over nets via [`xtalk_exec`], and the report —
//! including its JSON rendering — is byte-identical at any `--jobs`
//! value. A whole-deck [`Network`](xtalk_circuit::Network) is never
//! built: peak memory follows the element table and the largest islands,
//! not the chip.
//!
//! # Examples
//!
//! ```
//! use xtalk_eval::screen::{screen_deck, ScreenConfig};
//! use xtalk_tech::{PexDeckSpec, Technology};
//!
//! let deck = PexDeckSpec::new(2, 5, 3).deck_string(&Technology::p25());
//! let report = screen_deck(deck.as_bytes(), &ScreenConfig::default()).unwrap();
//! assert_eq!(report.nets_total, 10);
//! assert_eq!(report.clusters, 2);
//! assert_eq!(report.screened + report.escalated, 10);
//! ```

use std::error::Error;
use std::fmt;
use std::io::BufRead;

use xtalk_circuit::cluster::CouplingClusters;
use xtalk_circuit::signal::InputSignal;
use xtalk_circuit::NetId;
use xtalk_circuit::spice::stream::{DeckIndex, StreamOptions};
use xtalk_circuit::spice::{DeckLimits, SpiceParseError};
use xtalk_core::{FallbackPolicy, RobustAnalyzer};
use xtalk_exec::{par_map_indexed_with, par_map_stage_with, Jobs};
use xtalk_obs::json::{comma, json_num, json_str};
use xtalk_sim::{
    golden_noise_batch, GoldenJob, GoldenOpts, GoldenTier, NoiseWaveformParams, SimWorkspace,
    BATCH_LANES,
};

/// Aggressor input waveform shape used for screening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScreenShape {
    /// Ideal step.
    Step,
    /// Saturated ramp (the paper's primary stimulus).
    Ramp,
    /// Exponential transition.
    Exp,
}

/// Screening parameters. [`Default`] gives a 100 ps ramp, a noise
/// threshold of 0.1 × Vdd, escalation at 80% of threshold, automatic
/// parallelism and the stock deck limits.
#[derive(Debug, Clone)]
pub struct ScreenConfig {
    /// Aggressor transition time (s); ignored for [`ScreenShape::Step`].
    pub slew: f64,
    /// Aggressor switching time (s).
    pub arrival: f64,
    /// Aggressor waveform shape.
    pub shape: ScreenShape,
    /// Failure threshold as a fraction of Vdd.
    pub threshold: f64,
    /// Escalate nets whose `vp/threshold` reaches this ratio.
    pub escalate_ratio: f64,
    /// Worker-count policy.
    pub jobs: Jobs,
    /// Strict mode: hard-error on benign directives and forbid any
    /// fallback below Metric II.
    pub strict: bool,
    /// Run the golden simulator on flagged nets (disable for
    /// screening-only runs and agreement checks).
    pub escalate: bool,
    /// Deck size bounds.
    pub limits: DeckLimits,
}

impl Default for ScreenConfig {
    fn default() -> Self {
        ScreenConfig {
            slew: 100e-12,
            arrival: 0.0,
            shape: ScreenShape::Ramp,
            threshold: 0.1,
            escalate_ratio: 0.8,
            jobs: Jobs::Auto,
            strict: false,
            escalate: true,
            limits: DeckLimits::default(),
        }
    }
}

impl ScreenConfig {
    /// The aggressor stimulus this configuration screens with (rising;
    /// victims are assumed quiet at low, the paper's worst case for
    /// positive noise).
    #[must_use]
    pub fn input(&self) -> InputSignal {
        match self.shape {
            ScreenShape::Step => InputSignal::step(self.arrival),
            ScreenShape::Ramp => InputSignal::rising_ramp(self.arrival, self.slew),
            ScreenShape::Exp => InputSignal::rising_exp(self.arrival, self.slew),
        }
    }
}

/// Screening failures.
#[derive(Debug)]
pub enum ScreenError {
    /// The deck failed to stream or index.
    Parse(SpiceParseError),
    /// Strict mode: a net's analysis failed.
    Strict {
        /// Net index in declaration order.
        net: usize,
        /// The underlying failure.
        detail: String,
    },
    /// The parallel executor failed (worker panic).
    Worker(String),
}

impl fmt::Display for ScreenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScreenError::Parse(e) => write!(f, "deck parse failed: {e}"),
            ScreenError::Strict { net, detail } => {
                write!(f, "strict screening failed on net {net}: {detail}")
            }
            ScreenError::Worker(detail) => write!(f, "screening worker failed: {detail}"),
        }
    }
}

impl Error for ScreenError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScreenError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpiceParseError> for ScreenError {
    fn from(e: SpiceParseError) -> Self {
        ScreenError::Parse(e)
    }
}

/// Per-net screening result.
#[derive(Debug, Clone)]
pub struct NetScreen {
    /// Net name from the deck.
    pub net: String,
    /// Net index in declaration order.
    pub index: usize,
    /// Coupling-island id the net belongs to.
    pub cluster: usize,
    /// Number of nets in that island.
    pub cluster_nets: usize,
    /// Directly coupled aggressors analyzed.
    pub aggressors: usize,
    /// Worst-case combined peak noise (× Vdd).
    pub vp: f64,
    /// Observation time of the combined peak (s).
    pub at: f64,
    /// `vp / threshold` — the ranking key.
    pub ratio: f64,
    /// Worst fallback rung used across this net's aggressors (`"none"`
    /// for uncoupled nets).
    pub rung: &'static str,
    /// True when any aggressor degraded below Metric II or failed.
    pub degraded: bool,
    /// True when the net was escalated to the golden simulator.
    pub escalated: bool,
    /// Golden peak noise when escalated and simulation succeeded.
    pub golden_vp: Option<f64>,
    /// Which golden tier produced `golden_vp`.
    pub golden_tier: Option<&'static str>,
    /// Analysis failure, when the net could not be screened at all.
    pub error: Option<String>,
}

/// A finished screening run over one deck.
#[derive(Debug, Clone)]
pub struct ScreenReport {
    /// Nets declared in the deck.
    pub nets_total: usize,
    /// Coupling islands found.
    pub clusters: usize,
    /// Nets below the escalation ratio (screened out — no simulation).
    pub screened: usize,
    /// Nets escalated (or flagged for escalation when the golden stage
    /// is disabled).
    pub escalated: usize,
    /// Nets whose analysis failed outright.
    pub failed: usize,
    /// Benign directives skipped by the lenient parser.
    pub skipped_directives: usize,
    /// `+` continuation lines joined.
    pub continuations: usize,
    /// Element cards in the deck.
    pub elements: usize,
    /// Physical lines read.
    pub lines: usize,
    /// The failure threshold screened against (× Vdd).
    pub threshold: f64,
    /// The escalation ratio used.
    pub escalate_ratio: f64,
    /// True when any net degraded or failed.
    pub degraded: bool,
    /// Per-net results, ranked worst-first (ratio descending, then net
    /// index ascending).
    pub nets: Vec<NetScreen>,
}

/// Interior result of one net's closed-form screen, before ranking.
struct NetOutcome {
    screen: NetScreen,
    /// The aggressor stimuli a flagged net escalates with (empty when
    /// the net is not headed for the golden stage).
    stimuli: Vec<(NetId, InputSignal)>,
}

/// Screens every net of the deck read from `reader`.
///
/// See the [module docs](self) for the pipeline. The returned report is
/// deterministic: byte-identical JSON at any [`ScreenConfig::jobs`]
/// value.
///
/// # Errors
///
/// [`ScreenError::Parse`] when the deck fails to stream,
/// [`ScreenError::Strict`] in strict mode when any net's analysis
/// degrades or fails, [`ScreenError::Worker`] when a worker panics.
pub fn screen_deck<R: BufRead>(
    reader: R,
    config: &ScreenConfig,
) -> Result<ScreenReport, ScreenError> {
    let index = {
        let _span = xtalk_obs::span!("screen.parse");
        DeckIndex::from_reader(
            reader,
            StreamOptions {
                limits: config.limits.clone(),
                lenient: !config.strict,
            },
        )?
    };
    let stats = index.stats();
    xtalk_obs::counter!("screen.deck.skipped_directives").add(stats.skipped_directives as u64);
    xtalk_obs::counter!("screen.deck.continuations").add(stats.continuations as u64);
    for (line, name) in index.skipped_samples() {
        xtalk_obs::warn!("screen: skipped benign directive {name} on line {line}");
    }
    if stats.skipped_directives > index.skipped_samples().len() {
        xtalk_obs::warn!(
            "screen: {} more benign directives skipped",
            stats.skipped_directives - index.skipped_samples().len()
        );
    }
    let unassigned = index.unassigned_nodes();
    if unassigned > 0 {
        xtalk_obs::warn!(
            "screen: {unassigned} node(s) unreachable from any driver; their elements are ignored"
        );
    }

    let clusters = {
        let _span = xtalk_obs::span!("screen.partition");
        CouplingClusters::partition(&index)
    };
    xtalk_obs::counter!("screen.clusters").add(clusters.len() as u64);

    let nets: Vec<usize> = (0..index.net_count()).collect();
    let mut outcomes = {
        let _span = xtalk_obs::span!("screen.analyze");
        par_map_indexed_with(&nets, config.jobs, || (), |(), _, &net| {
            screen_net(&index, &clusters, config, net)
        })
        .map_err(|e| ScreenError::Worker(e.to_string()))?
    };
    if config.escalate {
        let _span = xtalk_obs::span!("screen.escalate");
        escalate(&index, &clusters, config, &mut outcomes)?;
    }

    let mut report = ScreenReport {
        nets_total: index.net_count(),
        clusters: clusters.len(),
        screened: 0,
        escalated: 0,
        failed: 0,
        skipped_directives: stats.skipped_directives,
        continuations: stats.continuations,
        elements: stats.elements,
        lines: stats.lines,
        threshold: config.threshold,
        escalate_ratio: config.escalate_ratio,
        degraded: false,
        nets: Vec::with_capacity(outcomes.len()),
    };
    for outcome in outcomes {
        let s = outcome.screen;
        if config.strict {
            if let Some(detail) = &s.error {
                return Err(ScreenError::Strict {
                    net: s.index,
                    detail: detail.clone(),
                });
            }
            if s.degraded {
                return Err(ScreenError::Strict {
                    net: s.index,
                    detail: format!("degraded to {}", s.rung),
                });
            }
        }
        if s.error.is_some() {
            report.failed += 1;
        } else if s.escalated {
            report.escalated += 1;
        } else {
            report.screened += 1;
        }
        report.degraded |= s.degraded || s.error.is_some();
        report.nets.push(s);
    }
    xtalk_obs::counter!("screen.nets.total").add(report.nets_total as u64);
    xtalk_obs::counter!("screen.nets.screened").add(report.screened as u64);
    xtalk_obs::counter!("screen.nets.escalated").add(report.escalated as u64);
    xtalk_obs::counter!("screen.nets.failed").add(report.failed as u64);

    // Rank worst-first; ties (uncoupled nets all at 0) by net index so
    // the order — and the JSON bytes — never depend on scheduling.
    report.nets.sort_by(|a, b| {
        b.ratio
            .partial_cmp(&a.ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index))
    });
    Ok(report)
}

/// Screens one net as the victim of its island; never panics on
/// analysis failures — they land in `NetScreen::error`.
fn screen_net(
    index: &DeckIndex,
    clusters: &CouplingClusters,
    config: &ScreenConfig,
    net: usize,
) -> NetOutcome {
    let cluster = clusters.cluster_of(net).expect("net within index range");
    let members = clusters.members(cluster);
    let mut screen = NetScreen {
        net: index.net_name(net).to_string(),
        index: net,
        cluster,
        cluster_nets: members.len(),
        aggressors: 0,
        vp: 0.0,
        at: 0.0,
        ratio: 0.0,
        rung: "none",
        degraded: false,
        escalated: false,
        golden_vp: None,
        golden_tier: None,
        error: None,
    };
    let mut stimuli = Vec::new();

    let island = {
        let _span = xtalk_obs::span!("screen.island");
        clusters.victim_network(index, net)
    };
    let network = match island {
        Ok(n) => n,
        Err(e) => {
            screen.error = Some(e.to_string());
            return NetOutcome { screen, stimuli };
        }
    };
    let policy = FallbackPolicy::for_strict(config.strict);
    let robust = match RobustAnalyzer::with_policy(&network, policy) {
        Ok(r) => r,
        Err(e) => {
            screen.error = Some(e.to_string());
            return NetOutcome { screen, stimuli };
        }
    };

    // Only aggressors with a direct coupling path to the victim
    // contribute; the rest of the island couples through them and is
    // already part of the victim's moment model.
    let input = config.input();
    let victim = network.victim();
    let aggressors: Vec<NetId> = network
        .nets()
        .map(|(agg, _)| agg)
        .filter(|&agg| agg != victim && network.couplings_between(agg, victim).next().is_some())
        .collect();
    let analysis = robust.analyze_all(&aggressors, &input);
    if let Some((row, e)) = analysis.first_failure() {
        // A failed aggressor fails the net; `aggressors` counts the rows
        // up to and including it.
        screen.aggressors = row + 1;
        screen.degraded = true;
        screen.error = Some(e.to_string());
        return NetOutcome { screen, stimuli };
    }
    screen.aggressors = aggressors.len();
    screen.degraded = analysis.degraded();
    if let Some(rung) = analysis.worst_rung() {
        screen.rung = rung.name();
    }
    if let Some(combined) = analysis.worst_case() {
        screen.vp = combined.vp;
        screen.at = combined.at;
        screen.ratio = if config.threshold > 0.0 {
            combined.vp / config.threshold
        } else {
            f64::INFINITY
        };
        screen.escalated = screen.ratio >= config.escalate_ratio;
    }
    if screen.escalated && config.escalate {
        stimuli = aggressors.iter().map(|&agg| (agg, input)).collect();
    }
    NetOutcome { screen, stimuli }
}

/// The golden stage: runs every flagged net of `outcomes` (indexed by
/// net) through [`golden_noise_batch`], `BATCH_LANES` nets per work item
/// in ascending net index, and records each result on its net.
fn escalate(
    index: &DeckIndex,
    clusters: &CouplingClusters,
    config: &ScreenConfig,
    outcomes: &mut [NetOutcome],
) -> Result<(), ScreenError> {
    let flagged: Vec<usize> = outcomes
        .iter()
        .filter(|o| o.screen.escalated)
        .map(|o| o.screen.index)
        .collect();
    let chunks: Vec<&[usize]> = flagged.chunks(BATCH_LANES).collect();
    let gopts = GoldenOpts::from_globals();
    let outcomes_ro: &[NetOutcome] = outcomes;
    let goldens = par_map_stage_with(&chunks, config.jobs, SimWorkspace::new, |ws, _, chunk| {
        escalate_chunk(index, clusters, outcomes_ro, &gopts, ws, chunk)
    })
    .map_err(|e| ScreenError::Worker(e.to_string()))?;
    for (net, golden) in flagged.iter().zip(goldens.into_iter().flatten()) {
        let screen = &mut outcomes[*net].screen;
        match golden {
            Ok((params, tier)) => {
                screen.golden_vp = Some(params.vp);
                screen.golden_tier = Some(tier.as_str());
            }
            Err(e) => {
                // The closed-form screen already flagged the net; a
                // golden failure degrades the report but keeps the flag.
                screen.degraded = true;
                screen.golden_tier = Some("failed");
                xtalk_obs::warn!("screen: golden escalation failed on net {net}: {e}");
            }
        }
    }
    Ok(())
}

/// Re-materializes the islands of one chunk of flagged nets and
/// measures them in one [`golden_noise_batch`] call.
fn escalate_chunk(
    index: &DeckIndex,
    clusters: &CouplingClusters,
    outcomes: &[NetOutcome],
    gopts: &GoldenOpts,
    ws: &mut SimWorkspace,
    chunk: &[usize],
) -> Vec<Result<(NoiseWaveformParams, GoldenTier), String>> {
    let islands: Vec<_> = chunk
        .iter()
        .map(|&net| {
            let _span = xtalk_obs::span!("screen.island");
            clusters.victim_network(index, net)
        })
        .collect();
    let jobs: Vec<GoldenJob<'_>> = chunk
        .iter()
        .zip(&islands)
        .filter_map(|(&net, island)| {
            island.as_ref().ok().map(|network| GoldenJob {
                network,
                stimuli: &outcomes[net].stimuli,
                node: network.victim_output(),
            })
        })
        .collect();
    let mut goldens = golden_noise_batch(&jobs, ws, gopts).into_iter();
    islands
        .iter()
        .map(|island| match island {
            Ok(_) => goldens
                .next()
                .expect("one result per job")
                .map_err(|e| e.to_string()),
            // The closed-form pass materialized this island already, so
            // this only reports a deck index that changed under us.
            Err(e) => Err(e.to_string()),
        })
        .collect()
}

impl ScreenReport {
    /// True when every net screened or escalated cleanly.
    #[must_use]
    pub fn clean(&self) -> bool {
        !self.degraded && self.failed == 0
    }

    /// Deterministic JSON rendering — byte-identical at any worker
    /// count.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.nets.len() * 160);
        out.push_str("{\n");
        out.push_str(&format!("  \"nets_total\": {},\n", self.nets_total));
        out.push_str(&format!("  \"clusters\": {},\n", self.clusters));
        out.push_str(&format!("  \"screened\": {},\n", self.screened));
        out.push_str(&format!("  \"escalated\": {},\n", self.escalated));
        out.push_str(&format!("  \"failed\": {},\n", self.failed));
        out.push_str(&format!(
            "  \"skipped_directives\": {},\n",
            self.skipped_directives
        ));
        out.push_str(&format!("  \"continuations\": {},\n", self.continuations));
        out.push_str(&format!("  \"elements\": {},\n", self.elements));
        out.push_str(&format!("  \"lines\": {},\n", self.lines));
        out.push_str(&format!("  \"threshold\": {},\n", json_num(self.threshold)));
        out.push_str(&format!(
            "  \"escalate_ratio\": {},\n",
            json_num(self.escalate_ratio)
        ));
        out.push_str(&format!("  \"degraded\": {},\n", self.degraded));
        out.push_str("  \"nets\": [\n");
        for (i, n) in self.nets.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"net\": {}, ", json_str(&n.net)));
            out.push_str(&format!("\"index\": {}, ", n.index));
            out.push_str(&format!("\"cluster\": {}, ", n.cluster));
            out.push_str(&format!("\"cluster_nets\": {}, ", n.cluster_nets));
            out.push_str(&format!("\"aggressors\": {}, ", n.aggressors));
            out.push_str(&format!("\"vp\": {}, ", json_num(n.vp)));
            out.push_str(&format!("\"at\": {}, ", json_num(n.at)));
            out.push_str(&format!("\"ratio\": {}, ", json_num(n.ratio)));
            out.push_str(&format!("\"rung\": {}, ", json_str(n.rung)));
            out.push_str(&format!("\"degraded\": {}, ", n.degraded));
            out.push_str(&format!("\"escalated\": {}", n.escalated));
            if let Some(vp) = n.golden_vp {
                out.push_str(&format!(", \"golden_vp\": {}", json_num(vp)));
            }
            if let Some(tier) = n.golden_tier {
                out.push_str(&format!(", \"golden_tier\": {}", json_str(tier)));
            }
            if let Some(err) = &n.error {
                out.push_str(&format!(", \"error\": {}", json_str(err)));
            }
            out.push('}');
            out.push_str(comma(i, self.nets.len()));
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl fmt::Display for ScreenReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "screened {} nets in {} clusters: {} below threshold, {} escalated, {} failed",
            self.nets_total, self.clusters, self.screened, self.escalated, self.failed
        )?;
        writeln!(
            f,
            "threshold {:.3} x Vdd, escalation at ratio {:.2}; {} directives skipped, {} continuations",
            self.threshold, self.escalate_ratio, self.skipped_directives, self.continuations
        )?;
        let shown = self.nets.iter().take(20).count();
        if shown > 0 {
            writeln!(f, "worst {shown} nets:")?;
            writeln!(
                f,
                "{:<20} {:>8} {:>10} {:>8} {:>6}  rung",
                "net", "cluster", "vp (xVdd)", "ratio", "esc"
            )?;
        }
        for n in self.nets.iter().take(20) {
            let esc = if n.escalated { "yes" } else { "no" };
            let golden = match n.golden_vp {
                Some(vp) => format!(" golden={vp:.4} ({})", n.golden_tier.unwrap_or("?")),
                None => String::new(),
            };
            writeln!(
                f,
                "{:<20} {:>8} {:>10.4} {:>8.3} {:>6}  {}{}",
                n.net, n.cluster, n.vp, n.ratio, esc, n.rung, golden
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_tech::{PexDeckSpec, Technology};

    fn small_deck() -> String {
        PexDeckSpec::new(2, 5, 3).deck_string(&Technology::p25())
    }

    #[test]
    fn accounting_always_balances() {
        let report = screen_deck(small_deck().as_bytes(), &ScreenConfig::default()).unwrap();
        assert_eq!(report.nets_total, 10);
        assert_eq!(
            report.screened + report.escalated + report.failed,
            report.nets_total
        );
        assert_eq!(report.failed, 0);
        assert_eq!(report.clusters, 2);
        assert_eq!(report.nets.len(), report.nets_total);
    }

    #[test]
    fn report_is_ranked_and_deterministic_across_jobs() {
        let mut config = ScreenConfig {
            jobs: Jobs::Count(1),
            ..ScreenConfig::default()
        };
        let serial = screen_deck(small_deck().as_bytes(), &config).unwrap();
        config.jobs = Jobs::Count(3);
        let parallel = screen_deck(small_deck().as_bytes(), &config).unwrap();
        assert_eq!(serial.to_json(), parallel.to_json());
        assert!(serial
            .nets
            .windows(2)
            .all(|w| w[0].ratio >= w[1].ratio
                || (w[0].ratio == w[1].ratio && w[0].index < w[1].index)));
    }

    #[test]
    fn lenient_mode_counts_skipped_directives() {
        let mut spec = PexDeckSpec::new(1, 4, 2);
        spec.benign_directives = true;
        let deck = spec.deck_string(&Technology::p25());
        let report = screen_deck(deck.as_bytes(), &ScreenConfig::default()).unwrap();
        assert_eq!(report.skipped_directives, 5);
        assert_eq!(report.nets_total, 4);

        let strict = ScreenConfig {
            strict: true,
            ..ScreenConfig::default()
        };
        assert!(matches!(
            screen_deck(deck.as_bytes(), &strict),
            Err(ScreenError::Parse(_))
        ));
    }

    #[test]
    fn continuations_are_counted_and_harmless() {
        let mut spec = PexDeckSpec::new(1, 4, 2);
        let plain = screen_deck(
            spec.deck_string(&Technology::p25()).as_bytes(),
            &ScreenConfig::default(),
        )
        .unwrap();
        spec.fold_cards = true;
        let folded = screen_deck(
            spec.deck_string(&Technology::p25()).as_bytes(),
            &ScreenConfig::default(),
        )
        .unwrap();
        assert!(folded.continuations > 0);
        assert_eq!(plain.continuations, 0);
        for (a, b) in plain.nets.iter().zip(&folded.nets) {
            assert_eq!(a.net, b.net);
            assert_eq!(a.vp.to_bits(), b.vp.to_bits(), "net {}", a.net);
        }
    }

    #[test]
    fn weak_lanes_escalate_and_stay_a_minority() {
        // Large enough to include weak drivers (every 16th lane).
        let spec = PexDeckSpec::new(2, 16, 3);
        let config = ScreenConfig {
            escalate: false, // flag only; golden sim not needed here
            ..ScreenConfig::default()
        };
        let report =
            screen_deck(spec.deck_string(&Technology::p25()).as_bytes(), &config).unwrap();
        assert_eq!(report.nets_total, 32);
        assert!(report.escalated > 0, "weak lanes must flag");
        assert!(
            report.escalated * 10 < report.nets_total,
            "escalation must stay under 10% ({}/{})",
            report.escalated,
            report.nets_total
        );
        // The ranked head must be exactly the weak lanes.
        for n in report.nets.iter().take(report.escalated) {
            assert!(n.escalated);
            assert!(spec.driver_of(n.index) > spec.driver * 2.0, "net {}", n.net);
        }
    }

    #[test]
    fn escalated_nets_get_golden_peaks() {
        let spec = PexDeckSpec::new(1, 17, 2);
        let report = screen_deck(
            spec.deck_string(&Technology::p25()).as_bytes(),
            &ScreenConfig::default(),
        )
        .unwrap();
        let escalated: Vec<_> = report.nets.iter().filter(|n| n.escalated).collect();
        assert!(!escalated.is_empty());
        for n in &escalated {
            let golden = n.golden_vp.expect("escalation ran the golden sim");
            assert!(golden.is_finite() && golden >= 0.0);
            assert!(n.golden_tier.is_some());
        }
    }
}
