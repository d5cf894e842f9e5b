//! Per-request analysis execution: deck → robust chain → reply JSON.
//!
//! This is the code that runs *inside* a worker's `catch_unwind` fence.
//! Everything that can fail in an expected way — deck parse errors,
//! invalid networks, strict-mode refusals, per-aggressor rung exhaustion
//! — is rendered as a structured reply here; only genuine bugs (panics)
//! escape to the fence.
//!
//! Deadlines are cooperative and reflect the paper's cost asymmetry: the
//! closed-form chain is microseconds and always runs to completion even
//! on an expired budget (a late bounded answer beats no answer), while
//! the golden transient cross-check is milliseconds and is dropped the
//! moment the remaining budget cannot cover it. Before giving up, the
//! worker tries the analytic fast tier ([`analytic_noise`]) — closed-form
//! pole superposition, microseconds like the chain — so a deadline-pinched
//! request still gets an independent cross-check when the case admits
//! one. The deadline stamp says which tier the reply's golden values came
//! from (`deadline.golden_tier`: `"transient"`, `"analytic"` or
//! `"skipped"`), and a reply that lost its cross-check entirely degrades
//! (`deadline.golden_skipped`, `status: "degraded"`) so clients can tell
//! a timed-out-but-bounded answer from a full one.

use crate::json;
use crate::proto::{self, AnalyzeRequest, RequestId, Shape};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use xtalk_circuit::{signal::InputSignal, spice, NetId, Network, Severity};
use xtalk_core::{AggressorOutcome, FallbackPolicy, RobustAnalyzer};
use xtalk_sim::{
    analytic_noise, golden_noise_tiered, FastTier, GoldenOpts, GoldenTier, NoiseWaveformParams,
    SimWorkspace,
};

/// Budget floor below which a golden escalation is not attempted: a
/// transient sim is milliseconds while the chain is microseconds, so
/// with less than this left the sim would blow the deadline it exists
/// to serve.
const GOLDEN_RESERVE: Duration = Duration::from_millis(5);

/// Deck size bounds applied to client-submitted netlists. Tighter than
/// the parser defaults: a daemon request is one net cluster, not a full
/// chip.
pub fn deck_limits() -> spice::DeckLimits {
    spice::DeckLimits {
        max_lines: 100_000,
        max_nets: 512,
        max_elements: 100_000,
    }
}

fn input_for(req: &AnalyzeRequest) -> InputSignal {
    match req.shape {
        Shape::Ramp => InputSignal::rising_ramp(req.arrival, req.slew),
        Shape::Exp => InputSignal::rising_exp(req.arrival, req.slew),
        Shape::Step => InputSignal::step(req.arrival),
    }
}

enum GoldenOutcome {
    NotRequested,
    Ran(NoiseWaveformParams, GoldenTier),
    /// Skipped because the remaining deadline budget could not cover a
    /// transient simulation and the analytic fast tier declined the case.
    SkippedDeadline,
    Failed(String),
}

/// Per-stage timings and degradation facts for one request, filled by
/// [`run_analyze`] and consumed by the server's event log. All values
/// refer to this request alone; statuses an early error return leaves
/// behind stay at the default `"error"`.
#[derive(Debug, Clone, Copy)]
pub struct RequestTrace {
    /// Wall time spent parsing the deck (ns).
    pub parse_ns: u64,
    /// Wall time spent in the closed-form robust chain, all rows (ns).
    pub chain_ns: u64,
    /// Wall time spent in golden cross-checks, all rows (ns).
    pub golden_ns: u64,
    /// Rows whose estimate came from a fallback rung or was clamped.
    pub degraded_rows: u32,
    /// Rows whose golden cross-check was dropped for deadline reasons.
    pub golden_skips: u32,
    /// Rows rescued by the analytic fast tier under deadline pressure.
    pub analytic_rescues: u32,
    /// Whether the request's deadline had expired by reply time.
    pub deadline_expired: bool,
    /// Reply status: `"ok"`, `"degraded"`, or `"error"`.
    pub status: &'static str,
}

impl Default for RequestTrace {
    fn default() -> Self {
        RequestTrace {
            parse_ns: 0,
            chain_ns: 0,
            golden_ns: 0,
            degraded_rows: 0,
            golden_skips: 0,
            analytic_rescues: 0,
            deadline_expired: false,
            status: "error",
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one validated `analyze` request to a complete reply line.
///
/// `accepted` is when the request was admitted (queue wait counts
/// against the deadline — that is the point of admission control).
/// Stage timings and degradation facts land in `trace`; the per-stage
/// spans (`serve.parse`, `serve.chain`, `serve.golden`) feed the
/// windowed stats and, with tracing on, carry the request id the worker
/// pinned via `xtalk_obs::push_request_ctx`.
pub fn run_analyze(
    id: &RequestId,
    req: &AnalyzeRequest,
    accepted: Instant,
    ws: &mut SimWorkspace,
    trace: &mut RequestTrace,
) -> String {
    xtalk_obs::counter!("serve.requests.analyze").add(1);
    let budget = req.deadline_ms.map(|ms| Duration::from_secs_f64(ms / 1e3));
    let parse_started = Instant::now();
    let parsed = {
        let _span = xtalk_obs::span!("serve.parse");
        spice::parse_deck_with_limits(&req.deck, &deck_limits())
    };
    trace.parse_ns = elapsed_ns(parse_started);
    let network = match parsed {
        Ok(n) => n,
        Err(e @ spice::SpiceParseError::TooLarge { .. }) => {
            xtalk_obs::counter!("serve.replies.error").add(1);
            return proto::error_reply(id, "deck_too_large", &e.to_string(), e.position());
        }
        Err(e) => {
            xtalk_obs::counter!("serve.replies.error").add(1);
            return proto::error_reply(id, "deck", &e.to_string(), e.position());
        }
    };
    let policy = FallbackPolicy::for_strict(req.strict);
    let robust = match RobustAnalyzer::with_policy(&network, policy) {
        Ok(r) => r,
        Err(e) => {
            xtalk_obs::counter!("serve.replies.error").add(1);
            return proto::error_reply(id, "invalid_network", &e.to_string(), None);
        }
    };
    let input = input_for(req);
    let warnings = robust
        .validation()
        .with_severity(Severity::Warning)
        .count();

    let (aggressors, names): (Vec<NetId>, Vec<&str>) = network
        .aggressor_nets()
        .filter(|(_, net)| match &req.aggressor {
            Some(wanted) => net.name() == wanted,
            None => true,
        })
        .map(|(agg, net)| (agg, net.name()))
        .unzip();

    let chain_started = Instant::now();
    let analysis = {
        let _span = xtalk_obs::span!("serve.chain");
        robust.analyze_all(&aggressors, &input)
    };
    trace.chain_ns = elapsed_ns(chain_started);
    if let (true, Some((_, e))) = (req.strict, analysis.first_failure()) {
        xtalk_obs::counter!("serve.replies.error").add(1);
        return proto::error_reply(id, "strict", &e.to_string(), None);
    }

    trace.degraded_rows = saturate(
        analysis
            .estimates()
            .filter(|re| re.provenance.degraded())
            .count(),
    );
    let goldens: Vec<GoldenOutcome> = analysis
        .rows
        .iter()
        .map(|(agg, outcome)| match outcome {
            AggressorOutcome::Estimate(_) if req.golden => {
                let golden_started = Instant::now();
                let golden = golden_row(&network, *agg, input, budget, accepted, ws, trace);
                trace.golden_ns += elapsed_ns(golden_started);
                golden
            }
            _ => GoldenOutcome::NotRequested,
        })
        .collect();
    let golden_skips = goldens
        .iter()
        .filter(|g| matches!(g, GoldenOutcome::SkippedDeadline))
        .count();
    let analytic_runs = goldens
        .iter()
        .filter(|g| matches!(g, GoldenOutcome::Ran(_, GoldenTier::Analytic)))
        .count();
    let degraded = analysis.degraded()
        || goldens
            .iter()
            .any(|g| matches!(g, GoldenOutcome::SkippedDeadline | GoldenOutcome::Failed(_)));

    let elapsed = accepted.elapsed();
    let expired = budget.is_some_and(|b| elapsed > b);
    if expired {
        xtalk_obs::counter!(perf: "serve.deadline.expired").add(1);
    }
    let status = if degraded || expired { "degraded" } else { "ok" };
    trace.golden_skips = saturate(golden_skips);
    trace.deadline_expired = expired;
    trace.status = status;
    if degraded || expired {
        xtalk_obs::counter!("serve.replies.degraded").add(1);
    } else {
        xtalk_obs::counter!("serve.replies.ok").add(1);
    }

    let mut out = proto::open_reply(id, status);
    out.push_str(",\"victim\":");
    json::write_escaped(&mut out, network.node_name(network.victim_output()));
    let _ = write!(out, ",\"validation_warnings\":{warnings},\"rows\":[");
    let rows = analysis.rows.iter().zip(&goldens).zip(&names);
    for (i, (((_, outcome), golden), name)) in rows.enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_row(&mut out, name, outcome, golden, req.threshold);
    }
    out.push(']');
    let _ = write!(out, ",\"elapsed_ms\":{:.3}", elapsed.as_secs_f64() * 1e3);
    if let Some(b) = budget {
        let _ = write!(
            out,
            ",\"deadline\":{{\"budget_ms\":{},\"expired\":{expired},\"golden_skipped\":{golden_skips}",
            fmt_ms(b)
        );
        if req.golden {
            // Which golden tier the reply's cross-checks came from, at the
            // most-degraded level any row saw: a skip outranks an analytic
            // rescue, which outranks the full transient reference.
            let tier = if golden_skips > 0 {
                "skipped"
            } else if analytic_runs > 0 {
                GoldenTier::Analytic.as_str()
            } else {
                GoldenTier::Transient.as_str()
            };
            let _ = write!(out, ",\"golden_tier\":\"{tier}\"");
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// The golden cross-check of one estimate row: the tiered golden
/// measurement while the budget covers a transient simulation, else the
/// analytic fast tier, else a skip.
fn golden_row(
    network: &Network,
    agg: NetId,
    input: InputSignal,
    budget: Option<Duration>,
    accepted: Instant,
    ws: &mut SimWorkspace,
    trace: &mut RequestTrace,
) -> GoldenOutcome {
    let _span = xtalk_obs::span!("serve.golden");
    let stimuli = [(agg, input)];
    if out_of_budget(budget, accepted) {
        // No budget for a transient sim — but the analytic fast tier
        // costs microseconds, so try it before dropping the cross-check
        // entirely.
        return match analytic_noise(network, &stimuli, network.victim_output(), FastTier::Auto) {
            Ok(params) => {
                trace.analytic_rescues += 1;
                xtalk_obs::counter!(perf: "serve.deadline.analytic_rescues").add(1);
                GoldenOutcome::Ran(params, GoldenTier::Analytic)
            }
            Err(_) => {
                xtalk_obs::counter!(perf: "serve.deadline.golden_skips").add(1);
                GoldenOutcome::SkippedDeadline
            }
        };
    }
    let gopts = GoldenOpts::from_globals();
    match golden_noise_tiered(network, &stimuli, network.victim_output(), ws, &gopts) {
        Ok((params, tier)) => GoldenOutcome::Ran(params, tier),
        Err(e) => GoldenOutcome::Failed(e.to_string()),
    }
}

fn saturate(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

fn out_of_budget(budget: Option<Duration>, accepted: Instant) -> bool {
    match budget {
        None => false,
        Some(b) => accepted.elapsed() + GOLDEN_RESERVE > b,
    }
}

fn fmt_ms(d: Duration) -> String {
    let mut s = String::new();
    json::write_number(&mut s, d.as_secs_f64() * 1e3);
    s
}

fn render_waveform(out: &mut String, vp: f64, t0: f64, t1: f64, t2: f64, tp: f64, wn: f64) {
    for (key, v) in [
        ("vp", vp),
        ("t0", t0),
        ("t1", t1),
        ("t2", t2),
        ("tp", tp),
        ("wn", wn),
    ] {
        out.push(',');
        proto::push_key(out, key);
        json::write_number(out, v);
    }
}

fn render_row(
    out: &mut String,
    name: &str,
    outcome: &AggressorOutcome,
    golden: &GoldenOutcome,
    threshold: Option<f64>,
) {
    out.push_str("{\"aggressor\":");
    json::write_escaped(out, name);
    match outcome {
        AggressorOutcome::Estimate(re) => {
            let (est, provenance) = (&re.estimate, &re.provenance);
            render_waveform(out, est.vp, est.t0, est.t1, est.t2, est.tp, est.wn);
            out.push_str(",\"rung\":");
            json::write_escaped(out, provenance.rung().name());
            let _ = write!(
                out,
                ",\"degraded\":{},\"clamped_vp\":{}",
                provenance.degraded(),
                provenance.clamped()
            );
            out.push_str(",\"timing_clamps\":[");
            for (i, c) in provenance.timing_clamps().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_escaped(out, c);
            }
            out.push_str("],\"failures\":[");
            for (i, f) in provenance.failures().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_escaped(out, &f.to_string());
            }
            out.push(']');
            if let Some(budget) = threshold {
                let _ = write!(out, ",\"violation\":{}", est.vp > budget);
            }
            match golden {
                GoldenOutcome::NotRequested => {}
                GoldenOutcome::SkippedDeadline => out.push_str(",\"golden_skipped\":true"),
                GoldenOutcome::Failed(e) => {
                    out.push_str(",\"golden_error\":");
                    json::write_escaped(out, e);
                }
                GoldenOutcome::Ran(g, tier) => {
                    out.push_str(",\"golden\":{\"vp\":");
                    json::write_number(out, g.vp);
                    out.push_str(",\"tp\":");
                    json::write_number(out, g.tp);
                    out.push_str(",\"wn\":");
                    json::write_number(out, g.wn);
                    let _ = write!(out, ",\"tier\":\"{}\"", tier.as_str());
                    if g.vp != 0.0 {
                        out.push_str(",\"err_pct\":");
                        json::write_number(out, (est.vp - g.vp) / g.vp * 100.0);
                    }
                    out.push('}');
                }
            }
        }
        AggressorOutcome::NoCoupling => out.push_str(",\"no_coupling\":true"),
        AggressorOutcome::Failed(e) => {
            out.push_str(",\"error\":");
            json::write_escaped(out, &e.to_string());
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use xtalk_circuit::{NetRole, NetworkBuilder};

    fn sample_deck() -> String {
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
        spice::write_deck(&b.build().unwrap())
    }

    fn req(deck: String) -> AnalyzeRequest {
        AnalyzeRequest {
            deck,
            slew: 100e-12,
            arrival: 0.0,
            shape: Shape::Ramp,
            threshold: None,
            aggressor: None,
            golden: false,
            strict: false,
            deadline_ms: None,
        }
    }

    fn run(r: &AnalyzeRequest) -> Value {
        let id = RequestId::null();
        let mut trace = RequestTrace::default();
        let reply = run_analyze(&id, r, Instant::now(), &mut SimWorkspace::new(), &mut trace);
        let v = crate::json::parse(&reply).expect("reply is valid JSON");
        // The trace's status must agree with the reply's.
        assert_eq!(
            v.get("status").and_then(Value::as_str),
            Some(trace.status),
            "trace status disagrees with the wire status"
        );
        v
    }

    #[test]
    fn healthy_deck_yields_ok_rows() {
        let v = run(&req(sample_deck()));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!("rows missing: {v:?}")
        };
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.get("aggressor").and_then(Value::as_str), Some("agg0"));
        assert_eq!(row.get("rung").and_then(Value::as_str), Some("metric II"));
        assert_eq!(row.get("degraded").and_then(Value::as_bool), Some(false));
        let vp = row.get("vp").and_then(Value::as_f64).unwrap();
        assert!(vp > 0.0 && vp < 1.0, "{vp}");
    }

    #[test]
    fn step_input_degrades_with_provenance() {
        let mut r = req(sample_deck());
        r.shape = Shape::Step;
        let v = run(&r);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("degraded"));
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!()
        };
        let row = &rows[0];
        assert_eq!(row.get("degraded").and_then(Value::as_bool), Some(true));
        assert_eq!(
            row.get("rung").and_then(Value::as_str),
            Some("metric I (m = 1)")
        );
        let Some(Value::Arr(failures)) = row.get("failures") else {
            panic!("failures missing")
        };
        assert!(!failures.is_empty(), "degraded row must carry rung failures");
    }

    #[test]
    fn strict_mode_turns_degradation_into_an_error_reply() {
        let mut r = req(sample_deck());
        r.shape = Shape::Step;
        r.strict = true;
        let v = run(&r);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("strict"));
    }

    #[test]
    fn deck_errors_carry_position() {
        let mut r = req(sample_deck());
        r.deck = "*! net 0 victim v\nRDRV0 src0 n0 abc\n".into();
        let v = run(&r);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("deck"));
        assert_eq!(v.get("line").and_then(Value::as_f64), Some(2.0));
        assert_eq!(v.get("col").and_then(Value::as_f64), Some(15.0));
    }

    #[test]
    fn absurd_decks_hit_the_request_limits() {
        let mut deck = String::from("*! net 0 victim v\nRDRV0 src0 n0 10\n");
        for i in 0..200_000 {
            deck.push_str(&format!("C{i} n0 0 1f\n"));
        }
        let mut r = req(String::new());
        r.deck = deck;
        let v = run(&r);
        assert_eq!(v.get("code").and_then(Value::as_str), Some("deck_too_large"));
    }

    #[test]
    fn golden_runs_within_budget_and_degrades_without() {
        let mut r = req(sample_deck());
        r.golden = true;
        r.deadline_ms = Some(30_000.0); // generous
        let v = run(&r);
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!()
        };
        let golden = rows[0]
            .get("golden")
            .unwrap_or_else(|| panic!("golden should run under a generous budget: {v:?}"));
        assert_eq!(
            golden.get("tier").and_then(Value::as_str),
            Some("transient"),
            "a comfortable budget gets the full transient reference"
        );
        let err = golden.get("err_pct").and_then(Value::as_f64).unwrap();
        assert!(err.abs() < 100.0, "estimate vs golden off by {err}%");
        let dl = v.get("deadline").expect("deadline stamp");
        assert_eq!(dl.get("golden_tier").and_then(Value::as_str), Some("transient"));

        // A microscopic budget: the chain still answers and the deadline
        // is stamped expired; this deck is analytic-eligible, so the fast
        // tier rescues the cross-check instead of skipping it.
        r.deadline_ms = Some(1e-3);
        let v = run(&r);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("degraded"));
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!()
        };
        let golden = rows[0].get("golden").expect("analytic rescue ran");
        assert_eq!(golden.get("tier").and_then(Value::as_str), Some("analytic"));
        let dl = v.get("deadline").expect("deadline stamp");
        assert_eq!(dl.get("expired").and_then(Value::as_bool), Some(true));
        assert_eq!(dl.get("golden_skipped").and_then(Value::as_f64), Some(0.0));
        assert_eq!(dl.get("golden_tier").and_then(Value::as_str), Some("analytic"));
    }

    #[test]
    fn analytic_ineligible_deck_still_skips_under_deadline_pressure() {
        // An exponential input shape has no closed-form pole
        // superposition, so the fast tier declines and the cross-check
        // is skipped outright.
        let mut r = req(sample_deck());
        r.golden = true;
        r.shape = Shape::Exp;
        r.deadline_ms = Some(1e-3);
        let v = run(&r);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("degraded"));
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!()
        };
        assert_eq!(
            rows[0].get("golden_skipped").and_then(Value::as_bool),
            Some(true)
        );
        let dl = v.get("deadline").expect("deadline stamp");
        assert_eq!(dl.get("golden_skipped").and_then(Value::as_f64), Some(1.0));
        assert_eq!(dl.get("golden_tier").and_then(Value::as_str), Some("skipped"));
    }

    #[test]
    fn threshold_flags_violations() {
        let mut r = req(sample_deck());
        r.threshold = Some(1e-9);
        let v = run(&r);
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!()
        };
        assert_eq!(rows[0].get("violation").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn aggressor_filter_limits_rows() {
        let mut r = req(sample_deck());
        r.aggressor = Some("nonexistent".into());
        let v = run(&r);
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!()
        };
        assert!(rows.is_empty());
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    }
}
