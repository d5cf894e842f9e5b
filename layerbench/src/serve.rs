//! `serve-interactive`: a closed loop — one TCP connection, one request
//! in flight — against an in-process `xtalk_serve::Server`, the way a
//! router or ECO tool waits for each answer. It exercises wire decode,
//! small-deck parsing and transport, which `screen-pex` barely uses.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use xtalk_circuit::signal::InputSignal;
use xtalk_circuit::spice::{self, parse_deck_with_limits};
use xtalk_core::{FallbackPolicy, RobustAnalyzer};
use xtalk_exec::Jobs;
use xtalk_serve::engine::deck_limits;
use xtalk_serve::json::{self, Value};
use xtalk_serve::proto::Shape;
use xtalk_serve::{parse_request, AnalyzeRequest, Request, ServeConfig, Server};
use xtalk_sim::{golden_noise_tiered, GoldenOpts, SimWorkspace};
use xtalk_tech::sweep::{two_pin_cases_jobs, SweepConfig};
use xtalk_tech::{CouplingDirection, PexDeckSpec, Technology};

use crate::clock::ClockProbe;
use crate::layers::{rung_counter, tier_counter, Layers};
use crate::{
    another_fits, fast_median, fastest_per_op, fastest_rep_percentiles, ops_per_s, EndToEnd,
    Measured, Outcome, Rng, Stat,
};

/// Fast-path requests sent before the measured passes. Besides faulting
/// in lazy paths, they fill the daemon's request-event ring (65 536
/// lines, three per `analyze` request), so peak memory is that of a
/// daemon in steady state rather than one still filling its ring.
const WARMUP: usize = 22_000;
/// Distinct fast-path two-pin sweep decks per run.
const TWO_PIN_DECKS: usize = 512;
/// Distinct 16-net PEX island decks per run.
const PEX_DECKS: usize = 16;
/// Every 16th request carries a PEX island deck, the rest two-pin decks.
const PEX_EVERY: usize = 16;
/// Every 8th request (a two-pin deck) asks for the golden cross-check.
const GOLDEN_EVERY: usize = 8;
/// Fresh daemons started (set-up samples) before each pass.
const SETUP_PER_PASS: usize = 2;
/// Clock probe samples taken before each pass.
const CLOCK_PER_PASS: usize = 25;
/// Requests per pass; every pass sends mix positions `0..PASS_REQUESTS`,
/// so passes differ only in when they ran.
const PASS_REQUESTS: usize = 1024;

/// Two-pin sweep decks, half far-end and half near-end, JSON-escaped.
fn two_pin_decks(count: usize, seeds: [u64; 2]) -> Vec<String> {
    let tech = Technology::p25();
    let mut out = Vec::with_capacity(count);
    for (direction, seed) in [CouplingDirection::FarEnd, CouplingDirection::NearEnd]
        .into_iter()
        .zip(seeds)
    {
        let run = two_pin_cases_jobs(
            &tech,
            direction,
            &SweepConfig {
                cases: count / 2,
                seed,
                ..SweepConfig::default()
            },
            Jobs::Count(1),
        );
        assert!(
            run.is_complete(),
            "sweep generator failed: {}",
            run.summary()
        );
        out.extend(
            run.cases
                .iter()
                .map(|case| escaped(&spice::write_deck(&case.network))),
        );
    }
    out
}

/// The request mix. Request `i` is a pure function of `i` and the seed,
/// so the traced run can replay exactly what the daemon answered.
struct Mix {
    /// Seeded two-pin decks for the fast path.
    two_pin: Vec<String>,
    /// Seeded 16-net PEX island decks.
    pex: Vec<String>,
    /// Two-pin decks for the golden requests: one fixed set for every
    /// seed, in a seeded order. The golden tier's cost is heavy-tailed
    /// (per row, p50 near 9 ms and p99 near 50 ms), so a seeded set of
    /// 128 decks moved throughput and p99 by more than any bound worth
    /// having.
    golden: Vec<String>,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let mut rng = Rng::new(seed);
        let two_pin = two_pin_decks(TWO_PIN_DECKS, [rng.next_u64(), rng.next_u64()]);
        let pex = (0..PEX_DECKS)
            .map(|_| {
                let mut spec = PexDeckSpec::new(1, 16, 2 + rng.below(4));
                spec.victim = (0, rng.below(16));
                escaped(&spec.deck_string(&Technology::p25()))
            })
            .collect();
        let stock = SweepConfig::default().seed;
        let mut golden = two_pin_decks(PASS_REQUESTS / GOLDEN_EVERY, [stock, stock + 1]);
        for i in (1..golden.len()).rev() {
            golden.swap(i, rng.below(i + 1));
        }
        Mix {
            two_pin,
            pex,
            golden,
        }
    }

    /// A fast-path warm-up request (a two-pin deck, no golden).
    fn warmup_line(&self, id: usize) -> String {
        let deck = &self.two_pin[id % self.two_pin.len()];
        format!("{{\"id\":{id},\"type\":\"analyze\",\"deck\":{deck}}}")
    }

    /// The request line for mix position `i`, sent with id `id`.
    fn line(&self, i: usize, id: usize) -> String {
        let (deck, golden) = if i % PEX_EVERY == PEX_EVERY - 1 {
            (&self.pex[(i / PEX_EVERY) % self.pex.len()], "")
        } else if i % GOLDEN_EVERY == 0 {
            (
                &self.golden[(i / GOLDEN_EVERY) % self.golden.len()],
                ",\"golden\":true",
            )
        } else {
            (&self.two_pin[i % self.two_pin.len()], "")
        };
        format!("{{\"id\":{id},\"type\":\"analyze\",\"deck\":{deck}{golden}}}")
    }
}

fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    json::write_escaped(&mut out, s);
    out
}

/// One client connection: one request in flight at a time.
struct Client {
    tx: TcpStream,
    rx: BufReader<TcpStream>,
}

impl Client {
    fn new(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        Ok(Client {
            tx: stream.try_clone()?,
            rx: BufReader::new(stream),
        })
    }

    /// Sends one line and waits for its reply; `None` when the server
    /// closed the connection instead of answering.
    fn call(&mut self, line: &str) -> io::Result<Option<String>> {
        self.tx.write_all(line.as_bytes())?;
        self.tx.write_all(b"\n")?;
        let mut reply = String::new();
        if self.rx.read_line(&mut reply)? == 0 {
            return Ok(None);
        }
        Ok(Some(reply.trim_end().to_string()))
    }
}

/// Starts a one-worker daemon on loopback TCP, hands `f` a connected
/// client, then drains and stops the daemon. Returns the set-up time —
/// `Server::new` until the first `ping` reply — and `f`'s result.
fn with_server<R>(f: impl FnOnce(&mut Client) -> R) -> io::Result<(f64, R)> {
    let started = Instant::now();
    let server = Server::new(ServeConfig {
        jobs: Jobs::Count(1),
        ..ServeConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0")?;
    // Connect before the accept loop starts: the kernel queues the
    // connection, so the first accept never waits out the loop's poll
    // sleep and set-up time does not depend on thread start-up order.
    let stream = TcpStream::connect(listener.local_addr()?)?;
    let result = thread::scope(|s| {
        let acceptor = s.spawn(|| server.serve_tcp(&listener));
        let outcome = (|| {
            let mut client = Client::new(stream)?;
            let pong = client.call("{\"id\":\"setup\",\"type\":\"ping\"}")?;
            let setup_s = started.elapsed().as_secs_f64();
            if pong.as_deref() != Some("{\"id\":\"setup\",\"status\":\"ok\",\"type\":\"pong\"}") {
                return Err(io::Error::other(format!("unexpected ping reply {pong:?}")));
            }
            Ok((setup_s, f(&mut client)))
            // The client drops here: EOF ends the connection.
        })();
        server.handle().request_shutdown();
        let accepted = acceptor.join().expect("accept loop does not panic");
        accepted.and(outcome)
    });
    server.run_until_drained();
    let summary = server.finish();
    if summary.panics_caught > 0 {
        return Err(io::Error::other(format!(
            "{} worker panic(s)",
            summary.panics_caught
        )));
    }
    result
}

/// Facts read back from one reply.
struct Reply {
    /// `"ok"` or `"degraded"`; anything else is a failed operation.
    status: String,
    /// |err_pct| of every golden row.
    golden_err_pct: Vec<f64>,
    /// Canonical rendering of the analysis content (everything except
    /// the wall-clock `elapsed_ms`), for comparison with the traced run.
    digest: String,
}

fn bits(v: Option<&Value>) -> String {
    v.and_then(Value::as_f64)
        .map_or_else(|| "-".to_string(), hex)
}

fn read_reply(text: &str, id: usize) -> Result<Reply, String> {
    let v = json::parse(text).map_err(|e| format!("reply {id} is not JSON: {e}"))?;
    let got_id = v.get("id").and_then(Value::as_f64);
    if got_id != Some(id as f64) {
        return Err(format!(
            "reply out of order: expected id {id}, got {got_id:?}"
        ));
    }
    let status = v
        .get("status")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string();
    let mut golden_err_pct = Vec::new();
    let mut digest = status.clone();
    if let Some(Value::Arr(rows)) = v.get("rows") {
        for row in rows {
            let name = row.get("aggressor").and_then(Value::as_str).unwrap_or("?");
            digest.push_str(&format!(";{name}"));
            if row.get("no_coupling").is_some() {
                digest.push_str(":nc");
                continue;
            }
            if row.get("error").is_some() {
                digest.push_str(":err");
                continue;
            }
            for key in ["vp", "t0", "t1", "t2", "tp", "wn"] {
                digest.push_str(&format!(":{}", bits(row.get(key))));
            }
            let rung = row.get("rung").and_then(Value::as_str).unwrap_or("?");
            let degraded = row
                .get("degraded")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            digest.push_str(&format!(":{rung}:{degraded}"));
            if let Some(g) = row.get("golden") {
                let tier = g.get("tier").and_then(Value::as_str).unwrap_or("?");
                digest.push_str(&format!(":g{}:{tier}", bits(g.get("vp"))));
                if let Some(e) = g.get("err_pct").and_then(Value::as_f64) {
                    golden_err_pct.push(e.abs());
                }
            }
            if row.get("golden_error").is_some() {
                digest.push_str(":gerr");
            }
        }
    }
    Ok(Reply {
        status,
        golden_err_pct,
        digest,
    })
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn input_for(req: &AnalyzeRequest) -> InputSignal {
    match req.shape {
        Shape::Ramp => InputSignal::rising_ramp(req.arrival, req.slew),
        Shape::Exp => InputSignal::rising_exp(req.arrival, req.slew),
        Shape::Step => InputSignal::step(req.arrival),
    }
}

/// Serves one request in process through the layers' public calls, as
/// the daemon's worker does, and returns the reply digest.
fn traced_request(line: &str, ws: &mut SimWorkspace, layers: &mut Layers) -> String {
    let (_, parsed) = layers.time("serve.decode", || parse_request(line));
    let Ok(Request::Analyze(req)) = parsed else {
        return "error".into();
    };
    let Ok(network) = layers.time("circuit.deck_parse", || {
        parse_deck_with_limits(&req.deck, &deck_limits())
    }) else {
        return "error".into();
    };
    // The generated mix never sets these; the replay below assumes so.
    debug_assert!(!req.strict && req.aggressor.is_none() && req.deadline_ms.is_none());
    let Ok(robust) = layers.time("core.analyzer_build", || {
        RobustAnalyzer::with_policy(&network, FallbackPolicy::default())
    }) else {
        return "error".into();
    };
    let input = input_for(&req);
    let gopts = GoldenOpts::from_globals();
    let mut degraded = false;
    let mut rows = String::new();
    for (agg, net) in network.aggressor_nets() {
        rows.push_str(&format!(";{}", net.name()));
        match layers.time("core.chain", || robust.analyze(agg, &input)) {
            Ok(re) => {
                layers.count(rung_counter(re.provenance.rung()), 1.0);
                let e = &re.estimate;
                for v in [e.vp, e.t0, e.t1, e.t2, e.tp, e.wn] {
                    rows.push_str(&format!(":{}", hex(v)));
                }
                let row_degraded = re.provenance.degraded();
                degraded |= row_degraded;
                rows.push_str(&format!(":{}:{row_degraded}", re.provenance.rung().name()));
                if req.golden {
                    let network = &network;
                    match layers.time("sim.golden", || {
                        golden_noise_tiered(
                            network,
                            &[(agg, input)],
                            network.victim_output(),
                            ws,
                            &gopts,
                        )
                    }) {
                        Ok((g, tier)) => {
                            layers.count(tier_counter(tier), 1.0);
                            rows.push_str(&format!(":g{}:{}", hex(g.vp), tier.as_str()));
                        }
                        Err(_) => {
                            layers.count("sim.golden.failed", 1.0);
                            degraded = true;
                            rows.push_str(":gerr");
                        }
                    }
                }
            }
            Err(e) if e.is_no_noise() => rows.push_str(":nc"),
            Err(_) => {
                layers.count("core.chain.failed", 1.0);
                degraded = true;
                rows.push_str(":err");
            }
        }
    }
    if degraded {
        layers.count("degraded", 1.0);
    }
    let status = if degraded { "degraded" } else { "ok" };
    format!("{status}{rows}")
}

/// One pass of the closed loop: mix positions `0..PASS_REQUESTS`.
#[derive(Default)]
struct Pass {
    rtt_s: Vec<f64>,
    wall_s: f64,
    attempted: u64,
    failed: u64,
    degraded: u64,
    golden_err_pct: Vec<f64>,
    /// Reply digests by mix position.
    digests: Vec<String>,
    problems: Vec<String>,
}

/// Sends each request of one pass and waits for its reply. Ids keep
/// counting up across passes, so in-order delivery is checked per reply.
fn closed_pass(client: &mut Client, mix: &Mix, next_id: &mut usize) -> Pass {
    let mut out = Pass::default();
    let mut bad_status = 0u64;
    let started = Instant::now();
    for i in 0..PASS_REQUESTS {
        let id = *next_id;
        *next_id += 1;
        let line = mix.line(i, id);
        out.attempted += 1;
        let t = Instant::now();
        let reply = client.call(&line);
        out.rtt_s.push(t.elapsed().as_secs_f64());
        let text = match reply {
            Ok(Some(text)) => text,
            Ok(None) | Err(_) => {
                out.failed += 1;
                out.problems.push(format!("no reply to request {id}"));
                break;
            }
        };
        match read_reply(&text, id) {
            Ok(r) => {
                match r.status.as_str() {
                    "ok" => {}
                    "degraded" => out.degraded += 1,
                    // `error`, `overloaded` or anything else: a failed
                    // operation, counted rather than fatal, and a failed
                    // check.
                    _ => {
                        out.failed += 1;
                        bad_status += 1;
                    }
                }
                out.golden_err_pct.extend(r.golden_err_pct);
                out.digests.push(r.digest);
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(e);
            }
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    if bad_status > 0 {
        out.problems.push(format!(
            "{bad_status} repl(ies) with a status other than ok or degraded"
        ));
    }
    out
}

/// Samples an untraced run takes beside its passes.
struct Beside<'a> {
    /// Fresh daemons' start-up times.
    setup: &'a mut Vec<f64>,
    clock: &'a mut ClockProbe,
}

/// Warms the daemon up, then runs whole passes while another fits the
/// budget. With `beside`, fresh daemons' start-ups and the clock probe
/// are sampled before each pass, so those samples spread over the run.
/// Every pass must get the same replies as the first.
fn closed_loop(
    client: &mut Client,
    mix: &Mix,
    budget: Duration,
    mut beside: Option<Beside<'_>>,
) -> (Vec<Pass>, Vec<String>) {
    let started = Instant::now();
    let mut problems = Vec::new();
    for id in 0..WARMUP {
        let line = mix.warmup_line(id);
        if let Err(e) = client.call(&line) {
            problems.push(format!("warm-up request failed: {e}"));
            return (Vec::new(), problems);
        }
    }
    let mut next_id = WARMUP;
    let mut passes: Vec<Pass> = Vec::new();
    let mut walls = Vec::new();
    while another_fits(started, budget, &walls) {
        if let Some(b) = beside.as_mut() {
            b.clock.sample(CLOCK_PER_PASS);
            for _ in 0..SETUP_PER_PASS {
                match with_server(|_| ()) {
                    Ok((s, ())) => b.setup.push(s),
                    Err(e) => problems.push(format!("server start-up failed: {e}")),
                }
            }
        }
        let mut pass = closed_pass(client, mix, &mut next_id);
        walls.push(pass.wall_s);
        problems.extend(pass.problems.iter().cloned());
        let complete = pass.digests.len() == PASS_REQUESTS;
        if let Some(p0) = passes.first() {
            if p0.digests != pass.digests {
                problems.push(format!(
                    "pass {} got different replies than pass 0",
                    passes.len()
                ));
            }
            // Only the first pass's replies are kept, so memory does not
            // grow with the number of passes.
            pass.digests = Vec::new();
        }
        passes.push(pass);
        if !complete {
            break;
        }
    }
    (passes, problems)
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mix = Mix::new(seed);
    if trace {
        return traced(&mix, budget);
    }
    let mut setup = Vec::new();
    let mut clock = ClockProbe::default();
    let beside = Beside {
        setup: &mut setup,
        clock: &mut clock,
    };
    let (s, (passes, problems)) =
        match with_server(|client| closed_loop(client, &mix, budget, Some(beside))) {
            Ok(r) => r,
            Err(e) => return Outcome::failed(vec![format!("server failed: {e}")]),
        };
    setup.push(s);
    if passes.is_empty() {
        return Outcome::failed(problems);
    }
    let rtts: Vec<Vec<f64>> = passes.iter().map(|p| p.rtt_s.clone()).collect();
    let replies_s = ops_per_s(&fastest_per_op(&rtts));
    let (p50, p99) = fastest_rep_percentiles(&rtts);
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let degraded: u64 = passes.iter().map(|p| p.degraded).sum();
    let errs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.golden_err_pct.iter().copied())
        .collect();
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        repeats: passes.len(),
        problems,
        measured: Measured::EndToEnd(EndToEnd {
            setup: fast_median(&setup),
            throughput_ops_s: replies_s,
            latency_p50: p50,
            latency_p99: p99,
            clean_frac: (attempted - failed - degraded) as f64 / attempted as f64,
            metric2_err_mean_pct: Stat {
                value: errs.iter().sum::<f64>() / errs.len().max(1) as f64,
                samples: errs.len(),
            },
            clock,
        }),
    }
}

/// Half the budget answers passes over the socket (the reference); the
/// rest replays the same pass in process, layer by layer.
fn traced(mix: &Mix, budget: Duration) -> Outcome {
    let started = Instant::now();
    let (_, (reference, mut problems)) =
        match with_server(|client| closed_loop(client, mix, budget / 2, None)) {
            Ok(r) => r,
            Err(e) => return Outcome::failed(vec![format!("server failed: {e}")]),
        };
    let Some(expected) = reference.first().map(|p| &p.digests) else {
        return Outcome::failed(problems);
    };
    let mut layers = Layers::default();
    let mut ws = SimWorkspace::new();
    let mut walls = Vec::new();
    let mut failed = 0u64;
    while another_fits(started, budget, &walls) {
        let mut wall = Duration::ZERO;
        for (i, want) in expected.iter().enumerate() {
            let line = mix.line(i, WARMUP + i);
            let t = Instant::now();
            let got = traced_request(&line, &mut ws, &mut layers);
            wall += t.elapsed();
            if got.starts_with("error") {
                failed += 1;
            }
            if &got != want {
                problems.push(format!("traced reply differs for mix position {i}"));
            }
        }
        layers.add_wall(wall);
        walls.push(wall.as_secs_f64());
    }
    let ops = walls.len() * expected.len();
    let rtts = reference.iter().flat_map(|p| p.rtt_s.iter());
    let rtt_mean = rtts.clone().sum::<f64>() * 1e6 / rtts.count().max(1) as f64;
    layers.set(
        "serve.transport.mean_us",
        rtt_mean - layers.mean_wall_us(ops),
    );
    layers.set("ops", ops as f64);
    let reference_per_pass =
        reference.iter().map(|p| p.wall_s).sum::<f64>() / reference.len() as f64;
    layers.set("untraced.wall_s", reference_per_pass * walls.len() as f64);
    layers.finish_chain_ratio();
    Outcome {
        correct: problems.is_empty(),
        attempted: (ops as u64).max(1),
        failed,
        repeats: walls.len(),
        problems,
        measured: Measured::Layers(layers),
    }
}
