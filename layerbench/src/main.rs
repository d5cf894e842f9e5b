//! `layerbench` — one benchmark for the three ways the closed-form noise
//! metrics are used: a full-chip screen (`screen-pex`), an interactive
//! daemon client (`serve-interactive`) and an incremental ECO loop
//! (`whatif-eco`).
//!
//! ```text
//! layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but the
//! benchmark's own clock around the program. `--trace 1` re-drives the
//! same inputs through each layer's public functions, timing every call,
//! and checks that the outputs are identical to an untraced pass of the
//! same run. The last line of standard output is the result object; the
//! lines before it carry the host block and, when traced, the layer
//! table. See `README.md` beside this package for why each workload
//! exists and which layers it exercises.

mod clock;
mod layers;
mod marks;
mod screen;
mod serve;
mod whatif;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use clock::ClockProbe;
use layers::Layers;

#[global_allocator]
static ALLOCATOR: marks::Marking = marks::Marking;

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Deterministic input generator (SplitMix64): the workload seed is the
/// only source of variation in the generated inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A timing statistic with the number of samples it was taken over.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample, with its size.
pub fn median(values: &[f64]) -> Stat {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Stat {
        value: percentile(&sorted, 0.5),
        samples: sorted.len(),
    }
}

/// Each operation's fastest time over a run's repetitions, where every
/// repetition replays the same sequence of operations (only the common
/// prefix counts when a repetition stopped early).
///
/// On a shared host, load from other tenants can slow this program by
/// up to about 1.8x, in stretches from milliseconds to minutes. A median
/// over a run lands on whichever state dominated it. An operation's
/// fastest repetition is the one least disturbed; a slower program
/// slows every repetition, so a regression still shows. Used for
/// throughput only: a stall that does not recur at the same position in
/// every repetition disappears from it.
pub fn fastest_per_op(reps: &[Vec<f64>]) -> Vec<f64> {
    let ops = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..ops)
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Operations per second over per-operation times in seconds.
pub fn ops_per_s(per_op_s: &[f64]) -> f64 {
    per_op_s.len() as f64 / per_op_s.iter().sum::<f64>()
}

/// Latency percentiles (µs) of the operations as they were served, in
/// the least disturbed repetition: each repetition's p50 and p99 over
/// all its operations, stalls included, and the lowest of those over
/// the run. A tail the program causes recurs in every repetition, so it
/// shows; a slow stretch of the host that spares one repetition does not.
pub fn fastest_rep_percentiles(reps: &[Vec<f64>]) -> (Stat, Stat) {
    let at = |p: f64| {
        let best = reps
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| {
                let mut us: Vec<f64> = r.iter().map(|s| s * 1e6).collect();
                us.sort_by(f64::total_cmp);
                (percentile(&us, p), us.len())
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap_or((f64::NAN, 0));
        Stat {
            value: best.0,
            samples: best.1,
        }
    };
    (at(0.50), at(0.99))
}

/// Median of the fastest quarter (at least one) of set-up samples, with
/// the number of samples it was taken over; see [`fastest_per_op`] for
/// why the fast end.
pub fn fast_median(samples: &[f64]) -> Stat {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate(samples.len().div_ceil(4).max(1));
    median(&sorted)
}

/// Keeps repeating while another repetition of the typical length so
/// far still fits the budget; always allows the first.
pub fn another_fits(started: Instant, budget: Duration, done: &[f64]) -> bool {
    done.is_empty() || started.elapsed().as_secs_f64() + median(done).value <= budget.as_secs_f64()
}

/// End-to-end figures of one untraced run. Every workload fills every
/// field, so every run prints every end-to-end metric.
pub struct EndToEnd {
    /// Program-side set-up before the measured loop, from its least
    /// disturbed samples.
    pub setup: Stat,
    /// Operations per second, from each operation's fastest repetition.
    pub throughput_ops_s: f64,
    /// Median latency of one operation (µs), in the least disturbed
    /// repetition.
    pub latency_p50: Stat,
    /// 99th-percentile latency of one operation (µs), likewise.
    pub latency_p99: Stat,
    /// Share of operations neither degraded nor failed.
    pub clean_frac: f64,
    /// Mean |closed-form − golden| / golden over the run's golden
    /// references (%).
    pub metric2_err_mean_pct: Stat,
    /// The run's clock probe; the timings above are wall-clock and are
    /// published scaled by it.
    pub clock: ClockProbe,
}

impl EndToEnd {
    /// The timings in reference seconds (see [`clock`]): set-up (s),
    /// throughput (1/s), p50 and p99 (µs).
    fn calibrated(&self) -> [f64; 4] {
        let k = self.clock.scale();
        [
            self.setup.value * k,
            self.throughput_ops_s / k,
            self.latency_p50.value * k,
            self.latency_p99.value * k,
        ]
    }
}

/// What a workload measured.
pub enum Measured {
    EndToEnd(EndToEnd),
    Layers(Layers),
}

/// One run's verdict.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured loop.
    pub attempted: u64,
    /// Operations that failed (error replies, failed nets, rejected
    /// deltas, report mismatches).
    pub failed: u64,
    /// Measured repetitions of the workload's unit of work.
    pub repeats: usize,
    /// Why a check failed, one line each.
    pub problems: Vec<String>,
    pub measured: Measured,
}

impl Outcome {
    /// A run that could not measure at all.
    pub fn failed(problems: Vec<String>) -> Outcome {
        Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            repeats: 0,
            problems,
            measured: Measured::Layers(Layers::default()),
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite numbers in shortest round-trip form (all digits kept).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Process high-water resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

fn host_line(args: &Args, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"host\":{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"workload\":{},\"seed\":{},\
         \"seconds\":{},\"trace\":{},\"runs\":1,\"repeats\":{}}}}}",
        json_str(&cpu_model()),
        json_str(env!("LAYERBENCH_RUSTC")),
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        outcome.repeats
    )
}

fn result_line(outcome: &Outcome) -> String {
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    match &outcome.measured {
        Measured::EndToEnd(e) => {
            let [setup, throughput, p50, p99] = e.calibrated();
            metrics.push(("setup_s".into(), setup, "s"));
            metrics.push(("throughput_ops_s".into(), throughput, "1/s"));
            metrics.push(("latency_p50_us".into(), p50, "us"));
            metrics.push(("latency_p99_us".into(), p99, "us"));
            metrics.push(("peak_rss_mib".into(), peak_rss_mib(), "MiB"));
            metrics.push(("clean_frac".into(), e.clean_frac, "ratio"));
            metrics.push((
                "metric2_err_mean_pct".into(),
                e.metric2_err_mean_pct.value,
                "%",
            ));
        }
        Measured::Layers(layers) => metrics = layers.metrics(),
    }
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(*value),
            json_str(unit)
        );
    }
    out.push_str("}}");
    out
}

/// Sample counts beside the statistics they support, the wall-clock
/// timings before calibration, and the clock probe.
fn samples_line(e: &EndToEnd) -> String {
    format!(
        "{{\"samples\":{{\"setup_s\":{},\"latency_p50_us\":{},\"latency_p99_us\":{},\
         \"metric2_err_mean_pct\":{}}},\"wall\":{{\"setup_s\":{},\"throughput_ops_s\":{},\
         \"latency_p50_us\":{},\"latency_p99_us\":{}}},\"clock\":{{\"probe_fastest_s\":{},\
         \"probe_samples\":{},\"scale\":{}}}}}",
        e.setup.samples,
        e.latency_p50.samples,
        e.latency_p99.samples,
        e.metric2_err_mean_pct.samples,
        json_num(e.setup.value),
        json_num(e.throughput_ops_s),
        json_num(e.latency_p50.value),
        json_num(e.latency_p99.value),
        json_num(e.clock.fastest_s()),
        e.clock.samples(),
        json_num(e.clock.scale())
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            eprintln!(
                "usage: layerbench --workload <screen-pex|serve-interactive|whatif-eco> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let outcome = match args.workload.as_str() {
        "screen-pex" => screen::run(args.seed, budget, args.trace),
        "serve-interactive" => serve::run(args.seed, budget, args.trace),
        "whatif-eco" => whatif::run(args.seed, budget, args.trace),
        other => {
            eprintln!("layerbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    for problem in &outcome.problems {
        eprintln!("layerbench: check failed: {problem}");
    }
    println!("{}", host_line(&args, &outcome));
    match &outcome.measured {
        Measured::EndToEnd(e) => println!("{}", samples_line(e)),
        Measured::Layers(layers) => print!("{}", layers.table()),
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
