//! `xtalk noise --golden` cross-checks every estimate row through the
//! shared golden measurement, so the `--metrics-out` snapshot counts one
//! `sim.golden.runs` per estimate row.
//!
//! This file holds exactly one `#[test]`: the metrics registry is
//! process-global, and a sibling test recording metrics concurrently
//! would move the counter.

use std::fs;
use xtalk_tech::{PexDeckSpec, Technology};

const TWO_PIN: &str = "\
* two-pin pair
*! net 0 victim victim
*! net 1 aggressor agg0
*! output n1
VDRV0 src0 0 DC 0
RDRV0 src0 n0 300
VDRV1 src1 0 DC 0
RDRV1 src1 n2 150
R0 n0 n1 60
C0 n0 0 2e-15
C1 n1 0 8e-15
CL0 n1 0 12e-15
CL1 n2 0 10e-15
CC0 n2 n1 25e-15
.end
";

/// Runs `xtalk noise DECK --golden --metrics-out` and returns the
/// number of simulated rows in the report and the recorded
/// `sim.golden.runs`.
fn golden_rows_and_runs(deck: &str, metrics: &str) -> (usize, u64) {
    xtalk_obs::reset();
    let argv: Vec<String> = [
        "noise",
        deck,
        "--golden",
        "--quiet",
        "--metrics-out",
        metrics,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let outcome = xtalk_cli::run(&argv).expect("noise runs");
    let simulated = outcome.report.matches("(simulated)").count();
    let json = fs::read_to_string(metrics).expect("metrics written");
    let runs = json
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"sim.golden.runs\": "))
        .map_or(0, |v| v.trim_end_matches(',').parse().expect("a count"));
    (simulated, runs)
}

#[test]
fn golden_cross_check_counts_one_run_per_estimate_row() {
    let dir = std::env::temp_dir().join(format!("xtalk-noise-golden-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    fs::write(path("two_pin.sp"), TWO_PIN).expect("deck written");
    fs::write(
        path("bus.sp"),
        PexDeckSpec::new(1, 16, 4).deck_string(&Technology::p25()),
    )
    .expect("deck written");

    assert_eq!(
        golden_rows_and_runs(&path("two_pin.sp"), &path("m1.json")),
        (1, 1)
    );
    // The bus victim has four coupled neighbours; the other eleven lanes
    // are no-coupling rows and are not simulated.
    assert_eq!(
        golden_rows_and_runs(&path("bus.sp"), &path("m2.json")),
        (4, 4)
    );

    fs::remove_dir_all(&dir).ok();
}
