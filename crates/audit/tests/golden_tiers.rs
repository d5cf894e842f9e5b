//! Property test for the adaptive-timestep golden tier: across the
//! paper's Figure-4 two-pin family (random geometry, drivers, loads and
//! slews over the p25 sweep ranges), the adaptive march must agree with
//! the fixed march on peak, peak time and width within the calibrated
//! audit envelope — the same one `xtalk audit` enforces per case.

use proptest::prelude::*;
use xtalk_audit::invariants::NEGLIGIBLE_VP;
use xtalk_audit::ErrorEnvelopes;
use xtalk_circuit::signal::InputSignal;
use xtalk_sim::{golden_noise_tiered, FastTier, GoldenOpts, SimMode, SimWorkspace};
use xtalk_tech::{CouplingDirection, Technology, TwoPinSpec};

/// Draws a Figure-4 spec over the same ranges the sweep harness uses:
/// coupling window 0.1–2.0 mm placed anywhere on a wire with up to
/// 1.5 mm of slack, p25 driver/load corners.
fn two_pin_spec() -> impl Strategy<Value = TwoPinSpec> {
    (
        0.1e-3..2.0e-3f64,  // l2: coupling window
        0.0..1.5e-3f64,     // slack: l3 - l2
        0.0..1.0f64,        // fraction of the slack placed before the window
        any::<bool>(),      // direction
        30.0..3000.0f64,    // victim driver (p25 range)
        30.0..3000.0f64,    // aggressor driver
        2e-15..50e-15f64,   // victim load
        2e-15..50e-15f64,   // aggressor load
    )
        .prop_map(|(l2, slack, frac, near, vd, ad, vl, al)| {
            let l1 = slack * frac;
            TwoPinSpec {
                l1,
                l2,
                l3: l1 + l2 + slack * (1.0 - frac),
                direction: if near {
                    CouplingDirection::NearEnd
                } else {
                    CouplingDirection::FarEnd
                },
                victim_driver: vd,
                aggressor_driver: ad,
                victim_load: vl,
                aggressor_load: al,
                segments_per_mm: 8,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adaptive_matches_fixed_within_audit_envelope(
        spec in two_pin_spec(),
        slew in 30e-12..300e-12f64,
    ) {
        let tech = Technology::p25();
        let (net, agg) = spec.build(&tech).expect("p25 two-pin builds");
        let input = InputSignal::rising_ramp(0.0, slew);
        let stimuli = [(agg, input)];
        let node = net.victim_output();
        let mut ws = SimWorkspace::new();

        let fixed = golden_noise_tiered(
            &net, &stimuli, node, &mut ws,
            &GoldenOpts { mode: SimMode::Fixed, tier: FastTier::Off },
        );
        let adaptive = golden_noise_tiered(
            &net, &stimuli, node, &mut ws,
            &GoldenOpts { mode: SimMode::Adaptive, tier: FastTier::Off },
        );
        // A spec either simulates under both stepping policies or neither:
        // truncation horizons and measurement failures are properties of
        // the circuit, not the march.
        let (fixed, adaptive) = match (fixed, adaptive) {
            (Ok((f, _)), Ok((a, _))) => (f, a),
            (Err(_), Err(_)) => return Ok(()),
            (f, a) => {
                return Err(TestCaseError::fail(format!(
                    "stepping-policy disagreement: fixed={f:?} adaptive={a:?}"
                )))
            }
        };
        // Sub-threshold pulses are below the audit's own floor; relative
        // comparison is meaningless there.
        if fixed.vp < NEGLIGIBLE_VP {
            return Ok(());
        }

        let env = ErrorEnvelopes::default().adaptive;
        for (got, gold, limit, what) in [
            (adaptive.vp, fixed.vp, env.vp, "vp"),
            (adaptive.tp, fixed.tp, env.tp, "tp"),
            (adaptive.wn, fixed.wn, env.wn, "wn"),
        ] {
            if gold.abs() < f64::MIN_POSITIVE {
                continue;
            }
            let rel = (got - gold) / gold;
            prop_assert!(
                rel.abs() <= limit,
                "{what}: adaptive {got:.6e} vs fixed {gold:.6e} (rel {rel:+.4e} > ±{limit})",
            );
        }
    }
}
