//! Structured audit findings and the deterministic report.
//!
//! The report is the audit's contract with CI: the JSON serialization is
//! hand-rolled (no external dependencies), contains **no** run-varying
//! fields (worker count, timestamps, hostnames), and every collection is
//! emitted in case-index order — so the bytes are identical for any
//! `--jobs` value and any machine, given the same `(cases, seed,
//! envelopes)`.

use crate::ErrorEnvelopes;
use std::fmt;
use xtalk_obs::json::{comma, json_num, json_str};

/// One violated invariant on one audited case. Everything needed to
/// reproduce the case is in the finding: regenerate it with
/// `xtalk_tech::sweep::single_case(&Technology::p25(), family, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Case index within the audit run.
    pub case_index: usize,
    /// The case's own generation seed (derived from the master seed).
    pub seed: u64,
    /// Case family name (`two_pin_far`, `two_pin_near`, `tree`).
    pub family: &'static str,
    /// The generated case's label (human diagnostics).
    pub label: String,
    /// Which evaluation the invariant belongs to (`metric_one`,
    /// `metric_two`, `bounds`, `superpose`, `golden`).
    pub metric: &'static str,
    /// The violated invariant (`identity_tp`, `moment_residual_f2`,
    /// `bound_conservatism`, `error_envelope_vp`, …).
    pub invariant: &'static str,
    /// The observed value.
    pub observed: f64,
    /// The expected value (or the tolerance the observation exceeded).
    pub expected: f64,
    /// Human-readable elaboration.
    pub detail: String,
    /// The degraded-pipeline rung that analyzed this case
    /// ([`xtalk_core::Rung::name`]), or `"none"` when the robust chain
    /// itself failed — context for triaging whether the violation comes
    /// from the full-fidelity path.
    pub rung: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "case {} (family {}, seed {:#x}) {}/{}: observed {} vs expected {} — {}",
            self.case_index,
            self.family,
            self.seed,
            self.metric,
            self.invariant,
            self.observed,
            self.expected,
            self.detail
        )
    }
}

/// A case the audit could not score (sim failure or negligible pulse) —
/// recorded, not silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedCase {
    /// Case index within the audit run.
    pub case_index: usize,
    /// The case's generation seed.
    pub seed: u64,
    /// Case family name.
    pub family: &'static str,
    /// Why the case was skipped.
    pub reason: String,
}

/// A metric that returned a *structured* error on a case. Declining with
/// a typed error is designed behavior (the degraded-mode pipeline exists
/// for exactly this), so declines are reported but are not violations.
#[derive(Debug, Clone, PartialEq)]
pub struct DeclinedEvaluation {
    /// Case index within the audit run.
    pub case_index: usize,
    /// The case's generation seed.
    pub seed: u64,
    /// Which evaluation declined (`metric_one`, `metric_two`, `bounds`).
    pub metric: &'static str,
    /// The structured error's message.
    pub reason: String,
}

/// The largest observed |relative error| against the golden waveform for
/// one `(metric, parameter)` pair, with the case that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstError {
    /// `metric_one` or `metric_two`.
    pub metric: &'static str,
    /// `vp`, `tp` or `wn`.
    pub param: &'static str,
    /// Signed relative error `(estimate − golden)/golden` whose magnitude
    /// is the run's maximum.
    pub error: f64,
    /// Case index that produced it.
    pub case_index: usize,
    /// That case's generation seed.
    pub seed: u64,
}

/// Complete audit outcome: configuration echo, coverage counters, the
/// observed worst errors, and every violation.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Requested case count.
    pub cases: usize,
    /// Master seed.
    pub seed: u64,
    /// Error envelopes the run was checked against.
    pub envelopes: ErrorEnvelopes,
    /// Cases that were fully checked.
    pub checked: usize,
    /// Cases that could not be scored, in case order.
    pub skipped: Vec<SkippedCase>,
    /// Structured metric declines, in case order.
    pub declined: Vec<DeclinedEvaluation>,
    /// Worst observed errors, in fixed `(metric, param)` order.
    pub worst: Vec<WorstError>,
    /// Invariant violations, in case order.
    pub findings: Vec<Finding>,
}

impl AuditReport {
    /// `true` when no invariant was violated.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Deterministic JSON serialization (see module docs). Byte-identical
    /// across worker counts and machines for the same inputs.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"cases\": {},\n", self.cases));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str("  \"envelopes\": {\n");
        s.push_str(&format!(
            "    \"metric_one\": {{\"vp\": {}, \"tp\": {}, \"wn\": {}}},\n",
            json_num(self.envelopes.metric_one.vp),
            json_num(self.envelopes.metric_one.tp),
            json_num(self.envelopes.metric_one.wn)
        ));
        s.push_str(&format!(
            "    \"metric_two\": {{\"vp\": {}, \"tp\": {}, \"wn\": {}}},\n",
            json_num(self.envelopes.metric_two.vp),
            json_num(self.envelopes.metric_two.tp),
            json_num(self.envelopes.metric_two.wn)
        ));
        s.push_str(&format!(
            "    \"bound_margin\": {}\n",
            json_num(self.envelopes.bound_margin)
        ));
        s.push_str("  },\n");
        s.push_str(&format!("  \"checked\": {},\n", self.checked));
        s.push_str(&format!("  \"violations\": {},\n", self.findings.len()));
        s.push_str("  \"worst_errors\": [\n");
        for (i, w) in self.worst.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"metric\": {}, \"param\": {}, \"error\": {}, \"case\": {}, \"seed\": {}}}{}\n",
                json_str(w.metric),
                json_str(w.param),
                json_num(w.error),
                w.case_index,
                w.seed,
                comma(i, self.worst.len())
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"skipped\": [\n");
        for (i, sk) in self.skipped.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"case\": {}, \"seed\": {}, \"family\": {}, \"reason\": {}}}{}\n",
                sk.case_index,
                sk.seed,
                json_str(sk.family),
                json_str(&sk.reason),
                comma(i, self.skipped.len())
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"declined\": [\n");
        for (i, d) in self.declined.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"case\": {}, \"seed\": {}, \"metric\": {}, \"reason\": {}}}{}\n",
                d.case_index,
                d.seed,
                json_str(d.metric),
                json_str(&d.reason),
                comma(i, self.declined.len())
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"case\": {}, \"seed\": {}, \"family\": {}, \"label\": {}, \"metric\": {}, \
                 \"invariant\": {}, \"observed\": {}, \"expected\": {}, \"rung\": {}, \"detail\": {}}}{}\n",
                f.case_index,
                f.seed,
                json_str(f.family),
                json_str(&f.label),
                json_str(f.metric),
                json_str(f.invariant),
                json_num(f.observed),
                json_num(f.expected),
                json_str(f.rung),
                json_str(&f.detail),
                comma(i, self.findings.len())
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit: {} cases (seed {}) — {} checked, {} skipped, {} declined evaluations, {} violation(s)",
            self.cases,
            self.seed,
            self.checked,
            self.skipped.len(),
            self.declined.len(),
            self.findings.len()
        )?;
        if !self.worst.is_empty() {
            writeln!(f, "worst |relative error| vs golden:")?;
            for w in &self.worst {
                writeln!(
                    f,
                    "  {:>10} {:<2} {:>8.2}%  (case {}, seed {:#x})",
                    w.metric,
                    w.param,
                    w.error * 100.0,
                    w.case_index,
                    w.seed
                )?;
            }
        }
        if self.clean() {
            writeln!(f, "no invariant violations")?;
        } else {
            writeln!(f, "violations:")?;
            for finding in &self.findings {
                writeln!(f, "  {finding}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorEnvelopes;

    fn sample_report() -> AuditReport {
        AuditReport {
            cases: 2,
            seed: 1,
            envelopes: ErrorEnvelopes::default(),
            checked: 1,
            skipped: vec![SkippedCase {
                case_index: 1,
                seed: 99,
                family: "tree",
                reason: "negligible pulse (1.0e-4 Vdd)".into(),
            }],
            declined: vec![],
            worst: vec![WorstError {
                metric: "metric_two",
                param: "vp",
                error: 0.12,
                case_index: 0,
                seed: 42,
            }],
            findings: vec![Finding {
                case_index: 0,
                seed: 42,
                family: "two_pin_far",
                label: "two_pin[0] l1=0.10mm".into(),
                metric: "metric_one",
                invariant: "identity_tp",
                observed: 1.0,
                expected: 0.0,
                detail: "tp − (t0 + t1) exceeded tolerance".into(),
                rung: "metric II",
            }],
        }
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let r = sample_report();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"violations\": 1"));
        assert!(a.contains("\"invariant\": \"identity_tp\""));
        assert!(a.contains("\"seed\": 42"));
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser dependency).
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn non_finite_numbers_become_strings() {
        assert_eq!(json_num(f64::NAN), "\"NaN\"");
        assert_eq!(json_num(f64::INFINITY), "\"inf\"");
        assert_eq!(json_num(f64::NEG_INFINITY), "\"-inf\"");
        assert_eq!(json_num(0.25), "0.25");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn summary_mentions_violations_and_worst_errors() {
        let r = sample_report();
        let text = r.to_string();
        assert!(text.contains("1 violation(s)"));
        assert!(text.contains("worst |relative error|"));
        assert!(text.contains("identity_tp"));
        let clean = AuditReport {
            findings: vec![],
            ..r
        };
        assert!(clean.to_string().contains("no invariant violations"));
    }
}
