//! `strongbench compare A.json B.json`: is B worse than A by more than the
//! bounds `BENCHMARK.json` fixed?
//!
//! Each file holds one or more runs (`strongbench run --out` appends). Per
//! workload and end-to-end metric the medians over the runs are compared;
//! the change counts as a regression when B's median is worse than A's by
//! more than the bound, and as unresolved when either side's own
//! run-to-run spread exceeds the bound — then the runs cannot tell.

use serde_json::Value;

use crate::inputs::WORKLOADS;
use crate::stats::{median, quartile_spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worse: f64,
    pub bound: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub runs: (usize, usize),
    pub verdict: Verdict,
}

/// Failed share of attempted operations, per side.
#[derive(Clone, Debug)]
pub struct Failures {
    pub workload: String,
    pub a: f64,
    pub b: f64,
}

#[derive(Clone, Debug, Default)]
pub struct Report {
    pub rows: Vec<Row>,
    pub failures: Vec<Failures>,
}

impl Report {
    /// A regression, or a higher share of failed operations, fails the
    /// comparison. Unresolved rows are reported but do not.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.verdict != Verdict::Regressed)
            && self.failures.iter().all(|f| f.b <= f.a)
    }
}

fn runs(file: &Value) -> Result<&Vec<Value>, String> {
    file.get("runs")
        .and_then(Value::as_array)
        .filter(|r| !r.is_empty())
        .ok_or_else(|| "result file has no \"runs\"".to_string())
}

/// One workload's values of `metric` across a file's runs.
fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r["workloads"][workload]["end_to_end"][metric]["value"].as_f64())
        .collect()
}

fn failed_share(runs: &[Value], workload: &str) -> Option<f64> {
    let sum = |key: &str| -> u64 {
        runs.iter()
            .filter_map(|r| r["workloads"][workload][key].as_u64())
            .sum()
    };
    let attempted = sum("attempted");
    (attempted > 0).then(|| sum("failed") as f64 / attempted as f64)
}

/// Compares result files `a` (the parent) and `b` (the change) against the
/// bounds in `bench` (a parsed `BENCHMARK.json`).
pub fn compare(a: &Value, b: &Value, bench: &Value) -> Result<Report, String> {
    let (runs_a, runs_b) = (runs(a)?, runs(b)?);
    let metrics = bench["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no \"end_to_end\"")?;
    let mut report = Report::default();
    for workload in WORKLOADS {
        for def in metrics {
            let field = |k: &str| def[k].as_str().ok_or(format!("metric without {k}"));
            let (name, unit, better) = (field("name")?, field("unit")?, field("better")?);
            let bound = def["bound"].as_f64().ok_or(format!("{name}: no bound"))?;
            let (va, vb) = (
                values(runs_a, workload, name),
                values(runs_b, workload, name),
            );
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            if va.is_empty() != vb.is_empty() {
                return Err(format!("{workload} {name}: present in only one file"));
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = match better {
                "lower" => (mb - ma) / ma,
                "higher" => (ma - mb) / ma,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            let (spread_a, spread_b) = (quartile_spread(&va), quartile_spread(&vb));
            let verdict = if spread_a.max(spread_b) > bound {
                Verdict::Unresolved
            } else if worse > bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            report.rows.push(Row {
                workload: workload.to_string(),
                metric: name.to_string(),
                unit: unit.to_string(),
                a: ma,
                b: mb,
                worse,
                bound,
                spread_a,
                spread_b,
                runs: (va.len(), vb.len()),
                verdict,
            });
        }
        if let (Some(fa), Some(fb)) = (
            failed_share(runs_a, workload),
            failed_share(runs_b, workload),
        ) {
            report.failures.push(Failures {
                workload: workload.to_string(),
                a: fa,
                b: fb,
            });
        }
    }
    if report.rows.is_empty() {
        return Err("the two files share no workload".to_string());
    }
    Ok(report)
}

pub fn print(report: &Report) {
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "B median",
        "worse",
        "bound",
        "spreadA",
        "spreadB",
        "runs"
    );
    for r in &report.rows {
        println!(
            "{:<14} {:<18} {:>14.4} {:>14.4} {:>7.2}% {:>6.1}% {:>7.2}% {:>7.2}% {:>6}  {} [{}]",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse * 100.0,
            r.bound * 100.0,
            r.spread_a * 100.0,
            r.spread_b * 100.0,
            format!("{}/{}", r.runs.0, r.runs.1),
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved (spread > bound)",
            },
            r.unit,
        );
    }
    for f in &report.failures {
        println!(
            "{:<14} ops failed share: A {:.4} B {:.4}  {}",
            f.workload,
            f.a,
            f.b,
            if f.b > f.a { "more failures" } else { "ok" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.05},
        {"name": "tokens_per_s", "unit": "1/s", "better": "higher", "bound": 0.05}
    ]}"#;

    /// A result file with one run per `(step_ms, tokens_per_s, failed)`.
    fn file(runs: &[(f64, f64, u64)]) -> Value {
        let runs: Vec<String> = runs
            .iter()
            .map(|(step, tok, failed)| {
                format!(
                    r#"{{"workloads": {{"train-compute": {{
                        "end_to_end": {{
                            "step_ms_p50": {{"value": {step}, "unit": "ms", "n": 20}},
                            "tokens_per_s": {{"value": {tok}, "unit": "1/s", "n": 20}}}},
                        "attempted": 100, "failed": {failed}}}}}}}"#
                )
            })
            .collect();
        serde_json::from_str(&format!(r#"{{"runs": [{}]}}"#, runs.join(","))).expect("test json")
    }

    fn verdicts(a: &Value, b: &Value) -> Vec<Verdict> {
        let bench = serde_json::from_str(BENCH).expect("bench json");
        compare(a, b, &bench)
            .expect("comparable")
            .rows
            .iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn same_numbers_pass() {
        let a = file(&[(100.0, 50.0, 0)]);
        let bench = serde_json::from_str(BENCH).expect("bench json");
        let report = compare(&a, &a, &bench).expect("comparable");
        assert!(report.passed());
        assert_eq!(report.rows.len(), 2);
        assert!(report
            .rows
            .iter()
            .all(|r| r.worse == 0.0 && r.runs == (1, 1)));
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let a = file(&[(100.0, 50.0, 0)]);
        // Slower step (lower is better) and fewer tokens (higher is better).
        assert_eq!(
            verdicts(&a, &file(&[(110.0, 45.0, 0)])),
            [Verdict::Regressed, Verdict::Regressed]
        );
        // Improvements in both directions, however large, are fine.
        assert_eq!(
            verdicts(&a, &file(&[(50.0, 100.0, 0)])),
            [Verdict::Ok, Verdict::Ok]
        );
        // Worse, but within the 5 % bound.
        assert_eq!(
            verdicts(&a, &file(&[(104.0, 48.0, 0)])),
            [Verdict::Ok, Verdict::Ok]
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let steady = file(&[(100.0, 50.0, 0); 5]);
        let noisy = file(&[
            (80.0, 50.0, 0),
            (90.0, 50.0, 0),
            (100.0, 50.0, 0),
            (110.0, 50.0, 0),
            (120.0, 50.0, 0),
        ]);
        assert_eq!(
            verdicts(&steady, &noisy),
            [Verdict::Unresolved, Verdict::Ok]
        );
        let bench = serde_json::from_str(BENCH).expect("bench json");
        assert!(compare(&steady, &noisy, &bench)
            .expect("comparable")
            .passed());
    }

    #[test]
    fn medians_over_runs_are_compared() {
        let a = file(&[(100.0, 50.0, 0), (101.0, 50.0, 0), (99.0, 50.0, 0)]);
        let b = file(&[(108.0, 50.0, 0), (109.0, 50.0, 0), (300.0, 50.0, 0)]);
        let bench = serde_json::from_str(BENCH).expect("bench json");
        let report = compare(&a, &b, &bench).expect("comparable");
        assert_eq!((report.rows[0].a, report.rows[0].b), (100.0, 109.0));
        assert_eq!(report.rows[0].runs, (3, 3));
    }

    #[test]
    fn more_failures_fail_the_comparison() {
        let a = file(&[(100.0, 50.0, 0)]);
        let b = file(&[(100.0, 50.0, 1)]);
        let bench = serde_json::from_str(BENCH).expect("bench json");
        assert!(!compare(&a, &b, &bench).expect("comparable").passed());
        assert!(compare(&b, &a, &bench).expect("comparable").passed());
    }

    #[test]
    fn malformed_inputs_are_errors() {
        let bench = serde_json::from_str(BENCH).expect("bench json");
        let empty = serde_json::from_str(r#"{"runs": []}"#).expect("json");
        let a = file(&[(100.0, 50.0, 0)]);
        assert!(compare(&empty, &a, &bench).is_err());
        let other = serde_json::from_str(r#"{"runs": [{"workloads": {}}]}"#).expect("json");
        assert!(compare(&a, &other, &bench).is_err());
    }
}
