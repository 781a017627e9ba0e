//! `compare A.json B.json`: one rule for reading two result files of
//! `suite`. Per workload and end-to-end metric: both medians, both
//! quartile distances, B over A, and a verdict.

use crate::json::{self, Value};
use crate::stats::{summarize, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound (or unknown): the
    /// runs cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The rule. `a` is the base, `b` the candidate; `bound` the share of
/// `a`'s median by which `b` may be worse.
pub fn verdict(a: &Summary, b: &Summary, lower_is_better: bool, bound: f64) -> Verdict {
    if a.n < 2 || b.n < 2 || a.spread().max(b.spread()) > bound {
        return Verdict::Unresolved;
    }
    let change = (b.median - a.median) / a.median.abs();
    let worse_by = if lower_is_better { change } else { -change };
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > a.spread() {
        // Better by more than the distance between the base's quartiles.
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
}

fn values(metric: &Value) -> Option<Vec<f64>> {
    metric
        .get("values")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare <A.json> <B.json>".into());
    };
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    for (label, doc) in [("A", &a_doc), ("B", &b_doc)] {
        if doc.get("noisy") == Some(&Value::Bool(true)) {
            println!("note: {label} was measured on a noisy host");
        }
    }
    let a_workloads = a_doc
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("A has no workloads")?;
    println!(
        "{:<15} {:<12} {:>14} {:>14} {:>8} {:>8} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "A iqr", "B iqr", "B/A"
    );
    let mut regressed = false;
    for (workload, a_w) in a_workloads {
        let Some(b_w) = b_doc.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<15} only in A");
            continue;
        };
        for (metric, a_m) in a_w.get("end_to_end").and_then(Value::as_obj).unwrap_or(&[]) {
            let b_m = b_w.get("end_to_end").and_then(|e| e.get(metric));
            let (Some(av), Some(bv)) = (values(a_m), b_m.and_then(values)) else {
                println!("{workload:<15} {metric:<12} missing on one side");
                continue;
            };
            if av.is_empty() || bv.is_empty() {
                continue;
            }
            let (a, b) = (summarize(&av), summarize(&bv));
            let lower = a_m.get("better").and_then(Value::as_str) != Some("higher");
            let bound = a_m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            let v = verdict(&a, &b, lower, bound);
            regressed |= v == Verdict::Regressed;
            println!(
                "{workload:<15} {metric:<12} {:>14.6} {:>14.6} {:>7.2}% {:>7.2}% {:>9.4}  {} (base A, bound {:.0} %, {} better)",
                a.median,
                b.median,
                100.0 * a.spread(),
                100.0 * b.spread(),
                b.median / a.median,
                v.as_str(),
                100.0 * bound,
                if lower { "lower" } else { "higher" },
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(center: f64, step: f64) -> Summary {
        summarize(
            &(0..10)
                .map(|i| center + step * (f64::from(i) - 4.5))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn verdicts_follow_the_one_rule() {
        let base = runs(1.0, 0.002); // iqr ~1.1 % of the median
        assert_eq!(
            verdict(&base, &runs(1.0, 0.002), true, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &runs(1.05, 0.002), true, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &runs(1.2, 0.002), true, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &runs(0.9, 0.002), true, 0.10),
            Verdict::Improved
        );
        // The same numbers read the other way for a higher-is-better metric.
        assert_eq!(
            verdict(&base, &runs(1.2, 0.002), false, 0.10),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &runs(0.8, 0.002), false, 0.10),
            Verdict::Regressed
        );
        // A gain smaller than the base's own quartile distance is no gain.
        assert_eq!(
            verdict(&base, &runs(0.995, 0.002), true, 0.10),
            Verdict::Unchanged
        );
        // Spread wider than the bound, or a single run: nothing is shown.
        assert_eq!(
            verdict(&runs(1.0, 0.05), &runs(2.0, 0.002), true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &summarize(&[0.5]), true, 0.10),
            Verdict::Unresolved
        );
    }
}
