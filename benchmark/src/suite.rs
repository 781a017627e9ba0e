//! `suite`: the whole benchmark in one command, for people. Runs every
//! workload untraced [`SETS`] times — one process per run, exactly as
//! the driver starts them, round-robin across workloads so that a noisy
//! minute on a shared host is spread over all of them — then one traced
//! pass per workload, prints every metric by name and writes a result
//! file `compare` can read.

use crate::harness::{out_dir, DEFAULT_SEED, RUN_SECONDS};
use crate::host;
use crate::json::{self, Value};
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::summarize;
use std::process::{Command, Stdio};

/// Untraced runs of each workload: enough for quartiles.
const SETS: usize = 5;

#[derive(Debug, PartialEq, Eq)]
struct Opts {
    seed: u64,
    seconds: u64,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let usage = "usage: [suite] [--seed <n>] [--seconds <s>]";
    let mut o = Opts {
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value; {usage}"))?;
        let bad = || format!("bad value {value:?} for {flag}; {usage}");
        match flag.as_str() {
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = value.parse().ok().filter(|s| *s >= 1).ok_or_else(bad)?,
            _ => return Err(format!("unknown argument {flag:?}; {usage}")),
        }
    }
    Ok(o)
}

/// What one child run printed: its result object and whether its noise
/// guard fired. `Err` when it failed, was incorrect, or printed no result.
fn run_child(workload: &str, o: &Opts, trace: bool) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &o.seed.to_string()])
        .args([
            "--seconds",
            &o.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines().filter(|l| l.starts_with('#')) {
        println!("{line}");
    }
    let result = text
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))
        .and_then(|l| json::parse(l).map_err(|e| format!("{workload} result line: {e}")))?;
    if !out.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{workload} failed its output checks ({} of {} operations), {}",
            result
                .get("failed")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN),
            result
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN),
            out.status
        ));
    }
    Ok((result, text.contains("# noisy: true")))
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let o = parse(args)?;
    let mut failures = Vec::new();
    let mut noisy = false;

    // values[workload][metric] over the sets.
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut counts = vec![(0.0, 0.0); WORKLOADS.len()];
    for set in 0..SETS {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            println!("== set {}/{SETS}: {} ==", set + 1, w.name);
            match run_child(w.name, &o, false) {
                Ok((result, n)) => {
                    noisy |= n;
                    for (mi, d) in END_TO_END.iter().enumerate() {
                        match metric_value(&result, d.name) {
                            Some(v) => values[wi][mi].push(v),
                            None => failures.push(format!("{}: metric {} missing", w.name, d.name)),
                        }
                    }
                    counts[wi].0 += result
                        .get("attempted")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0);
                    counts[wi].1 += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
                }
                Err(e) => failures.push(e),
            }
        }
    }
    let mut layers = Vec::new();
    for w in WORKLOADS {
        println!("== traced pass: {} ==", w.name);
        match run_child(w.name, &o, true) {
            Ok((result, n)) => {
                noisy |= n;
                layers.push(result.get("metrics").cloned().unwrap_or(Value::Null));
            }
            Err(e) => {
                failures.push(e);
                layers.push(Value::Null);
            }
        }
    }

    println!();
    if noisy {
        println!("NOISY HOST: the noise guard fired in at least one run; treat the numbers below as unresolved.");
    }
    println!(
        "{:<15} {:<12} {:>14} {:>14} {:>14} {:>8} {:>3}  unit",
        "workload", "metric", "median", "q1", "q3", "spread", "n"
    );
    let mut doc_workloads = Vec::new();
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let mut e2e = Vec::new();
        for (mi, d) in END_TO_END.iter().enumerate() {
            let v = &values[wi][mi];
            if v.is_empty() {
                continue;
            }
            let s = summarize(v);
            let unit = if d.name == "units_per_s" {
                format!("{}/s", w.unit)
            } else {
                d.unit.to_string()
            };
            println!(
                "{:<15} {:<12} {:>14.6} {:>14.6} {:>14.6} {:>7.2}% {:>3}  {unit}",
                w.name,
                d.name,
                s.median,
                s.q1,
                s.q3,
                100.0 * s.spread(),
                s.n
            );
            e2e.push((
                d.name,
                Value::obj([
                    ("unit", Value::Str(unit)),
                    ("better", Value::Str(d.better.as_str().into())),
                    (
                        "bound",
                        Value::Num(d.bound.expect("end-to-end metrics are bounded")),
                    ),
                    ("median", Value::Num(s.median)),
                    ("q1", Value::Num(s.q1)),
                    ("q3", Value::Num(s.q3)),
                    (
                        "values",
                        Value::Arr(v.iter().map(|x| Value::Num(*x)).collect()),
                    ),
                ]),
            ));
        }
        doc_workloads.push((
            w.name,
            Value::obj([
                ("attempted", Value::Num(counts[wi].0)),
                ("failed", Value::Num(counts[wi].1)),
                ("end_to_end", Value::obj(e2e)),
                ("per_layer", layers[wi].clone()),
            ]),
        ));
    }
    let doc = Value::obj([
        ("seed", Value::Num(o.seed as f64)),
        ("run_seconds", Value::Num(o.seconds as f64)),
        ("sets", Value::Num(SETS as f64)),
        ("threads", Value::Num(host::threads() as f64)),
        ("noisy", Value::Bool(noisy)),
        ("workloads", Value::obj(doc_workloads)),
    ]);
    let out = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&out, doc.to_json() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "\nresults written to {} (per-layer numbers and traces: see the traced passes above)",
        out.display()
    );

    for f in &failures {
        eprintln!("northup-benchmark: FAILED: {f}");
    }
    Ok(failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_alone_is_a_whole_command_line() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args("--seed 5")).unwrap();
        assert_eq!((o.seed, o.seconds), (5, RUN_SECONDS));
        assert_eq!(parse(&[]).unwrap().seed, DEFAULT_SEED);
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--sets 2")).is_err());
    }
}
