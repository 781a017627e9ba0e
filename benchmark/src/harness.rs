//! One run of one workload: a closed loop with a single caller. Set-up
//! is timed (several times over), one repetition is discarded as warm-up,
//! then repetitions are issued back to back until the measuring time is
//! up. The last line printed is the result object the driver reads.

use crate::host::{self, timed, NoiseSample, ProcStat};
use crate::json::Value;
use crate::metrics::{self, metrics_json, Metrics, WorkloadDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::workloads::{
    fleet_replay::FleetReplay, gemm::Gemm, hotspot::Hotspot, sched_overload::SchedOverload,
    sched_replay::SchedReplay, service_real::ServiceReal, spmv::Spmv, Check, Workload,
};
use crate::ALLOC;
use std::path::PathBuf;
use std::time::Instant;

/// Measuring time of one run, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u64 = 14;
/// Seed of a run started by hand.
pub const DEFAULT_SEED: u64 = 20_260_927;
/// Timed repetitions a run must reach whatever the measuring time.
const MIN_REPS: usize = 5;
/// Set-up is repeated this often; `setup_s` is the median.
const SETUPS: usize = 3;
/// Pairs of one untraced and one traced repetition the traced pass makes
/// whatever the measuring time.
const MIN_PAIRS: usize = 3;

struct RunArgs {
    workload: &'static WorkloadDef,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let usage = "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    let (mut workload, mut seed, mut seconds, mut trace, mut corrupt) =
        (None, DEFAULT_SEED, RUN_SECONDS as f64, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reference" {
            // Test-only: proves that a wrong reference fails the run.
            corrupt = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value; {usage}"))?;
        let bad = || format!("bad value {value:?} for {flag}; {usage}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(metrics::workload(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}; {usage}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or(usage)?,
        seed,
        seconds,
        trace,
        corrupt,
    })
}

/// Where trace files and `FileBackend` scratch go: inside the checkout.
pub fn out_dir() -> PathBuf {
    std::env::var_os("NORTHUP_BENCH_OUT")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let a = parse(args)?;
    // `FileBackend` puts its files under the temporary directory; keep
    // that inside the checkout. Set before any thread exists.
    let scratch = out_dir().join("tmp");
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let scratch = scratch.canonicalize().map_err(|e| e.to_string())?;
    std::env::set_var("TMPDIR", &scratch);

    Ok(match a.workload.name {
        "gemm_ooc" => run::<Gemm>(&a),
        "hotspot_ooc" => run::<Hotspot>(&a),
        "spmv_ooc" => run::<Spmv>(&a),
        "service_real" => run::<ServiceReal>(&a),
        "sched_replay" => run::<SchedReplay>(&a),
        "sched_overload" => run::<SchedOverload>(&a),
        "fleet_replay" => run::<FleetReplay>(&a),
        other => unreachable!("{other} is in WORKLOADS but has no implementation"),
    })
}

fn run<W: Workload>(a: &RunArgs) -> bool {
    let threads = host::threads();
    let noise_before = NoiseSample::take();
    let (values, check) = if a.trace {
        traced::<W>(a, threads, &noise_before)
    } else {
        untraced::<W>(a, threads, &noise_before)
    };
    let values = match values {
        Ok(v) => v,
        Err(missing) => {
            eprintln!(
                "northup-benchmark: metrics not measured: {}",
                missing.join(", ")
            );
            return false;
        }
    };
    let correct = check.failed == 0;
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(check.attempted as f64)),
            ("failed", Value::Num(check.failed as f64)),
            ("metrics", metrics_json(&values)),
        ])
        .to_json()
    );
    correct
}

type Measured = Result<Vec<(&'static metrics::MetricDef, f64)>, Vec<&'static str>>;

fn setup_once<W: Workload>(a: &RunArgs, threads: usize) -> (W, f64) {
    let (mut w, t) = timed(|| W::setup(a.seed, threads));
    if a.corrupt {
        w.corrupt_reference();
    }
    (w, t)
}

/// Timed repetitions: until `seconds` have passed and at least
/// [`MIN_REPS`] are in. Returns the wall seconds of each and the peak of
/// live heap bytes inside each, from the counting allocator.
fn repetitions<W: Workload>(w: &mut W, seconds: f64, check: &mut Check) -> (Vec<f64>, Vec<f64>) {
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        ALLOC.reset_peak();
        let (out, wall_s) = timed(|| w.rep());
        walls.push(wall_s);
        peaks.push(ALLOC.snapshot().peak as f64);
        check.add(w.check(out));
    }
    (walls, peaks)
}

fn print_summary(name: &str, unit: &str, values: &[f64]) {
    let s = summarize(values);
    println!(
        "# {name:<12} min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6} {unit}, n {}",
        s.min, s.q1, s.median, s.q3, s.max, s.n
    );
}

fn print_noise(before: &NoiseSample, after: &NoiseSample) -> bool {
    let noisy = before.disagrees_with(after);
    println!(
        "# noisy: {noisy} (spin {:.4} s -> {:.4} s, 64 MiB memcpy {:.4} s -> {:.4} s)",
        before.spin_s, after.spin_s, before.memcpy_s, after.memcpy_s
    );
    noisy
}

fn untraced<W: Workload>(
    a: &RunArgs,
    threads: usize,
    noise_before: &NoiseSample,
) -> (Measured, Check) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut w = None;
    for _ in 0..SETUPS {
        drop(w.take()); // one set of inputs alive at a time
        let (fresh, s) = setup_once::<W>(a, threads);
        setups.push(s);
        w = Some(fresh);
    }
    let mut w: W = w.expect("SETUPS > 0");

    let mut check = Check::default();
    let warm_up = w.rep();
    check.add(w.check(warm_up));
    let measuring = Instant::now();
    let (walls, peaks) = repetitions(&mut w, a.seconds, &mut check);

    let wall_s = median(&walls);
    println!(
        "# {} seed {}: {} repetitions in {:.2} s, {threads} threads, scratch on {}",
        a.workload.name,
        a.seed,
        walls.len(),
        measuring.elapsed().as_secs_f64(),
        host::fs_type(&out_dir().join("tmp")),
    );
    print_summary("wall_s", "s", &walls);
    print_summary("setup_s", "s", &setups);
    print_summary(
        "peak_mem_mb",
        "MB",
        &peaks.iter().map(|p| p / 1e6).collect::<Vec<_>>(),
    );
    println!(
        "# units_per_s  {:.6} {}/s",
        w.units() / wall_s,
        a.workload.unit
    );
    let done_ratio = check.done as f64 / check.attempted as f64;
    println!(
        "# done_ratio   {done_ratio:.6} ({} of {} operations)",
        check.done, check.attempted
    );
    print_noise(noise_before, &NoiseSample::take());

    let mut m = Metrics::new(END_TO_END, a.workload.name);
    m.set("done_ratio", done_ratio);
    m.set("wall_s", wall_s);
    m.set("units_per_s", w.units() / wall_s);
    m.set("peak_mem_mb", median(&peaks) / 1e6);
    m.set("setup_s", median(&setups));
    (m.finish(), check)
}

fn traced<W: Workload>(
    a: &RunArgs,
    threads: usize,
    noise_before: &NoiseSample,
) -> (Measured, Check) {
    let (mut w, _) = setup_once::<W>(a, threads);
    let mut check = Check::default();
    let warm_up = w.rep();
    check.add(w.check(warm_up));
    // Half the measuring time goes to alternating untraced and traced
    // repetitions, so that both medians see the same host; the rest to
    // the probes. The last traced repetition is the one reported.
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    let started = Instant::now();
    while traced_walls.len() < MIN_PAIRS || started.elapsed().as_secs_f64() < a.seconds / 2.0 {
        let (out, wall_s) = timed(|| w.rep());
        untraced_walls.push(wall_s);
        check.add(w.check(out));
        let mut tr = Tracer::new();
        let before = ProcStat::now();
        let (traced, wall_s) = timed(|| w.traced_rep(&mut tr));
        let used = ProcStat::now().since(&before);
        traced_walls.push(wall_s);
        last = Some((tr, traced, wall_s, used));
    }
    let (mut tr, traced, wall_s, used) = last.expect("MIN_PAIRS > 0");
    let untraced_wall_s = median(&untraced_walls);

    let mut m = Metrics::new(PER_LAYER, a.workload.name);
    m.set("host.cpu_user_s", used.user_s);
    m.set("host.cpu_sys_s", used.sys_s);
    m.set("host.minor_faults", used.minor_faults);
    m.set(
        "trace.overhead_pct",
        (median(&traced_walls) / untraced_wall_s - 1.0) * 100.0,
    );
    check.add(w.report(&mut tr, &mut m, traced, wall_s, untraced_wall_s));

    let scratch = out_dir().join("tmp");
    let noise_after = NoiseSample::take();
    m.set("kernels.memcpy_gbps", noise_after.memcpy_gbps());
    m.set("host.spin_ms", noise_after.spin_s * 1e3);
    m.set("host.threads", threads as f64);
    m.set(
        "host.noisy",
        f64::from(u8::from(print_noise(noise_before, &noise_after))),
    );
    m.set(
        "host.scratch_tmpfs",
        f64::from(u8::from(host::fs_type(&scratch) == "tmpfs")),
    );

    let by_layer = tr.layer_self_s();
    let total: f64 = by_layer.values().sum();
    println!(
        "# {} seed {}: traced pass, {} pairs, untraced median {:.6} s, traced median {:.6} s",
        a.workload.name,
        a.seed,
        traced_walls.len(),
        untraced_wall_s,
        median(&traced_walls)
    );
    println!("# {:<10} {:>12} {:>8}", "layer", "self_s", "share");
    for (layer, s) in &by_layer {
        println!("# {layer:<10} {s:>12.6} {:>7.1}%", 100.0 * s / total);
    }
    let overhead = m.get("trace.overhead_pct").unwrap_or(0.0);
    if overhead >= 5.0 {
        println!(
            "# FLAGGED: tracing overhead {overhead:.1} % >= 5 %, per-layer numbers are inflated"
        );
    }
    let measured = m.finish();
    if let Ok(values) = &measured {
        for (d, v) in values
            .iter()
            .filter(|(d, _)| d.on.contains(&a.workload.name))
        {
            println!("# {:<32} {v:>18.6} {}", d.name, d.unit);
        }
    }

    let path = out_dir().join(format!("trace-{}.json", a.workload.name));
    match std::fs::write(&path, tr.chrome_trace(a.workload.name).to_json()) {
        Ok(()) => println!("# trace written to {}", path.display()),
        Err(e) => {
            eprintln!("northup-benchmark: cannot write {}: {e}", path.display());
            check.failed += 1;
        }
    }
    (measured, check)
}

/// The text of `BENCHMARK.json`: the contract's six keys, from the table.
pub fn describe() -> String {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str((*s).into())).collect());
    let metric = |d: &metrics::MetricDef| {
        let mut pairs = vec![
            ("name", Value::Str(d.name.into())),
            ("unit", Value::Str(d.unit.into())),
            ("better", Value::Str(d.better.as_str().into())),
        ];
        if let Some(b) = d.bound {
            pairs.push(("bound", Value::Num(b)));
        }
        Value::obj(pairs)
    };
    Value::obj([
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj([
                            ("name", Value::Str(w.name.into())),
                            ("why", Value::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&args("--workload gemm_ooc --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace, a.corrupt),
            ("gemm_ooc", 7, 10.0, true, false)
        );
        let a = parse(&args("--workload fleet_replay --corrupt-reference")).unwrap();
        assert_eq!((a.seed, a.trace, a.corrupt), (DEFAULT_SEED, false, true));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload gemm_ooc --seed x",
            "--workload gemm_ooc --seconds 0",
            "--workload gemm_ooc --trace 2",
            "--workload gemm_ooc --seed",
            "--frobnicate 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn description_has_exactly_the_contracts_keys() {
        let doc = crate::json::parse(&describe()).unwrap();
        let keys: Vec<_> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let layer0 = &doc.get("per_layer").and_then(Value::as_arr).unwrap()[0];
        assert!(
            layer0.get("bound").is_none(),
            "per-layer metrics carry no bound"
        );
    }
}
