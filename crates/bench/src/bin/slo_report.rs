//! CI overload gate: replay a fixed-seed open-loop overload trace at
//! 1×/1.5×/2× estimated capacity through the SLO feedback controller
//! and certify the tentpole claim — at 2× offered load the controller
//! holds the Interactive p99 inside its SLO while Batch/Normal absorb
//! the shedding and brownout, and the same trace **without** the
//! controller breaches the target (the regression witness).
//!
//! ```text
//! cargo run --release -p northup-bench --bin slo_report
//! cargo run --release -p northup-bench --bin slo_report -- slo-report.json
//! ```
//!
//! Exit code is non-zero when the acceptance criteria fail:
//!
//! * two same-seed runs of the whole study must produce
//!   **byte-identical** report JSON (every control decision is a pure
//!   function of virtual time and seeded state);
//! * at 2×: controller-on Interactive p99 ≤ target, controller-off
//!   Interactive p99 > target, sheds > 0, **zero** Interactive sheds,
//!   brownout engaged (degraded jobs > 0);
//! * at 1×: the controller never sheds (no false positives at capacity);
//! * the autoscale variant's §V-D projection reports the capacity this
//!   trace needs (> 100%) and actually grows the budgets (tier 4);
//! * every arrival is accounted for: done + failed + rejected +
//!   cancelled = submitted, and the typed rejection reasons partition
//!   the rejected count.

use northup::presets;
use northup_apps::{overload_slo, overload_trace, run_service_slo, OverloadConfig};
use northup_hw::catalog;
use northup_sched::{JobState, Priority, RejectReason, SchedReport};
use std::fmt::Write as _;

const JOBS: usize = 320;
const SEED: u64 = 11;
const LOADS: [u32; 3] = [100, 150, 200];
const WITNESS_LOAD: u32 = 200;

fn trace_cfg(load_pct: u32) -> OverloadConfig {
    OverloadConfig {
        jobs: JOBS,
        seed: SEED,
        load_pct,
        ..OverloadConfig::default()
    }
}

struct Study {
    /// Controller-on runs, one per entry of [`LOADS`].
    on: Vec<SchedReport>,
    /// Controller-off witness at [`WITNESS_LOAD`].
    off: SchedReport,
    /// Autoscale variant at [`WITNESS_LOAD`].
    auto: SchedReport,
}

fn run_once() -> Study {
    let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
    let run = |load, slo| {
        run_service_slo(&tree, overload_trace(&tree, &trace_cfg(load)), slo).unwrap_or_else(|e| {
            eprintln!("slo_report: run failed: {e}");
            std::process::exit(2);
        })
    };
    Study {
        on: LOADS
            .iter()
            .map(|&l| run(l, Some(overload_slo())))
            .collect(),
        off: run(WITNESS_LOAD, None),
        auto: run(WITNESS_LOAD, Some(overload_slo().with_autoscale(400))),
    }
}

fn p99i(r: &SchedReport) -> u64 {
    r.class_p99(Priority::Interactive).0
}

fn sheds_interactive(r: &SchedReport) -> usize {
    r.shed_log
        .iter()
        .filter(|s| s.class == Priority::Interactive)
        .count()
}

fn max_tier(r: &SchedReport) -> u8 {
    r.slo_log.iter().map(|s| s.tier).max().unwrap_or(0)
}

/// Deterministic study JSON — the double-run determinism witness.
fn report_json(s: &Study) -> String {
    let row = |r: &SchedReport| {
        format!(
            "{{\"done\": {}, \"rejected\": {}, \"cancelled\": {}, \"sheds\": {}, \
             \"sheds_interactive\": {}, \"degraded\": {}, \"p99_interactive_ns\": {}, \
             \"p99_normal_ns\": {}, \"p99_batch_ns\": {}, \"max_tier\": {}, \
             \"control_ticks\": {}, \"capacity_needed_pct\": {}, \
             \"reject_reasons\": {{\"queue_full\": {}, \"shed\": {}, \
             \"quota_exceeded\": {}, \"infeasible\": {}}}}}",
            r.count(JobState::Done),
            r.count(JobState::Rejected),
            r.count(JobState::Cancelled),
            r.shed_log.len(),
            sheds_interactive(r),
            r.degraded_jobs(),
            p99i(r),
            r.class_p99(Priority::Normal).0,
            r.class_p99(Priority::Batch).0,
            max_tier(r),
            r.slo_log.len(),
            r.capacity_needed_pct,
            r.rejected_for(RejectReason::QueueFull),
            r.rejected_for(RejectReason::Shed),
            r.rejected_for(RejectReason::QuotaExceeded),
            r.rejected_for(RejectReason::Infeasible),
        )
    };
    let mut out = String::with_capacity(2048);
    out.push_str("{\n  \"schema\": \"northup-slo-report-v1\",\n");
    let _ = writeln!(out, "  \"jobs\": {JOBS},\n  \"seed\": {SEED},");
    let _ = writeln!(
        out,
        "  \"target_interactive_ns\": {},",
        overload_slo().targets[0].0
    );
    out.push_str("  \"controlled\": [\n");
    for (i, (load, r)) in LOADS.iter().zip(s.on.iter()).enumerate() {
        let _ = writeln!(
            out,
            "    {{\"load_pct\": {load}, \"run\": {}}}{}",
            row(r),
            if i + 1 < LOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"uncontrolled\": {{\"load_pct\": {WITNESS_LOAD}, \"run\": {}}},",
        row(&s.off)
    );
    let _ = writeln!(
        out,
        "  \"autoscaled\": {{\"load_pct\": {WITNESS_LOAD}, \"final_scale_pct\": {}, \"run\": {}}}",
        s.auto.slo_log.last().map(|x| x.scale_pct).unwrap_or(100),
        row(&s.auto)
    );
    out.push_str("}\n");
    out
}

fn main() {
    let report_path = std::env::args().nth(1);

    let study = run_once();
    let json = report_json(&study);

    let replay_identical = json == report_json(&run_once());

    let target = overload_slo().targets[0].0;
    let overload = &study.on[LOADS.iter().position(|&l| l == WITNESS_LOAD).unwrap()];
    let at_capacity = &study.on[0];

    println!("== slo gate: {JOBS} jobs, seed {SEED}, loads {LOADS:?} ==");
    for (load, r) in LOADS.iter().zip(study.on.iter()) {
        println!(
            "  {load:>3}% on : p99i {:>7.3}ms  done {:>3}  sheds {:>3}  degraded {:>3}  tier {}  needed {}%",
            p99i(r) as f64 / 1e6,
            r.count(JobState::Done),
            r.shed_log.len(),
            r.degraded_jobs(),
            max_tier(r),
            r.capacity_needed_pct,
        );
    }
    println!(
        "  {WITNESS_LOAD:>3}% off: p99i {:>7.3}ms  done {:>3}  (target {:.3}ms)",
        p99i(&study.off) as f64 / 1e6,
        study.off.count(JobState::Done),
        target as f64 / 1e6,
    );
    println!(
        "  {WITNESS_LOAD:>3}% auto: p99i {:>6.3}ms  done {:>3}  scale {}%  needed {}%",
        p99i(&study.auto) as f64 / 1e6,
        study.auto.count(JobState::Done),
        study
            .auto
            .slo_log
            .last()
            .map(|x| x.scale_pct)
            .unwrap_or(100),
        study.auto.capacity_needed_pct,
    );

    let mut failures = Vec::new();
    if !replay_identical {
        failures.push("report drifted between same-seed runs".to_string());
    }
    if p99i(overload) > target {
        failures.push(format!(
            "controller failed to hold the SLO at {WITNESS_LOAD}%: p99i {} > target {target}",
            p99i(overload)
        ));
    }
    if p99i(&study.off) <= target {
        failures.push(format!(
            "witness run did not breach at {WITNESS_LOAD}%: p99i {} <= target {target}",
            p99i(&study.off)
        ));
    }
    if overload.shed_log.is_empty() {
        failures.push("no shedding at 2x overload".to_string());
    }
    if sheds_interactive(overload) > 0 {
        failures.push("the guaranteed class was shed".to_string());
    }
    if overload.degraded_jobs() == 0 {
        failures.push("brownout never engaged at 2x overload".to_string());
    }
    if !at_capacity.shed_log.is_empty() {
        failures.push("false-positive shedding at 1x capacity".to_string());
    }
    if study.auto.capacity_needed_pct <= 100 {
        failures.push("autoscale projection reported no extra capacity needed".to_string());
    }
    if study
        .auto
        .slo_log
        .last()
        .map(|x| x.scale_pct)
        .unwrap_or(100)
        <= 100
    {
        failures.push("autoscale never grew the budgets (tier 4 unreached)".to_string());
    }
    for (name, r) in [("on", overload), ("off", &study.off), ("auto", &study.auto)] {
        if !r.all_terminal() {
            failures.push(format!("{name}: a job never reached a terminal state"));
        }
        let settled = r.count(JobState::Done)
            + r.count(JobState::Failed)
            + r.count(JobState::Rejected)
            + r.count(JobState::Cancelled);
        if settled != JOBS {
            failures.push(format!("{name}: {settled}/{JOBS} arrivals accounted for"));
        }
        let by_reason = RejectReason::ALL
            .iter()
            .map(|&x| r.rejected_for(x))
            .sum::<usize>();
        if by_reason != r.count(JobState::Rejected) {
            failures.push(format!(
                "{name}: typed reasons cover {by_reason} of {} rejections",
                r.count(JobState::Rejected)
            ));
        }
    }

    if let Some(path) = &report_path {
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("slo_report: cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {path}");
    }

    if failures.is_empty() {
        println!(
            "slo gate: OK (held {:.3}ms <= {:.3}ms at {WITNESS_LOAD}%, witness breached at {:.3}ms)",
            p99i(overload) as f64 / 1e6,
            target as f64 / 1e6,
            p99i(&study.off) as f64 / 1e6,
        );
    } else {
        for f in &failures {
            eprintln!("slo gate FAILED: {f}");
        }
        std::process::exit(1);
    }
}
