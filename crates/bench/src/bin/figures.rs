//! Figure-regeneration harness: prints the data series behind every figure
//! in the paper's evaluation section.
//!
//! ```text
//! cargo run -p northup-bench --bin figures            # all figures
//! cargo run -p northup-bench --bin figures -- fig6    # one figure
//! cargo run -p northup-bench --bin figures -- ablations service slo chaos
//! cargo run -p northup-bench --bin figures -- headline
//! ```

use northup_bench as nb;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");

    if want("fig6") {
        print_fig6();
    }
    if want("fig7") {
        print_fig7();
    }
    if want("fig8") {
        print_fig8();
    }
    if want("fig9") {
        print_fig9();
    }
    if want("fig11") {
        print_fig11();
    }
    if want("fig6-large") {
        print_fig6_large();
    }
    if want("cache") {
        print_cache_study();
    }
    if want("extensions") {
        print_extensions();
    }
    if want("ablations") {
        print_ablations();
    }
    if want("service") {
        print_service();
    }
    if want("slo") {
        print_slo();
    }
    if want("chaos") {
        print_chaos();
    }
    if want("headline") {
        print_headline();
    }
}

fn print_ablations() {
    println!("== Ablations: the design choices DESIGN.md calls out ==");
    for (ring, makespan) in nb::ablation_ring_depth().expect("ring ablation") {
        println!("staging ring {ring}: gemm hdd makespan {makespan}");
    }
    for (steps, slowdown) in nb::ablation_temporal_blocking().expect("temporal ablation") {
        println!("temporal blocking {steps:>2} steps/pass: hotspot hdd slowdown {slowdown:.3}");
    }
    for (mapping, makespan) in nb::ablation_nvm_mapping().expect("nvm ablation") {
        println!("nvm {mapping}: gemm makespan {makespan}");
    }
    for (mode, makespan) in nb::ablation_layout_transform().expect("transform ablation") {
        println!("move_data 64 MiB ssd->dram {mode}: {makespan}");
    }
    println!();
}

fn print_service() {
    println!("== Service: 32 mixed jobs on the two-level APU, offered-load sweep ==");
    println!(
        "{:>7} {:>10} {:>10} {:>7} {:>7} {:>7} {:>8} {:>13} {:>12} {:>11} {:>6} {:>7} {:>11} {:>9} {:>6}",
        "gap(us)",
        "fair(j/s)",
        "fifo(j/s)",
        "p50(s)",
        "p99(s)",
        "reject",
        "preempts",
        "evict-lat(ms)",
        "resized(j/s)",
        "chaos(j/s)",
        "faults",
        "retries",
        "backoff(ms)",
        "recovered",
        "failed"
    );
    for r in nb::service_scenario() {
        println!(
            "{:>7} {:>10.2} {:>10.2} {:>7.3} {:>7.3} {:>6.1}% {:>8} {:>13.3} {:>12.2} {:>11.2} {:>6} {:>7} {:>11.3} {:>9} {:>6}",
            r.mean_gap_us,
            r.fair_throughput,
            r.fifo_throughput,
            r.p50_latency_s,
            r.p99_latency_s,
            r.rejection_rate * 100.0,
            r.preemptions,
            r.preempt_latency_s * 1e3,
            r.resize_throughput,
            r.chaos_throughput,
            r.chaos_faults,
            r.chaos_retries,
            r.chaos_backoff_s * 1e3,
            r.chaos_recovered,
            r.chaos_failed,
        );
    }
    println!();
}

fn print_slo() {
    use northup_sched::{JobState, Priority, RejectReason};
    println!(
        "== SLO: {} open-loop jobs at 1x/1.5x/2x capacity, Interactive p99 target {} ==",
        nb::SLO_JOBS,
        northup_sched::INTERACTIVE_TARGET
    );
    println!(
        "{:>5} {:>4} {:>5} {:>8} {:>5} {:>7} {:>8} {:>10} {:>10} {:>10} {:>4} {:>5} {:>7} {:>6}  rejected: full/shed/infeasible",
        "load",
        "ctl",
        "done",
        "rejected",
        "sheds",
        "sheds-i",
        "degraded",
        "p99i(ms)",
        "p99n(ms)",
        "p99b(ms)",
        "tier",
        "ticks",
        "needed",
        "scale"
    );
    for run in nb::slo_study() {
        let r = &run.report;
        let p99_ms = |class| r.class_p99(class).as_secs_f64() * 1e3;
        let reasons = RejectReason::ALL.map(|x| r.rejected_for(x).to_string());
        println!(
            "{:>4}% {:>4} {:>5} {:>8} {:>5} {:>7} {:>8} {:>10.6} {:>10.6} {:>10.6} {:>4} {:>5} {:>6}% {:>5}%  {}",
            run.load_pct,
            run.control,
            r.count(JobState::Done),
            r.count(JobState::Rejected),
            r.shed_log.len(),
            run.sheds_interactive(),
            r.degraded_jobs(),
            p99_ms(Priority::Interactive),
            p99_ms(Priority::Normal),
            p99_ms(Priority::Batch),
            run.max_tier(),
            r.slo_log.len(),
            r.capacity_needed_pct,
            run.scale_pct(),
            reasons.join("/"),
        );
    }
    println!();
}

fn print_chaos() {
    println!("== Chaos: fault accounting of the two seeded scenarios ==");
    println!(
        "{:<22} {:>5} {:>5} {:>6} {:>8} {:>6} {:>7} {:>11} {:>9} {:>8} {:>6} {:>11}",
        "scenario",
        "jobs",
        "done",
        "failed",
        "rejected",
        "faults",
        "retries",
        "backoff(ms)",
        "recovered",
        "reroutes",
        "fenced",
        "makespan(s)"
    );
    for r in nb::chaos_accounting() {
        println!(
            "{:<22} {:>5} {:>5} {:>6} {:>8} {:>6} {:>7} {:>11.6} {:>9} {:>8} {:>6} {:>11.9}",
            r.scenario,
            r.jobs,
            r.done,
            r.failed,
            r.rejected,
            r.faults,
            r.retries,
            r.backoff_s * 1e3,
            r.recovered,
            r.reroutes,
            format!("{:?}", r.quarantined),
            r.makespan_s,
        );
    }
    println!();
}

fn print_fig6_large() {
    println!("== Fig 6 companion: 32k x 32k inputs ==");
    println!("{:<14} {:>12} {:>8} {:>8}", "app", "in-mem", "ssd", "hdd");
    for row in nb::fig6_large().expect("fig6 large") {
        println!(
            "{:<14} {:>12} {:>8.3} {:>8.3}",
            row.app.label(),
            format!("{}", row.in_memory),
            row.ssd,
            row.hdd
        );
    }
    println!();
}

fn print_cache_study() {
    println!("== Discussion (SVI): transparent SSD cache vs explicit Northup management ==");
    let study = nb::caching_study().expect("caching study");
    let (c, e, h) = study.streaming;
    println!(
        "streaming 1 GiB (no reuse):  cache {c}  explicit {e}  (hit rate {:.0}%)",
        100.0 * h
    );
    let (c, e, h) = study.reuse;
    println!(
        "8 passes over 128 MiB:       cache {c}  explicit {e}  (hit rate {:.0}%)",
        100.0 * h
    );
    println!("paper SVI: caching \"may only be efficient for ... a high degree of reuse\"");
    println!();
}

fn print_extensions() {
    use northup::{presets, ExecMode, Runtime};
    use northup_apps::adaptive::{adaptive_stencil_stream, Policy};
    use northup_apps::matmul::matmul_northup_on;
    use northup_apps::subtree::{run_batch, Dispatch};
    use northup_apps::MatmulConfig;
    use northup_hw::catalog;

    println!("== Extensions (paper future work, quantified) ==");

    // SIII-C DAG unfolding headroom.
    let rt = Runtime::new(
        presets::apu_two_level(catalog::ssd_hyperx_predator()),
        ExecMode::Modeled,
    )
    .expect("runtime");
    rt.enable_dag();
    let run = matmul_northup_on(&rt, &MatmulConfig::paper()).expect("gemm");
    let dag = rt.task_dag();
    let (cp, _) = dag.critical_path();
    println!(
        "dag unfolding (gemm/ssd): {} ops, critical path {}, observed {}, headroom {:.2}x, avg parallelism {:.2}",
        dag.len(),
        cp,
        run.makespan(),
        dag.headroom(run.makespan()),
        dag.parallelism()
    );

    // SIII-E adaptive mapping.
    for block in [8usize, 1024] {
        let out = adaptive_stencil_stream(32, block, 8, Policy::Adaptive).expect("adaptive");
        let settled = out.settled.expect("32 chunks ran");
        println!(
            "adaptive mapping (block {block}): settled on {settled} ({:?})",
            out.per_device
        );
    }

    // SV-E subtree dispatch.
    let tree = presets::asymmetric_fig2_with(catalog::ssd_hyperx_predator());
    let rr = run_batch(tree.clone(), 60, 512, 256, Dispatch::RoundRobin).expect("rr");
    let ef = run_batch(tree, 60, 512, 256, Dispatch::EarliestFinish).expect("ef");
    println!(
        "asymmetric-subtree batch: round-robin {} vs earliest-finish {} ({:.2}x)",
        rr.run.makespan(),
        ef.run.makespan(),
        rr.run.makespan().as_secs_f64() / ef.run.makespan().as_secs_f64()
    );

    // SVI data-layout study (CSR vs ELL-on-migrate).
    {
        use northup_apps::layout::format_study;
        let rows = format_study(&[
            (
                "uniform",
                northup_sparse::gen::uniform_random(3000, 3000, 16, 1),
            ),
            (
                "powerlaw",
                northup_sparse::gen::powerlaw(3000, 3000, 2048, 0.9, 2),
            ),
        ])
        .expect("format study");
        for r in &rows {
            println!(
                "spmv layout [{}]: padding {:.2}x  csr {}  ell-on-migrate {}  winner {}",
                r.input,
                r.padding,
                r.csr,
                r.ell,
                if r.ell_wins() { "ELL" } else { "CSR" }
            );
        }
    }

    // SIII-E data-parallel leaf split.
    {
        use northup_apps::{hotspot_split_leaf, optimal_gpu_fraction, HotspotConfig};
        let cfg = HotspotConfig {
            block: 4 * 1024,
            ..HotspotConfig::paper()
        };
        let f = optimal_gpu_fraction();
        let apu = || {
            let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
            Runtime::new(tree, ExecMode::Modeled).expect("runtime")
        };
        let gpu_only = hotspot_split_leaf(&apu(), &cfg, 1.0).expect("gpu only");
        let split = hotspot_split_leaf(&apu(), &cfg, f).expect("split");
        println!(
            "leaf split (hotspot): gpu-only {} vs cpu+gpu split@{:.2} {} ({:.2}x)",
            gpu_only.makespan(),
            f,
            split.makespan(),
            gpu_only.makespan().as_secs_f64() / split.makespan().as_secs_f64()
        );
    }
    println!();
}

fn print_fig6() {
    println!("== Fig 6: normalized runtime (slowdown vs in-memory), APU 2-level ==");
    println!("{:<14} {:>12} {:>8} {:>8}", "app", "in-mem", "ssd", "hdd");
    for row in nb::fig6().expect("fig6") {
        println!(
            "{:<14} {:>12} {:>8.3} {:>8.3}",
            row.app.label(),
            format!("{}", row.in_memory),
            row.ssd,
            row.hdd
        );
    }
    println!("paper: matmul ~1.05-1.1 | hotspot ~1.3 (ssd) / 2-2.5 (hdd) | csr ~2.4 / ~2.5");
    println!();
}

fn print_breakdown(rows: &[nb::BreakdownRow]) {
    println!(
        "{:<14} {:<14} {:>6} {:>6} {:>6} {:>6} {:>6} {:>12}",
        "app", "storage", "cpu%", "gpu%", "setup%", "io%", "xfer%", "makespan"
    );
    for r in rows {
        println!(
            "{:<14} {:<14} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>12}",
            r.app.label(),
            r.storage,
            100.0 * r.cpu,
            100.0 * r.gpu,
            100.0 * r.setup,
            100.0 * r.io,
            100.0 * r.xfer,
            format!("{}", r.makespan)
        );
    }
}

fn print_fig7() {
    println!("== Fig 7: execution breakdown, APU 2-level (shares of busy time) ==");
    print_breakdown(&nb::fig7().expect("fig7"));
    println!("paper: gpu share — matmul majority | hotspot 22%(hdd)->59%(ssd) | csr 28%->41%");
    println!();
}

fn print_fig8() {
    println!("== Fig 8: execution breakdown, discrete GPU 3-level (devmem+DRAM+hdd) ==");
    print_breakdown(&nb::fig8().expect("fig8"));
    println!("paper: xfer share — matmul 7% | hotspot 12% | csr 33%");
    println!();
}

fn print_fig9() {
    println!("== Fig 9: faster-storage sweep (normalized to 1400/600 SSD) ==");
    for series in nb::fig9().expect("fig9") {
        println!("--- {} ---", series.app.label());
        println!(
            "{:>12} {:>8} {:>9} {:>12}",
            "(r,w) MB/s", "io", "overall", "first-order"
        );
        for p in &series.points {
            println!(
                "{:>12} {:>8.3} {:>9.3} {:>12.3}",
                format!("{}/{}", p.bw.0, p.bw.1),
                p.io_norm,
                p.overall_norm,
                p.overall_first_order
            );
        }
        println!(
            "{:>12} {:>8} {:>9.3}  (in-memory Δ)",
            "in-mem", "-", series.in_memory_norm
        );
    }
    println!("paper: hotspot/csr gain up to ~65% I/O, ~30% overall across the sweep");
    println!();
}

fn print_fig11() {
    println!("== Fig 11: CPU+GPU work stealing vs GPU-only (HotSpot, APU+SSD) ==");
    println!(
        "{:<16} {:>7} {:>9} {:>12}",
        "input (m,n)", "queues", "speedup", "makespan"
    );
    for bar in nb::fig11() {
        println!(
            "{:<16} {:>7} {:>9.3} {:>12}",
            format!("({},{})", bar.input.0, bar.input.1),
            bar.queues,
            bar.speedup,
            format!("{}", bar.absolute)
        );
    }
    println!("paper: up to ~24% improvement; 32 queues best absolute performance");
    println!();
}

fn print_headline() {
    println!("== Headline: Northup (fast SSD 3500/2100) vs in-memory ==");
    let h = nb::headline().expect("headline");
    for (app, gap) in &h.gaps {
        println!("{app:<14} {:>6.1}% slower", 100.0 * gap);
    }
    println!(
        "average        {:>6.1}%  (paper: 5/15/30% -> ~17%)",
        100.0 * h.average
    );
}
