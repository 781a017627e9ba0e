//! The benchmark's vocabulary: every workload and every metric by name,
//! with its unit, direction, bound, and the workloads it is defined on.
//! `BENCHMARK.json` at the repository root lists the same names (a unit
//! test holds the two together).

use crate::json::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics: share of the parent's median by which the
    /// metric may worsen before it is a regression. `None` per layer.
    pub bound: Option<f64>,
    /// Workloads whose run measures the metric. On every other workload
    /// it is reported as 0: the workload does not enter that code.
    pub on: &'static [&'static str],
}

/// One workload: its name, the unit of `units_per_s`, and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "gemm_ooc",
        unit: "GFLOP",
        why: "compute-bound: the leaf GEMM kernel is most of wall and FileBackend does a few dozen large ops, so kernels moves it and hw/sched/fleet do not",
    },
    WorkloadDef {
        name: "hotspot_ooc",
        unit: "Mcell-steps",
        why: "tens of thousands of strided ~2 KB file ops with writes close to reads plus byte marshalling in core/apps: a backend or move_data_strided change shows here, barely on gemm_ooc",
    },
    WorkloadDef {
        name: "spmv_ooc",
        unit: "Mnnz",
        why: "power iteration re-streams a power-law matrix every iteration with per-shard CPU re-binning and variable-size reads: the only consumer of sparse and the most I/O-penalised app",
    },
    WorkloadDef {
        name: "service_real",
        unit: "jobs",
        why: "the end-to-end path: model replay, a RealFabric arena per job, leased staging allocs, run_chain + par_for on real threads and files; arena reuse or overlap shows here, a kernel speed-up must not",
    },
    WorkloadDef {
        name: "sched_replay",
        unit: "jobs",
        why: "the event engine alone (arrivals and stage-dones) at 300k jobs, where an event costs almost twice what it does at 100k jobs; calendar, arena and report-log changes show here only",
    },
    WorkloadDef {
        name: "sched_overload",
        unit: "jobs",
        why: "the same engine under 3x open-loop overload with the SLO controller: control ticks, percentile sampling, queue caps and sheds dominate, so a hot-path gain that costs the policy paths shows as a loss",
    },
    WorkloadDef {
        name: "fleet_replay",
        unit: "jobs",
        why: "router scoring, gang admission and migration over 16 small schedulers below the engine's scaling knee: a large-n engine fix leaves this flat, a router or settlement change moves only this",
    },
];

const GEMM: &[&str] = &["gemm_ooc"];
const HOTSPOT: &[&str] = &["hotspot_ooc"];
const SPMV: &[&str] = &["spmv_ooc"];
const APPS: &[&str] = &["gemm_ooc", "hotspot_ooc", "spmv_ooc"];
const SERVICE: &[&str] = &["service_real"];
const DATA_PATH: &[&str] = &["gemm_ooc", "hotspot_ooc", "spmv_ooc", "service_real"];
const REPLAY: &[&str] = &["sched_replay"];
const ENGINE: &[&str] = &["sched_replay", "sched_overload"];
const FLEET: &[&str] = &["fleet_replay"];
const TRACES: &[&str] = &[
    "service_real",
    "sched_replay",
    "sched_overload",
    "fleet_replay",
];
const ALL: &[&str] = &[
    "gemm_ooc",
    "hotspot_ooc",
    "spmv_ooc",
    "service_real",
    "sched_replay",
    "sched_overload",
    "fleet_replay",
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        on: ALL,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        on,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports all of them.
pub const END_TO_END: &[MetricDef] = &[
    e2e("wall_s", "s", Lower, 0.25),
    e2e("units_per_s", "units/s", Higher, 0.25),
    e2e("peak_mem_mb", "MB", Lower, 0.10),
    e2e("done_ratio", "ratio", Higher, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Numbers of single layers, from the traced pass.
pub const PER_LAYER: &[MetricDef] = &[
    // kernels: probes on the workload's own tile shapes.
    layer("kernels.gemm_gflops", "GFLOP/s", Higher, GEMM),
    layer("kernels.gemm_busy_share", "ratio", Lower, GEMM),
    layer("kernels.gemm_ops_per_byte", "flop/B", Higher, GEMM),
    layer("kernels.stencil_mcells_per_s", "Mcell/s", Higher, HOTSPOT),
    layer("kernels.stencil_busy_share", "ratio", Lower, HOTSPOT),
    layer("kernels.stencil_ops_per_byte", "flop/B", Higher, HOTSPOT),
    layer("kernels.spmv_mnnz_per_s", "Mnnz/s", Higher, SPMV),
    layer("kernels.spmv_busy_share", "ratio", Lower, SPMV),
    layer("kernels.spmv_ops_per_byte", "flop/B", Higher, SPMV),
    layer("kernels.memcpy_gbps", "GB/s", Higher, ALL),
    // sparse
    layer("sparse.bin_mrows_per_s", "Mrow/s", Higher, SPMV),
    layer("sparse.partition_s", "s", Lower, SPMV),
    // hw, in situ through TimedBackend
    layer("hw.file_busy_s", "s", Lower, APPS),
    layer("hw.file_ops", "count", Lower, APPS),
    layer("hw.file_bytes", "B", Lower, APPS),
    layer("hw.heap_busy_s", "s", Lower, APPS),
    layer("hw.heap_ops", "count", Lower, APPS),
    layer("hw.heap_bytes", "B", Lower, APPS),
    // hw, probes of StorageBackend::{alloc,read,write,release}
    layer("hw.file_read_mbps_4k", "MB/s", Higher, DATA_PATH),
    layer("hw.file_write_mbps_4k", "MB/s", Higher, DATA_PATH),
    layer("hw.file_read_mbps_4m", "MB/s", Higher, DATA_PATH),
    layer("hw.file_write_mbps_4m", "MB/s", Higher, DATA_PATH),
    layer("hw.heap_read_mbps_4m", "MB/s", Higher, DATA_PATH),
    layer("hw.heap_write_mbps_4m", "MB/s", Higher, DATA_PATH),
    layer("hw.file_alloc_release_us", "us", Lower, DATA_PATH),
    // exec
    layer("exec.spawn_join_tasks_per_s", "1/s", Higher, SERVICE),
    layer("exec.par_for_ns_per_kib_t1", "ns/KiB", Lower, SERVICE),
    layer("exec.par_for_ns_per_kib_tn", "ns/KiB", Lower, SERVICE),
    layer("exec.par_for_speedup", "ratio", Higher, SERVICE),
    layer("exec.run_chain_chunks_per_s", "1/s", Higher, SERVICE),
    layer("exec.deque_push_pop_ns", "ns", Lower, SERVICE),
    layer("exec.deque_steal_ns", "ns", Lower, SERVICE),
    // core: probes of Runtime::{alloc,release,move_data,move_data_strided}
    layer("core.alloc_release_per_s", "1/s", Higher, DATA_PATH),
    layer("core.move_down_mbps", "MB/s", Higher, DATA_PATH),
    layer("core.move_up_mbps", "MB/s", Higher, DATA_PATH),
    layer("core.move_strided_mbps", "MB/s", Higher, DATA_PATH),
    layer("core.move_4k_ops_per_s", "1/s", Higher, DATA_PATH),
    layer("core.modeled_makespan_s", "s", Lower, APPS),
    // apps
    layer("apps.self_s", "s", Lower, APPS),
    layer("apps.inmem_wall_s", "s", Lower, APPS),
    layer("apps.ooc_slowdown", "ratio", Lower, APPS),
    layer("apps.trace_gen_ns_per_job", "ns", Lower, TRACES),
    // sim
    layer("sim.resource_book_ns", "ns", Lower, ENGINE),
    layer("sim.timeline_record_ns", "ns", Lower, ENGINE),
    // sched: spans around the engine's public calls
    layer("sched.submit_ns_per_job", "ns", Lower, ENGINE),
    layer("sched.run_ns_per_event", "ns", Lower, ENGINE),
    layer("sched.events", "count", Lower, ENGINE),
    layer("sched.events_per_s", "1/s", Higher, ENGINE),
    layer("sched.digest_ns_per_job", "ns", Lower, ENGINE),
    layer("sched.allocs_per_job", "count", Lower, ENGINE),
    layer("sched.alloc_bytes_per_job", "B", Lower, ENGINE),
    layer("sched.report_mb", "MB", Lower, ENGINE),
    layer("sched.span_share", "ratio", Higher, ENGINE),
    layer("sched.run_ns_per_event_100k", "ns", Lower, REPLAY),
    layer("sched.scale_penalty", "ratio", Lower, REPLAY),
    layer("sched.calendar_ns_per_op", "ns", Lower, REPLAY),
    // sched::real, re-driven piece by piece
    layer("sched.real_model_replay_s", "s", Lower, SERVICE),
    layer("sched.real_arena_build_s", "s", Lower, SERVICE),
    layer("sched.real_chunk_s", "s", Lower, SERVICE),
    layer("sched.real_chunks", "count", Lower, SERVICE),
    // fleet
    layer("fleet.submit_ns_per_job", "ns", Lower, FLEET),
    layer("fleet.run_ns_per_event", "ns", Lower, FLEET),
    layer("fleet.events_per_s", "1/s", Higher, FLEET),
    layer("fleet.rounds", "count", Lower, FLEET),
    layer("fleet.migrations", "count", Lower, FLEET),
    layer("fleet.to_json_s", "s", Lower, FLEET),
    layer("fleet.allocs_per_job", "count", Lower, FLEET),
    layer("fleet.span_share", "ratio", Higher, FLEET),
    // the host and the harness itself
    layer("host.cpu_user_s", "s", Lower, ALL),
    layer("host.cpu_sys_s", "s", Lower, ALL),
    layer("host.minor_faults", "count", Lower, ALL),
    layer("host.spin_ms", "ms", Lower, ALL),
    layer("host.threads", "count", Higher, ALL),
    layer("host.noisy", "count", Lower, ALL),
    layer("host.scratch_tmpfs", "count", Higher, ALL),
    layer("trace.overhead_pct", "%", Lower, ALL),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Metric values of one run, checked against a metric table on the way
/// in and on the way out.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [MetricDef],
    workload: &'static str,
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn new(table: &'static [MetricDef], workload: &'static str) -> Self {
        Metrics {
            table,
            workload,
            values: Vec::new(),
        }
    }

    /// Record `name = value`.
    ///
    /// # Panics
    /// Panics when `name` is not in the table, is not defined on this
    /// workload, was already set, or `value` is not finite — each is a
    /// bug in the harness, not a property of the measured program.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .table
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's table"));
        assert!(
            def.on.contains(&self.workload),
            "metric {name} is not defined on {}",
            self.workload
        );
        assert!(value.is_finite(), "metric {name} = {value}");
        assert!(
            !self.values.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.values.push((def.name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Every metric of the table in table order, as `(def, value)`:
    /// measured where defined on this workload, 0 elsewhere. `Err` lists
    /// the defined metrics the run failed to measure.
    pub fn finish(&self) -> Result<Vec<(&'static MetricDef, f64)>, Vec<&'static str>> {
        let mut out = Vec::new();
        let mut missing = Vec::new();
        for def in self.table {
            match self.get(def.name) {
                Some(v) => out.push((def, v)),
                None if def.on.contains(&self.workload) => missing.push(def.name),
                None => out.push((def, 0.0)),
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(missing)
        }
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` — the `metrics` member of the
/// result line.
pub fn metrics_json(values: &[(&'static MetricDef, f64)]) -> Value {
    Value::obj(values.iter().map(|(d, v)| {
        (
            d.name,
            Value::obj([
                ("value", Value::Num(*v)),
                ("unit", Value::Str(d.unit.into())),
            ]),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_follow_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "bad metric name {:?}", d.name);
            assert!(unit_ok(d.unit), "bad unit {:?} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.on.iter().all(|w| workload(w).is_some()));
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.len() <= 128 && PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn result_line_round_trips_with_every_name() {
        let mut m = Metrics::new(PER_LAYER, "sched_replay");
        for d in PER_LAYER.iter().filter(|d| d.on.contains(&"sched_replay")) {
            m.set(d.name, 1.5);
        }
        let values = m.finish().expect("all defined metrics set");
        assert_eq!(values.len(), PER_LAYER.len());
        let text = metrics_json(&values).to_json();
        let back = json::parse(&text).unwrap();
        let members = back.as_obj().unwrap();
        assert_eq!(members.len(), PER_LAYER.len());
        for ((name, v), d) in members.iter().zip(PER_LAYER) {
            assert!(name_ok(name));
            assert_eq!(name, d.name);
            assert_eq!(v.get("unit").and_then(Value::as_str), Some(d.unit));
            let expect = if d.on.contains(&"sched_replay") {
                1.5
            } else {
                0.0
            };
            assert_eq!(v.get("value").and_then(Value::as_f64), Some(expect));
        }
    }

    #[test]
    fn a_missing_metric_is_reported_by_name() {
        let mut m = Metrics::new(END_TO_END, "gemm_ooc");
        m.set("wall_s", 1.0);
        m.set("setup_s", 1.0);
        assert_eq!(
            m.finish().unwrap_err(),
            vec!["units_per_s", "peak_mem_mb", "done_ratio"]
        );
    }

    #[test]
    #[should_panic(expected = "not defined on")]
    fn a_metric_set_on_the_wrong_workload_is_a_bug() {
        Metrics::new(PER_LAYER, "gemm_ooc").set("fleet.rounds", 2.0);
    }

    /// `BENCHMARK.json` is what the outside world reads; this table is
    /// what the program prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (v, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(
                (field(v, "name"), field(v, "why")),
                (w.name.into(), w.why.into())
            );
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = list(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (v, d) in listed.iter().zip(table) {
                assert_eq!(field(v, "name"), d.name);
                assert_eq!(field(v, "unit"), d.unit, "{}", d.name);
                assert_eq!(field(v, "better"), d.better.as_str(), "{}", d.name);
                assert_eq!(
                    v.get("bound").and_then(Value::as_f64),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        }
    }
}
