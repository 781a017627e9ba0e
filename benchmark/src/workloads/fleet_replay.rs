//! `fleet_replay`: the `fleet_report` gate's federation — 16 fleet-shard
//! trees, shard 0 scripted to fence its staging node so that migration
//! runs — replaying a 100k-job trace through the router. Each shard's
//! scheduler sees ~6k jobs, far below the engine's scaling knee.

use super::sched_replay::fingerprint;
use super::{Check, Workload};
use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::ALLOC;
use northup::{FaultKind, FaultPlan};
use northup_apps::fleet_trace;
use northup_apps::service::TraceConfig;
use northup_fleet::{chunk_checksum, Fleet, FleetConfig, FleetJob, FleetReport};
use northup_sched::JobState;

const SHARDS: usize = 16;
const JOBS: usize = 100_000;

/// As `fleet_report` configures it: fault-aware placement off so that
/// both scripted faults fire and the quarantine → migration path runs.
fn config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::preset(SHARDS, seed);
    cfg.sched.quarantine_after = 2;
    cfg.sched.fault_aware_placement = false;
    let staging = cfg.tree.children(cfg.tree.root())[0];
    cfg.shard_overrides.insert(
        0,
        FaultPlan::new(seed)
            .script(staging, 0, FaultKind::Persistent)
            .script(staging, 1, FaultKind::Persistent),
    );
    cfg
}

fn trace_cfg(seed: u64) -> TraceConfig {
    TraceConfig {
        jobs: JOBS,
        seed,
        mean_gap_us: 500,
        scale: 32,
    }
}

fn trace_fingerprint(trace: &[FleetJob]) -> u64 {
    fingerprint(
        trace
            .iter()
            .map(|j| (j.arrival.0, j.tenant.0, j.priority as u8)),
    )
}

/// A traced repetition: the settled report, the fingerprint of the trace
/// it replayed, the seconds of each call and the allocations of `run()`.
pub struct FleetTraced {
    report: FleetReport,
    inputs: u64,
    gen_s: f64,
    new_s: f64,
    submit_s: f64,
    run_s: f64,
    run_allocs: u64,
}

pub struct FleetReplay {
    seed: u64,
    /// Fingerprint of the trace the seed generates.
    inputs: u64,
    /// Report JSON of the first repetition; every later one must match.
    json: Option<String>,
}

impl FleetReplay {
    /// The `fleet_report` gate's invariants, plus replay identity.
    fn check_report(&mut self, report: &FleetReport, inputs: u64) -> Check {
        let json = report.to_json();
        let mut ok = inputs == self.inputs
            && *self.json.get_or_insert_with(|| json.clone()) == json
            && report.capacity_ok
            && report.exactly_once()
            && report.shards[0].quarantines > 0
            && !report.migrations.is_empty();
        for mig in &report.migrations {
            ok &= mig.from == 0;
            let out = report.outcome(mig.uid).expect("migrated uid settles");
            if out.state == JobState::Done {
                ok &=
                    out.exactly_once && out.checksum == chunk_checksum(mig.uid, 0..out.chunks_done);
            }
        }
        let not_done = JOBS - report.count(JobState::Done);
        Check::of(JOBS as u64, if ok { not_done } else { JOBS } as u64)
    }
}

impl Workload for FleetReplay {
    /// The settled report and the fingerprint of the trace it replayed.
    type Out = (FleetReport, u64);
    type Traced = FleetTraced;

    fn setup(seed: u64, _threads: usize) -> Self {
        let inputs = trace_fingerprint(&fleet_trace(&config(seed), &trace_cfg(seed)));
        FleetReplay {
            seed,
            inputs,
            json: None,
        }
    }

    fn units(&self) -> f64 {
        JOBS as f64
    }

    fn rep(&self) -> (FleetReport, u64) {
        let cfg = config(self.seed);
        let trace = fleet_trace(&cfg, &trace_cfg(self.seed));
        // The fleet report does not repeat per-job arrivals, so the
        // inputs are fingerprinted here (a 100k-element fold, ~0.1 ms).
        let inputs = trace_fingerprint(&trace);
        let mut fleet = Fleet::new(cfg).expect("fleet config");
        for job in trace {
            fleet.submit(job);
        }
        (fleet.run().expect("fleet replay"), inputs)
    }

    fn check(&mut self, (report, inputs): (FleetReport, u64)) -> Check {
        self.check_report(&report, inputs)
    }

    fn corrupt_reference(&mut self) {
        self.inputs ^= 1;
    }

    fn traced_rep(&self, tr: &mut Tracer) -> FleetTraced {
        let root = tr.begin("fleet_replay repetition", "harness");
        let cfg = config(self.seed);
        let s = tr.begin("fleet_trace", "apps");
        let trace = fleet_trace(&cfg, &trace_cfg(self.seed));
        let gen_s = tr.end(s);
        let inputs = trace_fingerprint(&trace);

        let s = tr.begin("Fleet::new", "fleet");
        let mut fleet = Fleet::new(cfg).expect("fleet config");
        let new_s = tr.end(s);
        let s = tr.begin("Fleet::submit (all jobs)", "fleet");
        for job in trace {
            fleet.submit(job);
        }
        let submit_s = tr.end(s);
        let before = ALLOC.snapshot();
        let s = tr.begin("Fleet::run", "fleet");
        let report = fleet.run().expect("fleet replay");
        let run_s = tr.end(s);
        let run_allocs = ALLOC.snapshot().allocs - before.allocs;
        tr.end(root);
        FleetTraced {
            report,
            inputs,
            gen_s,
            new_s,
            submit_s,
            run_s,
            run_allocs,
        }
    }

    fn report(
        &mut self,
        tr: &mut Tracer,
        m: &mut Metrics,
        t: FleetTraced,
        wall_s: f64,
        _untraced_wall_s: f64,
    ) -> Check {
        let (jobs, events) = (JOBS as f64, t.report.events as f64);
        m.set("apps.trace_gen_ns_per_job", t.gen_s * 1e9 / jobs);
        m.set("fleet.submit_ns_per_job", t.submit_s * 1e9 / jobs);
        m.set("fleet.run_ns_per_event", t.run_s * 1e9 / events);
        m.set("fleet.events_per_s", events / t.run_s);
        m.set("fleet.allocs_per_job", t.run_allocs as f64 / jobs);
        m.set(
            "fleet.span_share",
            (t.new_s + t.submit_s + t.run_s) / wall_s,
        );
        let s = tr.begin("FleetReport::to_json", "fleet");
        std::hint::black_box(t.report.to_json());
        m.set("fleet.to_json_s", tr.end(s));
        m.set("fleet.rounds", f64::from(t.report.rounds));
        m.set("fleet.migrations", t.report.migrations.len() as f64);
        println!("# outcome digest {:016x}", t.report.outcome_digest);
        self.check_report(&t.report, t.inputs)
    }
}
