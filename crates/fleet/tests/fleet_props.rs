//! Property tests for the federation invariants (DESIGN.md §11):
//!
//! (a) the router is deterministic — the same fleet seed and trace
//!     produce byte-identical reports,
//! (b) the fleet capacity invariant survives scripted quarantines and
//!     the migrations they force: no shard's committed peak ever
//!     exceeds its budget, and every chunk fleet-wide runs exactly
//!     once,
//! (c) a job that migrated across shards settles with exactly the
//!     chunk checksum a clean single-shard run of the same trace
//!     produces — migration never re-runs or skips a chunk.

use northup::{FaultKind, FaultPlan};
use northup_fleet::{Fleet, FleetConfig, FleetJob, FleetReport};
use northup_sched::{staging_reservation, JobState, JobWork, Priority};
use northup_sim::{SimDur, SimTime};
use proptest::prelude::*;

/// (staging fraction, chunks, home shard, priority index, arrival µs).
type JobTuple = (f64, u32, u32, usize, u64);

fn job_strategy() -> impl Strategy<Value = JobTuple> {
    (0.05f64..0.45, 1u32..4, 0u32..8, 0usize..3, 0u64..20_000)
}

/// Build and run a fleet over `trace`. With `chaos`, shard 0 is
/// scripted to fence its staging node at the first two fault decisions
/// (`quarantine_after = 2`, placement steering off so the second
/// ordinal actually fires, no probation so the fence is permanent).
fn run(trace: &[JobTuple], shards: usize, seed: u64, chaos: bool) -> FleetReport {
    let mut cfg = FleetConfig::preset(shards, seed);
    let staging = cfg.tree.children(cfg.tree.root())[0];
    if chaos {
        cfg.sched.quarantine_after = 2;
        cfg.sched.fault_aware_placement = false;
        cfg.sched.probation = false;
        cfg.shard_overrides.insert(
            0,
            FaultPlan::new(seed)
                .script(staging, 0, FaultKind::Persistent)
                .script(staging, 1, FaultKind::Persistent),
        );
    }
    let cap = cfg.tree.node(staging).mem.capacity;
    let tree = cfg.tree.clone();
    let mut fleet = Fleet::new(cfg).expect("valid fleet config");
    for (i, &(frac, chunks, home, prio, at_us)) in trace.iter().enumerate() {
        let res = staging_reservation(&tree, (cap as f64 * frac) as u64);
        let work = JobWork::new(chunks)
            .read(4 << 20)
            .xfer(4 << 20)
            .compute(SimDur::from_micros(800));
        fleet.submit(
            FleetJob::new(format!("p{i}"), res, work)
                .home(home % shards as u32)
                .priority(Priority::ALL[prio])
                .arrival(SimTime::from_secs_f64(at_us as f64 * 1e-6)),
        );
    }
    fleet.run().expect("fleet run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn same_seed_same_placement(
        trace in proptest::collection::vec(job_strategy(), 1..32),
        shards in 2usize..5,
        seed in 0u64..1_000,
    ) {
        let a = run(&trace, shards, seed, true);
        let b = run(&trace, shards, seed, true);
        prop_assert_eq!(a.to_json(), b.to_json(), "same seed must replay bit-identically");
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            prop_assert_eq!(x.shard, y.shard);
            prop_assert_eq!(x.checksum, y.checksum);
        }
    }

    #[test]
    fn capacity_invariant_survives_quarantine_and_migration(
        trace in proptest::collection::vec(job_strategy(), 1..40),
        shards in 2usize..5,
        seed in 0u64..1_000,
    ) {
        let report = run(&trace, shards, seed, true);
        prop_assert!(report.capacity_ok, "committed peak exceeded a shard budget");
        prop_assert!(report.fleet_peak <= report.fleet_budget);
        prop_assert!(report.exactly_once(), "a chunk ran twice or was skipped");
        for o in &report.outcomes {
            let terminal = matches!(
                o.state,
                JobState::Done | JobState::Failed | JobState::Rejected
            );
            prop_assert!(terminal, "job {} left in {:?}", o.uid, o.state);
        }
    }

    #[test]
    fn migrated_jobs_match_the_single_shard_checksum(
        trace in proptest::collection::vec(job_strategy(), 4..32),
        shards in 2usize..5,
        seed in 0u64..1_000,
    ) {
        let fleet = run(&trace, shards, seed, true);
        let single = run(&trace, 1, seed, false);
        for o in &fleet.outcomes {
            if o.state != JobState::Done {
                continue;
            }
            prop_assert!(o.exactly_once, "job {} chunk set has gaps or repeats", o.uid);
            let alone = single.outcome(o.uid).expect("same uid space");
            if alone.state == JobState::Done {
                prop_assert_eq!(
                    o.checksum,
                    alone.checksum,
                    "job {} (migrations {}) drifted from its single-shard checksum",
                    o.uid,
                    o.migrations
                );
            }
        }
    }
}
