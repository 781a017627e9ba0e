//! The federation engine: route, run shards, migrate, settle.
//!
//! [`Fleet::run`] is a bounded multi-round replay over N independent
//! [`JobScheduler`]s:
//!
//! 1. **Route** every job to one shard with the pure scoring function
//!    of [`crate::router`] (gang-style all-or-nothing: the whole
//!    reservation fits a single shard or the job is router-rejected).
//! 2. **Run** every shard that received work — each a deterministic
//!    virtual-time co-simulation with its own reseeded fault plan.
//! 3. **Migrate**: on shards that fenced a node, jobs that ended
//!    `Failed` or `Rejected` move to an untroubled shard, resuming from
//!    their chunk checkpoint (`JobSpec::resume_from`) after a modeled
//!    inter-shard transfer, at most `MAX_MIGRATIONS` (3) times per job.
//!    Only the receiving shards re-run.
//! 4. Repeat until no migrations remain or `MAX_ROUNDS` (4) re-run rounds
//!    have passed.
//!
//! The protocol's exactly-once guarantee rests on one rule: **troubled
//! shards export, clean shards import** — a shard that has fenced a
//! node accepts no migrants. Jobs only leave such shards and only enter
//! clean ones, so once a job's chunks 0..k have run somewhere, that
//! shard's trace — and therefore its bit-deterministic replay — never
//! changes again, and the remnant `k..n` runs exactly once elsewhere
//! (DESIGN.md §11).

use crate::config::{link_transfer, FleetConfig, FleetJob};
use crate::error::FleetError;
use crate::report::{self, FleetReport, MigrationRecord};
use crate::router::{mix64, route, ShardView};
use northup_sched::{JobScheduler, JobSpec, JobState, NodeBudgets, SchedReport};
use northup_sim::SimTime;
use std::collections::BTreeSet;

/// Cross-shard migrations one job may make before its failure is final.
const MAX_MIGRATIONS: u32 = 3;

/// Re-run rounds the federation may take to settle migrations (bounds
/// the replay; each round only re-runs shards that received migrants).
const MAX_ROUNDS: u32 = 4;

/// One entry of a shard's submission trace: the fleet-wide uid plus the
/// shard-local spec (with `start_chunk` set for migrated remnants).
#[derive(Debug, Clone)]
pub(crate) struct TraceEntry {
    pub uid: u64,
    pub spec: JobSpec,
}

/// One stop on a job's migration path: which shard, and at which
/// position in that shard's trace (= its shard-local `JobId`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    pub shard: usize,
    pub index: usize,
}

/// A job that must move: its latest shard failed or rejected it after a
/// node fence.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    uid: u64,
    from: usize,
    chunks_done: u32,
    at: SimTime,
}

/// A federation of N Northup trees behind one router.
///
/// Batch model, like [`JobScheduler`]: submit every job, then [`run`]
/// consumes the fleet and returns the [`FleetReport`].
///
/// [`run`]: Fleet::run
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    jobs: Vec<FleetJob>,
}

impl Fleet {
    /// A fleet with no jobs yet. Fails on a zero-shard config or a tree
    /// with no leaves.
    pub fn new(cfg: FleetConfig) -> Result<Self, FleetError> {
        if cfg.shards == 0 {
            return Err(FleetError::NoShards);
        }
        if cfg.tree.leaves().next().is_none() {
            return Err(FleetError::NoLeaf);
        }
        Ok(Fleet {
            cfg,
            jobs: Vec::new(),
        })
    }

    /// Submit a job; returns its fleet-wide uid (submission order).
    pub fn submit(&mut self, job: FleetJob) -> u64 {
        let uid = self.jobs.len() as u64;
        self.jobs.push(job);
        uid
    }

    /// Jobs submitted so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when nothing has been submitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Route, run, migrate, settle; returns the fleet-wide report.
    pub fn run(self) -> Result<FleetReport, FleetError> {
        let (n, seed) = (self.cfg.shards, self.cfg.seed);
        let budgets = NodeBudgets::from_tree(&self.cfg.tree, 1.0);
        let mut views = vec![ShardView::default(); n];
        let mut traces: Vec<Vec<TraceEntry>> = (0..n).map(|_| Vec::new()).collect();
        let mut path: Vec<Vec<Placement>> = self.jobs.iter().map(|_| Vec::new()).collect();
        let mut router_rejected = vec![false; self.jobs.len()];
        let mut migrations_of = vec![0u32; self.jobs.len()];
        let mut migrations: Vec<MigrationRecord> = Vec::new();

        // Initial routing, in uid order. The feasibility check is the
        // gang-style all-or-nothing reservation: shards are homogeneous,
        // so "fits no shard whole" is one comparison against the shared
        // budget vector.
        for (uid, job) in self.jobs.iter().enumerate() {
            if !budgets.feasible(&job.reservation) {
                router_rejected[uid] = true;
                continue;
            }
            let home = (job.home as usize).min(n - 1);
            let Some(s) = route(seed, uid as u64, home, job.input_bytes(), &views, None) else {
                // Unreachable while at least one shard is untroubled,
                // but a closed fleet rejects rather than errors.
                router_rejected[uid] = true;
                continue;
            };
            views[s].load_ns += job.work.service_estimate(job.work.chunks);
            path[uid].push(Placement {
                shard: s,
                index: traces[s].len(),
            });
            traces[s].push(TraceEntry {
                uid: uid as u64,
                spec: job.to_spec(),
            });
        }

        let mut reports: Vec<Option<SchedReport>> = (0..n).map(|_| None).collect();
        let mut dirty: BTreeSet<usize> = (0..n).filter(|&s| !traces[s].is_empty()).collect();
        let mut rounds = 0u32;

        while !dirty.is_empty() {
            rounds += 1;
            for &s in &dirty {
                reports[s] = Some(self.run_shard(s, &traces[s])?);
            }
            dirty.clear();
            for (s, view) in views.iter_mut().enumerate() {
                if let Some(r) = &reports[s] {
                    view.pressure = r
                        .node_fault_pressure()
                        .values()
                        .map(|&v| u64::from(v))
                        .sum();
                    view.troubled = !r.quarantine_log.is_empty();
                }
            }
            if rounds > MAX_ROUNDS {
                break;
            }
            let candidates = self.find_candidates(&views, &traces, &path, &reports);
            for c in candidates {
                if migrations_of[c.uid as usize] >= MAX_MIGRATIONS {
                    continue;
                }
                let job = &self.jobs[c.uid as usize];
                let remaining = job.work.chunks.saturating_sub(c.chunks_done);
                let bytes = job.work.read_bytes.saturating_mul(u64::from(remaining));
                let home = (job.home as usize).min(n - 1);
                let Some(target) = route(seed, c.uid, home, bytes, &views, Some(c.from)) else {
                    continue; // nowhere untroubled: the failure is final
                };
                let transfer = link_transfer(bytes);
                let spec = job
                    .to_spec()
                    .resume_from(c.chunks_done)
                    .arrival(c.at + transfer);
                views[target].load_ns += job.work.service_estimate(remaining);
                path[c.uid as usize].push(Placement {
                    shard: target,
                    index: traces[target].len(),
                });
                traces[target].push(TraceEntry { uid: c.uid, spec });
                migrations_of[c.uid as usize] += 1;
                migrations.push(MigrationRecord {
                    uid: c.uid,
                    from: c.from as u32,
                    to: target as u32,
                    at: c.at,
                    resumed_chunk: c.chunks_done,
                    bytes,
                    transfer,
                });
                dirty.insert(target);
            }
        }

        Ok(report::build(report::RunData {
            cfg: &self.cfg,
            jobs: &self.jobs,
            traces: &traces,
            path: &path,
            reports: &reports,
            migrations,
            router_rejected: &router_rejected,
            migrations_of: &migrations_of,
            budgets: &budgets,
            rounds,
        }))
    }

    /// The migration set, in uid order: every job whose latest outcome on
    /// a *troubled* shard (one that fenced a node) is `Failed` or
    /// `Rejected`.
    fn find_candidates(
        &self,
        views: &[ShardView],
        traces: &[Vec<TraceEntry>],
        path: &[Vec<Placement>],
        reports: &[Option<SchedReport>],
    ) -> Vec<Candidate> {
        let mut candidates = Vec::new();
        for (s, view) in views.iter().enumerate() {
            if !view.troubled {
                continue;
            }
            let Some(report) = &reports[s] else {
                continue;
            };
            for (idx, entry) in traces[s].iter().enumerate() {
                let current = path[entry.uid as usize].last().map(|p| (p.shard, p.index));
                if current != Some((s, idx)) {
                    continue; // already moved on in an earlier round
                }
                let Some(out) = report.jobs.get(idx) else {
                    continue;
                };
                if !matches!(out.state, JobState::Failed | JobState::Rejected) {
                    continue;
                }
                candidates.push(Candidate {
                    uid: entry.uid,
                    from: s,
                    chunks_done: out.chunks_done,
                    at: out.finished_at.unwrap_or(out.arrival),
                });
            }
        }
        candidates.sort_by_key(|c| c.uid);
        candidates
    }

    /// One shard's deterministic co-simulation over its current trace.
    /// The fault plan is the fleet template reseeded per shard, so every
    /// shard draws an independent stream from the one fleet seed.
    fn run_shard(&self, s: usize, trace: &[TraceEntry]) -> Result<SchedReport, FleetError> {
        let mut cfg = self.cfg.sched.clone();
        cfg.fault_plan = match self.cfg.shard_overrides.get(&s) {
            Some(p) => Some(p.clone()),
            None => cfg
                .fault_plan
                .map(|p| p.reseeded(mix64(self.cfg.seed ^ mix64(s as u64 + 1)))),
        };
        let mut sched = JobScheduler::new(self.cfg.tree.clone(), cfg);
        for e in trace {
            sched.submit(e.spec.clone());
        }
        Ok(sched.run()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::chunk_checksum;
    use northup::{FaultKind, FaultPlan};
    use northup_sched::{staging_reservation, JobWork, Priority, Reservation};
    use northup_sim::SimDur;

    fn light_job(cfg: &FleetConfig, i: u64) -> FleetJob {
        let res = staging_reservation(&cfg.tree, 32 << 20);
        let work = JobWork::new(2)
            .read(4 << 20)
            .xfer(4 << 20)
            .compute(SimDur::from_millis(1));
        FleetJob::new(format!("j{i}"), res, work)
            .home((i % cfg.shards as u64) as u32)
            .priority(match i % 3 {
                0 => Priority::Batch,
                1 => Priority::Normal,
                _ => Priority::Interactive,
            })
            .arrival(northup_sim::SimTime::from_secs_f64(0.0005 * i as f64))
    }

    /// 24 light jobs over four fault-free shards.
    fn clean_run() -> FleetReport {
        let cfg = FleetConfig::preset(4, 9);
        let mut fleet = Fleet::new(cfg.clone()).expect("4 shards");
        for i in 0..24 {
            fleet.submit(light_job(&cfg, i));
        }
        fleet.run().expect("fleet run")
    }

    /// Ten jobs homed on a shard whose staging node dies early.
    fn chaos_run() -> FleetReport {
        let mut cfg = FleetConfig::preset(3, 5);
        cfg.sched.quarantine_after = 2;
        cfg.sched.probation = false;
        // The staging node every reservation targets (first child of
        // the root) dies early on shard 0 only.
        let staging = cfg.tree.children(cfg.tree.root())[0];
        cfg.shard_overrides.insert(
            0,
            FaultPlan::new(1)
                .script(staging, 0, FaultKind::Persistent)
                .script(staging, 1, FaultKind::Persistent),
        );
        let quarter = cfg.tree.node(staging).mem.capacity / 4;
        let mut fleet = Fleet::new(cfg.clone()).expect("3 shards");
        for i in 0..10 {
            let res = staging_reservation(&cfg.tree, quarter);
            let work = JobWork::new(3)
                .read(8 << 20)
                .xfer(8 << 20)
                .compute(SimDur::from_millis(2));
            // Everything homed on the doomed shard.
            fleet.submit(FleetJob::new(format!("j{i}"), res, work).home(0));
        }
        fleet.run().expect("fleet run")
    }

    /// FNV-1a over the report's JSON bytes.
    fn json_hash(report: &FleetReport) -> u64 {
        report
            .to_json()
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// The other fleet tests compare a run with its own replay; these pins
    /// hold across commits, so a change that moves routing, settlement or
    /// the bytes of `to_json()` fails here.
    #[test]
    fn clean_and_chaos_runs_are_pinned() {
        let clean = clean_run();
        let chaos = chaos_run();
        assert_eq!(
            (clean.outcome_digest, json_hash(&clean)),
            (0x4882_f13f_5824_9ef8, 0xb1ca_93f4_855f_d0d2),
            "clean fleet run moved"
        );
        assert_eq!(
            (chaos.outcome_digest, json_hash(&chaos)),
            (0xf535_4f50_bb2c_011d, 0x1669_4b15_61a6_a075),
            "chaos fleet run moved"
        );
    }

    #[test]
    fn fault_free_fleet_completes_and_replays_bit_identically() {
        let report = clean_run();
        assert_eq!(report.count(JobState::Done), 24, "{}", report.summary());
        assert!(report.migrations.is_empty(), "no faults, no migrations");
        assert!(report.capacity_ok);
        assert!(report.exactly_once());
        assert_eq!(report.rounds, 1);
        assert!(!report.per_class.is_empty());
        assert!(report.events > 0);
        // Home gravity: with light load every job lands on its data.
        for o in &report.outcomes {
            assert_eq!(o.shard, o.uid as u32 % 4, "{} strayed from home", o.name);
        }
        let again = clean_run();
        assert_eq!(report.outcome_digest, again.outcome_digest);
        assert_eq!(report.to_json(), again.to_json(), "byte-identical replay");
    }

    #[test]
    fn scripted_quarantine_migrates_jobs_to_surviving_shards() {
        let report = chaos_run();
        assert!(
            !report.migrations.is_empty(),
            "quarantine must displace jobs: {}",
            report.summary()
        );
        assert!(report.shards[0].quarantines >= 1);
        for m in &report.migrations {
            assert_eq!(m.from, 0, "only the fenced shard exports");
            assert!(m.to != 0);
            assert!(m.transfer > SimDur::ZERO);
        }
        // Every migrated job settled Done elsewhere with its full chunk
        // set intact — the exactly-once witness.
        for m in &report.migrations {
            let o = report.outcome(m.uid).expect("outcome");
            assert_eq!(o.state, JobState::Done, "{} after migration", o.name);
            assert!(o.migrations >= 1);
            assert!(o.exactly_once);
            assert_eq!(o.checksum, chunk_checksum(m.uid, 0..o.chunks_done));
        }
        assert_eq!(report.count(JobState::Done), 10, "{}", report.summary());
        assert!(report.capacity_ok && report.exactly_once());
        assert!(report.rounds >= 2);
        let again = chaos_run();
        assert_eq!(report.to_json(), again.to_json(), "byte-identical chaos");
    }

    #[test]
    fn gang_reservations_that_fit_no_shard_are_router_rejected() {
        let cfg = FleetConfig::preset(2, 3);
        let root = cfg.tree.root();
        let huge = cfg.tree.node(root).mem.capacity.saturating_mul(2);
        let mut fleet = Fleet::new(cfg.clone()).expect("2 shards");
        let giant = fleet.submit(FleetJob::new(
            "giant",
            Reservation::new().with(root, huge),
            JobWork::new(1).read(1 << 20),
        ));
        let fine = fleet.submit(light_job(&cfg, 1));
        let report = fleet.run().expect("fleet run");
        let g = report.outcome(giant).expect("giant outcome");
        assert_eq!(g.state, JobState::Rejected);
        assert!(g.router_rejected, "never reached a shard");
        assert_eq!(
            report.outcome(fine).expect("fine outcome").state,
            JobState::Done
        );
        assert_eq!(report.router_rejected(), 1);
    }

    #[test]
    fn empty_and_invalid_fleets_are_handled() {
        assert!(matches!(
            Fleet::new(FleetConfig {
                shards: 0,
                ..FleetConfig::preset(1, 0)
            }),
            Err(FleetError::NoShards)
        ));
        let fleet = Fleet::new(FleetConfig::preset(2, 0)).expect("2 shards");
        assert!(fleet.is_empty());
        let report = fleet.run().expect("empty run");
        assert_eq!(report.outcomes.len(), 0);
        assert_eq!(report.rounds, 0);
        assert!(report.capacity_ok);
    }
}
