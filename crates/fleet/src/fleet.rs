//! The federation engine: route, run shards, migrate, settle.
//!
//! [`Fleet::run`] is a bounded multi-round replay over N independent
//! [`JobScheduler`]s:
//!
//! 1. **Route** every job to one shard with the pure scoring function
//!    of [`crate::router`] (gang-style all-or-nothing: the whole
//!    reservation fits a single shard or the job is router-rejected).
//! 2. **Run** every shard that received work — each a deterministic
//!    virtual-time co-simulation with its own reseeded fault plan. The
//!    round's shards share nothing mutable, so they run side by side on
//!    the caller and the process-wide pool's helpers (`exec::fan_out`);
//!    each shard's `SchedReport` is distilled into the `ShardRun` the
//!    fleet keeps and dropped there. Runs are applied in shard order, so
//!    neither the worker count nor the timing can move a byte of the
//!    report.
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
use crate::report::{self, FleetReport, MigrationRecord, ShardRun};
use crate::router::{mix64, route, ShardView};
use northup::exec::{fan_out, workers};
use northup_sched::{JobScheduler, JobState, NodeBudgets};
use northup_sim::SimTime;
use std::collections::BTreeSet;

/// Cross-shard migrations one job may make before its failure is final.
const MAX_MIGRATIONS: u32 = 3;

/// Re-run rounds the federation may take to settle migrations (bounds
/// the replay; each round only re-runs shards that received migrants).
const MAX_ROUNDS: u32 = 4;

/// One entry of a shard's submission trace: the fleet-wide uid, the
/// chunk it resumes from (non-zero for migrated remnants) and its
/// arrival on the shard. The shard-local spec is built at submit.
#[derive(Debug, Clone, Copy)]
struct TraceEntry {
    uid: u64,
    start_chunk: u32,
    arrival: SimTime,
}

/// One stop on a job's migration path: which shard, at which position
/// in that shard's trace (= its shard-local `JobId`), and the job's
/// stop before this one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    pub shard: usize,
    pub index: usize,
    prev: Option<usize>,
}

/// Every job's migration path, flat: the stops in placement order, and
/// per job the index of its latest stop (`None` until it is routed).
#[derive(Debug)]
pub(crate) struct Paths {
    stops: Vec<Placement>,
    last: Vec<Option<usize>>,
}

impl Paths {
    fn new(jobs: usize) -> Self {
        Paths {
            stops: Vec::with_capacity(jobs),
            last: vec![None; jobs],
        }
    }

    fn push(&mut self, uid: usize, shard: usize, index: usize) {
        let prev = self.last[uid];
        self.last[uid] = Some(self.stops.len());
        self.stops.push(Placement { shard, index, prev });
    }

    /// The job's latest stop; `None` for a job the router rejected.
    pub(crate) fn last(&self, uid: usize) -> Option<Placement> {
        self.last[uid].map(|i| self.stops[i])
    }

    /// Cross-shard migrations the job has made: its stops after the first.
    pub(crate) fn migrations(&self, uid: usize) -> u32 {
        self.stops(uid).skip(1).count() as u32
    }

    /// Every stop of the job, latest first.
    pub(crate) fn stops(&self, uid: usize) -> impl Iterator<Item = Placement> + '_ {
        std::iter::successors(self.last(uid), |p| p.prev.map(|i| self.stops[i]))
    }
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
    /// A fleet with no jobs yet. Fails on a zero-shard config, a tree
    /// with no leaves, or a fault override for a shard the fleet does
    /// not have.
    pub fn new(cfg: FleetConfig) -> Result<Self, FleetError> {
        if cfg.shards == 0 {
            return Err(FleetError::NoShards);
        }
        if cfg.tree.leaves().next().is_none() {
            return Err(FleetError::NoLeaf);
        }
        if let Some(&s) = cfg.shard_overrides.keys().find(|&&s| s >= cfg.shards) {
            return Err(FleetError::NoSuchShard(s));
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
        self.run_with(workers())
    }

    /// [`Fleet::run`] with each round's shards spread over at most
    /// `workers` threads. The report does not depend on `workers`: the
    /// runs come back in shard order, and a failing round returns its
    /// lowest failing shard's error, the one a sequential loop stops at.
    fn run_with(self, workers: usize) -> Result<FleetReport, FleetError> {
        let (n, seed) = (self.cfg.shards, self.cfg.seed);
        let budgets = NodeBudgets::from_tree(&self.cfg.tree, 1.0);
        let budget = budgets
            .snapshot()
            .iter()
            .fold(0u64, |a, &b| a.saturating_add(b));
        let mut views = vec![ShardView::default(); n];
        let mut traces: Vec<Vec<TraceEntry>> = (0..n).map(|_| Vec::new()).collect();
        let mut paths = Paths::new(self.jobs.len());
        let mut migrations: Vec<MigrationRecord> = Vec::new();

        // Initial routing, in uid order. The feasibility check is the
        // gang-style all-or-nothing reservation: shards are homogeneous,
        // so "fits no shard whole" is one comparison against the shared
        // budget vector. A job left without a stop is router-rejected.
        for (uid, job) in self.jobs.iter().enumerate() {
            if !budgets.feasible(&job.reservation) {
                continue;
            }
            let home = (job.home as usize).min(n - 1);
            // `None` is unreachable while at least one shard is
            // untroubled, but a closed fleet rejects rather than errors.
            let Some(s) = route(seed, uid as u64, home, job.input_bytes(), &views, None) else {
                continue;
            };
            views[s].load_ns += job.work.service_estimate(job.work.chunks);
            paths.push(uid, s, traces[s].len());
            traces[s].push(TraceEntry {
                uid: uid as u64,
                start_chunk: 0,
                arrival: job.arrival,
            });
        }

        let mut runs: Vec<Option<ShardRun>> = (0..n).map(|_| None).collect();
        let mut dirty: BTreeSet<usize> = (0..n).filter(|&s| !traces[s].is_empty()).collect();
        let mut rounds = 0u32;

        while !dirty.is_empty() {
            rounds += 1;
            let round: Vec<usize> = std::mem::take(&mut dirty).into_iter().collect();
            let done = fan_out(workers, round, |s| {
                self.run_shard(s, &traces[s], &budgets, budget)
                    .map(|run| (s, run))
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
            for (s, run) in done {
                views[s].pressure = run.pressure;
                views[s].troubled = run.summary.quarantines > 0;
                runs[s] = Some(run);
            }
            if rounds > MAX_ROUNDS {
                break;
            }
            let candidates = find_candidates(&views, &traces, &paths, &runs);
            for c in candidates {
                if paths.migrations(c.uid as usize) >= MAX_MIGRATIONS {
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
                views[target].load_ns += job.work.service_estimate(remaining);
                paths.push(c.uid as usize, target, traces[target].len());
                traces[target].push(TraceEntry {
                    uid: c.uid,
                    start_chunk: c.chunks_done,
                    arrival: c.at + transfer,
                });
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
            jobs: self.jobs,
            paths: &paths,
            runs: &runs,
            migrations,
            budget,
            rounds,
        }))
    }

    /// One shard's deterministic co-simulation over its current trace,
    /// distilled to what the fleet settles. The fault plan is the fleet
    /// template reseeded per shard, so every shard draws an independent
    /// stream from the one fleet seed.
    fn run_shard(
        &self,
        s: usize,
        trace: &[TraceEntry],
        budgets: &NodeBudgets,
        budget: u64,
    ) -> Result<ShardRun, FleetError> {
        let mut cfg = self.cfg.sched.clone();
        cfg.fault_plan = match self.cfg.shard_overrides.get(&s) {
            Some(p) => Some(p.clone()),
            None => cfg
                .fault_plan
                .map(|p| p.reseeded(mix64(self.cfg.seed ^ mix64(s as u64 + 1)))),
        };
        let mut sched = JobScheduler::new(self.cfg.tree.clone(), cfg);
        for e in trace {
            let spec = self.jobs[e.uid as usize]
                .to_spec()
                .resume_from(e.start_chunk)
                .arrival(e.arrival);
            sched.submit(spec);
        }
        Ok(ShardRun::distill(s, sched.run()?, budgets, budget))
    }
}

/// The migration set, in uid order: every job whose latest outcome on a
/// *troubled* shard (one that fenced a node) is `Failed` or `Rejected`.
fn find_candidates(
    views: &[ShardView],
    traces: &[Vec<TraceEntry>],
    paths: &Paths,
    runs: &[Option<ShardRun>],
) -> Vec<Candidate> {
    let mut candidates = Vec::new();
    for (s, view) in views.iter().enumerate() {
        if !view.troubled {
            continue;
        }
        let Some(run) = &runs[s] else {
            continue;
        };
        for (idx, entry) in traces[s].iter().enumerate() {
            let current = paths.last(entry.uid as usize).map(|p| (p.shard, p.index));
            if current != Some((s, idx)) {
                continue; // already moved on in an earlier round
            }
            let Some(end) = run.jobs.get(idx) else {
                continue;
            };
            if !matches!(end.state, JobState::Failed | JobState::Rejected) {
                continue;
            }
            candidates.push(Candidate {
                uid: entry.uid,
                from: s,
                chunks_done: end.chunks_done,
                at: end.finished_at.unwrap_or(end.arrival),
            });
        }
    }
    candidates.sort_by_key(|c| c.uid);
    candidates
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
        chaos_fleet().run().expect("fleet run")
    }

    fn chaos_fleet() -> Fleet {
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
        fleet
    }

    /// 2 400 light jobs over six shards; shard 0 fences its staging node
    /// at its first two fault decisions, so its failures migrate and a
    /// second round runs.
    fn big_chaos_fleet() -> Fleet {
        let mut cfg = FleetConfig::preset(6, 11);
        cfg.sched.quarantine_after = 2;
        cfg.sched.fault_aware_placement = false;
        let staging = cfg.tree.children(cfg.tree.root())[0];
        cfg.shard_overrides.insert(
            0,
            FaultPlan::new(11)
                .script(staging, 0, FaultKind::Persistent)
                .script(staging, 1, FaultKind::Persistent),
        );
        let mut fleet = Fleet::new(cfg.clone()).expect("6 shards");
        for i in 0..2_400 {
            fleet.submit(light_job(&cfg, i));
        }
        fleet
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
    fn reports_do_not_depend_on_the_worker_count() {
        for (name, make) in [
            ("chaos", chaos_fleet as fn() -> Fleet),
            ("2.4k chaos", big_chaos_fleet),
        ] {
            let reports: Vec<FleetReport> = [1, 2, 4]
                .into_iter()
                .map(|w| make().run_with(w).expect("fleet run"))
                .collect();
            assert!(reports[0].rounds >= 2, "{name}: {}", reports[0].summary());
            assert!(!reports[0].migrations.is_empty(), "{name} migrates");
            for r in &reports[1..] {
                assert_eq!(r.outcome_digest, reports[0].outcome_digest, "{name}");
                assert_eq!(r.to_json(), reports[0].to_json(), "{name}");
            }
        }
    }

    /// A round as `run_with` runs it: fan the shards out, collect in
    /// shard order.
    fn round<T: Send, E: Send>(
        dirty: &[usize],
        workers: usize,
        shard: impl Fn(usize) -> Result<T, E> + Sync,
    ) -> Result<Vec<T>, E> {
        fan_out(workers, dirty.to_vec(), shard)
            .into_iter()
            .collect()
    }

    #[test]
    fn a_round_returns_the_lowest_failing_shards_error() {
        let dirty: Vec<usize> = (0..10).collect();
        let fail_3_and_7 = |s: usize| if s == 3 || s == 7 { Err(s) } else { Ok(s) };
        for workers in [1, 2, 4, 8] {
            assert_eq!(round(&dirty, workers, fail_3_and_7), Err(3), "{workers}");
            assert_eq!(
                round(&dirty, workers, |s| Ok::<_, ()>(s * 10)),
                Ok((0..10).map(|s| s * 10).collect()),
                "results come back in shard order at {workers} workers"
            );
        }
    }

    #[test]
    #[should_panic(expected = "shard 5 panicked")]
    fn a_workers_panic_reaches_the_caller() {
        let dirty: Vec<usize> = (0..8).collect();
        let shard = |s: usize| {
            if s == 5 {
                panic!("shard 5 panicked");
            }
            Ok::<_, ()>(s)
        };
        for workers in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| round(&dirty, workers, shard));
            let payload = caught.expect_err("the panic propagates");
            let msg = payload.downcast_ref::<&str>();
            assert_eq!(msg, Some(&"shard 5 panicked"), "{workers}");
        }
        let _ = round(&dirty, 8, shard);
    }

    #[test]
    fn an_override_for_a_missing_shard_is_refused() {
        let mut cfg = FleetConfig::preset(2, 0);
        cfg.shard_overrides.insert(2, FaultPlan::new(1));
        assert!(matches!(Fleet::new(cfg), Err(FleetError::NoSuchShard(2))));
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
