//! The fleet-wide report: per-job settlements, per-shard summaries,
//! migration records, latency percentiles, the capacity invariant, and
//! a hand-rolled aggregate JSON encoding whose bytes are the replay's
//! determinism witness.

use crate::config::{FleetConfig, FleetJob};
use crate::fleet::Paths;
use crate::router::mix64;
use northup_sched::{
    percentile_sorted, JobState, NodeBudgets, Priority, RejectReason, SchedReport,
};
use northup_sim::{SimDur, SimTime};

/// One cross-shard migration: a checkpointed job moved over the
/// inter-shard link and resumed elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Fleet-wide job uid.
    pub uid: u64,
    /// Source shard (the one that fenced a node).
    pub from: u32,
    /// Destination shard.
    pub to: u32,
    /// Virtual time the job failed/was rejected on the source.
    pub at: SimTime,
    /// First chunk to run on the destination (chunks `0..resumed_chunk`
    /// already completed elsewhere and are never re-run).
    pub resumed_chunk: u32,
    /// Bytes moved over the inter-shard link (un-staged input).
    pub bytes: u64,
    /// Modeled transfer time charged before the destination arrival.
    pub transfer: SimDur,
}

/// Final fleet-level settlement of one job.
#[derive(Debug, Clone)]
pub struct FleetJobOutcome {
    /// Fleet-wide uid (submission order).
    pub uid: u64,
    /// Submitter-chosen name.
    pub name: String,
    /// Terminal state on the job's final shard (`Rejected` for
    /// router-level rejections that never reached a shard).
    pub state: JobState,
    /// True when the router rejected the job outright (its gang
    /// reservation fits no shard whole).
    pub router_rejected: bool,
    /// The shard the job last resided on (its home for router
    /// rejections).
    pub shard: u32,
    /// Cross-shard migrations the job made.
    pub migrations: u32,
    /// Chunks completed across all shards the job visited.
    pub chunks_done: u32,
    /// Order-independent checksum over the distinct chunk indices that
    /// completed for this job, fleet-wide (see [`chunk_checksum`]).
    pub checksum: u64,
    /// True when the union of completed chunk indices across the job's
    /// shard path is exactly `0..chunks_done`, each exactly once — the
    /// exactly-once-across-migration witness.
    pub exactly_once: bool,
    /// Arrival→finish latency for `Done` jobs, measured from the
    /// *original* router arrival (migration transfers included).
    pub latency: Option<SimDur>,
    /// Why the job was turned away, when it was: the final shard's typed
    /// rejection reason, or `Infeasible` for router-level rejections
    /// (the gang reservation fits no shard whole).
    pub reject_reason: Option<RejectReason>,
}

/// One shard's slice of the replay, from its final (frozen) report.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: u32,
    /// Trace entries the shard ended up with (migrants included).
    pub jobs: u64,
    /// Jobs `Done` on this shard.
    pub done: u64,
    /// Jobs `Failed` on this shard (migrated-away ones included).
    pub failed: u64,
    /// Jobs `Rejected` on this shard.
    pub rejected: u64,
    /// Jobs that migrated in from other shards.
    pub migrated_in: u64,
    /// Jobs that migrated out after a fence.
    pub migrated_out: u64,
    /// Faults injected on this shard.
    pub faults: u64,
    /// Nodes fenced on this shard.
    pub quarantines: u64,
    /// Fenced nodes probation restored on this shard.
    pub restores: u64,
    /// Scheduler events the shard's final run processed.
    pub events: u64,
    /// The shard's local makespan.
    pub makespan: SimDur,
    /// Σ per-node peak committed bytes.
    pub peak: u64,
    /// Σ per-node budget bytes.
    pub budget: u64,
    /// Every node's peak committed stayed within its budget.
    pub capacity_ok: bool,
    /// Jobs the shard's overload controller shed (zero when the per-shard
    /// scheduler runs without an SLO config).
    pub shed: u64,
}

/// Per-class completed-job latency percentiles.
#[derive(Debug, Clone, Copy)]
pub struct ClassLatency {
    /// The admission class.
    pub class: Priority,
    /// Completed jobs in the class.
    pub completed: u64,
    /// Median arrival→finish latency.
    pub p50: SimDur,
    /// 99th-percentile arrival→finish latency.
    pub p99: SimDur,
}

/// Everything [`crate::Fleet::run`] learned, fleet-wide.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Fleet seed the replay derives from.
    pub seed: u64,
    /// Shard count.
    pub shards: Vec<ShardSummary>,
    /// Final settlement per job, in uid order.
    pub outcomes: Vec<FleetJobOutcome>,
    /// Every cross-shard migration, in application order.
    pub migrations: Vec<MigrationRecord>,
    /// Latency percentiles per class (classes with completions only,
    /// highest priority first).
    pub per_class: Vec<ClassLatency>,
    /// The fleet capacity invariant: on every shard, every node's peak
    /// committed bytes stayed within its budget (so Σ shard budgets is
    /// never exceeded fleet-wide either).
    pub capacity_ok: bool,
    /// Σ budgets over all shards and nodes.
    pub fleet_budget: u64,
    /// Σ per-node peak committed bytes over all shards.
    pub fleet_peak: u64,
    /// Max shard makespan (migration transfers land inside destination
    /// arrivals, so they are covered).
    pub makespan: SimDur,
    /// Σ scheduler events across the shards' final runs.
    pub events: u64,
    /// Rounds the federation took to settle.
    pub rounds: u32,
    /// Order-sensitive digest over every job's settlement — the compact
    /// determinism witness (two same-seed replays must agree bit for
    /// bit).
    pub outcome_digest: u64,
}

/// Order-independent checksum over a job's completed chunk indices: the
/// wrapping sum of `mix64(mix64(uid · φ) ⊕ index)`. Equal for a
/// migrated run and a single-shard run iff both completed exactly the
/// same set of chunks — the cross-shard exactly-once witness the
/// proptests and the bench bin compare.
pub fn chunk_checksum(uid: u64, indices: impl IntoIterator<Item = u32>) -> u64 {
    let salt = mix64(uid.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    indices
        .into_iter()
        .fold(0u64, |acc, i| acc.wrapping_add(mix64(salt ^ u64::from(i))))
}

/// One job's settlement on one shard: what the fleet reads of its
/// `JobOutcome`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobEnd {
    pub state: JobState,
    pub chunks_done: u32,
    pub finished_at: Option<SimTime>,
    pub arrival: SimTime,
    pub reject_reason: Option<RejectReason>,
}

/// What the fleet keeps of one shard's run. It is distilled from the
/// shard's `SchedReport` by the worker that ran the shard, and the
/// report is dropped there.
#[derive(Debug)]
pub(crate) struct ShardRun {
    /// The shard's summary; its migration counts are filled at settlement.
    pub summary: ShardSummary,
    /// Per trace position, the job's settlement on this shard.
    pub jobs: Vec<JobEnd>,
    /// Trace position `p`'s completed chunk indices, sorted, are
    /// `chunk_idx[chunk_at[p]..chunk_at[p + 1]]`.
    chunk_at: Vec<usize>,
    chunk_idx: Vec<u32>,
    /// Persistent faults the shard observed: the router's pressure term.
    pub pressure: u64,
}

impl ShardRun {
    /// Distill shard `shard`'s report; `budget` is Σ `budgets`.
    pub(crate) fn distill(
        shard: usize,
        r: SchedReport,
        budgets: &NodeBudgets,
        budget: u64,
    ) -> Self {
        // Group the chunk log by job position with one counting pass, so
        // each job's indices are one slice of a single array.
        let mut chunk_at = vec![0usize; r.jobs.len() + 1];
        for c in &r.chunk_log {
            if let Some(n) = chunk_at.get_mut(c.job.0 as usize + 1) {
                *n += 1;
            }
        }
        for p in 1..chunk_at.len() {
            chunk_at[p] += chunk_at[p - 1];
        }
        let mut fill = chunk_at.clone();
        let mut chunk_idx = vec![0u32; chunk_at[r.jobs.len()]];
        for c in &r.chunk_log {
            if let Some(at) = fill.get_mut(c.job.0 as usize) {
                chunk_idx[*at] = c.index;
                *at += 1;
            }
        }
        for w in chunk_at.windows(2) {
            chunk_idx[w[0]..w[1]].sort_unstable();
        }
        let summary = ShardSummary {
            shard: shard as u32,
            jobs: r.jobs.len() as u64,
            done: r.count(JobState::Done) as u64,
            failed: r.count(JobState::Failed) as u64,
            rejected: r.count(JobState::Rejected) as u64,
            migrated_in: 0,
            migrated_out: 0,
            faults: r.fault_log.len() as u64,
            quarantines: r.quarantine_log.len() as u64,
            restores: r.restore_log.len() as u64,
            events: r.events,
            makespan: r.makespan,
            peak: r
                .max_committed
                .iter()
                .fold(0u64, |a, &b| a.saturating_add(b)),
            budget,
            capacity_ok: r
                .max_committed_pairs()
                .all(|(node, peak)| peak <= budgets.get(node)),
            shed: r.shed_log.len() as u64,
        };
        ShardRun {
            summary,
            jobs: r
                .jobs
                .iter()
                .map(|o| JobEnd {
                    state: o.state,
                    chunks_done: o.chunks_done,
                    finished_at: o.finished_at,
                    arrival: o.arrival,
                    reject_reason: o.reject_reason,
                })
                .collect(),
            chunk_at,
            chunk_idx,
            pressure: r
                .node_fault_pressure()
                .values()
                .map(|&v| u64::from(v))
                .sum(),
        }
    }

    /// Completed chunk indices of trace position `pos`, ascending.
    pub(crate) fn chunks(&self, pos: usize) -> &[u32] {
        match (self.chunk_at.get(pos), self.chunk_at.get(pos + 1)) {
            (Some(&a), Some(&b)) => &self.chunk_idx[a..b],
            _ => &[],
        }
    }
}

/// The run state [`build`] settles into a [`FleetReport`].
pub(crate) struct RunData<'a> {
    pub cfg: &'a FleetConfig,
    /// The submitted jobs; their names move into the outcomes.
    pub jobs: Vec<FleetJob>,
    pub paths: &'a Paths,
    pub runs: &'a [Option<ShardRun>],
    pub migrations: Vec<MigrationRecord>,
    /// Σ one shard's node budgets.
    pub budget: u64,
    pub rounds: u32,
}

/// Stable code for the digest (JobState has no discriminant contract).
fn state_code(state: JobState) -> u64 {
    match state {
        JobState::Queued => 0,
        JobState::Admitted => 1,
        JobState::Running => 2,
        JobState::Preempted => 3,
        JobState::Done => 4,
        JobState::Failed => 5,
        JobState::Rejected => 6,
    }
}

pub(crate) fn build(data: RunData) -> FleetReport {
    let n = data.cfg.shards;
    let mut jobs = data.jobs;
    let mut outcomes = Vec::with_capacity(jobs.len());
    // A migrated job's chunk indices, gathered from every shard it
    // visited; a job that ran on one shard is checked in place.
    let mut gathered: Vec<u32> = Vec::new();
    for (uid, job) in jobs.iter_mut().enumerate() {
        let name = std::mem::take(&mut job.name);
        let Some(last) = data.paths.last(uid) else {
            outcomes.push(FleetJobOutcome {
                uid: uid as u64,
                name,
                state: JobState::Rejected,
                router_rejected: true,
                shard: job.home.min(n.saturating_sub(1) as u32),
                migrations: 0,
                chunks_done: 0,
                checksum: chunk_checksum(uid as u64, []),
                exactly_once: true,
                latency: None,
                reject_reason: Some(RejectReason::Infeasible),
            });
            continue;
        };
        let run = data.runs[last.shard].as_ref();
        let (state, chunks_done, finished_at, reject_reason) =
            match run.and_then(|r| r.jobs.get(last.index)) {
                Some(end) => (
                    end.state,
                    end.chunks_done,
                    end.finished_at,
                    end.reject_reason,
                ),
                None => (JobState::Rejected, 0, None, None),
            };
        let migrations = data.paths.migrations(uid);
        let indices: &[u32] = if migrations > 0 {
            gathered.clear();
            for p in data.paths.stops(uid) {
                if let Some(r) = &data.runs[p.shard] {
                    gathered.extend_from_slice(r.chunks(p.index));
                }
            }
            gathered.sort_unstable();
            &gathered
        } else {
            run.map_or(&[], |r| r.chunks(last.index))
        };
        let exactly_once = indices.len() == chunks_done as usize
            && indices
                .iter()
                .enumerate()
                .all(|(i, &idx)| idx as usize == i);
        let latency = match (state, finished_at) {
            (JobState::Done, Some(end)) => Some(end - job.arrival),
            _ => None,
        };
        outcomes.push(FleetJobOutcome {
            uid: uid as u64,
            name,
            state,
            router_rejected: false,
            shard: last.shard as u32,
            migrations,
            chunks_done,
            checksum: chunk_checksum(uid as u64, indices.iter().copied()),
            exactly_once,
            latency,
            reject_reason,
        });
    }

    // Per-shard summaries from the final (frozen) runs.
    let mut shards = Vec::with_capacity(n);
    for s in 0..n {
        let mut summary = match &data.runs[s] {
            Some(r) => r.summary.clone(),
            None => ShardSummary {
                shard: s as u32,
                jobs: 0,
                done: 0,
                failed: 0,
                rejected: 0,
                migrated_in: 0,
                migrated_out: 0,
                faults: 0,
                quarantines: 0,
                restores: 0,
                events: 0,
                makespan: SimDur::ZERO,
                peak: 0,
                budget: data.budget,
                capacity_ok: true,
                shed: 0,
            },
        };
        summary.migrated_in = data.migrations.iter().filter(|m| m.to == s as u32).count() as u64;
        summary.migrated_out = data
            .migrations
            .iter()
            .filter(|m| m.from == s as u32)
            .count() as u64;
        shards.push(summary);
    }

    // Per-class latency percentiles over completed jobs, fleet-wide.
    let mut per_class = Vec::new();
    for class in Priority::ALL {
        let mut lats: Vec<SimDur> = outcomes
            .iter()
            .filter(|o| jobs[o.uid as usize].priority == class)
            .filter_map(|o| o.latency)
            .collect();
        if lats.is_empty() {
            continue;
        }
        lats.sort_unstable();
        per_class.push(ClassLatency {
            class,
            completed: lats.len() as u64,
            p50: percentile_sorted(&lats, 50),
            p99: percentile_sorted(&lats, 99),
        });
    }

    let capacity_ok = shards.iter().all(|s| s.capacity_ok);
    let fleet_budget = data.budget.saturating_mul(n as u64);
    let fleet_peak = shards.iter().fold(0u64, |a, s| a.saturating_add(s.peak));
    let makespan = shards
        .iter()
        .map(|s| s.makespan)
        .fold(SimDur::ZERO, |a, m| if m > a { m } else { a });
    let events = shards.iter().map(|s| s.events).sum();

    let mut digest = mix64(data.cfg.seed);
    for o in &outcomes {
        digest = mix64(digest ^ o.uid);
        digest = mix64(
            digest
                ^ state_code(o.state)
                ^ (u64::from(o.shard) << 8)
                ^ (u64::from(o.chunks_done) << 24)
                ^ (u64::from(o.migrations) << 56),
        );
        digest = mix64(digest ^ o.checksum);
    }

    FleetReport {
        seed: data.cfg.seed,
        shards,
        outcomes,
        migrations: data.migrations,
        per_class,
        capacity_ok,
        fleet_budget,
        fleet_peak,
        makespan,
        events,
        rounds: data.rounds,
        outcome_digest: digest,
    }
}

impl FleetReport {
    /// Count of jobs that settled in `state`.
    pub fn count(&self, state: JobState) -> usize {
        self.outcomes.iter().filter(|o| o.state == state).count()
    }

    /// Jobs the router rejected outright (never reached a shard).
    pub fn router_rejected(&self) -> usize {
        self.outcomes.iter().filter(|o| o.router_rejected).count()
    }

    /// Jobs whose final settlement carries the given typed rejection
    /// reason (router rejections count as `Infeasible`).
    pub fn rejected_for(&self, reason: RejectReason) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.reject_reason == Some(reason))
            .count()
    }

    /// Jobs shed by overload controllers fleet-wide (Σ shard shed logs).
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    /// True when every job's fleet-wide chunk union is exactly its
    /// completed prefix — no chunk ran twice or was lost across
    /// migrations.
    pub fn exactly_once(&self) -> bool {
        self.outcomes.iter().all(|o| o.exactly_once)
    }

    /// One settlement record.
    pub fn outcome(&self, uid: u64) -> Option<&FleetJobOutcome> {
        self.outcomes.get(uid as usize)
    }

    /// One-line human summary for drivers.
    pub fn summary(&self) -> String {
        format!(
            "{} jobs over {} shards: {} done, {} failed, {} rejected ({} at router) | \
             {} migrations in {} rounds | {} quarantines, {} restores | makespan {:.3} s | \
             capacity {} | digest {:016x}",
            self.outcomes.len(),
            self.shards.len(),
            self.count(JobState::Done),
            self.count(JobState::Failed),
            self.count(JobState::Rejected),
            self.router_rejected(),
            self.migrations.len(),
            self.rounds,
            self.shards.iter().map(|s| s.quarantines).sum::<u64>(),
            self.shards.iter().map(|s| s.restores).sum::<u64>(),
            self.makespan.as_secs_f64(),
            if self.capacity_ok { "ok" } else { "VIOLATED" },
            self.outcome_digest,
        )
    }

    /// Aggregate JSON encoding (no per-job entries — at 10^5-job scale
    /// the digest stands in for them). Byte-identical across same-seed
    /// replays: the determinism witness the CI gate compares.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"schema\": \"northup-fleet-report-v1\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"shards\": {},\n", self.shards.len()));
        s.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        s.push_str(&format!(
            "  \"jobs\": {{\"total\": {}, \"done\": {}, \"failed\": {}, \"rejected\": {}, \
             \"router_rejected\": {}}},\n",
            self.outcomes.len(),
            self.count(JobState::Done),
            self.count(JobState::Failed),
            self.count(JobState::Rejected),
            self.router_rejected(),
        ));
        s.push_str("  \"reject_reasons\": {");
        for (i, reason) in RejectReason::ALL.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "\"{}\": {}",
                reason.label(),
                self.rejected_for(*reason)
            ));
        }
        s.push_str("},\n");
        s.push_str(&format!("  \"shed\": {},\n", self.shed()));
        s.push_str(&format!(
            "  \"capacity\": {{\"ok\": {}, \"budget\": {}, \"peak\": {}}},\n",
            self.capacity_ok, self.fleet_budget, self.fleet_peak,
        ));
        s.push_str(&format!(
            "  \"exactly_once\": {},\n  \"makespan_s\": {:.9},\n  \"events\": {},\n",
            self.exactly_once(),
            self.makespan.as_secs_f64(),
            self.events,
        ));
        s.push_str("  \"per_class\": [");
        for (i, c) in self.per_class.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"class\": \"{}\", \"completed\": {}, \"p50_s\": {:.9}, \"p99_s\": {:.9}}}",
                class_name(c.class),
                c.completed,
                c.p50.as_secs_f64(),
                c.p99.as_secs_f64(),
            ));
        }
        s.push_str("],\n");
        s.push_str(&format!(
            "  \"migrations\": {{\"count\": {}, \"bytes\": {}, \"records\": [",
            self.migrations.len(),
            self.migrations
                .iter()
                .fold(0u64, |a, m| a.saturating_add(m.bytes)),
        ));
        for (i, m) in self.migrations.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"uid\": {}, \"from\": {}, \"to\": {}, \"at_s\": {:.9}, \"chunk\": {}, \
                 \"bytes\": {}, \"transfer_s\": {:.9}}}",
                m.uid,
                m.from,
                m.to,
                m.at.as_secs_f64(),
                m.resumed_chunk,
                m.bytes,
                m.transfer.as_secs_f64(),
            ));
        }
        s.push_str("]},\n");
        s.push_str("  \"per_shard\": [\n");
        for (i, sh) in self.shards.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"shard\": {}, \"jobs\": {}, \"done\": {}, \"failed\": {}, \
                 \"rejected\": {}, \"migrated_in\": {}, \"migrated_out\": {}, \
                 \"faults\": {}, \"quarantines\": {}, \"restores\": {}, \"events\": {}, \
                 \"makespan_s\": {:.9}, \"peak\": {}, \"capacity_ok\": {}, \"shed\": {}}}{}\n",
                sh.shard,
                sh.jobs,
                sh.done,
                sh.failed,
                sh.rejected,
                sh.migrated_in,
                sh.migrated_out,
                sh.faults,
                sh.quarantines,
                sh.restores,
                sh.events,
                sh.makespan.as_secs_f64(),
                sh.peak,
                sh.capacity_ok,
                sh.shed,
                if i + 1 < self.shards.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"digest\": \"{:016x}\"\n}}\n",
            self.outcome_digest
        ));
        s
    }
}

/// Stable lower-case class names for the JSON encoding.
fn class_name(p: Priority) -> &'static str {
    match p {
        Priority::Batch => "batch",
        Priority::Normal => "normal",
        Priority::Interactive => "interactive",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_checksum_is_order_independent_and_uid_salted() {
        let a = chunk_checksum(3, [0, 1, 2, 3]);
        let b = chunk_checksum(3, [3, 1, 0, 2]);
        assert_eq!(a, b, "order independent");
        assert_ne!(a, chunk_checksum(4, [0, 1, 2, 3]), "uid salted");
        assert_ne!(a, chunk_checksum(3, [0, 1, 2]), "set sensitive");
        assert_eq!(chunk_checksum(9, []), 0);
    }

    #[test]
    fn percentiles_use_integer_indexing() {
        let lats: Vec<SimDur> = (1..=100).map(SimDur::from_millis).collect();
        assert_eq!(percentile_sorted(&lats, 50), SimDur::from_millis(50));
        assert_eq!(percentile_sorted(&lats, 99), SimDur::from_millis(99));
    }

    #[test]
    fn percentile_edge_cases_never_panic_or_lie() {
        // Empty: a defined zero, not a panic.
        assert_eq!(percentile_sorted(&[], 0), SimDur::ZERO);
        assert_eq!(percentile_sorted(&[], 99), SimDur::ZERO);
        // Single sample: every percentile is that sample.
        let one = [SimDur::from_millis(7)];
        for pct in [0, 1, 50, 99, 100] {
            assert_eq!(percentile_sorted(&one, pct), SimDur::from_millis(7));
        }
        // All-equal: every percentile is the common value.
        let same = [SimDur::from_micros(250); 9];
        for pct in [0, 50, 99, 100] {
            assert_eq!(percentile_sorted(&same, pct), SimDur::from_micros(250));
        }
        // Integer indexing: p99 of three samples is the median —
        // `sorted[(3-1)*99/100] = sorted[1]` — and only p100 reaches
        // the max.
        let three = [
            SimDur::from_millis(1),
            SimDur::from_millis(5),
            SimDur::from_millis(9),
        ];
        assert_eq!(percentile_sorted(&three, 99), SimDur::from_millis(5));
        assert_eq!(percentile_sorted(&three, 100), SimDur::from_millis(9));
    }
}
