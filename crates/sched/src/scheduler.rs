//! The multi-tenant job scheduler: admission control, weighted fair
//! queueing, placement, chunk-granular preemption, live budget
//! reconfiguration, and the deterministic virtual-time co-simulation.
//!
//! [`JobScheduler`] accepts a batch of [`JobSpec`]s (an arrival trace),
//! then [`JobScheduler::run`] replays it event by event in virtual time:
//!
//! 1. **Arrival** — infeasible reservations and queue overflow are
//!    rejected (backpressure); everything else queues in its priority
//!    class. With [`SchedulerConfig::preempt`] enabled, an arrival that
//!    cannot fit may mark strictly-lower-priority running jobs for
//!    eviction at their next chunk boundary.
//! 2. **Admission** — a weighted-fair pass over the class queues commits
//!    each admitted job's [`Reservation`] against the [`NodeBudgets`];
//!    the invariant `committed(node) ≤ budget(node)` holds at every
//!    virtual instant (for the budgets in force — see resize below). A
//!    starvation guard blocks further bypasses once a class head has
//!    been overtaken eight times.
//! 3. **Execution** — admitted jobs issue sequential chunks on the shared
//!    [`SimFabric`]; each chunk is the compiled stage chain of
//!    [`northup::fabric::build_chain`], so contention on root storage and
//!    links is visible in completion times. Placement picks the leaf
//!    whose subtree has the shallowest work queues (the paper's §V-E
//!    subtree-status check).
//! 4. **Release** — at a job's terminal transition its reservation is
//!    credited back and another admission pass runs. A *preempted* job
//!    releases too, but keeps its checkpoint (the count of completed
//!    chunks): completed chunks are never re-run; the job re-queues at
//!    the front of its class and resumes from its next unprocessed chunk when capacity returns.
//! 5. **Resize** — [`JobScheduler::resize_budgets`] swaps the budgets in
//!    force at a chosen virtual time. [`ResizeDrain::Drain`] lets
//!    over-committed jobs finish (committed bytes may transiently exceed
//!    a *shrunk* budget, never grow); [`ResizeDrain::Preempt`] evicts
//!    running jobs at their chunk boundaries until the commitment fits.
//!    Queued jobs whose reservation can never fit under the new budgets
//!    are rejected, preserving terminal totality.
//! 6. **Faults** — with a [`SchedulerConfig::fault_plan`] installed,
//!    every stage booking first consults the seeded plan (DESIGN.md
//!    §10). A *transient* fault re-books the same stage after the
//!    exponential [`retry_backoff`] charged in virtual time, up to
//!    [`RETRY_ATTEMPTS`] attempts; a *persistent* fault (or an exhausted
//!    retry budget) counts the node toward
//!    [`SchedulerConfig::quarantine_after`], after which
//!    the node is fenced: budget zeroed, infeasible queued jobs
//!    rejected, and in-flight chains fault-evicted at the next chunk
//!    boundary to re-place on a surviving leaf from their checkpoint —
//!    at most eight times per job, after which it fails. All of it
//!    is accounted in [`SchedReport::fault_log`],
//!    [`SchedReport::quarantine_log`], and each job's [`FaultOutcome`].
//!
//! Everything is keyed on ordered integers (`SimTime`, event kind,
//! `JobId`), so one trace + one config ⇒ one schedule, bit for bit —
//! including chaos runs: fault decisions and backoff jitter are pure
//! hashes of (plan seed, node, booking ordinal), never OS entropy.
//! Preemption, resizes, fault plans and probation are all off by
//! default and leave the schedule untouched when unused.

use crate::calendar::{CalendarQueue, Event};
use crate::error::SchedError;
use crate::fabric::SimFabric;
use crate::job::{JobId, JobSpec, JobState, Priority, SloClass, TenantId};
use crate::log::Log;
use crate::reserve::{NodeBudgets, Reservation};
use crate::slo::{
    percentile_sorted, DegradeLevel, RejectReason, ShedOutcome, SloConfig, SloSample, SloState,
    TICK,
};
use northup::fabric::{build_chain, ChainStage, ChunkChain, ChunkWork};
use northup::fault::{retry_backoff, FaultKind, FaultPlan, RETRY_ATTEMPTS};
use northup::{NodeId, Tree, WorkQueues};
use northup_sim::{SimDur, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How the scheduler decides which queued job to admit next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Weighted fair admission across priority classes with a starvation
    /// guard; concurrent jobs share the machine whenever their
    /// reservations co-fit.
    WeightedFair,
    /// Strict serial FIFO: one job owns the whole machine at a time
    /// (admitted only when nothing else is admitted or running). The
    /// baseline the bench compares against.
    Fifo,
}

/// What a budget *shrink* does to jobs already over the new line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeDrain {
    /// Let over-committed running jobs finish; only new admissions see
    /// the tighter budgets. Committed bytes may transiently exceed a
    /// shrunk budget but never grow past the old one.
    Drain,
    /// Evict running jobs (lowest priority, most recently admitted
    /// first) at their next chunk boundary until the commitment fits
    /// under the new budgets. Evicted jobs resume from their checkpoint.
    Preempt,
}

/// After a class head has been bypassed this many times, no lower-credit
/// class may overtake it again until it admits (the starvation guard).
const AGING_LIMIT: u32 = 8;

/// Fault-driven displacements one job tolerates before it is failed
/// (bounds chaos runs: every job stays terminal).
const MAX_JOB_FAULTS: u32 = 8;

/// Probation: virtual time between a fence (or a failed probe) and the
/// node's first probe.
const PROBE_WINDOW: SimDur = SimDur::from_millis(50);
/// Probation: fault-plan consultations per probe; all must be clean to
/// restore the node.
const PROBE_CONSULTS: u32 = 8;
/// Probation: window multiplier per successive probe of the same node
/// (hysteresis against flapping).
const PROBE_BACKOFF: u64 = 4;
/// Probation: probes (and hence restores) one node may ever get; after
/// this the fence is permanent.
const MAX_PROBES: u32 = 3;

/// Scheduler knobs — the nine that a non-test caller sets to more than
/// one value: queueing (`max_queue`, `policy`), eviction (`preempt`,
/// `resize_drain`), faults (`fault_plan`, `quarantine_after`,
/// `probation`, `fault_aware_placement`) and overload control (`slo`).
/// Budgets are the tree's full device capacities, placement sees one
/// work queue per node, the starvation guard trips after eight bypasses,
/// transient faults retry [`RETRY_ATTEMPTS`] times under
/// [`retry_backoff`], a job fails after eight fault displacements,
/// probation probes on a fixed schedule, and the SLO controller ticks
/// every 5 ms against fixed tier thresholds (only its autoscale switch is
/// set); none of these is configurable.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Maximum jobs waiting across all class queues before arrivals are
    /// rejected (backpressure).
    pub max_queue: usize,
    /// Admission policy.
    pub policy: AdmissionPolicy,
    /// Chunk-granular preemption: a queued arrival that does not fit may
    /// evict strictly-lower-priority running jobs at their next chunk
    /// boundary. Off by default (schedules are unchanged when off).
    pub preempt: bool,
    /// What a live budget shrink does to jobs already over the new line.
    pub resize_drain: ResizeDrain,
    /// Deterministic fault injection: the seeded plan consulted at every
    /// stage booking. `None` (the default) injects nothing and leaves
    /// the schedule bit-identical to a fault-free run.
    pub fault_plan: Option<FaultPlan>,
    /// After this many persistent faults a node is quarantined: its
    /// budget drops to zero, in-flight chains re-route to surviving
    /// leaves, and reservations touching it become infeasible.
    pub quarantine_after: u32,
    /// Node recovery: a fence is not forever — transient environmental
    /// trouble (a flaky cable, a thermal excursion) clears, and a long
    /// fleet replay that never recovers capacity drifts ever further
    /// from reality. With probation on, fencing a node schedules a
    /// *probe* 50 ms later: the probe consults the fault plan eight
    /// times at fresh ordinals, and only if **every** decision comes
    /// back clean is the node restored — budget back to its pre-fence
    /// value, persistent-fault count reset (the node must accumulate
    /// [`SchedulerConfig::quarantine_after`] fresh faults to be fenced
    /// again). A dirty probe re-schedules with hysteresis: each
    /// successive probe of the node waits four times longer, and after
    /// three probes the node stays fenced for good — so an unstable node
    /// cannot flap between fenced and live. Off (the default) keeps
    /// quarantine permanent.
    pub probation: bool,
    /// Fault-aware placement: bias leaf choice away from nodes
    /// accumulating sub-threshold persistent faults, so chains migrate
    /// *before* quarantine trips. Off by default — with no observed
    /// faults the bias is zero and schedules are untouched either way.
    pub fault_aware_placement: bool,
    /// SLO overload control: a deterministic feedback controller samples
    /// per-class completion latency on a virtual-time `EV_CONTROL` tick
    /// and defends the guaranteed class's p99 in escalating tiers —
    /// backpressure, shedding, brownout degradation, and (optionally)
    /// budget autoscaling (DESIGN.md §15). `None` (the default)
    /// schedules no control event and leaves every schedule
    /// bit-identical to the pre-SLO engine.
    pub slo: Option<SloConfig>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_queue: 64,
            policy: AdmissionPolicy::WeightedFair,
            preempt: false,
            resize_drain: ResizeDrain::Drain,
            fault_plan: None,
            quarantine_after: 3,
            probation: false,
            fault_aware_placement: false,
            slo: None,
        }
    }
}

/// One admission-log entry: capacity committed or released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionEvent {
    /// Virtual time of the transition.
    pub at: SimTime,
    /// The job whose reservation moved.
    pub job: JobId,
    /// Committed (admission) or credited back (terminal transition or
    /// eviction).
    pub kind: AdmissionEventKind,
}

/// Direction of an [`AdmissionEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionEventKind {
    /// The job's reservation was committed against the budgets.
    Admitted,
    /// The job's reservation was credited back at a terminal transition.
    Released,
    /// The job was evicted at a chunk boundary; its reservation was
    /// credited back and it re-queued with its checkpoint.
    Preempted,
    /// The job was displaced by a fault (persistent fault, exhausted
    /// retries, or a quarantined node on its chain); its reservation was
    /// credited back and it re-queued for re-placement on a surviving
    /// leaf, keeping its checkpoint.
    FaultEvicted,
}

/// Committed bytes on one node right after an admission-log transition —
/// the raw series behind the "never exceeds budget" acceptance check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacitySample {
    /// Virtual time of the sample.
    pub at: SimTime,
    /// Sampled node.
    pub node: NodeId,
    /// Committed bytes on `node` after the transition.
    pub committed: u64,
}

/// One completed chunk: the raw series behind the "every chunk executes
/// exactly once across evictions" acceptance check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSample {
    /// Virtual completion time of the chunk.
    pub at: SimTime,
    /// The job the chunk belongs to.
    pub job: JobId,
    /// Chunk index within the job (0-based).
    pub index: u32,
}

/// One injected fault: the raw series behind the chaos acceptance
/// checks (and the bit-identity comparison between seeded runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSample {
    /// Virtual time the fault was observed (at stage booking).
    pub at: SimTime,
    /// The faulted node (the stage's failure domain).
    pub node: NodeId,
    /// The job whose stage faulted.
    pub job: JobId,
    /// Transient (retryable) or persistent (counts toward quarantine).
    pub kind: FaultKind,
    /// The per-node operation ordinal the plan keyed the decision on.
    pub ordinal: u64,
}

/// One node quarantine: after [`SchedulerConfig::quarantine_after`]
/// persistent faults the node is fenced — budget zeroed, in-flight
/// chains re-routed, reservations touching it rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineSample {
    /// Virtual time the node was fenced.
    pub at: SimTime,
    /// The quarantined node.
    pub node: NodeId,
    /// Persistent faults observed on the node when it was fenced.
    pub faults: u32,
}

/// One probation restore: a fenced node survived its fault-free window
/// and got its pre-fence budget back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreSample {
    /// Virtual time the node was restored.
    pub at: SimTime,
    /// The restored node.
    pub node: NodeId,
    /// Which probe (1-based, across the node's lifetime) succeeded —
    /// later attempts mean the node flapped and waited through longer
    /// hysteresis windows.
    pub attempt: u32,
    /// Budget bytes given back.
    pub budget: u64,
}

/// Per-job fault accounting in the [`JobOutcome`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultOutcome {
    /// Transient faults the job's stages observed.
    pub transient: u32,
    /// Persistent faults the job's stages observed (including transient
    /// faults that exhausted their retries).
    pub persistent: u32,
    /// Retries performed (each after a backoff).
    pub retries: u32,
    /// Total virtual time spent backing off.
    pub backoff: SimDur,
    /// Fault-driven displacements: evictions that re-placed the job on a
    /// surviving leaf (checkpoint intact — no chunk ran twice).
    pub reroutes: u32,
}

impl FaultOutcome {
    /// True when the job observed any fault at all.
    pub fn affected(&self) -> bool {
        self.transient > 0 || self.persistent > 0 || self.reroutes > 0
    }
}

/// One applied budget reconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResizeSample {
    /// Virtual time the new budgets took effect.
    pub at: SimTime,
    /// The per-node budgets now in force (index = `NodeId.0`).
    pub budgets: Vec<u64>,
}

/// Final per-job record in the [`SchedReport`].
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job id (submission order).
    pub id: JobId,
    /// Submitter-chosen name.
    pub name: String,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Admission class.
    pub priority: Priority,
    /// Terminal state (always terminal after `run`).
    pub state: JobState,
    /// Arrival time from the trace.
    pub arrival: SimTime,
    /// When the reservation was (last) committed, if ever.
    pub admitted_at: Option<SimTime>,
    /// When the job reached its terminal state.
    pub finished_at: Option<SimTime>,
    /// Leaf the job was (last) placed on, if admitted.
    pub leaf: Option<NodeId>,
    /// The reservation the job declared (and held while admitted).
    pub reservation: Reservation,
    /// Chunks the job completed (equals the spec's chunk count for
    /// `Done` jobs, a strict prefix otherwise).
    pub chunks_done: u32,
    /// How many times the job was evicted and later resumed.
    pub preemptions: u32,
    /// Fault accounting: faults observed, retries, backoff, re-routes.
    pub fault: FaultOutcome,
    /// Why the job was rejected (`None` for every other terminal state):
    /// the typed split of backpressure vs. shed vs. infeasible that the
    /// bare rejection count used to hide.
    pub reject_reason: Option<RejectReason>,
    /// Deepest [`DegradeLevel`] rank any of this job's admissions
    /// compiled at (0 = always full fidelity).
    pub degrade: u8,
}

impl JobOutcome {
    /// Arrival→finish latency for completed jobs.
    pub fn latency(&self) -> Option<SimDur> {
        match (self.state, self.finished_at) {
            (JobState::Done, Some(end)) => Some(end - self.arrival),
            _ => None,
        }
    }

    /// For jobs that were admitted: the reservation as a runtime lease.
    /// Install it with `Runtime::install_lease` so the job's `Ctx::alloc`
    /// calls draw from the admitted capacity.
    pub fn lease(&self) -> Option<std::sync::Arc<northup::CapacityLease>> {
        self.admitted_at?;
        Some(self.reservation.to_lease())
    }
}

/// Everything `run` learned: per-job outcomes plus aggregate service
/// metrics and the audit trails the acceptance tests inspect.
///
/// Each series is held once. *Stored*, because the run decided them:
/// [`jobs`](Self::jobs), [`admission_log`](Self::admission_log) and
/// [`chunk_log`](Self::chunk_log) (the two per-event series, paged
/// [`Log`]s), and the small per-feature logs. *Derived* on demand from
/// those, because they are pure functions of them:
/// [`admission_order()`](Self::admission_order) and
/// [`capacity_trace()`](Self::capacity_trace).
#[derive(Debug, Clone)]
pub struct SchedReport {
    /// One record per submitted job, in `JobId` order.
    pub jobs: Vec<JobOutcome>,
    /// Last terminal transition (virtual time of the full trace).
    pub makespan: SimDur,
    /// Completed jobs per virtual second.
    pub throughput: f64,
    /// Median arrival→finish latency over completed jobs.
    pub p50_latency: SimDur,
    /// 99th-percentile arrival→finish latency over completed jobs.
    pub p99_latency: SimDur,
    /// Rejected jobs / submitted jobs.
    pub rejection_rate: f64,
    /// Every commit/release/evict transition.
    pub admission_log: Log<AdmissionEvent>,
    /// Peak committed bytes ever observed per node, dense by `NodeId.0`
    /// (zero for nodes no reservation ever touched).
    pub max_committed: Vec<u64>,
    /// Every completed chunk, in completion order.
    pub chunk_log: Log<ChunkSample>,
    /// Every applied budget reconfiguration, in effect order.
    pub resize_log: Vec<ResizeSample>,
    /// Eviction-request → eviction-effect delay of every preemption (how
    /// long the victim's in-flight chunk kept the capacity occupied).
    pub preemption_latencies: Vec<SimDur>,
    /// Every injected fault, in observation order (empty without a
    /// [`SchedulerConfig::fault_plan`]).
    pub fault_log: Vec<FaultSample>,
    /// Every node quarantine, in fencing order.
    pub quarantine_log: Vec<QuarantineSample>,
    /// Every probation restore, in restore order (empty without
    /// [`SchedulerConfig::probation`]).
    pub restore_log: Vec<RestoreSample>,
    /// Scheduler events processed by the run loop — the raw unit of the
    /// event-engine throughput metric (events/sec) tracked by the bench
    /// harness.
    pub events: u64,
    /// Every job the SLO controller shed, in shed order (empty without
    /// [`SchedulerConfig::slo`]).
    pub shed_log: Vec<ShedOutcome>,
    /// One observation per control tick: p99s, pressure, tier, brownout
    /// level, cap, and applied scale (empty without
    /// [`SchedulerConfig::slo`]).
    pub slo_log: Vec<SloSample>,
    /// The controller's capacity-planning answer: the peak projected
    /// capacity this trace needed to meet the guaranteed-class SLO, in
    /// percent of the configured budgets (100 = they sufficed; always
    /// 100 without [`SchedulerConfig::slo`]).
    pub capacity_needed_pct: u32,
}

impl SchedReport {
    /// Outcome of one job.
    pub fn job(&self, id: JobId) -> &JobOutcome {
        &self.jobs[id.0 as usize]
    }

    /// Jobs in the order their reservations were committed (re-admissions
    /// after eviction appear again): the `Admitted` entries of
    /// [`admission_log`](Self::admission_log).
    pub fn admission_order(&self) -> impl Iterator<Item = JobId> + '_ {
        self.admission_log
            .iter()
            .filter(|e| e.kind == AdmissionEventKind::Admitted)
            .map(|e| e.job)
    }

    /// Committed bytes per touched node after every transition: each
    /// [`admission_log`](Self::admission_log) entry adds (`Admitted`) or
    /// credits back (every other kind) its job's reservation, one sample
    /// per reserved node in node order.
    pub fn capacity_trace(&self) -> impl Iterator<Item = CapacitySample> + '_ {
        let mut committed = vec![0u64; self.max_committed.len()];
        self.admission_log
            .iter()
            .flat_map(|e| {
                let admitted = e.kind == AdmissionEventKind::Admitted;
                let reserved = self.job(e.job).reservation.iter();
                reserved.map(move |(node, bytes)| (e.at, admitted, node, bytes))
            })
            .map(move |(at, admitted, node, bytes)| {
                if committed.len() <= node.0 {
                    committed.resize(node.0 + 1, 0);
                }
                let c = &mut committed[node.0];
                *c = if admitted {
                    c.saturating_add(bytes)
                } else {
                    c.saturating_sub(bytes)
                };
                CapacitySample {
                    at,
                    node,
                    committed: *c,
                }
            })
    }

    /// Peak committed bytes per *touched* node, as `(node, peak)` pairs
    /// in node order. A touched node's peak is always ≥ 1 byte (empty
    /// reservation entries never exist), so the pair stream is
    /// independent of how the engine stores the accounting — the
    /// representation [`report_digest`](crate::digest::report_digest)
    /// folds.
    pub fn max_committed_pairs(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.max_committed
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(n, &b)| (NodeId(n), b))
    }

    /// Count of jobs that ended in `state`.
    pub fn count(&self, state: JobState) -> usize {
        self.jobs.iter().filter(|j| j.state == state).count()
    }

    /// True when every submitted job reached a terminal state.
    pub fn all_terminal(&self) -> bool {
        self.jobs.iter().all(|j| j.state.is_terminal())
    }

    /// Total evictions across all jobs.
    pub fn total_preemptions(&self) -> usize {
        self.jobs.iter().map(|j| j.preemptions as usize).sum()
    }

    /// Mean eviction-request → eviction-effect delay (zero when nothing
    /// was preempted).
    pub fn mean_preemption_latency(&self) -> SimDur {
        if self.preemption_latencies.is_empty() {
            return SimDur::ZERO;
        }
        let total: f64 = self
            .preemption_latencies
            .iter()
            .map(|d| d.as_secs_f64())
            .sum();
        SimDur::from_secs_f64(total / self.preemption_latencies.len() as f64)
    }

    /// Total transient-fault retries across all jobs.
    pub fn total_retries(&self) -> u64 {
        self.jobs.iter().map(|j| u64::from(j.fault.retries)).sum()
    }

    /// Total virtual time all jobs spent backing off.
    pub fn total_backoff(&self) -> SimDur {
        let secs: f64 = self
            .jobs
            .iter()
            .map(|j| j.fault.backoff.as_secs_f64())
            .sum();
        SimDur::from_secs_f64(secs)
    }

    /// Jobs that completed despite observing at least one fault — the
    /// headline number of a chaos run.
    pub fn jobs_recovered(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.state == JobState::Done && j.fault.affected())
            .count()
    }

    /// Nodes quarantined during the run, in fencing order.
    pub fn quarantined_nodes(&self) -> Vec<NodeId> {
        self.quarantine_log.iter().map(|q| q.node).collect()
    }

    /// Sub-threshold fault pressure per node: persistent faults observed
    /// on each node over the run. This is the same signal fault-aware
    /// placement biases on, exposed so a federation router can fold one
    /// shard's accumulated trouble into its cross-shard scoring.
    pub fn node_fault_pressure(&self) -> BTreeMap<NodeId, u32> {
        let mut pressure: BTreeMap<NodeId, u32> = BTreeMap::new();
        for f in &self.fault_log {
            if f.kind == FaultKind::Persistent {
                *pressure.entry(f.node).or_insert(0) += 1;
            }
        }
        pressure
    }

    /// Rejected jobs whose typed reason is `reason`.
    pub fn rejected_for(&self, reason: RejectReason) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.reject_reason == Some(reason))
            .count()
    }

    /// Sorted arrival→finish latencies of completed jobs in `class`.
    pub fn class_latencies(&self, class: Priority) -> Vec<SimDur> {
        let mut lats: Vec<SimDur> = self
            .jobs
            .iter()
            .filter(|j| j.priority == class)
            .filter_map(JobOutcome::latency)
            .collect();
        lats.sort_unstable();
        lats
    }

    /// 99th-percentile completion latency of `class` (integer-index
    /// percentile; `SimDur::ZERO` with no completions).
    pub fn class_p99(&self, class: Priority) -> SimDur {
        percentile_sorted(&self.class_latencies(class), 99)
    }

    /// Jobs that ran at least one admission below full fidelity
    /// (brownout degradation).
    pub fn degraded_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.degrade > 0).count()
    }

    /// One-line human summary for drivers and examples.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} jobs: {} done, {} rejected | makespan {:.3} s | \
             {:.2} jobs/s | p50 {:.3} s | p99 {:.3} s | reject {:.1}% | {} preemptions",
            self.jobs.len(),
            self.count(JobState::Done),
            self.count(JobState::Rejected),
            self.makespan.as_secs_f64(),
            self.throughput,
            self.p50_latency.as_secs_f64(),
            self.p99_latency.as_secs_f64(),
            self.rejection_rate * 100.0,
            self.total_preemptions(),
        );
        if !self.fault_log.is_empty() || !self.quarantine_log.is_empty() {
            s.push_str(&format!(
                " | {} faults, {} retries ({:.3} s backoff), {} recovered, \
                 {} failed, {} quarantined, {} restored",
                self.fault_log.len(),
                self.total_retries(),
                self.total_backoff().as_secs_f64(),
                self.jobs_recovered(),
                self.count(JobState::Failed),
                self.quarantine_log.len(),
                self.restore_log.len(),
            ));
        }
        if !self.slo_log.is_empty() {
            s.push_str(&format!(
                " | slo: {} ticks, {} shed, {} degraded, capacity needed {}%",
                self.slo_log.len(),
                self.shed_log.len(),
                self.degraded_jobs(),
                self.capacity_needed_pct,
            ));
        }
        s
    }
}

/// Event kinds, in processing order at equal virtual time: completions
/// free capacity first, then backed-off stages retry; budget changes
/// take effect before new arrivals are considered.
const EV_STAGE_DONE: u8 = 0;
const EV_RETRY: u8 = 1;
const EV_RESIZE: u8 = 2;
const EV_ARRIVAL: u8 = 3;
/// Probation probe of a fenced node (after arrivals at the same instant,
/// so a restore at time t serves queued work from t onward, not a
/// same-instant arrival race).
const EV_PROBE: u8 = 4;
/// SLO control tick (last at equal time, so the controller observes the
/// instant's completions and arrivals before it reacts). Scheduled only
/// with [`SchedulerConfig::slo`]; the handler re-arms the next tick.
const EV_CONTROL: u8 = 5;

/// Sentinel chain index of a job that currently has no placement.
const CHAIN_NONE: u32 = u32::MAX;

/// Eviction marks carried in [`HotJob::flags`].
///
/// `F_PREEMPT` — marked by a higher-priority arrival; revalidated at the
/// boundary (the pressure may have passed).
/// `F_RESIZE` — marked by a budget shrink; unconditional at the boundary.
/// `F_FAULT` — a fenced node lies on the job's chain; displaced at the
/// boundary (or at the next stage booking, whichever comes first).
const F_PREEMPT: u8 = 1 << 0;
const F_RESIZE: u8 = 1 << 1;
const F_FAULT: u8 = 1 << 2;

/// The per-event job state, packed dense so the run loop's random access
/// per `EV_STAGE_DONE` touches one 20-byte record instead of a fat
/// [`JobRec`]. At 10^6-job scale hundreds of thousands of jobs are
/// resident at once; the event loop visits them in arbitrary order, so
/// the working set of this array (not the cold spec/accounting records)
/// decides the cache and TLB hit rate of the whole engine.
#[derive(Debug, Clone, Copy)]
struct HotJob {
    /// Index of the job's compiled chain in the run's [`ChainArena`]
    /// ([`CHAIN_NONE`] while unplaced). Chains are interned by (leaf,
    /// work shape), so a million admissions share a handful of compiled
    /// chains instead of allocating stage vectors each.
    chain: u32,
    chunks_done: u32,
    /// Cached `spec.work.chunks` (hot-loop bound).
    chunks_total: u32,
    stage_idx: u16,
    /// Cached `stages.len()` of the interned chain (hot-loop bound).
    chain_len: u16,
    state: JobState,
    /// `F_PREEMPT | F_RESIZE | F_FAULT` marks, honored at the chunk
    /// boundary.
    flags: u8,
}

/// The cold per-job record: the spec plus accounting touched only at
/// admission, displacement, and terminal transitions — never on the
/// per-stage hot path (that state lives in [`HotJob`]).
#[derive(Debug)]
struct JobRec {
    spec: JobSpec,
    admitted_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    /// The leaf the current admission placed the job on; counted in that
    /// leaf's work queue from placement until the job finishes or is
    /// displaced.
    leaf: Option<NodeId>,
    /// When an eviction was requested (for the latency report).
    preempt_requested_at: Option<SimTime>,
    preemptions: u32,
    /// Failed serve attempts of the current stage (reset on a clean
    /// booking and on displacement).
    stage_attempts: u32,
    /// Fault accounting, reported as the job's [`FaultOutcome`].
    faults_transient: u32,
    faults_persistent: u32,
    retries: u32,
    backoff_total: SimDur,
    reroutes: u32,
    /// Typed reason if the job was rejected (arrival backpressure,
    /// controller shed, or infeasibility).
    reject_reason: Option<RejectReason>,
    /// Deepest brownout rank any admission of this job compiled at.
    degrade: u8,
}

impl JobRec {
    /// The record of a job nothing has happened to yet.
    fn new(spec: JobSpec) -> Self {
        JobRec {
            spec,
            admitted_at: None,
            finished_at: None,
            leaf: None,
            preempt_requested_at: None,
            preemptions: 0,
            stage_attempts: 0,
            faults_transient: 0,
            faults_persistent: 0,
            retries: 0,
            backoff_total: SimDur::ZERO,
            reroutes: 0,
            reject_reason: None,
            degrade: 0,
        }
    }
}

/// The multi-tenant scheduler. Submit jobs, then [`run`](Self::run) the
/// deterministic co-simulation to a [`SchedReport`].
#[derive(Debug)]
pub struct JobScheduler {
    tree: Tree,
    cfg: SchedulerConfig,
    budgets: NodeBudgets,
    pending_resizes: Vec<(SimTime, NodeBudgets)>,
    /// The trace as submitted, in `JobId` order.
    submitted: Vec<JobSpec>,
    /// One record per submitted job. Empty until `run` builds it from
    /// `submitted`, at the trace's size: a table grown by `submit` would
    /// hold up to twice that, beside the caller's own copy of the trace.
    jobs: Vec<JobRec>,
}

impl JobScheduler {
    /// A scheduler over `tree` with budgets equal to its device
    /// capacities.
    pub fn new(tree: Tree, cfg: SchedulerConfig) -> Self {
        let budgets = NodeBudgets::from_tree(&tree, 1.0);
        JobScheduler {
            tree,
            cfg,
            budgets,
            pending_resizes: Vec::new(),
            submitted: Vec::new(),
            jobs: Vec::new(),
        }
    }

    /// The admission budgets in force (before `run`, the initial ones).
    pub fn budgets(&self) -> &NodeBudgets {
        &self.budgets
    }

    /// Submit a job; returns its id. Jobs may be submitted in any order —
    /// `run` replays them by arrival time.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        let id = JobId(self.submitted.len() as u64);
        self.submitted.push(spec);
        id
    }

    /// Schedule a live budget reconfiguration: at virtual time `at` the
    /// given budgets replace the ones in force. Shrinks follow
    /// [`SchedulerConfig::resize_drain`]; growths simply admit more.
    /// Queued jobs whose reservation can never fit under the new budgets
    /// are rejected when the resize lands.
    pub fn resize_budgets(&mut self, at: SimTime, budgets: NodeBudgets) {
        self.pending_resizes.push((at, budgets));
    }

    /// Replay the submitted trace in virtual time and consume the
    /// scheduler. Deterministic: same trace + same config ⇒ same report.
    /// A resize whose budget vector does not cover exactly the tree's
    /// nodes is refused up front as [`SchedError::BudgetLength`]; other
    /// errors surface violated internal invariants as [`SchedError`]
    /// instead of panicking the embedding service.
    pub fn run(mut self) -> Result<SchedReport, SchedError> {
        for (resize, (_, budgets)) in self.pending_resizes.iter().enumerate() {
            if budgets.len() != self.tree.len() {
                return Err(SchedError::BudgetLength {
                    resize,
                    len: budgets.len(),
                    nodes: self.tree.len(),
                });
            }
        }
        self.jobs = std::mem::take(&mut self.submitted)
            .into_iter()
            .map(JobRec::new)
            .collect();
        let mut st = RunState::new(&self.tree, &self.cfg, &self.jobs);

        for (i, rec) in self.jobs.iter().enumerate() {
            st.events.push((rec.spec.arrival, EV_ARRIVAL, i as u64, 0));
        }
        for (i, (at, _)) in self.pending_resizes.iter().enumerate() {
            st.events.push((*at, EV_RESIZE, i as u64, 0));
        }
        // Seed the first SLO control tick only when the controller is
        // configured: with `slo: None` no control event ever exists and
        // the schedule is bit-identical to the pre-SLO engine.
        if self.cfg.slo.is_some() {
            st.slo_base_budgets = self.budgets.snapshot();
            st.events.push((SimTime::ZERO + TICK, EV_CONTROL, 0, 0));
            st.control_ticks = 1;
        }

        // The dispatch loop pops the global minimum each iteration. The
        // one-slot `inline_next` holds the stage-done event the previous
        // dispatch produced: when it is still the minimum (the common
        // case — a booked stage usually completes before anything else
        // fires) the calendar queue is bypassed entirely, but the order
        // dispatched is *exactly* the heap-era order because the slot is
        // re-checked against the queue head every iteration. Coexisting
        // events are never fully equal (a job has at most one in-flight
        // event per kind), so `<` is a total order here.
        loop {
            let ev = match st.inline_next.take() {
                Some(iv) => match st.events.peek() {
                    Some(head) if head < iv => {
                        st.events.push(iv);
                        match st.events.pop() {
                            Some(e) => e,
                            None => break, // unreachable: just pushed
                        }
                    }
                    _ => iv,
                },
                None => match st.events.pop() {
                    Some(e) => e,
                    None => break,
                },
            };
            let (t, kind, id, _) = ev;
            st.events_processed += 1;
            match kind {
                EV_STAGE_DONE => self.on_stage_done(&mut st, JobId(id), t)?,
                // A backed-off stage re-books at a fresh ordinal, so
                // persistent trouble on the node eventually escalates. Only
                // the job's own events move it, so it is still in place.
                EV_RETRY => self.book_stage(&mut st, JobId(id), t)?,
                EV_RESIZE => self.on_resize(&mut st, id as usize, t)?,
                EV_ARRIVAL => self.on_arrival(&mut st, JobId(id), t)?,
                EV_PROBE => self.on_probe(&mut st, NodeId(id as usize), t)?,
                EV_CONTROL => self.on_control(&mut st, t)?,
                other => return Err(SchedError::UnknownEvent(other)),
            }
        }

        Ok(self.into_report(st))
    }

    fn on_arrival(&mut self, st: &mut RunState, id: JobId, t: SimTime) -> Result<(), SchedError> {
        let rec = &self.jobs[id.0 as usize];
        let class = class_index(rec.spec.priority);
        if let Some(slo) = st.slo.as_mut() {
            slo.on_arrival(class);
        }
        // Tier-1 backpressure: while the controller's dynamic cap is in
        // force, best-effort arrivals bounce off their own class queue
        // before they can poison it.
        let capped = st
            .slo
            .as_ref()
            .and_then(|s| s.batch_cap)
            .is_some_and(|cap| {
                rec.spec.effective_slo() == SloClass::BestEffort
                    && st.queues.class_live(class) >= cap as usize
            });
        let refused = if !self.budgets.feasible(&rec.spec.reservation) {
            Some(RejectReason::Infeasible)
        } else if st.queues.len() >= self.cfg.max_queue || capped {
            Some(RejectReason::QueueFull)
        } else {
            None
        };
        if let Some(reason) = refused {
            self.settle_rejected(st, id, t, reason);
            return Ok(());
        }
        st.queues.push_back(id, class);
        self.admit_pass(st, t)?;
        if self.cfg.preempt && st.hot[id.0 as usize].state == JobState::Queued {
            self.try_preempt(st, id, t);
        }
        Ok(())
    }

    /// Settle a job that holds no capacity `Rejected` with its typed
    /// reason: a refused arrival, a shed or swept waiter, or a victim a
    /// shrink evicted below its own reservation.
    fn settle_rejected(&mut self, st: &mut RunState, id: JobId, t: SimTime, reason: RejectReason) {
        st.hot[id.0 as usize].state = JobState::Rejected;
        let rec = &mut self.jobs[id.0 as usize];
        rec.finished_at = Some(t);
        rec.reject_reason = Some(reason);
    }

    /// Reject every waiter (queued, or evicted and waiting) whose
    /// reservation can never fit the budgets now in force — after a
    /// shrink or a fence — so the trace still totals out.
    fn reject_infeasible_waiters(&mut self, st: &mut RunState, t: SimTime) {
        let waiting: Vec<JobId> = st.queues.fifo_live().collect();
        for id in waiting {
            if !self
                .budgets
                .feasible(&self.jobs[id.0 as usize].spec.reservation)
            {
                st.queues.remove(id);
                self.settle_rejected(st, id, t, RejectReason::Infeasible);
            }
        }
    }

    /// One SLO control tick: sample p99-so-far, decide the tier, apply
    /// backpressure/shed/degrade/autoscale, and re-arm the next tick
    /// while the run still has pending events.
    fn on_control(&mut self, st: &mut RunState, t: SimTime) -> Result<(), SchedError> {
        // Sheddable backlog: live waiters outside the guaranteed class.
        let backlog = (st.queues.class_live(1) + st.queues.class_live(2)) as u32;
        let Some(slo) = st.slo.as_mut() else {
            return Ok(());
        };
        let decision = slo.tick(t, backlog);

        // Tier 4 — autoscale: grow every un-fenced node's budget to the
        // projected percentage of its original value. Growth-only, so no
        // feasibility re-check or eviction is ever needed; fenced nodes
        // keep their zero budget but their restore target scales, so a
        // later probation restore honors the new capacity.
        if decision.scale_pct > st.slo_scale_applied {
            st.slo_scale_applied = decision.scale_pct;
            let pct = u64::from(decision.scale_pct);
            for (n, &base) in st.slo_base_budgets.clone().iter().enumerate() {
                let scaled = base.saturating_mul(pct) / 100;
                let node = NodeId(n);
                if st.quarantined.contains(&node) {
                    st.pre_fence_budget[node.0] = scaled;
                } else {
                    self.budgets.set(node, scaled.max(self.budgets.get(node)));
                }
            }
            st.resize_log.push(ResizeSample {
                at: t,
                budgets: self.budgets.snapshot(),
            });
        }

        // Tier 2 — shed queued sheddable work, newest first, best-effort
        // before standard, never the guaranteed class (class 0 is never
        // scanned and `sheddable()` re-checks the per-job class).
        if decision.shed > 0 {
            let mut victims: Vec<JobId> = Vec::new();
            for want in [SloClass::BestEffort, SloClass::Standard] {
                for class in [2usize, 1] {
                    if victims.len() >= decision.shed as usize {
                        break;
                    }
                    let left = decision.shed as usize - victims.len();
                    victims.extend(
                        st.queues
                            .class_live_rev(class)
                            .filter(|id| {
                                let spec = &self.jobs[id.0 as usize].spec;
                                spec.effective_slo() == want && spec.effective_slo().sheddable()
                            })
                            .take(left),
                    );
                }
            }
            for id in victims {
                st.queues.remove(id);
                self.settle_rejected(st, id, t, RejectReason::Shed);
                let outcome = ShedOutcome {
                    job: id,
                    at: t,
                    class: self.jobs[id.0 as usize].spec.priority,
                };
                if let Some(slo) = st.slo.as_mut() {
                    slo.record_shed(outcome);
                }
            }
        }

        // A scale-up may admit immediately.
        if decision.scale_pct > 100 {
            self.admit_pass(st, t)?;
        }

        // Re-arm while anything can still happen. When both the calendar
        // and the inline slot are empty, no future event exists, nothing
        // can ever complete or arrive again, and the run is about to
        // end — re-arming then would spin forever.
        if st.events.peek().is_some() || st.inline_next.is_some() {
            let ord = st.control_ticks;
            st.control_ticks += 1;
            st.events.push((t + TICK, EV_CONTROL, ord, 0));
        }
        Ok(())
    }

    /// A budget reconfiguration takes effect.
    fn on_resize(&mut self, st: &mut RunState, idx: usize, t: SimTime) -> Result<(), SchedError> {
        self.budgets = self.pending_resizes[idx].1.clone();
        // Quarantine outlives resizes: a fenced node stays at zero even
        // when the incoming budget vector would resurrect it. The
        // incoming value becomes the node's restore target, so a later
        // probation restore honors the reconfiguration.
        for &n in &st.quarantined {
            st.pre_fence_budget[n.0] = self.budgets.get(n);
            self.budgets.zero(n);
        }
        st.resize_log.push(ResizeSample {
            at: t,
            budgets: self.budgets.snapshot(),
        });
        self.reject_infeasible_waiters(st, t);
        if self.cfg.resize_drain == ResizeDrain::Preempt {
            self.mark_for_resize(st, t);
        }
        self.admit_pass(st, t) // a growth may admit immediately
    }

    /// A stage of the current chunk finished: book the next stage at its
    /// actual ready time, or close the chunk and decide at the boundary —
    /// done > fault-evict > resize-evict > preempt > next chunk.
    fn on_stage_done(
        &mut self,
        st: &mut RunState,
        id: JobId,
        t: SimTime,
    ) -> Result<(), SchedError> {
        let h = &mut st.hot[id.0 as usize];
        if h.chain == CHAIN_NONE {
            return Err(SchedError::MissingChain(id));
        }
        h.stage_idx += 1;
        if h.stage_idx < h.chain_len {
            return self.book_stage(st, id, t);
        }
        h.chunks_done += 1;
        h.stage_idx = 0;
        let (chunks_done, flags) = (h.chunks_done, h.flags);
        let done = h.chunks_done >= h.chunks_total;
        st.chunk_log.push(ChunkSample {
            at: t,
            job: id,
            index: chunks_done - 1,
        });
        if flags == 0 && !done {
            return self.issue_chunk(st, id, t);
        }
        if done {
            self.finish(st, id, JobState::Done, t)
        } else if flags & F_FAULT != 0 {
            self.fault_evict(st, id, t)
        } else if flags & F_RESIZE != 0 || self.eviction_still_needed(st, id) {
            self.displace(st, id, t, false)
        } else {
            // Only `F_PREEMPT` is left, and the pressure passed (e.g.
            // another release already made room); keep running.
            st.hot[id.0 as usize].flags &= !F_PREEMPT;
            self.jobs[id.0 as usize].preempt_requested_at = None;
            self.issue_chunk(st, id, t)
        }
    }

    /// Start the next chunk by booking only its FIRST stage — later
    /// stages are booked as their predecessors complete, so concurrent
    /// jobs interleave on every shared resource instead of one job
    /// reserving the whole chain up front.
    fn issue_chunk(&mut self, st: &mut RunState, id: JobId, t: SimTime) -> Result<(), SchedError> {
        let h = &mut st.hot[id.0 as usize];
        h.state = JobState::Running;
        if h.chain == CHAIN_NONE {
            return Err(SchedError::MissingChain(id));
        }
        if h.chain_len == 0 {
            // All-zero work shape: every chunk completes instantly.
            let (first, total) = (h.chunks_done, h.chunks_total);
            h.chunks_done = total;
            for i in first..total {
                st.chunk_log.push(ChunkSample {
                    at: t,
                    job: id,
                    index: i,
                });
            }
            return self.finish(st, id, JobState::Done, t);
        }
        self.book_stage(st, id, t)
    }

    /// Book the job's current stage (`stage_idx`) at `t`, consulting the
    /// fault plan when one is configured. A clean booking schedules
    /// `EV_STAGE_DONE` at the fabric's completion; a transient fault
    /// within the retry budget schedules `EV_RETRY` after a seeded
    /// backoff; a persistent fault (or exhausted retries, or a stage on
    /// an already-quarantined node) goes through the persistent path:
    /// count toward quarantine, then displace the job for re-placement.
    fn book_stage(&mut self, st: &mut RunState, id: JobId, t: SimTime) -> Result<(), SchedError> {
        let (stage, node): (ChainStage, NodeId) = {
            let h = &st.hot[id.0 as usize];
            if h.chain == CHAIN_NONE {
                return Err(SchedError::MissingChain(id));
            }
            let chain = st.chains.get(h.chain);
            // The serving node comes from the chain's precompiled dense
            // node vector — no per-event failure-domain re-derivation.
            (
                chain.stages[h.stage_idx as usize],
                chain.nodes[h.stage_idx as usize],
            )
        };
        if self.cfg.fault_plan.is_none() {
            let end = st.fabric.serve(&stage, t);
            st.schedule_stage_done(end, id);
            return Ok(());
        }
        if st.quarantined.contains(&node) {
            // The device is fenced mid-chunk: the stage cannot be served,
            // so the job moves off at once (its in-flight chunk restarts
            // from the checkpoint on the new leaf — no chunk runs twice).
            return self.fault_evict(st, id, t);
        }
        let ord = st.fault_ordinals[node.0];
        st.fault_ordinals[node.0] += 1;
        let attempts = self.jobs[id.0 as usize].stage_attempts;
        let (decision, jitter) = match &self.cfg.fault_plan {
            Some(plan) => (plan.decide(node, ord), plan.jitter(node, ord, attempts + 1)),
            None => (None, 0.0),
        };
        match decision {
            None => {
                self.jobs[id.0 as usize].stage_attempts = 0;
                let end = st.fabric.serve(&stage, t);
                st.schedule_stage_done(end, id);
                Ok(())
            }
            Some(FaultKind::Transient) => {
                st.fault_log.push(FaultSample {
                    at: t,
                    node,
                    job: id,
                    kind: FaultKind::Transient,
                    ordinal: ord,
                });
                let rec = &mut self.jobs[id.0 as usize];
                rec.faults_transient += 1;
                rec.stage_attempts += 1;
                if rec.stage_attempts < RETRY_ATTEMPTS {
                    let delay = retry_backoff(rec.stage_attempts, jitter);
                    rec.retries += 1;
                    rec.backoff_total += delay;
                    st.events.push((t + delay, EV_RETRY, id.0, 0));
                    Ok(())
                } else {
                    // Bounded attempts exhausted: the fault is as good as
                    // persistent for this placement.
                    self.on_persistent_fault(st, id, node, t)
                }
            }
            Some(FaultKind::Persistent) => {
                st.fault_log.push(FaultSample {
                    at: t,
                    node,
                    job: id,
                    kind: FaultKind::Persistent,
                    ordinal: ord,
                });
                self.jobs[id.0 as usize].faults_persistent += 1;
                self.on_persistent_fault(st, id, node, t)
            }
        }
    }

    /// A persistent fault on `node` (observed by `id`'s current stage):
    /// count it toward the node's quarantine threshold, fence the node
    /// when the threshold is reached, and displace the faulted job.
    fn on_persistent_fault(
        &mut self,
        st: &mut RunState,
        id: JobId,
        node: NodeId,
        t: SimTime,
    ) -> Result<(), SchedError> {
        st.node_persistent[node.0] += 1;
        if st.node_persistent[node.0] >= self.cfg.quarantine_after
            && !st.quarantined.contains(&node)
        {
            self.quarantine(st, node, t);
        }
        self.fault_evict(st, id, t)
    }

    /// Fence `node`: zero its budget, reject queued jobs whose
    /// reservation can never fit the surviving envelope, and mark
    /// in-flight jobs whose chain passes through the node so they
    /// re-route to a surviving leaf at their next chunk boundary.
    fn quarantine(&mut self, st: &mut RunState, node: NodeId, t: SimTime) {
        st.quarantined.insert(node);
        st.quarantine_log.push(QuarantineSample {
            at: t,
            node,
            faults: st.node_persistent[node.0],
        });
        st.pre_fence_budget[node.0] = self.budgets.get(node);
        self.budgets.zero(node);
        self.schedule_probe(st, node, t);
        self.reject_infeasible_waiters(st, t);
        for i in 0..st.hot.len() {
            let h = st.hot[i];
            if matches!(h.state, JobState::Admitted | JobState::Running)
                && h.chain != CHAIN_NONE
                && st.chains.get(h.chain).nodes.contains(&node)
            {
                st.hot[i].flags |= F_FAULT;
            }
        }
    }

    /// Schedule the fenced node's next probation probe, if probation is
    /// on and the node has one left: the `n`-th probe of a node waits
    /// `PROBE_WINDOW × PROBE_BACKOFF^n` (hysteresis — a flapping node
    /// waits exponentially longer each time), and after `MAX_PROBES`
    /// probes the fence is permanent.
    fn schedule_probe(&mut self, st: &mut RunState, node: NodeId, t: SimTime) {
        if !self.cfg.probation {
            return;
        }
        let attempts = st.node_probes[node.0];
        if attempts >= MAX_PROBES {
            return; // out of chances: fenced for good
        }
        st.node_probes[node.0] = attempts + 1;
        let mult = PROBE_BACKOFF.saturating_pow(attempts);
        let window = SimDur(PROBE_WINDOW.0.saturating_mul(mult));
        st.events.push((t + window, EV_PROBE, node.0 as u64, 0));
    }

    /// A probation window elapsed: probe the fenced node by consulting
    /// the fault plan at fresh ordinals. All-clean restores the node —
    /// budget back to its pre-fence value, fresh quarantine threshold —
    /// and re-runs admission; any fault re-schedules the next (longer)
    /// probe instead.
    fn on_probe(&mut self, st: &mut RunState, node: NodeId, t: SimTime) -> Result<(), SchedError> {
        if !st.quarantined.contains(&node) {
            return Ok(()); // stale probe (already restored)
        }
        let clean = match &self.cfg.fault_plan {
            Some(plan) => {
                let mut clean = true;
                for _ in 0..PROBE_CONSULTS {
                    let ord = st.fault_ordinals[node.0];
                    st.fault_ordinals[node.0] += 1;
                    if plan.decide(node, ord).is_some() {
                        clean = false;
                        // Later ordinals stay unconsumed: the next probe
                        // re-tests the stream where this one gave up.
                        break;
                    }
                }
                clean
            }
            None => true,
        };
        if !clean {
            self.schedule_probe(st, node, t);
            return Ok(());
        }
        let budget = st.pre_fence_budget[node.0];
        self.budgets.set(node, budget);
        st.quarantined.remove(&node);
        st.node_persistent[node.0] = 0;
        st.restore_log.push(RestoreSample {
            at: t,
            node,
            attempt: st.node_probes[node.0],
            budget,
        });
        self.admit_pass(st, t)
    }

    /// Displace a faulted job through [`Self::displace`] so the next
    /// admission re-places it — `build_chain` re-targeting onto a
    /// surviving leaf. A job displaced more than `MAX_JOB_FAULTS` times
    /// is failed instead — chaos runs always terminate.
    fn fault_evict(&mut self, st: &mut RunState, id: JobId, t: SimTime) -> Result<(), SchedError> {
        let rec = &mut self.jobs[id.0 as usize];
        rec.reroutes += 1;
        rec.stage_attempts = 0;
        st.hot[id.0 as usize].flags &= !F_FAULT;
        if rec.reroutes > MAX_JOB_FAULTS {
            return self.finish(st, id, JobState::Failed, t);
        }
        self.displace(st, id, t, true)
    }

    /// Commit the reservation, place the job, and start its next chunk
    /// (the first for fresh admissions, the checkpoint for resumed ones).
    fn admit(&mut self, st: &mut RunState, id: JobId, t: SimTime) -> Result<(), SchedError> {
        debug_assert!(matches!(
            st.hot[id.0 as usize].state,
            JobState::Queued | JobState::Preempted
        ));
        let rec = &mut self.jobs[id.0 as usize];
        // Reservation nodes are bounded by the tree (anything beyond it
        // has zero budget and was rejected as infeasible at arrival), so
        // the dense commit vectors index directly.
        for (n, b) in rec.spec.reservation.iter() {
            let e = &mut st.committed[n.0];
            *e += b;
            if *e > st.max_committed[n.0] {
                st.max_committed[n.0] = *e;
            }
        }
        rec.admitted_at = Some(t);
        st.hot[id.0 as usize].state = JobState::Admitted;
        st.admission_log.push(AdmissionEvent {
            at: t,
            job: id,
            kind: AdmissionEventKind::Admitted,
        });
        st.active += 1;

        let done = {
            let h = &st.hot[id.0 as usize];
            h.chunks_done >= h.chunks_total
        };

        // Placement: the leaf whose subtree (child-of-root anchor) has the
        // shallowest work queues; ties break toward the lowest leaf id.
        // A resumed job is re-placed — only its checkpoint survives
        // eviction, not its slot. Quarantined nodes are avoided; when the
        // fences leave no usable leaf the job fails (graceful, terminal)
        // instead of erroring the whole run.
        let leaf = match self.place(st) {
            Ok(leaf) => leaf,
            Err(SchedError::NoLeaf) if !st.quarantined.is_empty() => {
                return self.finish(st, id, JobState::Failed, t);
            }
            Err(e) => return Err(e),
        };
        st.wq.enqueue(leaf);
        // Brownout: while the degradation tier is engaged, non-guaranteed
        // admissions compile a shrunken chain. Distinct degrade levels
        // produce distinct work shapes, so the arena interns them as
        // separate chains — no cross-contamination with full fidelity.
        let degrade = match &st.slo {
            Some(s) => s.degrade_for(self.jobs[id.0 as usize].spec.effective_slo()),
            None => DegradeLevel::None,
        };
        let work = degrade
            .apply(&self.jobs[id.0 as usize].spec.work)
            .chunk_work();
        let chain = st.chains.intern(&self.tree, leaf, work);
        let chain_len = st.chains.get(chain).stages.len() as u16;
        let rec = &mut self.jobs[id.0 as usize];
        rec.leaf = Some(leaf);
        rec.degrade = rec.degrade.max(degrade.rank());
        let h = &mut st.hot[id.0 as usize];
        h.chain = chain;
        h.chain_len = chain_len;
        h.stage_idx = 0;

        if done {
            self.finish(st, id, JobState::Done, t)
        } else {
            self.issue_chunk(st, id, t)
        }
    }

    /// Placement: the least fault-pressured leaf (with
    /// [`SchedulerConfig::fault_aware_placement`]; pressure is zero for
    /// every leaf otherwise) whose subtree has the shallowest work
    /// queues; ties break toward the lowest leaf id. Pressure dominates
    /// depth so chains drift off a sickening node *before* its
    /// quarantine threshold trips.
    fn place(&self, st: &RunState) -> Result<NodeId, SchedError> {
        let mut best: Option<(u64, usize, NodeId)> = None;
        for leaf in self.tree.leaves() {
            if path_quarantined(&self.tree, &st.quarantined, leaf.id) {
                continue;
            }
            let anchor = subtree_anchor(&self.tree, leaf.id);
            let depth = st.wq.subtree_depth(&self.tree, anchor);
            let pressure = if self.cfg.fault_aware_placement {
                path_fault_pressure(&self.tree, &st.node_persistent, leaf.id)
            } else {
                0
            };
            let key = (pressure, depth, leaf.id);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, leaf)| leaf).ok_or(SchedError::NoLeaf)
    }

    /// Credit an admitted job's reservation back and log the transition
    /// as `kind` (shared by terminal release and eviction).
    fn release_capacity(
        &mut self,
        st: &mut RunState,
        id: JobId,
        t: SimTime,
        kind: AdmissionEventKind,
    ) {
        for (n, b) in self.jobs[id.0 as usize].spec.reservation.iter() {
            let e = &mut st.committed[n.0];
            *e = e.saturating_sub(b);
        }
        st.admission_log.push(AdmissionEvent {
            at: t,
            job: id,
            kind,
        });
        st.active -= 1;
    }

    fn finish(
        &mut self,
        st: &mut RunState,
        id: JobId,
        state: JobState,
        t: SimTime,
    ) -> Result<(), SchedError> {
        debug_assert!(state.is_terminal());
        self.release_capacity(st, id, t, AdmissionEventKind::Released);
        st.hot[id.0 as usize].state = state;
        let rec = &mut self.jobs[id.0 as usize];
        rec.finished_at = Some(t);
        // A job finishes once, so its placement (kept for the report) is
        // counted out exactly once.
        if let Some(leaf) = rec.leaf {
            st.wq.complete(leaf);
        }
        // Feed the SLO sampler: completion latency in virtual time,
        // arrival-to-done (what the submitter experiences).
        if state == JobState::Done {
            let class = class_index(rec.spec.priority);
            let latency = t - rec.spec.arrival;
            if let Some(slo) = st.slo.as_mut() {
                slo.on_completion(class, latency);
            }
        }
        self.admit_pass(st, t)
    }

    /// Take a running job off the machine at its chunk boundary:
    /// release the reservation, keep the checkpoint, drop the placement,
    /// and re-queue it at the front of its class so it resumes as soon as
    /// capacity returns. `fault` tells a fault displacement from a
    /// preempt/resize eviction: only the latter counts as a preemption
    /// (and records its request→effect latency), and a job whose
    /// reservation no longer fits the budgets in force dead-ends as
    /// `Failed` (its node was fenced) rather than `Rejected` (a shrink
    /// went below its own reservation).
    fn displace(
        &mut self,
        st: &mut RunState,
        id: JobId,
        t: SimTime,
        fault: bool,
    ) -> Result<(), SchedError> {
        let kind = if fault {
            AdmissionEventKind::FaultEvicted
        } else {
            AdmissionEventKind::Preempted
        };
        self.release_capacity(st, id, t, kind);
        let rec = &mut self.jobs[id.0 as usize];
        let requested_at = rec.preempt_requested_at.take();
        if !fault {
            if let Some(at) = requested_at {
                st.preemption_latencies.push(t - at);
            }
            rec.preemptions += 1;
        }
        if let Some(leaf) = rec.leaf.take() {
            st.wq.complete(leaf);
        }
        let feasible = self.budgets.feasible(&rec.spec.reservation);
        let class = class_index(rec.spec.priority);
        let h = &mut st.hot[id.0 as usize];
        h.flags &= !(F_PREEMPT | F_RESIZE);
        h.state = JobState::Preempted;
        h.stage_idx = 0;
        h.chain = CHAIN_NONE;
        if feasible {
            // Front of the class: the victim has seniority.
            st.queues.push_front(id, class);
        } else if fault {
            h.state = JobState::Failed;
            rec.finished_at = Some(t);
        } else {
            self.settle_rejected(st, id, t, RejectReason::Infeasible);
        }
        self.admit_pass(st, t)
    }

    /// Revalidation at the boundary: is some strictly-higher-priority
    /// queued job still blocked on capacity? If not, the pressure that
    /// marked this victim has passed and the eviction is dropped.
    fn eviction_still_needed(&self, st: &RunState, victim: JobId) -> bool {
        let vw = self.jobs[victim.0 as usize].spec.priority.weight();
        st.queues.fifo_live().any(|q| {
            let r = &self.jobs[q.0 as usize];
            r.spec.priority.weight() > vw && !self.budgets.fits(&st.committed, &r.spec.reservation)
        })
    }

    /// Committed bytes per node once every eviction already marked
    /// (`F_PREEMPT | F_RESIZE`) has taken effect.
    fn projected_commitment(&self, st: &RunState) -> Vec<u64> {
        let mut eff: Vec<u64> = st.committed.clone();
        for (i, h) in st.hot.iter().enumerate() {
            if h.flags & (F_PREEMPT | F_RESIZE) != 0
                && matches!(h.state, JobState::Admitted | JobState::Running)
            {
                for (n, b) in self.jobs[i].spec.reservation.iter() {
                    eff[n.0] = eff[n.0].saturating_sub(b);
                }
            }
        }
        eff
    }

    /// Running jobs not yet marked for eviction whose
    /// priority weight is below `below_weight`, in victim order: lowest
    /// priority first, most recently admitted first.
    fn ranked_victims(&self, st: &RunState, below_weight: u64) -> Vec<JobId> {
        let mut cands: Vec<JobId> = st
            .hot
            .iter()
            .enumerate()
            .filter(|(i, h)| {
                matches!(h.state, JobState::Admitted | JobState::Running)
                    && h.flags & (F_PREEMPT | F_RESIZE) == 0
                    && self.jobs[*i].spec.priority.weight() < below_weight
            })
            .map(|(i, _)| JobId(i as u64))
            .collect();
        cands.sort_by_key(|&j| {
            let r = &self.jobs[j.0 as usize];
            (r.spec.priority.weight(), Reverse(r.admitted_at), Reverse(j))
        });
        cands
    }

    /// A queued arrival that does not fit marks strictly-lower-priority
    /// running jobs (in [`Self::ranked_victims`] order) for eviction at
    /// their next chunk boundary, until the projected released capacity
    /// makes room. If even evicting every candidate would not make room,
    /// nothing is marked.
    fn try_preempt(&mut self, st: &mut RunState, id: JobId, t: SimTime) {
        let (res, my_w) = {
            let r = &self.jobs[id.0 as usize];
            (r.spec.reservation.clone(), r.spec.priority.weight())
        };
        let mut eff = self.projected_commitment(st);
        if self.budgets.fits(&eff, &res) {
            return; // pending evictions already make room
        }
        let mut marked = Vec::new();
        for v in self.ranked_victims(st, my_w) {
            // Targeted placement: skip victims whose eviction frees no
            // byte on any node that is actually blocking this arrival.
            // The old first-lower-class choice evicted in pure class
            // order and could displace a job on an uncontended node
            // while the arrival stayed stuck (and the bystander's
            // eviction was wasted work).
            let helps = self.jobs[v.0 as usize]
                .spec
                .reservation
                .iter()
                .any(|(n, b)| b > 0 && eff[n.0].saturating_add(res.get(n)) > self.budgets.get(n));
            if !helps {
                continue;
            }
            st.hot[v.0 as usize].flags |= F_PREEMPT;
            self.jobs[v.0 as usize].preempt_requested_at = Some(t);
            marked.push(v);
            for (n, b) in self.jobs[v.0 as usize].spec.reservation.iter() {
                eff[n.0] = eff[n.0].saturating_sub(b);
            }
            if self.budgets.fits(&eff, &res) {
                return;
            }
        }
        // Insufficient even after marking everything that helps: undo,
        // the job must wait for same-or-higher-priority releases anyway.
        for v in marked {
            st.hot[v.0 as usize].flags &= !F_PREEMPT;
            self.jobs[v.0 as usize].preempt_requested_at = None;
        }
    }

    /// After a shrink with [`ResizeDrain::Preempt`]: mark running jobs
    /// of any priority (in [`Self::ranked_victims`] order) whose
    /// reservation touches an over-budget node, until the projected
    /// commitment fits everywhere.
    fn mark_for_resize(&mut self, st: &mut RunState, t: SimTime) {
        let mut eff = self.projected_commitment(st);
        for v in self.ranked_victims(st, u64::MAX) {
            let over = eff
                .iter()
                .enumerate()
                .any(|(n, &c)| c > self.budgets.get(NodeId(n)));
            if !over {
                break;
            }
            let helps = self.jobs[v.0 as usize]
                .spec
                .reservation
                .iter()
                .any(|(n, _)| eff[n.0] > self.budgets.get(n));
            if !helps {
                continue;
            }
            st.hot[v.0 as usize].flags |= F_RESIZE;
            self.jobs[v.0 as usize].preempt_requested_at = Some(t);
            for (n, b) in self.jobs[v.0 as usize].spec.reservation.iter() {
                eff[n.0] = eff[n.0].saturating_sub(b);
            }
        }
    }

    /// One admission pass at virtual time `t`: admit every queued job the
    /// policy allows until nothing more fits.
    fn admit_pass(&mut self, st: &mut RunState, t: SimTime) -> Result<(), SchedError> {
        match self.cfg.policy {
            AdmissionPolicy::Fifo => {
                // Strict serialization: whole machine to one job at a time.
                while st.active == 0 {
                    let Some(id) = st.queues.fifo_head() else {
                        break;
                    };
                    st.queues.remove(id);
                    self.admit(st, id, t)?;
                }
                Ok(())
            }
            AdmissionPolicy::WeightedFair => self.fair_pass(st, t),
        }
    }

    fn fair_pass(&mut self, st: &mut RunState, t: SimTime) -> Result<(), SchedError> {
        // Refresh credits once per pass for classes with waiters.
        for (c, p) in Priority::ALL.iter().enumerate() {
            if st.queues.class_head(c).is_some() {
                st.credits[c] += p.weight();
            }
        }
        loop {
            // Candidate classes by (credits desc, class rank asc).
            let mut order: Vec<usize> = (0..Priority::ALL.len())
                .filter(|&c| st.queues.class_head(c).is_some())
                .collect();
            if order.is_empty() {
                return Ok(());
            }
            order.sort_by_key(|&c| (Reverse(st.credits[c]), c));

            // Starvation guard: once a class head has been bypassed
            // `AGING_LIMIT` times, only it may admit until it does.
            if let Some(b) = st.blocked_class {
                match st.queues.class_head(b) {
                    None => st.blocked_class = None,
                    Some(id) => {
                        if self
                            .budgets
                            .fits(&st.committed, &self.jobs[id.0 as usize].spec.reservation)
                        {
                            st.queues.remove(id);
                            st.credits[b] = 0;
                            st.starve[b] = 0;
                            st.blocked_class = None;
                            self.admit(st, id, t)?;
                            continue;
                        }
                        return Ok(()); // must wait for the blocked class's head
                    }
                }
            }

            let mut admitted = false;
            for (rank, &c) in order.iter().enumerate() {
                let id = match st.queues.class_head(c) {
                    Some(id) => id,
                    None => continue,
                };
                if !self
                    .budgets
                    .fits(&st.committed, &self.jobs[id.0 as usize].spec.reservation)
                {
                    continue;
                }
                if rank > 0 {
                    // Overtook the head of every higher-credit class.
                    for &hc in &order[..rank] {
                        st.starve[hc] += 1;
                        if st.starve[hc] >= AGING_LIMIT {
                            st.blocked_class = Some(hc);
                        }
                    }
                }
                st.queues.remove(id);
                st.credits[c] = 0;
                st.starve[c] = 0;
                self.admit(st, id, t)?;
                admitted = true;
                break;
            }
            if !admitted {
                return Ok(());
            }
        }
    }

    fn into_report(self, mut st: RunState) -> SchedReport {
        // Pull the controller's logs out before `st.hot` is borrowed by
        // the outcome map below.
        let (shed_log, slo_log, capacity_needed_pct) = match st.slo.take() {
            Some(slo) => (slo.sheds, slo.log, slo.needed_pct),
            None => (Vec::new(), Vec::new(), 100),
        };
        // An outcome is smaller than the record it is made from, so this
        // `collect` writes the outcomes over the job table as it drains
        // it (the standard library's in-place `collect`): table and
        // outcomes never stand side by side. `tests/engine_heap.rs`
        // fails if they ever do.
        let mut jobs: Vec<JobOutcome> = self
            .jobs
            .into_iter()
            .zip(&st.hot)
            .enumerate()
            .map(|(i, (rec, h))| JobOutcome {
                id: JobId(i as u64),
                name: rec.spec.name,
                tenant: rec.spec.tenant,
                priority: rec.spec.priority,
                state: h.state,
                arrival: rec.spec.arrival,
                admitted_at: rec.admitted_at,
                finished_at: rec.finished_at,
                leaf: rec.leaf,
                reservation: rec.spec.reservation,
                chunks_done: h.chunks_done,
                preemptions: rec.preemptions,
                fault: FaultOutcome {
                    transient: rec.faults_transient,
                    persistent: rec.faults_persistent,
                    retries: rec.retries,
                    backoff: rec.backoff_total,
                    reroutes: rec.reroutes,
                },
                reject_reason: rec.reject_reason,
                degrade: rec.degrade,
            })
            .collect();
        jobs.shrink_to_fit();

        let makespan = jobs
            .iter()
            .filter_map(|j| j.finished_at)
            .max()
            .map(|end| end - SimTime::ZERO)
            .unwrap_or(SimDur::ZERO);
        let done = jobs.iter().filter(|j| j.state == JobState::Done).count();
        let secs = makespan.as_secs_f64();
        let throughput = if secs > 0.0 { done as f64 / secs } else { 0.0 };

        let mut lats: Vec<SimDur> = jobs.iter().filter_map(JobOutcome::latency).collect();
        lats.sort();
        let rejected = jobs
            .iter()
            .filter(|j| j.state == JobState::Rejected)
            .count();
        let rejection_rate = if jobs.is_empty() {
            0.0
        } else {
            rejected as f64 / jobs.len() as f64
        };

        SchedReport {
            makespan,
            throughput,
            p50_latency: percentile_sorted(&lats, 50),
            p99_latency: percentile_sorted(&lats, 99),
            rejection_rate,
            admission_log: st.admission_log,
            max_committed: st.max_committed,
            chunk_log: st.chunk_log,
            resize_log: st.resize_log,
            preemption_latencies: st.preemption_latencies,
            fault_log: st.fault_log,
            quarantine_log: st.quarantine_log,
            restore_log: st.restore_log,
            shed_log,
            slo_log,
            capacity_needed_pct,
            events: st.events_processed,
            jobs,
        }
    }
}

/// Sentinel sequence number of a job with no live queue entry.
const NOT_QUEUED: u64 = u64::MAX;

/// The waiting-job queues with O(1) removal. Class order and global
/// FIFO order are mirrored entry lists of `(job, seq)` pairs; a job's
/// live `seq` sits in a dense per-job slot. Removing a job bumps its
/// slot to [`NOT_QUEUED`] and pops the stale entries this leaves at the
/// head of either order, so a non-empty order always starts with a live
/// waiter and holds no entry older than its oldest one — whichever
/// policy is reading. This replaces the heap-era engine's
/// O(queue-depth) `retain` scans on every admission, the dominant cost
/// once a 10^6-job trace holds thousands of waiters (see DESIGN.md §12).
struct JobQueues {
    class: [VecDeque<(JobId, u64)>; 3],
    fifo: VecDeque<(JobId, u64)>,
    /// `slot[job]` = seq of the job's live entries, [`NOT_QUEUED`] if none.
    slot: Vec<u64>,
    /// `cls[job]` = class of the job's live entries (valid only while
    /// queued; lets `remove` keep the per-class counts without a lookup).
    cls: Vec<u8>,
    next_seq: u64,
    waiting: usize,
    /// Live waiters per class (the controller's backpressure counts).
    live: [usize; 3],
}

impl JobQueues {
    fn new(jobs: usize) -> Self {
        JobQueues {
            class: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            fifo: VecDeque::new(),
            slot: vec![NOT_QUEUED; jobs],
            cls: vec![0; jobs],
            next_seq: 0,
            waiting: 0,
            live: [0; 3],
        }
    }

    /// Live waiters (the backpressure count).
    fn len(&self) -> usize {
        self.waiting
    }

    /// Live waiters in class `c`.
    fn class_live(&self, c: usize) -> usize {
        self.live[c]
    }

    fn enqueue_seq(&mut self, id: JobId, class: usize) -> u64 {
        debug_assert_eq!(self.slot[id.0 as usize], NOT_QUEUED, "job double-queued");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slot[id.0 as usize] = seq;
        self.cls[id.0 as usize] = class as u8;
        self.waiting += 1;
        self.live[class] += 1;
        seq
    }

    fn push_back(&mut self, id: JobId, class: usize) {
        let seq = self.enqueue_seq(id, class);
        self.class[class].push_back((id, seq));
        self.fifo.push_back((id, seq));
    }

    /// Front-of-class requeue (evicted jobs keep their seniority).
    fn push_front(&mut self, id: JobId, class: usize) {
        let seq = self.enqueue_seq(id, class);
        self.class[class].push_front((id, seq));
        self.fifo.push_front((id, seq));
    }

    /// Remove the job from both orders — amortised O(1): its entries
    /// go stale in place and are popped once they reach a head.
    fn remove(&mut self, id: JobId) {
        if self.slot[id.0 as usize] == NOT_QUEUED {
            return;
        }
        self.slot[id.0 as usize] = NOT_QUEUED;
        self.waiting -= 1;
        let class = usize::from(self.cls[id.0 as usize]);
        self.live[class] -= 1;
        for order in [&mut self.class[class], &mut self.fifo] {
            while let Some(&(head, seq)) = order.front() {
                if self.slot[head.0 as usize] == seq {
                    break;
                }
                order.pop_front();
            }
        }
    }

    /// Live jobs of class `c`, newest first (the shed victim order:
    /// the most recent arrival has the least sunk queueing investment).
    fn class_live_rev(&self, c: usize) -> impl Iterator<Item = JobId> + '_ {
        self.class[c]
            .iter()
            .rev()
            .filter(|&&(id, seq)| self.slot[id.0 as usize] == seq)
            .map(|&(id, _)| id)
    }

    /// The longest-waiting job of class `c`.
    fn class_head(&self, c: usize) -> Option<JobId> {
        self.class[c].front().map(|&(id, _)| id)
    }

    /// The longest-waiting job overall.
    fn fifo_head(&self) -> Option<JobId> {
        self.fifo.front().map(|&(id, _)| id)
    }

    /// Live jobs in FIFO order (stale entries behind the head skipped).
    fn fifo_live(&self) -> impl Iterator<Item = JobId> + '_ {
        self.fifo
            .iter()
            .filter(|&&(id, seq)| self.slot[id.0 as usize] == seq)
            .map(|&(id, _)| id)
    }
}

/// Interned compiled chains, keyed by (leaf, per-chunk work shape). A
/// trace has a handful of work shapes and a tree has a handful of
/// leaves, so a million admissions resolve to a few dozen compiled
/// chains instead of a `build_chain` allocation each. The scheduler
/// walks `stages`/`nodes` and reads chunk counts from the job itself,
/// so the shared chains compile with `chunks = 1`.
struct ChainArena {
    chains: Vec<ChunkChain>,
    index: BTreeMap<(usize, u64, u64, u64, u64), u32>,
}

impl ChainArena {
    fn new() -> Self {
        ChainArena {
            chains: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// The arena index of the chain for `work` on `leaf`, compiling and
    /// caching it on first use.
    fn intern(&mut self, tree: &Tree, leaf: NodeId, work: ChunkWork) -> u32 {
        let key = (
            leaf.0,
            work.read_bytes,
            work.xfer_bytes,
            work.compute.0,
            work.write_bytes,
        );
        if let Some(&idx) = self.index.get(&key) {
            return idx;
        }
        let idx = self.chains.len() as u32;
        self.chains.push(build_chain(tree, leaf, work, 1));
        self.index.insert(key, idx);
        idx
    }

    fn get(&self, idx: u32) -> &ChunkChain {
        &self.chains[idx as usize]
    }
}

/// Per-run mutable state, kept out of `JobScheduler` so `run` borrows
/// stay simple.
struct RunState {
    /// (time, kind, job, seq) pending events, popped in ascending order.
    events: CalendarQueue,
    /// One-slot successor buffer: the stage-done event the latest
    /// booking produced, held out of the calendar while it is a
    /// candidate minimum. The run loop re-checks it against the queue
    /// head before dispatching, so the schedule is exactly the heap
    /// engine's order with most push+pop pairs elided.
    inline_next: Option<Event>,
    /// Dense per-event job state ([`HotJob`]), indexed by `JobId.0` —
    /// the only per-job array the stage-done hot path touches.
    hot: Vec<HotJob>,
    queues: JobQueues,
    credits: [u64; 3],
    starve: [u32; 3],
    blocked_class: Option<usize>,
    /// Committed / peak committed bytes per node, dense by `NodeId.0`.
    committed: Vec<u64>,
    max_committed: Vec<u64>,
    chains: ChainArena,
    admission_log: Log<AdmissionEvent>,
    chunk_log: Log<ChunkSample>,
    resize_log: Vec<ResizeSample>,
    preemption_latencies: Vec<SimDur>,
    active: usize,
    fabric: SimFabric,
    wq: WorkQueues,
    /// Per-node operation ordinals the fault plan keys its decisions on
    /// (index = `NodeId.0`). Advance only when a plan is configured, so
    /// fault-free runs stay byte-identical to pre-fault schedules.
    fault_ordinals: Vec<u64>,
    /// Persistent faults observed per node (index = `NodeId.0`).
    node_persistent: Vec<u32>,
    /// Fenced nodes: zero budget, no placements, no stage bookings.
    quarantined: BTreeSet<NodeId>,
    fault_log: Vec<FaultSample>,
    quarantine_log: Vec<QuarantineSample>,
    /// Probation probes granted per node so far (index = `NodeId.0`);
    /// bounds restores and drives the hysteresis window growth.
    node_probes: Vec<u32>,
    /// Budget each fenced node gets back if probation restores it
    /// (index = `NodeId.0`, meaningful only while the node is fenced).
    pre_fence_budget: Vec<u64>,
    restore_log: Vec<RestoreSample>,
    /// SLO feedback-controller state, `Some` only when
    /// [`SchedulerConfig::slo`] is configured.
    slo: Option<SloState>,
    /// Control ticks scheduled so far (the `EV_CONTROL` event id, so
    /// tick events are unique and ordered in the calendar).
    control_ticks: u64,
    /// Budgets at run start — the 100% reference the autoscale tier
    /// scales from (empty when no controller is configured).
    slo_base_budgets: Vec<u64>,
    /// Capacity scale currently applied by the autoscale tier, percent.
    slo_scale_applied: u32,
    /// Events the run loop processed (the events/sec numerator).
    events_processed: u64,
}

impl RunState {
    fn new(tree: &Tree, cfg: &SchedulerConfig, jobs: &[JobRec]) -> Self {
        RunState {
            events: CalendarQueue::new(),
            inline_next: None,
            hot: jobs
                .iter()
                .map(|rec| HotJob {
                    chain: CHAIN_NONE,
                    // The migration hook: a job checkpointed elsewhere
                    // starts past its already-completed chunks (clamped
                    // so a stale checkpoint cannot promise more chunks
                    // than the work declares).
                    chunks_done: rec.spec.start_chunk.min(rec.spec.work.chunks),
                    chunks_total: rec.spec.work.chunks,
                    stage_idx: 0,
                    chain_len: 0,
                    state: JobState::Queued,
                    flags: 0,
                })
                .collect(),
            queues: JobQueues::new(jobs.len()),
            credits: [0; 3],
            starve: [0; 3],
            blocked_class: None,
            committed: vec![0; tree.len()],
            max_committed: vec![0; tree.len()],
            chains: ChainArena::new(),
            admission_log: Log::new(),
            chunk_log: Log::new(),
            resize_log: Vec::new(),
            preemption_latencies: Vec::new(),
            active: 0,
            fabric: SimFabric::new(tree),
            wq: WorkQueues::new(tree),
            fault_ordinals: vec![0; tree.len()],
            node_persistent: vec![0; tree.len()],
            quarantined: BTreeSet::new(),
            fault_log: Vec::new(),
            quarantine_log: Vec::new(),
            node_probes: vec![0; tree.len()],
            pre_fence_budget: vec![0; tree.len()],
            restore_log: Vec::new(),
            slo: cfg.slo.clone().map(SloState::new),
            control_ticks: 0,
            slo_base_budgets: Vec::new(),
            slo_scale_applied: 100,
            events_processed: 0,
        }
    }

    /// Enqueue a stage completion through the one-slot inline buffer:
    /// keep the smaller of (slot, new event) inline, push the other.
    /// The run loop's head re-check makes the dispatch order identical
    /// to a global min-heap — this only elides the queue round-trip in
    /// the common case where the freshly booked stage fires next.
    fn schedule_stage_done(&mut self, end: SimTime, id: JobId) {
        let ev = (end, EV_STAGE_DONE, id.0, 0);
        match self.inline_next {
            None => self.inline_next = Some(ev),
            Some(cur) if ev < cur => {
                self.events.push(cur);
                self.inline_next = Some(ev);
            }
            Some(_) => self.events.push(ev),
        }
    }
}

/// The class-queue index of a priority. Total by construction — the
/// match mirrors `Priority::ALL`'s order, so no lookup can fail.
fn class_index(p: Priority) -> usize {
    match p {
        Priority::Interactive => 0,
        Priority::Normal => 1,
        Priority::Batch => 2,
    }
}

/// Whether any node on the root→`leaf` path (both endpoints included) is
/// quarantined. The root carries the Read/WriteBack stages, so a fenced
/// root blocks every leaf.
fn path_quarantined(tree: &Tree, quarantined: &BTreeSet<NodeId>, leaf: NodeId) -> bool {
    if quarantined.is_empty() {
        return false;
    }
    let mut cur = leaf;
    loop {
        if quarantined.contains(&cur) {
            return true;
        }
        match tree.parent(cur) {
            Some(p) => cur = p,
            None => return false,
        }
    }
}

/// Sub-threshold persistent-fault pressure of the root→`leaf` path: the
/// sum of persistent faults observed on every node a chain placed on
/// `leaf` would book stages on. The bias signal of fault-aware placement
/// (and, shard-aggregated, of the federation router).
fn path_fault_pressure(tree: &Tree, node_persistent: &[u32], leaf: NodeId) -> u64 {
    let mut pressure = 0u64;
    let mut cur = leaf;
    loop {
        pressure += u64::from(node_persistent.get(cur.0).copied().unwrap_or(0));
        match tree.parent(cur) {
            Some(p) => cur = p,
            None => return pressure,
        }
    }
}

/// The child-of-root subtree containing `node` (the node itself when it
/// hangs directly off the root, or is the root).
fn subtree_anchor(tree: &Tree, node: NodeId) -> NodeId {
    let mut cur = node;
    while let Some(p) = tree.parent(cur) {
        if p == tree.root() {
            return cur;
        }
        cur = p;
    }
    cur
}

/// Helper used by jobs that want "a chunk reservation on the staging
/// level": reserve `bytes` on the first level-1 node along the root's
/// first child (convenience for examples and tests).
pub fn staging_reservation(tree: &Tree, bytes: u64) -> Reservation {
    match tree.children(tree.root()).first() {
        Some(&c) => Reservation::new().with(c, bytes),
        None => Reservation::new().with(tree.root(), bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobWork;
    use crate::reference;
    use crate::slo::INTERACTIVE_TARGET;
    use northup::presets;
    use northup_hw::catalog;

    fn tree() -> Tree {
        presets::apu_two_level(catalog::ssd_hyperx_predator())
    }

    fn small_job(name: &str, tree: &Tree, frac_of_dram: f64, chunks: u32) -> JobSpec {
        let dram = tree.children(tree.root())[0];
        let budget = tree.node(dram).mem.capacity;
        let bytes = (budget as f64 * frac_of_dram) as u64;
        JobSpec::new(
            name,
            Reservation::new().with(dram, bytes),
            JobWork::new(chunks)
                .read(32 << 20)
                .xfer(32 << 20)
                .compute(SimDur::from_millis(2)),
        )
    }

    #[test]
    fn oversized_reservations_serialize() {
        let tree = tree();
        let dram = tree.children(tree.root())[0];
        let budget = tree.node(dram).mem.capacity;
        let mut sched = JobScheduler::new(tree.clone(), SchedulerConfig::default());
        let a = sched.submit(small_job("a", &tree, 0.6, 4));
        let b = sched.submit(small_job("b", &tree, 0.6, 4));
        let report = sched.run().unwrap();

        assert_eq!(report.job(a).state, JobState::Done);
        assert_eq!(report.job(b).state, JobState::Done);
        // b admitted only after a released.
        let a_release = report
            .admission_log
            .iter()
            .find(|e| e.job == a && e.kind == AdmissionEventKind::Released)
            .unwrap()
            .at;
        let b_admit = report.job(b).admitted_at.unwrap();
        assert!(b_admit >= a_release, "0.6+0.6 > 1.0 must serialize");
        // Committed bytes never exceed the budget at any sample.
        for s in report.capacity_trace() {
            assert!(s.committed <= budget, "sample {s:?} exceeds budget");
        }
        assert!(report.max_committed[dram.0] <= budget);
    }

    #[test]
    fn co_fitting_jobs_run_concurrently_and_beat_fifo() {
        let tree = tree();
        let make = |policy| {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    policy,
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..6 {
                s.submit(small_job(&format!("j{i}"), &tree, 0.3, 3));
            }
            s.run().unwrap()
        };
        let fair = make(AdmissionPolicy::WeightedFair);
        let fifo = make(AdmissionPolicy::Fifo);
        assert!(fair.all_terminal() && fifo.all_terminal());
        assert_eq!(fair.count(JobState::Done), 6);
        assert_eq!(fifo.count(JobState::Done), 6);
        assert!(
            fair.throughput > fifo.throughput,
            "concurrent admission ({:.2} jobs/s) must beat strict FIFO ({:.2} jobs/s)",
            fair.throughput,
            fifo.throughput
        );
    }

    #[test]
    fn backpressure_rejects_when_queue_is_full() {
        let tree = tree();
        let mut sched = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                max_queue: 2,
                ..SchedulerConfig::default()
            },
        );
        // One hog admitted immediately, then many waiters at the same time.
        sched.submit(small_job("hog", &tree, 0.9, 8));
        for i in 0..5 {
            sched.submit(small_job(&format!("w{i}"), &tree, 0.9, 1));
        }
        let report = sched.run().unwrap();
        assert!(
            report.count(JobState::Rejected) >= 3,
            "{}",
            report.summary()
        );
        assert!(report.all_terminal());
    }

    #[test]
    fn infeasible_reservation_is_rejected_at_arrival() {
        let tree = tree();
        let dram = tree.children(tree.root())[0];
        let too_big = tree.node(dram).mem.capacity + 1;
        let mut sched = JobScheduler::new(tree.clone(), SchedulerConfig::default());
        let id = sched.submit(JobSpec::new(
            "whale",
            Reservation::new().with(dram, too_big),
            JobWork::new(1).read(1 << 20),
        ));
        let report = sched.run().unwrap();
        assert_eq!(report.job(id).state, JobState::Rejected);
    }

    #[test]
    fn interactive_class_is_favored_but_batch_not_starved() {
        // A batch hog needing 90 % of DRAM queues behind a stream of
        // interactive jobs that fit three at a time, so while any of
        // them waits one is running and the hog never fits. Once the
        // hog's credit leads, every interactive admission bypasses it;
        // after `AGING_LIMIT` bypasses the guard holds the machine for
        // the hog, and the rest of the stream runs after it.
        let tree = tree();
        let mut sched = JobScheduler::new(tree.clone(), SchedulerConfig::default());
        for i in 0..24 {
            sched
                .submit(small_job(&format!("i{i}"), &tree, 0.3, 2).priority(Priority::Interactive));
        }
        let hog = sched.submit(
            small_job("hog", &tree, 0.9, 2)
                .priority(Priority::Batch)
                .arrival(SimTime::from_secs_f64(0.001)),
        );
        let report = sched.run().unwrap();
        assert_eq!(report.count(JobState::Done), 25, "{}", report.summary());
        let order: Vec<JobId> = report.admission_order().collect();
        let ahead = order.iter().position(|&j| j == hog).unwrap();
        assert!(
            ahead > AGING_LIMIT as usize,
            "interactive is favored: {ahead} admissions went first"
        );
        assert!(
            ahead < order.len() - 1,
            "the hog is admitted before the interactive stream drains"
        );
    }

    #[test]
    fn same_trace_same_schedule() {
        let tree = tree();
        let build = || {
            let mut s = JobScheduler::new(tree.clone(), SchedulerConfig::default());
            for i in 0..8 {
                let p = Priority::ALL[i % 3];
                s.submit(
                    small_job(&format!("j{i}"), &tree, 0.25 + 0.05 * (i % 3) as f64, 2)
                        .priority(p)
                        .arrival(SimTime::from_secs_f64(0.0001 * i as f64)),
                );
            }
            s.run().unwrap()
        };
        let r1 = build();
        let r2 = build();
        assert!(r1.admission_order().eq(r2.admission_order()));
        assert_eq!(r1.makespan, r2.makespan);
        assert!(r1.capacity_trace().eq(r2.capacity_trace()));
        assert_eq!(r1.chunk_log, r2.chunk_log);
    }

    #[test]
    fn interactive_arrival_evicts_batch_at_a_chunk_boundary() {
        let tree = tree();
        let mut sched = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                preempt: true,
                ..SchedulerConfig::default()
            },
        );
        let hog = sched.submit(small_job("batch-hog", &tree, 0.9, 16).priority(Priority::Batch));
        let vip = sched.submit(
            small_job("vip", &tree, 0.9, 2)
                .priority(Priority::Interactive)
                .arrival(SimTime::from_secs_f64(0.01)),
        );
        let report = sched.run().unwrap();
        // The interactive job ran *before* the batch hog drained...
        let vip_admit = report.job(vip).admitted_at.unwrap();
        let hog_finish = report.job(hog).finished_at.unwrap();
        assert!(
            vip_admit < hog_finish,
            "vip admitted at {vip_admit:?} must precede hog finish {hog_finish:?}"
        );
        assert_eq!(report.job(vip).state, JobState::Done);
        // ...and the evicted batch job still completed every chunk,
        // exactly once.
        assert_eq!(report.job(hog).state, JobState::Done);
        assert!(report.job(hog).preemptions >= 1);
        assert_eq!(report.job(hog).chunks_done, 16);
        let mut hog_chunks: Vec<u32> = report
            .chunk_log
            .iter()
            .filter(|c| c.job == hog)
            .map(|c| c.index)
            .collect();
        hog_chunks.sort_unstable();
        assert_eq!(hog_chunks, (0..16).collect::<Vec<_>>());
        assert!(!report.preemption_latencies.is_empty());
        assert!(report.all_terminal());
    }

    #[test]
    fn preemption_off_leaves_the_schedule_untouched() {
        let tree = tree();
        let build = |preempt| {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    preempt,
                    ..SchedulerConfig::default()
                },
            );
            // Everything co-fits: preemption never triggers, so the flag
            // must not change the schedule.
            for i in 0..6 {
                s.submit(
                    small_job(&format!("j{i}"), &tree, 0.2, 3)
                        .priority(Priority::ALL[i % 3])
                        .arrival(SimTime::from_secs_f64(0.001 * i as f64)),
                );
            }
            s.run().unwrap()
        };
        let off = build(false);
        let on = build(true);
        assert!(off.admission_order().eq(on.admission_order()));
        assert_eq!(off.makespan, on.makespan);
        assert!(off.capacity_trace().eq(on.capacity_trace()));
        assert_eq!(on.total_preemptions(), 0);
    }

    #[test]
    fn budget_shrink_with_drain_tightens_new_admissions_only() {
        let tree = tree();
        let dram = tree.children(tree.root())[0];
        let mut sched = JobScheduler::new(tree.clone(), SchedulerConfig::default());
        let full = NodeBudgets::from_tree(&tree, 1.0);
        let a = sched.submit(small_job("a", &tree, 0.8, 8));
        // Arrives after the shrink: 0.8 of DRAM no longer feasible.
        let b = sched.submit(small_job("b", &tree, 0.8, 2).arrival(SimTime::from_secs_f64(0.2)));
        sched.resize_budgets(SimTime::from_secs_f64(0.01), full.scaled(0.5));
        let report = sched.run().unwrap();
        assert_eq!(report.job(a).state, JobState::Done, "drain lets a finish");
        assert_eq!(
            report.job(b).state,
            JobState::Rejected,
            "b infeasible under the shrunk budget"
        );
        assert_eq!(report.resize_log.len(), 1);
        assert!(report.resize_log[0].budgets[dram.0] < full.get(dram));
        assert!(report.all_terminal());
    }

    #[test]
    fn budget_shrink_with_preempt_evicts_until_it_fits() {
        let tree = tree();
        let dram = tree.children(tree.root())[0];
        let mut sched = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                resize_drain: ResizeDrain::Preempt,
                ..SchedulerConfig::default()
            },
        );
        let full = NodeBudgets::from_tree(&tree, 1.0);
        let a = sched.submit(small_job("a", &tree, 0.4, 12));
        let shrink_at = SimTime::from_secs_f64(0.05);
        sched.resize_budgets(shrink_at, full.scaled(0.25));
        let report = sched.run().unwrap();
        // a (0.4 of DRAM) exceeds the 0.25 budget: evicted at a boundary,
        // then rejected on re-admission (its reservation is infeasible) —
        // unless it was already infeasible-queued at resize time.
        assert!(report.all_terminal());
        let a_out = report.job(a);
        assert!(a_out.preemptions >= 1, "must be evicted by the shrink");
        assert_eq!(a_out.state, JobState::Rejected);
        // After the eviction, committed bytes on DRAM fit the new budget.
        let new_budget = report.resize_log[0].budgets[dram.0];
        let after_shrink: Vec<_> = report
            .capacity_trace()
            .filter(|s| s.node == dram && s.at > shrink_at)
            .collect();
        assert!(!after_shrink.is_empty());
        assert!(after_shrink.iter().all(|s| s.committed <= new_budget));
    }

    #[test]
    fn preemption_targets_victims_on_the_blocking_nodes() {
        // Two Batch victims on *different* nodes: `bystander` holds root
        // storage bytes, `blocker` holds the DRAM bytes the Interactive
        // arrival needs. The old first-lower-class choice marked in pure
        // (class, recency) order — `bystander`, admitted most recently,
        // was displaced first even though evicting it frees nothing the
        // arrival can use. Targeted preemption skips it.
        let tree = tree();
        let root = tree.root();
        let dram = tree.children(root)[0];
        let root_bytes = (tree.node(root).mem.capacity as f64 * 0.6) as u64;
        let dram_bytes = (tree.node(dram).mem.capacity as f64 * 0.6) as u64;
        let mut sched = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                preempt: true,
                ..SchedulerConfig::default()
            },
        );
        // The right victim: chunky, on DRAM, admitted at t=0.
        let blocker = sched.submit(
            JobSpec::new(
                "blocker",
                Reservation::new().with(dram, dram_bytes),
                JobWork::new(8)
                    .read(32 << 20)
                    .xfer(32 << 20)
                    .compute(SimDur::from_millis(2)),
            )
            .priority(Priority::Batch),
        );
        // The wrong victim: compute-only quick chunks (no root-storage
        // contention) holding a *root* reservation, admitted after
        // `blocker` (so the recency-ordered scan visits it first) and
        // hitting chunk boundaries long before `blocker` does (so a
        // spurious mark would actually evict it — the unfiltered scan
        // measurably did, preemptions = 1).
        let bystander = sched.submit(
            JobSpec::new(
                "bystander",
                Reservation::new().with(root, root_bytes),
                JobWork::new(64).compute(SimDur::from_micros(100)),
            )
            .priority(Priority::Batch)
            .arrival(SimTime::from_secs_f64(0.001)),
        );
        let hi = sched.submit(
            JobSpec::new(
                "interactive",
                Reservation::new().with(dram, dram_bytes),
                JobWork::new(2)
                    .read(8 << 20)
                    .xfer(8 << 20)
                    .compute(SimDur::from_millis(1)),
            )
            .priority(Priority::Interactive)
            .arrival(SimTime::from_secs_f64(0.004)),
        );
        let report = sched.run().unwrap();
        assert!(report.all_terminal());
        assert_eq!(report.job(hi).state, JobState::Done);
        assert!(
            report.job(blocker).preemptions >= 1,
            "the DRAM holder must be displaced for the Interactive arrival"
        );
        assert_eq!(
            report.job(bystander).preemptions,
            0,
            "evicting the root-node job frees nothing the arrival needs"
        );
        assert_eq!(report.job(bystander).state, JobState::Done);
        assert_eq!(report.job(blocker).state, JobState::Done);
    }

    #[test]
    fn idle_slo_controller_never_perturbs_the_schedule() {
        // One-chunk jobs 40 ms apart finish in ~28 ms, so the Interactive
        // p99 stays under half its target (below the backpressure
        // threshold): the controller observes but must not act, and the
        // schedule is identical to a controller-free run (the control
        // tick only reads completions).
        let tree = tree();
        let build = |slo: Option<SloConfig>| {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    slo,
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..8 {
                s.submit(
                    small_job(&format!("j{i}"), &tree, 0.3, 1)
                        .priority(Priority::ALL[i % 3])
                        .arrival(SimTime::from_secs_f64(0.04 * i as f64)),
                );
            }
            s.run().unwrap()
        };
        let off = build(None);
        let on = build(Some(SloConfig::default()));
        assert!(off.admission_order().eq(on.admission_order()));
        assert_eq!(off.makespan, on.makespan);
        assert!(off.capacity_trace().eq(on.capacity_trace()));
        assert!(!on.slo_log.is_empty(), "the controller ticked");
        let half_target = SimDur(INTERACTIVE_TARGET.0 / 2);
        assert!(on.slo_log.iter().all(|s| s.p99[0] < half_target));
        assert!(on.slo_log.iter().all(|s| s.tier == 0));
        assert!(on.shed_log.is_empty());
        assert_eq!(on.capacity_needed_pct, 100);
        assert!(off.slo_log.is_empty(), "no controller, no samples");
    }

    /// Whether some capacity sample after the first resize holds more
    /// than the budgets then in force (the latest resize-log entry) on a
    /// node that was never fenced: committed bytes above a shrunk line,
    /// which only a drain leaves standing.
    fn drained_over_a_shrink(report: &SchedReport) -> bool {
        let fenced: BTreeSet<NodeId> = report.quarantine_log.iter().map(|q| q.node).collect();
        report.capacity_trace().any(|c| {
            let in_force = report.resize_log.iter().rfind(|r| r.at < c.at);
            in_force.is_some_and(|r| !fenced.contains(&c.node) && c.committed > r.budgets[c.node.0])
        })
    }

    /// The engine against the naive reference (`crate::reference`), every
    /// report field and every log entry by entry, with every event
    /// source on at once: preemption, faults with probation and
    /// fault-aware placement (fencing at the first or second persistent
    /// fault), a shrink and a restore under either drain
    /// mode, the SLO controller with autoscale, both admission policies,
    /// zero-chunk and all-zero-work jobs, and checkpoints before, at and
    /// past the chunk count. Work, arrivals and resizes run 35× slower
    /// than a 2 ms target would need, so the controller's 70 ms one is
    /// breached as often: it sheds, browns out and scales. Across the
    /// cases every decision the comparison could miss happens.
    #[test]
    fn engine_agrees_with_the_reference_entry_by_entry() {
        const CASES: u64 = 256;
        const SLOW: u64 = 35;
        let tree = presets::asymmetric_fig2();
        let (cpu, staging) = (NodeId(1), NodeId(3));
        let cap = |n: NodeId, frac: f64| (tree.node(n).mem.capacity as f64 * frac) as u64;
        let full = NodeBudgets::from_tree(&tree, 1.0);
        let mut seen: BTreeMap<&str, u32> = BTreeMap::new();
        for case in 0..CASES {
            let mut s = 0xd1ff_5eed ^ case;
            let mut draw = |n: u64| reference::mix(&mut s) % n;
            let fifo = draw(4) == 0;
            let drain = draw(2) == 0;
            let cfg = SchedulerConfig {
                max_queue: 12,
                policy: if fifo {
                    AdmissionPolicy::Fifo
                } else {
                    AdmissionPolicy::WeightedFair
                },
                preempt: true,
                resize_drain: if drain {
                    ResizeDrain::Drain
                } else {
                    ResizeDrain::Preempt
                },
                fault_plan: Some(
                    FaultPlan::new(draw(1_000))
                        .transient_rate(3000)
                        .persistent_rate(600),
                ),
                quarantine_after: 1 + draw(2) as u32,
                probation: true,
                fault_aware_placement: true,
                slo: Some(SloConfig { autoscale: true }),
            };
            let mut specs = Vec::new();
            for i in 0..1 + draw(40) {
                let on_cpu = 0.05 + draw(7_500) as f64 / 10_000.0;
                let on_staging = draw(6_000) as f64 / 10_000.0;
                let chunks = draw(6) as u32;
                // One or two reserved nodes: a two-entry reservation
                // yields two samples per transition.
                let res = Reservation::new()
                    .with(cpu, cap(cpu, on_cpu))
                    .with(staging, cap(staging, (on_staging - 0.3).max(0.0)));
                let work = match draw(16) {
                    0 => JobWork::new(chunks),
                    _ => JobWork::new(chunks)
                        .read(SLOW * (8 << 20))
                        .xfer(SLOW * (8 << 20))
                        .compute(SimDur::from_micros(SLOW * 400)),
                };
                let mut spec = JobSpec::new(format!("d{i}"), res, work)
                    .priority(Priority::ALL[draw(3) as usize])
                    .tenant(TenantId(draw(3) as u32))
                    .arrival(SimTime(SLOW * draw(20_000) * 1_000));
                if draw(4) == 0 {
                    spec = spec.resume_from(draw(u64::from(chunks) + 3) as u32);
                }
                specs.push(spec);
            }
            let resizes = vec![
                (
                    SimTime::ZERO + SimDur::from_millis(SLOW * 4),
                    full.scaled(0.5),
                ),
                (SimTime::ZERO + SimDur::from_millis(SLOW * 12), full.clone()),
            ];
            let report = reference::agree(&tree, cfg, specs, resizes)
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert!(report.all_terminal(), "case {case}");
            let kinds = |k| report.admission_log.iter().any(|e| e.kind == k);
            for (what, happened) in [
                ("Preempted", kinds(AdmissionEventKind::Preempted)),
                ("FaultEvicted", kinds(AdmissionEventKind::FaultEvicted)),
                ("quarantine", !report.quarantine_log.is_empty()),
                ("restore", !report.restore_log.is_empty()),
                ("shed", !report.shed_log.is_empty()),
                ("degraded", report.degraded_jobs() > 0),
                (
                    "autoscale",
                    report.slo_log.iter().any(|t| t.scale_pct > 100),
                ),
                (
                    "QueueFull",
                    report.rejected_for(RejectReason::QueueFull) > 0,
                ),
                ("drain shrink", drain && drained_over_a_shrink(&report)),
            ] {
                *seen.entry(what).or_insert(0) += u32::from(happened);
            }
        }
        assert!(
            seen.values().all(|&n| n > 0),
            "cases per decision: {seen:?}"
        );
    }

    /// The comparison above is not vacuous on a fixed trace either: the
    /// same knobs do evict, fault, fence, restore and resize, and the
    /// engine and the reference still agree sample for sample.
    #[test]
    fn derived_series_hold_through_evictions_faults_and_resizes() {
        let tree = presets::asymmetric_fig2();
        let node = NodeId(1);
        let bytes = tree.node(node).mem.capacity / 10 * 4;
        let cfg = SchedulerConfig {
            preempt: true,
            resize_drain: ResizeDrain::Preempt,
            fault_plan: Some(FaultPlan::new(11).transient_rate(3000).persistent_rate(900)),
            quarantine_after: 2,
            probation: true,
            ..SchedulerConfig::default()
        };
        let specs = (0..24u64)
            .map(|i| {
                JobSpec::new(
                    format!("j{i}"),
                    Reservation::new()
                        .with(node, bytes)
                        .with(NodeId(3), 1 << 20),
                    JobWork::new(6).read(8 << 20).xfer(8 << 20),
                )
                .priority(Priority::ALL[2 - (i % 3) as usize])
                .arrival(SimTime::from_secs_f64(0.0007 * i as f64))
            })
            .collect();
        let full = NodeBudgets::from_tree(&tree, 1.0);
        let resizes = vec![
            (SimTime::from_secs_f64(0.004), full.scaled(0.5)),
            (SimTime::from_secs_f64(0.02), full),
        ];
        let report = reference::agree(&tree, cfg, specs, resizes).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.all_terminal());
        let kinds = |k| report.admission_log.iter().filter(|e| e.kind == k).count();
        assert!(
            kinds(AdmissionEventKind::Preempted) > 0,
            "{}",
            report.summary()
        );
        assert!(
            kinds(AdmissionEventKind::FaultEvicted) > 0,
            "{}",
            report.summary()
        );
        assert!(!report.quarantine_log.is_empty(), "{}", report.summary());
        assert!(!report.restore_log.is_empty(), "{}", report.summary());
        assert_eq!(report.resize_log.len(), 2);
        assert_eq!(
            report.capacity_trace().count(),
            2 * report.admission_log.len(),
            "two reserved nodes, two samples per transition"
        );
    }

    #[test]
    fn a_resize_budget_vector_longer_than_the_tree_is_a_typed_error() {
        // A 2-node scheduler given a 9-node budget vector, and a job
        // reserving node 8 that the longer vector calls feasible.
        let tree = tree();
        let mut s = JobScheduler::new(tree, SchedulerConfig::default());
        let far = NodeBudgets::from_tree(&presets::fleet_shard(), 1.0);
        s.resize_budgets(SimTime::ZERO + SimDur::from_millis(1), far);
        s.submit(
            JobSpec::new(
                "far",
                Reservation::new().with(NodeId(8), 1 << 20),
                JobWork::new(1).read(1 << 20),
            )
            .arrival(SimTime::ZERO + SimDur::from_millis(10)),
        );
        let out = s.run();
        assert!(
            matches!(
                out,
                Err(SchedError::BudgetLength {
                    resize: 0,
                    len: 9,
                    nodes: 2
                })
            ),
            "{out:?}"
        );
    }

    #[test]
    fn stale_queue_entries_never_outlive_the_oldest_waiter() {
        // `fifo_live()` walks `fifo` end to end, so `fifo.len()` is what
        // every resize, fence and preemption boundary pays. Admission by
        // class head (weighted fair) used to leave it one entry per job
        // ever enqueued.
        const JOBS: usize = 100_000;
        let mut q = JobQueues::new(JOBS + 8);
        for i in 0..JOBS {
            let id = JobId(i as u64);
            q.push_back(id, i % 3);
            assert_eq!(q.class_head(i % 3), Some(id));
            q.remove(id);
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.fifo.len(), 0, "nothing waits, nothing is scanned");
        // A sliding window of waiters admitted out of arrival order:
        // the scan never exceeds the span the oldest waiter pins.
        const WINDOW: usize = 64;
        let mut q = JobQueues::new(JOBS);
        for i in 0..JOBS {
            q.push_back(JobId(i as u64), i % 3);
            if i >= WINDOW {
                // Newest-arrived class head first, oldest last.
                let c = (0..3)
                    .filter(|&c| q.class_head(c).is_some())
                    .max_by_key(|&c| (i + c) % 3)
                    .unwrap();
                q.remove(q.class_head(c).unwrap());
            }
            assert!(q.fifo.len() <= q.len() + WINDOW, "at job {i}");
        }
        assert_eq!(q.len(), WINDOW);
        assert_eq!(q.fifo_live().count(), WINDOW);
        // Drain from the front: no stale entry survives its head.
        while let Some(id) = q.fifo_head() {
            q.remove(id);
            assert!(q.fifo.len() <= q.len() + WINDOW);
        }
        assert!(q.fifo.is_empty() && q.class.iter().all(VecDeque::is_empty));
    }

    /// A chunky job with no reservation (always admissible) — fault
    /// tests exercise placement/re-routing, not capacity.
    fn free_job(name: &str, chunks: u32) -> JobSpec {
        JobSpec::new(
            name,
            Reservation::new(),
            JobWork::new(chunks)
                .read(16 << 20)
                .xfer(16 << 20)
                .compute(SimDur::from_millis(1))
                .write(8 << 20),
        )
    }

    #[test]
    fn transient_faults_retry_and_recover_every_job() {
        let tree = tree();
        let build = || {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    // ~4.6% per booking: plenty of faults, yet 4 bounded
                    // attempts make an exhaustion astronomically unlikely.
                    fault_plan: Some(FaultPlan::new(42).transient_rate(3000)),
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..6 {
                s.submit(small_job(&format!("j{i}"), &tree, 0.3, 6));
            }
            s.run().unwrap()
        };
        let report = build();
        assert!(report.all_terminal());
        assert_eq!(report.count(JobState::Done), 6, "{}", report.summary());
        assert!(!report.fault_log.is_empty(), "the plan must inject");
        assert!(report.total_retries() > 0);
        assert!(report.total_backoff() > SimDur::ZERO);
        assert!(report.jobs_recovered() > 0);
        assert!(report.quarantine_log.is_empty(), "transient-only plan");
        // Bit-identical chaos: the whole report, field for field.
        let again = build();
        assert_eq!(format!("{report:?}"), format!("{again:?}"));
    }

    #[test]
    fn inactive_fault_plan_leaves_the_schedule_untouched() {
        let tree = tree();
        let build = |plan| {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    fault_plan: plan,
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..5 {
                s.submit(
                    small_job(&format!("j{i}"), &tree, 0.35, 3)
                        .arrival(SimTime::from_secs_f64(0.0002 * i as f64)),
                );
            }
            s.run().unwrap()
        };
        let off = build(None);
        let on = build(Some(FaultPlan::new(9))); // zero rates, no scripts
        assert!(off.admission_order().eq(on.admission_order()));
        assert_eq!(off.makespan, on.makespan);
        assert!(off.capacity_trace().eq(on.capacity_trace()));
        assert_eq!(off.chunk_log, on.chunk_log);
        assert!(on.fault_log.is_empty());
    }

    #[test]
    fn persistent_faults_quarantine_the_node_and_reroute_chains() {
        let tree = presets::asymmetric_fig2();
        let sick = NodeId(1); // the CPU/DRAM leaf of subtree 1
        let build = || {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    fault_plan: Some(FaultPlan::new(7).persistent_rate(65536).on_nodes([sick])),
                    quarantine_after: 2,
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..5 {
                s.submit(free_job(&format!("j{i}"), 3));
            }
            s.run().unwrap()
        };
        let report = build();
        assert!(report.all_terminal());
        assert_eq!(report.quarantined_nodes(), vec![sick]);
        assert_eq!(report.quarantine_log[0].faults, 2);
        // Every job completed on a surviving leaf — graceful degradation,
        // not mass failure.
        assert_eq!(report.count(JobState::Done), 5, "{}", report.summary());
        for j in &report.jobs {
            assert_ne!(j.leaf, Some(sick), "{} still on the fenced leaf", j.name);
        }
        // At least one chain was displaced and re-targeted by build_chain.
        assert!(report.jobs.iter().any(|j| j.fault.reroutes > 0));
        assert!(report.jobs_recovered() > 0);
        // Chunks still execute exactly once each across the re-routes.
        for j in &report.jobs {
            let mut idx: Vec<u32> = report
                .chunk_log
                .iter()
                .filter(|c| c.job == j.id)
                .map(|c| c.index)
                .collect();
            idx.sort_unstable();
            assert_eq!(idx, (0..j.chunks_done).collect::<Vec<_>>());
        }
        let again = build();
        assert_eq!(format!("{report:?}"), format!("{again:?}"));
    }

    #[test]
    fn quarantine_rejects_and_fails_jobs_bound_to_the_fenced_node() {
        let tree = presets::asymmetric_fig2();
        let sick = NodeId(1);
        let bytes = tree.node(sick).mem.capacity / 4;
        let mut s = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                fault_plan: Some(FaultPlan::new(3).persistent_rate(65536).on_nodes([sick])),
                quarantine_after: 2,
                ..SchedulerConfig::default()
            },
        );
        // Holds capacity on the node that dies: displaced by its own
        // faults, then failed when the fence zeroes the budget.
        let doomed = s.submit(JobSpec::new(
            "doomed",
            Reservation::new().with(sick, bytes),
            JobWork::new(4).read(16 << 20).xfer(16 << 20),
        ));
        // Arrives long after the quarantine: rejected at arrival because
        // the surviving envelope cannot ever hold its reservation.
        let late = s.submit(
            JobSpec::new(
                "late",
                Reservation::new().with(sick, bytes),
                JobWork::new(1).read(1 << 20),
            )
            .arrival(SimTime::from_secs_f64(30.0)),
        );
        // A bystander with no stake in the sick node sails through.
        let fine = s.submit(free_job("fine", 2));
        let report = s.run().unwrap();
        assert!(report.all_terminal());
        assert_eq!(report.job(doomed).state, JobState::Failed);
        assert!(report.job(doomed).fault.persistent > 0);
        assert_eq!(report.job(late).state, JobState::Rejected);
        assert_eq!(report.job(fine).state, JobState::Done);
        assert_eq!(report.quarantined_nodes(), vec![sick]);
        // Fault accounting is visible in the one-line summary.
        assert!(report.summary().contains("quarantined"));
    }

    #[test]
    fn root_quarantine_fails_the_remaining_trace_gracefully() {
        let tree = tree();
        let root = tree.root();
        let mut s = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                // The very first root booking (job 0's first Read) is a
                // persistent fault and the threshold is 1: the root — for
                // which no sibling exists — is fenced immediately.
                fault_plan: Some(FaultPlan::new(0).script(root, 0, FaultKind::Persistent)),
                quarantine_after: 1,
                ..SchedulerConfig::default()
            },
        );
        for i in 0..3 {
            s.submit(free_job(&format!("j{i}"), 2));
        }
        let report = s.run().unwrap();
        assert!(report.all_terminal(), "no stuck jobs even with a dead root");
        assert_eq!(report.quarantined_nodes(), vec![root]);
        assert_eq!(report.count(JobState::Done), 0);
        assert!(report.count(JobState::Failed) >= 1);
    }

    #[test]
    fn retry_exhaustion_escalates_to_the_persistent_path() {
        let tree = tree();
        let root = tree.root();
        // Script a transient fault at every root ordinal the job can
        // reach: each placement's first stage exhausts its retries and
        // escalates, until the job has been displaced past the cap.
        let mut plan = FaultPlan::new(5);
        for ord in 0..u64::from((MAX_JOB_FAULTS + 1) * RETRY_ATTEMPTS) {
            plan = plan.script(root, ord, FaultKind::Transient);
        }
        let mut s = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                fault_plan: Some(plan),
                quarantine_after: u32::MAX, // never fence: exercise MAX_JOB_FAULTS
                ..SchedulerConfig::default()
            },
        );
        let id = s.submit(free_job("unlucky", 2));
        let report = s.run().unwrap();
        assert!(report.all_terminal());
        let out = report.job(id);
        assert_eq!(out.state, JobState::Failed);
        assert_eq!(
            out.fault.reroutes,
            MAX_JOB_FAULTS + 1,
            "displaced past the cap"
        );
        assert_eq!(
            out.fault.retries,
            out.fault.reroutes * (RETRY_ATTEMPTS - 1),
            "every placement retried its stage to exhaustion"
        );
        // The admission log balances: every commit is matched by exactly
        // one release-like event (Released / Preempted / FaultEvicted).
        let count =
            |k: AdmissionEventKind| report.admission_log.iter().filter(|e| e.kind == k).count();
        assert_eq!(
            count(AdmissionEventKind::Admitted),
            count(AdmissionEventKind::Released)
                + count(AdmissionEventKind::Preempted)
                + count(AdmissionEventKind::FaultEvicted)
        );
    }

    #[test]
    fn probation_restores_a_fenced_node_after_a_fault_free_window() {
        let tree = presets::asymmetric_fig2();
        let sick = NodeId(1);
        let bytes = tree.node(sick).mem.capacity / 4;
        let build = || {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    // Exactly two persistent faults (ordinals 0 and 1);
                    // every later consultation — the probes included —
                    // is clean.
                    fault_plan: Some(
                        FaultPlan::new(11)
                            .script(sick, 0, FaultKind::Persistent)
                            .script(sick, 1, FaultKind::Persistent),
                    ),
                    quarantine_after: 2,
                    probation: true,
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..4 {
                s.submit(free_job(&format!("j{i}"), 3));
            }
            // Arrives long after the restore and needs the once-fenced
            // node's capacity: only a genuinely restored budget admits it.
            s.submit(
                JobSpec::new(
                    "late",
                    Reservation::new().with(sick, bytes),
                    JobWork::new(1).read(1 << 20),
                )
                .arrival(SimTime::from_secs_f64(5.0)),
            );
            s.run().unwrap()
        };
        let report = build();
        assert!(report.all_terminal());
        assert_eq!(report.quarantined_nodes(), vec![sick]);
        assert_eq!(report.restore_log.len(), 1);
        assert_eq!(report.restore_log[0].node, sick);
        let restore = report.restore_log[0];
        assert_eq!(restore.attempt, 1, "first probe was already clean");
        assert!(restore.budget > 0, "pre-fence budget came back");
        assert_eq!(restore.at - report.quarantine_log[0].at, PROBE_WINDOW);
        assert_eq!(report.count(JobState::Done), 5, "{}", report.summary());
        assert!(report.summary().contains("restored"));
        let again = build();
        assert_eq!(format!("{report:?}"), format!("{again:?}"));
    }

    #[test]
    fn probation_hysteresis_keeps_an_unstable_node_fenced_for_good() {
        let tree = presets::asymmetric_fig2();
        let sick = NodeId(1);
        let bytes = tree.node(sick).mem.capacity / 4;
        let build = |probation| {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    // Every consultation faults: each probe finds the
                    // node still dirty, and after `MAX_PROBES` probes the
                    // fence is permanent — the run still terminates.
                    fault_plan: Some(FaultPlan::new(7).persistent_rate(65536).on_nodes([sick])),
                    quarantine_after: 2,
                    probation,
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..4 {
                s.submit(free_job(&format!("j{i}"), 3));
            }
            s.submit(
                JobSpec::new(
                    "late",
                    Reservation::new().with(sick, bytes),
                    JobWork::new(1).read(1 << 20),
                )
                .arrival(SimTime::from_secs_f64(30.0)),
            );
            s.run().unwrap()
        };
        let (report, fenced) = (build(true), build(false));
        let late = JobId(4); // submitted after the four free jobs
        assert!(report.all_terminal(), "bounded probes: no infinite probing");
        assert_eq!(report.quarantined_nodes(), vec![sick]);
        assert!(report.restore_log.is_empty(), "never flapped back in");
        assert_eq!(report.job(late).state, JobState::Rejected);
        // The dirty probes are the only events probation added: exactly
        // `MAX_PROBES` of them, then nothing.
        assert_eq!(report.events, fenced.events + u64::from(MAX_PROBES));
    }

    #[test]
    fn fault_aware_placement_steers_off_a_sickening_leaf_before_quarantine() {
        let tree = presets::asymmetric_fig2();
        let sick = NodeId(1);
        let build = || {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    // The node faults on every booking but the threshold is
                    // unreachable: only the placement bias can save the jobs.
                    fault_plan: Some(FaultPlan::new(3).persistent_rate(65536).on_nodes([sick])),
                    quarantine_after: u32::MAX,
                    fault_aware_placement: true,
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..5 {
                s.submit(
                    free_job(&format!("j{i}"), 3).arrival(SimTime::from_secs_f64(0.02 * i as f64)),
                );
            }
            s.run().unwrap()
        };
        let report = build();
        assert!(report.all_terminal());
        assert!(report.quarantine_log.is_empty(), "threshold never tripped");
        // The bias signal only exists because something faulted first…
        assert!(report.fault_log.iter().any(|f| f.node == sick));
        assert!(*report.node_fault_pressure().get(&sick).unwrap_or(&0) >= 1);
        // …after which every chain drifted to (or re-routed onto) a
        // healthy leaf and completed — no job stuck on the sick one.
        assert_eq!(report.count(JobState::Done), 5, "{}", report.summary());
        for j in &report.jobs {
            assert_ne!(j.leaf, Some(sick), "{} ended on the sick leaf", j.name);
        }
        let again = build();
        assert_eq!(format!("{report:?}"), format!("{again:?}"));
    }

    #[test]
    fn resume_from_skips_checkpointed_chunks_exactly() {
        let tree = tree();
        let mut s = JobScheduler::new(tree.clone(), SchedulerConfig::default());
        // Migrated in with 2 of 4 chunks already done elsewhere: only
        // chunks 2 and 3 run here, with their original indices.
        let resumed = s.submit(
            JobSpec::new(
                "resumed",
                Reservation::new(),
                JobWork::new(4).read(8 << 20).xfer(8 << 20),
            )
            .resume_from(2),
        );
        // A stale checkpoint claiming more chunks than the work declares
        // is clamped: nothing runs, the job completes at admission.
        let ghost = s.submit(
            JobSpec::new("ghost", Reservation::new(), JobWork::new(3).read(8 << 20)).resume_from(9),
        );
        let report = s.run().unwrap();
        assert!(report.all_terminal());
        assert_eq!(report.job(resumed).state, JobState::Done);
        assert_eq!(report.job(resumed).chunks_done, 4);
        let mut idx: Vec<u32> = report
            .chunk_log
            .iter()
            .filter(|c| c.job == resumed)
            .map(|c| c.index)
            .collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![2, 3], "checkpointed chunks never re-run");
        assert_eq!(report.job(ghost).state, JobState::Done);
        assert_eq!(report.job(ghost).chunks_done, 3, "clamped to the work");
        assert!(!report.chunk_log.iter().any(|c| c.job == ghost));
        assert!(report.events > 0);
    }

    #[test]
    fn every_infeasible_route_settles_typed_and_the_fault_dead_end_fails() {
        let tree = presets::asymmetric_fig2();
        let node = NodeId(1); // the lowest leaf: first placement lands here
        let cap = tree.node(node).mem.capacity;
        let job = |name: &str, bytes: u64, chunks: u32| {
            JobSpec::new(
                name,
                Reservation::new().with(node, bytes),
                JobWork::new(chunks).read(16 << 20).xfer(16 << 20),
            )
        };
        let big = cap / 10 * 6; // two of these never co-fit
        let shrink = |s: &mut JobScheduler| {
            let half = NodeBudgets::from_tree(&tree, 1.0).scaled(0.5);
            s.resize_budgets(SimTime::from_secs_f64(0.001), half);
        };
        let with = |cfg: SchedulerConfig| JobScheduler::new(tree.clone(), cfg);
        let preempt_on_shrink = SchedulerConfig {
            resize_drain: ResizeDrain::Preempt,
            ..SchedulerConfig::default()
        };
        let fence_on_first_fault = SchedulerConfig {
            fault_plan: Some(FaultPlan::new(3).persistent_rate(65536).on_nodes([node])),
            quarantine_after: 1,
            ..SchedulerConfig::default()
        };

        // Each row: route, its run, the job under test, its expected
        // terminal state, and the kind of its last admission-log entry.
        let check = |route: &str, report: &SchedReport, id: JobId, state, last_kind| {
            assert!(report.all_terminal(), "{route}");
            let out = report.job(id);
            assert_eq!(out.state, state, "{route}");
            let reason = (state == JobState::Rejected).then_some(RejectReason::Infeasible);
            assert_eq!(out.reject_reason, reason, "{route}");
            // Displaced jobs settle inside `displace`: their last log
            // entry is the eviction itself, at the settle time, with no
            // `Released` after it. Never-admitted jobs have no entry.
            let last = report.admission_log.iter().rfind(|e| e.job == id);
            assert_eq!(last.map(|e| e.kind), last_kind, "{route}");
            if let Some(e) = last {
                assert_eq!(Some(e.at), out.finished_at, "{route}");
                let evictions = u32::from(e.kind == AdmissionEventKind::Preempted);
                assert_eq!(out.preemptions, evictions, "{route}");
            }
        };
        let (rejected, failed) = (JobState::Rejected, JobState::Failed);

        let mut s = with(SchedulerConfig::default());
        let whale = s.submit(job("whale", cap + 1, 1));
        check("arrival", &s.run().unwrap(), whale, rejected, None);

        let mut s = with(SchedulerConfig::default());
        s.submit(job("hog", big, 12));
        let waiter = s.submit(job("waiter", big, 1));
        shrink(&mut s);
        check("shrink sweep", &s.run().unwrap(), waiter, rejected, None);

        let mut s = with(preempt_on_shrink);
        let victim = s.submit(job("victim", big, 12));
        shrink(&mut s);
        let evicted = Some(AdmissionEventKind::Preempted);
        check("shrink evict", &s.run().unwrap(), victim, rejected, evicted);

        // One run, two routes: the first fault on `node` fences it, which
        // sweeps the waiter and dead-ends the displaced holder.
        let mut s = with(fence_on_first_fault);
        let doomed = s.submit(job("doomed", big, 4));
        let waiter = s.submit(job("waiter", big, 1));
        let report = s.run().unwrap();
        let displaced = Some(AdmissionEventKind::FaultEvicted);
        check("fence sweep", &report, waiter, rejected, None);
        check("fault dead end", &report, doomed, failed, displaced);
    }
}
