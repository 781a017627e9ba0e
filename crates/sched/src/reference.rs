//! A deliberately naive reference scheduler: the oracle the engine in
//! [`crate::scheduler`] is differentially tested against (DESIGN.md §6).
//!
//! It makes every decision the engine makes — arrival refusal, the
//! weighted-fair pass with its aging guard, strict FIFO, placement under
//! fault pressure, preempt/resize marking and revalidation at the chunk
//! boundary, retry, quarantine and probation, the shed victim order,
//! autoscale, and report assembly — with its own code and the plainest
//! containers: events in one sorted `Vec`, job state in a `BTreeMap`,
//! each class queue and the arrival order a `Vec<JobId>`, a compiled
//! chain per admission, and every count (jobs holding capacity, queue
//! lengths) taken by scanning. It shares only leaf models with tests of
//! their own: [`SimFabric::serve`], [`build_chain`],
//! `FaultPlan::decide`/`jitter`, [`retry_backoff`], [`NodeBudgets`] and
//! `Reservation`, [`WorkQueues`], [`DegradeLevel::apply`] and
//! [`SloState::tick`].

#![cfg(test)]

use crate::fabric::SimFabric;
use crate::job::{JobId, JobSpec, JobState, JobWork, Priority, SloClass};
use crate::log::Log;
use crate::reserve::NodeBudgets;
use crate::scheduler::{
    AdmissionEvent, AdmissionEventKind, AdmissionPolicy, CapacitySample, ChunkSample, FaultOutcome,
    FaultSample, JobOutcome, JobScheduler, QuarantineSample, ResizeDrain, ResizeSample,
    RestoreSample, SchedReport, SchedulerConfig,
};
use crate::slo::{DegradeLevel, RejectReason, ShedOutcome, SloState, TICK};
use northup::fabric::{build_chain, ChunkChain};
use northup::fault::{retry_backoff, FaultKind, RETRY_ATTEMPTS};
use northup::{NodeId, Tree, WorkQueues};
use northup_sim::{SimDur, SimTime};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Debug;

// The engine's policy constants, restated: bypasses before the aging
// guard holds a class, fault displacements a job survives, and the
// probation schedule (first window, consults per probe, window growth
// per probe, probes per node).
const AGING_LIMIT: u32 = 8;
const MAX_JOB_FAULTS: u32 = 8;
const PROBE_WINDOW: SimDur = SimDur::from_millis(50);
const PROBE_CONSULTS: u32 = 8;
const PROBE_BACKOFF: u64 = 4;
const MAX_PROBES: u32 = 3;

/// Event kinds in processing order at equal virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    StageDone,
    Retry,
    Resize,
    Arrival,
    Probe,
    Control,
}

/// One job: the outcome the report will carry, kept current, plus what
/// the run needs to drive it.
struct Job {
    out: JobOutcome,
    work: JobWork,
    /// The chain of the current placement and the stage in flight.
    chain: Option<ChunkChain>,
    stage: usize,
    preempt_mark: bool,
    resize_mark: bool,
    fault_mark: bool,
    requested_at: Option<SimTime>,
    /// Failed serve attempts of the current stage.
    attempts: u32,
}

/// What a reference run produced: the report, plus the two series the
/// engine derives from its admission log, recorded here as they happen.
pub(crate) struct Reference {
    pub report: SchedReport,
    pub admission_order: Vec<JobId>,
    pub capacity_trace: Vec<CapacitySample>,
}

/// Replay `specs` (in `JobId` order) and `resizes` on `tree` under `cfg`,
/// starting from the tree's full budgets — what `JobScheduler::run` does.
pub(crate) fn run(
    tree: &Tree,
    cfg: &SchedulerConfig,
    specs: &[JobSpec],
    resizes: &[(SimTime, NodeBudgets)],
) -> Reference {
    let budgets = NodeBudgets::from_tree(tree, 1.0);
    let mut r = Ref {
        tree,
        cfg,
        resizes,
        base: budgets.snapshot(),
        budgets,
        events: Vec::new(),
        pushed: 0,
        jobs: BTreeMap::new(),
        class: [Vec::new(), Vec::new(), Vec::new()],
        fifo: Vec::new(),
        credits: [0; 3],
        starve: [0; 3],
        blocked: None,
        committed: vec![0; tree.len()],
        fabric: SimFabric::new(tree),
        wq: WorkQueues::new(tree),
        ordinals: vec![0; tree.len()],
        persistent: vec![0; tree.len()],
        probes: vec![0; tree.len()],
        fenced: BTreeMap::new(),
        slo: cfg.slo.clone().map(SloState::new),
        scale_applied: 100,
        ticks: 0,
        report: SchedReport {
            jobs: Vec::new(),
            makespan: SimDur::ZERO,
            throughput: 0.0,
            p50_latency: SimDur::ZERO,
            p99_latency: SimDur::ZERO,
            rejection_rate: 0.0,
            admission_log: Log::new(),
            max_committed: vec![0; tree.len()],
            chunk_log: Log::new(),
            resize_log: Vec::new(),
            preemption_latencies: Vec::new(),
            fault_log: Vec::new(),
            quarantine_log: Vec::new(),
            restore_log: Vec::new(),
            events: 0,
            shed_log: Vec::new(),
            slo_log: Vec::new(),
            capacity_needed_pct: 100,
        },
        order: Vec::new(),
        capacity: Vec::new(),
    };
    for (i, s) in specs.iter().enumerate() {
        let out = JobOutcome {
            id: JobId(i as u64),
            name: s.name.clone(),
            tenant: s.tenant,
            priority: s.priority,
            state: JobState::Queued,
            arrival: s.arrival,
            admitted_at: None,
            finished_at: None,
            leaf: None,
            reservation: s.reservation.clone(),
            chunks_done: s.start_chunk.min(s.work.chunks),
            preemptions: 0,
            fault: FaultOutcome::default(),
            reject_reason: None,
            degrade: 0,
        };
        let job = Job {
            out,
            work: s.work.clone(),
            chain: None,
            stage: 0,
            preempt_mark: false,
            resize_mark: false,
            fault_mark: false,
            requested_at: None,
            attempts: 0,
        };
        r.jobs.insert(JobId(i as u64), job);
        r.push(s.arrival, Kind::Arrival, i as u64);
    }
    for (i, (at, _)) in resizes.iter().enumerate() {
        r.push(*at, Kind::Resize, i as u64);
    }
    if cfg.slo.is_some() {
        r.push(SimTime::ZERO + TICK, Kind::Control, 0);
        r.ticks = 1;
    }
    // Sorted descending: the earliest event is the last element.
    while let Some((t, kind, id, _)) = r.events.pop() {
        r.report.events += 1;
        match kind {
            Kind::StageDone => r.stage_done(JobId(id), t),
            Kind::Retry => r.book(JobId(id), t),
            Kind::Resize => r.resize(id as usize, t),
            Kind::Arrival => r.arrival(JobId(id), t),
            Kind::Probe => r.probe(NodeId(id as usize), t),
            Kind::Control => r.control(t),
        }
    }
    r.into_reference()
}

struct Ref<'a> {
    tree: &'a Tree,
    cfg: &'a SchedulerConfig,
    resizes: &'a [(SimTime, NodeBudgets)],
    /// Budgets at run start: what autoscale percentages apply to.
    base: Vec<u64>,
    budgets: NodeBudgets,
    /// `(time, kind, id, push count)`, sorted descending.
    events: Vec<(SimTime, Kind, u64, u64)>,
    pushed: u64,
    jobs: BTreeMap<JobId, Job>,
    /// Waiters per class (Interactive, Normal, Batch), oldest first, and
    /// all waiters in one order, oldest first.
    class: [Vec<JobId>; 3],
    fifo: Vec<JobId>,
    credits: [u64; 3],
    starve: [u32; 3],
    blocked: Option<usize>,
    committed: Vec<u64>,
    fabric: SimFabric,
    wq: WorkQueues,
    ordinals: Vec<u64>,
    persistent: Vec<u32>,
    probes: Vec<u32>,
    /// Fenced nodes and the budget each gets back on restore.
    fenced: BTreeMap<NodeId, u64>,
    slo: Option<SloState>,
    scale_applied: u32,
    ticks: u64,
    /// The report, its logs filled in as the run goes.
    report: SchedReport,
    order: Vec<JobId>,
    capacity: Vec<CapacitySample>,
}

/// Queue index of a priority: its position in `Priority::ALL`.
fn class_of(p: Priority) -> usize {
    Priority::ALL.iter().position(|&q| q == p).unwrap_or(0)
}

/// A job that holds its reservation.
fn holds(state: JobState) -> bool {
    matches!(state, JobState::Admitted | JobState::Running)
}

impl Ref<'_> {
    fn push(&mut self, t: SimTime, kind: Kind, id: u64) {
        let ev = (t, kind, id, self.pushed);
        self.pushed += 1;
        let at = self.events.partition_point(|e| *e > ev);
        self.events.insert(at, ev);
    }

    fn job(&mut self, id: JobId) -> &mut Job {
        self.jobs.get_mut(&id).expect("events name submitted jobs")
    }

    fn out(&self, id: JobId) -> &JobOutcome {
        &self.jobs[&id].out
    }

    fn dequeue(&mut self, id: JobId) {
        self.fifo.retain(|&j| j != id);
        for q in &mut self.class {
            q.retain(|&j| j != id);
        }
    }

    fn settle(&mut self, id: JobId, t: SimTime, state: JobState) {
        let out = &mut self.job(id).out;
        out.state = state;
        out.finished_at = Some(t);
    }

    fn reject(&mut self, id: JobId, t: SimTime, reason: RejectReason) {
        self.settle(id, t, JobState::Rejected);
        self.job(id).out.reject_reason = Some(reason);
    }

    fn arrival(&mut self, id: JobId, t: SimTime) {
        let out = self.out(id);
        let c = class_of(out.priority);
        let feasible = self.budgets.feasible(&out.reservation);
        let best_effort = SloClass::for_priority(out.priority) == SloClass::BestEffort;
        if let Some(slo) = self.slo.as_mut() {
            slo.on_arrival(c);
        }
        let capped = match self.slo.as_ref().and_then(|s| s.batch_cap) {
            Some(cap) => best_effort && self.class[c].len() >= cap as usize,
            None => false,
        };
        if !feasible {
            self.reject(id, t, RejectReason::Infeasible);
        } else if self.fifo.len() >= self.cfg.max_queue || capped {
            self.reject(id, t, RejectReason::QueueFull);
        } else {
            self.class[c].push(id);
            self.fifo.push(id);
            self.admit_pass(t);
            if self.cfg.preempt && self.out(id).state == JobState::Queued {
                self.try_preempt(id, t);
            }
        }
    }

    /// Reject every waiter that can never fit the budgets now in force.
    fn sweep_infeasible(&mut self, t: SimTime) {
        for id in self.fifo.clone() {
            if !self.budgets.feasible(&self.out(id).reservation) {
                self.dequeue(id);
                self.reject(id, t, RejectReason::Infeasible);
            }
        }
    }

    fn log_budgets(&mut self, t: SimTime) {
        let budgets = self.budgets.snapshot();
        self.report.resize_log.push(ResizeSample { at: t, budgets });
    }

    fn control(&mut self, t: SimTime) {
        let backlog = (self.class[1].len() + self.class[2].len()) as u32;
        let Some(slo) = self.slo.as_mut() else {
            return;
        };
        let d = slo.tick(t, backlog);
        if d.scale_pct > self.scale_applied {
            self.scale_applied = d.scale_pct;
            for (n, &base) in self.base.iter().enumerate() {
                let node = NodeId(n);
                let scaled = base.saturating_mul(u64::from(d.scale_pct)) / 100;
                match self.fenced.get_mut(&node) {
                    Some(restore) => *restore = scaled,
                    None => self.budgets.set(node, scaled.max(self.budgets.get(node))),
                }
            }
            self.log_budgets(t);
        }
        // Shed newest first, Batch (best-effort) before Normal
        // (standard); Interactive (guaranteed) is never shed.
        let mut victims = Vec::new();
        for c in [2, 1] {
            for &id in self.class[c].iter().rev() {
                let sheddable = SloClass::for_priority(self.out(id).priority).sheddable();
                if victims.len() < d.shed as usize && sheddable {
                    victims.push(id);
                }
            }
        }
        for job in victims {
            self.dequeue(job);
            self.reject(job, t, RejectReason::Shed);
            let class = self.out(job).priority;
            if let Some(slo) = self.slo.as_mut() {
                slo.record_shed(ShedOutcome { job, at: t, class });
            }
        }
        if d.scale_pct > 100 {
            self.admit_pass(t);
        }
        if !self.events.is_empty() {
            self.ticks += 1;
            self.push(t + TICK, Kind::Control, self.ticks - 1);
        }
    }

    fn resize(&mut self, idx: usize, t: SimTime) {
        self.budgets = self.resizes[idx].1.clone();
        for (&node, restore) in &mut self.fenced {
            *restore = self.budgets.get(node);
            self.budgets.zero(node);
        }
        self.log_budgets(t);
        self.sweep_infeasible(t);
        if self.cfg.resize_drain == ResizeDrain::Preempt {
            self.mark_for_resize(t);
        }
        self.admit_pass(t);
    }

    fn stage_done(&mut self, id: JobId, t: SimTime) {
        let j = self.job(id);
        j.stage += 1;
        if j.stage < j.chain.as_ref().map_or(0, |c| c.stages.len()) {
            return self.book(id, t);
        }
        j.stage = 0;
        j.out.chunks_done += 1;
        let index = j.out.chunks_done - 1;
        let done = j.out.chunks_done >= j.work.chunks;
        let (fault, resize, preempt) = (j.fault_mark, j.resize_mark, j.preempt_mark);
        let sample = ChunkSample {
            at: t,
            job: id,
            index,
        };
        self.report.chunk_log.push(sample);
        if done {
            self.finish(id, JobState::Done, t);
        } else if fault {
            self.fault_evict(id, t);
        } else if resize || (preempt && self.eviction_still_needed(id)) {
            self.evict(id, t, false);
        } else {
            let j = self.job(id);
            j.preempt_mark = false;
            if preempt {
                j.requested_at = None;
            }
            self.issue_chunk(id, t);
        }
    }

    fn issue_chunk(&mut self, id: JobId, t: SimTime) {
        let j = self.job(id);
        j.out.state = JobState::Running;
        if j.chain.as_ref().is_some_and(|c| c.stages.is_empty()) {
            // No bookable stage: every remaining chunk completes now.
            let (first, total) = (j.out.chunks_done, j.work.chunks);
            j.out.chunks_done = total;
            for index in first..total {
                let sample = ChunkSample {
                    at: t,
                    job: id,
                    index,
                };
                self.report.chunk_log.push(sample);
            }
            return self.finish(id, JobState::Done, t);
        }
        self.book(id, t);
    }

    /// Book the job's current stage, asking the fault plan first.
    fn book(&mut self, id: JobId, t: SimTime) {
        let cfg = self.cfg;
        let j = &self.jobs[&id];
        let stage = j.chain.as_ref().expect("a booked job is placed").stages[j.stage];
        let node = stage.stage.node(self.tree.root());
        let Some(plan) = cfg.fault_plan.as_ref() else {
            let end = self.fabric.serve(&stage, t);
            return self.push(end, Kind::StageDone, id.0);
        };
        if self.fenced.contains_key(&node) {
            return self.fault_evict(id, t);
        }
        let ordinal = self.ordinals[node.0];
        self.ordinals[node.0] += 1;
        let attempt = j.attempts + 1;
        let Some(kind) = plan.decide(node, ordinal) else {
            self.job(id).attempts = 0;
            let end = self.fabric.serve(&stage, t);
            return self.push(end, Kind::StageDone, id.0);
        };
        let job = id;
        let sample = FaultSample {
            at: t,
            node,
            job,
            kind,
            ordinal,
        };
        self.report.fault_log.push(sample);
        let j = self.job(id);
        match kind {
            FaultKind::Transient => j.out.fault.transient += 1,
            FaultKind::Persistent => j.out.fault.persistent += 1,
        }
        if kind == FaultKind::Transient && attempt < RETRY_ATTEMPTS {
            let delay = retry_backoff(attempt, plan.jitter(node, ordinal, attempt));
            j.attempts = attempt;
            j.out.fault.retries += 1;
            j.out.fault.backoff += delay;
            return self.push(t + delay, Kind::Retry, id.0);
        }
        self.persistent[node.0] += 1;
        if self.persistent[node.0] >= cfg.quarantine_after && !self.fenced.contains_key(&node) {
            self.fence(node, t);
        }
        self.fault_evict(id, t);
    }

    fn fence(&mut self, node: NodeId, t: SimTime) {
        let (root, faults) = (self.tree.root(), self.persistent[node.0]);
        let sample = QuarantineSample {
            at: t,
            node,
            faults,
        };
        self.report.quarantine_log.push(sample);
        self.fenced.insert(node, self.budgets.get(node));
        self.budgets.zero(node);
        self.schedule_probe(node, t);
        self.sweep_infeasible(t);
        let on_node = |c: &ChunkChain| c.stages.iter().any(|s| s.stage.node(root) == node);
        for j in self.jobs.values_mut() {
            if holds(j.out.state) && j.chain.as_ref().is_some_and(on_node) {
                j.fault_mark = true;
            }
        }
    }

    fn schedule_probe(&mut self, node: NodeId, t: SimTime) {
        let done = self.probes[node.0];
        if !self.cfg.probation || done >= MAX_PROBES {
            return;
        }
        self.probes[node.0] = done + 1;
        let growth = PROBE_BACKOFF.saturating_pow(done);
        let window = SimDur(PROBE_WINDOW.0.saturating_mul(growth));
        self.push(t + window, Kind::Probe, node.0 as u64);
    }

    fn probe(&mut self, node: NodeId, t: SimTime) {
        let Some(&budget) = self.fenced.get(&node) else {
            return;
        };
        let mut clean = true;
        if let Some(plan) = &self.cfg.fault_plan {
            for _ in 0..PROBE_CONSULTS {
                let ord = self.ordinals[node.0];
                self.ordinals[node.0] += 1;
                if plan.decide(node, ord).is_some() {
                    clean = false;
                    break;
                }
            }
        }
        if !clean {
            return self.schedule_probe(node, t);
        }
        self.budgets.set(node, budget);
        self.fenced.remove(&node);
        self.persistent[node.0] = 0;
        let attempt = self.probes[node.0];
        let sample = RestoreSample {
            at: t,
            node,
            attempt,
            budget,
        };
        self.report.restore_log.push(sample);
        self.admit_pass(t);
    }

    fn fault_evict(&mut self, id: JobId, t: SimTime) {
        let j = self.job(id);
        j.out.fault.reroutes += 1;
        j.attempts = 0;
        j.fault_mark = false;
        if j.out.fault.reroutes > MAX_JOB_FAULTS {
            self.finish(id, JobState::Failed, t);
        } else {
            self.evict(id, t, true);
        }
    }

    /// The path from `node` up to the root, both included.
    fn path(&self, node: NodeId) -> Vec<NodeId> {
        let mut path = vec![node];
        while let Some(p) = self.tree.parent(path[path.len() - 1]) {
            path.push(p);
        }
        path
    }

    /// The unfenced leaf with the least fault pressure on its path, then
    /// the shallowest work queues under its child-of-root subtree, then
    /// the lowest id.
    fn place(&self) -> Option<NodeId> {
        let key = |leaf: NodeId| {
            let path = self.path(leaf);
            let pressure: u64 = match self.cfg.fault_aware_placement {
                true => path.iter().map(|n| u64::from(self.persistent[n.0])).sum(),
                false => 0,
            };
            let anchor = path[path.len().saturating_sub(2)];
            (pressure, self.wq.subtree_depth(self.tree, anchor), leaf)
        };
        let unfenced = |l: &NodeId| self.path(*l).iter().all(|n| !self.fenced.contains_key(n));
        let leaves = self.tree.leaves().map(|l| l.id);
        leaves.filter(unfenced).min_by_key(|&l| key(l))
    }

    /// Add (`Admitted`) or credit back `id`'s reservation, logging the
    /// transition and one capacity sample per reserved node.
    fn account(&mut self, id: JobId, t: SimTime, kind: AdmissionEventKind) {
        for (node, b) in self.out(id).reservation.clone().iter() {
            let c = &mut self.committed[node.0];
            *c = match kind {
                AdmissionEventKind::Admitted => *c + b,
                _ => c.saturating_sub(b),
            };
            let (committed, peak) = (*c, &mut self.report.max_committed[node.0]);
            *peak = (*peak).max(committed);
            self.capacity.push(CapacitySample {
                at: t,
                node,
                committed,
            });
        }
        let event = AdmissionEvent {
            at: t,
            job: id,
            kind,
        };
        self.report.admission_log.push(event);
    }

    fn admit(&mut self, id: JobId, t: SimTime) {
        self.account(id, t, AdmissionEventKind::Admitted);
        self.order.push(id);
        let out = &mut self.job(id).out;
        out.admitted_at = Some(t);
        out.state = JobState::Admitted;
        let Some(leaf) = self.place() else {
            assert!(!self.fenced.is_empty(), "a tree without leaves");
            return self.finish(id, JobState::Failed, t);
        };
        self.wq.enqueue(leaf);
        let slo_class = SloClass::for_priority(self.out(id).priority);
        let level = match &self.slo {
            Some(slo) => slo.degrade_for(slo_class),
            None => DegradeLevel::None,
        };
        let tree = self.tree;
        let j = self.job(id);
        let work = level.apply(&j.work);
        j.chain = Some(build_chain(tree, leaf, work.chunk_work(), work.chunks));
        j.stage = 0;
        j.out.leaf = Some(leaf);
        j.out.degrade = j.out.degrade.max(level.rank());
        if j.out.chunks_done >= j.work.chunks {
            self.finish(id, JobState::Done, t);
        } else {
            self.issue_chunk(id, t);
        }
    }

    fn finish(&mut self, id: JobId, state: JobState, t: SimTime) {
        self.account(id, t, AdmissionEventKind::Released);
        self.settle(id, t, state);
        let out = self.out(id);
        let (leaf, class, latency) = (out.leaf, class_of(out.priority), t - out.arrival);
        if let Some(leaf) = leaf {
            self.wq.complete(leaf);
        }
        if let (JobState::Done, Some(slo)) = (state, self.slo.as_mut()) {
            slo.on_completion(class, latency);
        }
        self.admit_pass(t);
    }

    /// Take a running job off the machine at its chunk boundary, keeping
    /// its checkpoint: back to the front of its queue, or settled when
    /// its reservation no longer fits the budgets.
    fn evict(&mut self, id: JobId, t: SimTime, fault: bool) {
        let kind = match fault {
            true => AdmissionEventKind::FaultEvicted,
            false => AdmissionEventKind::Preempted,
        };
        self.account(id, t, kind);
        let feasible = self.budgets.feasible(&self.out(id).reservation);
        let j = self.job(id);
        let requested = j.requested_at.take();
        let leaf = j.out.leaf.take();
        (j.preempt_mark, j.resize_mark, j.stage, j.chain) = (false, false, 0, None);
        j.out.state = JobState::Preempted;
        j.out.preemptions += u32::from(!fault);
        let c = class_of(j.out.priority);
        if let (false, Some(at)) = (fault, requested) {
            self.report.preemption_latencies.push(t - at);
        }
        if let Some(leaf) = leaf {
            self.wq.complete(leaf);
        }
        if feasible {
            self.class[c].insert(0, id);
            self.fifo.insert(0, id);
        } else if fault {
            self.settle(id, t, JobState::Failed);
        } else {
            self.reject(id, t, RejectReason::Infeasible);
        }
        self.admit_pass(t);
    }

    /// Is some waiter of higher priority than `victim` still blocked?
    fn eviction_still_needed(&self, victim: JobId) -> bool {
        let w = self.out(victim).priority.weight();
        self.fifo.iter().any(|&q| {
            let out = self.out(q);
            out.priority.weight() > w && !self.budgets.fits(&self.committed, &out.reservation)
        })
    }

    /// Committed bytes once every marked eviction has happened.
    fn projected(&self) -> Vec<u64> {
        let mut eff = self.committed.clone();
        for j in self.jobs.values() {
            if holds(j.out.state) && (j.preempt_mark || j.resize_mark) {
                for (n, b) in j.out.reservation.iter() {
                    eff[n.0] = eff[n.0].saturating_sub(b);
                }
            }
        }
        eff
    }

    /// Unmarked running jobs of weight below `below`: lowest priority
    /// first, then most recently admitted, then highest id.
    fn victims(&self, below: u64) -> Vec<JobId> {
        let mut v: Vec<(u64, Reverse<Option<SimTime>>, Reverse<JobId>)> = self
            .jobs
            .values()
            .filter(|j| holds(j.out.state) && !j.preempt_mark && !j.resize_mark)
            .map(|j| {
                (
                    j.out.priority.weight(),
                    Reverse(j.out.admitted_at),
                    Reverse(j.out.id),
                )
            })
            .filter(|&(w, _, _)| w < below)
            .collect();
        v.sort();
        v.into_iter().map(|(_, _, Reverse(id))| id).collect()
    }

    /// Mark `v` for eviction (`resize` or preempt) and take its bytes off
    /// the projected commitment.
    fn mark(&mut self, v: JobId, t: SimTime, resize: bool, eff: &mut [u64]) {
        let j = self.job(v);
        match resize {
            true => j.resize_mark = true,
            false => j.preempt_mark = true,
        }
        j.requested_at = Some(t);
        for (n, b) in j.out.reservation.iter() {
            eff[n.0] = eff[n.0].saturating_sub(b);
        }
    }

    /// Mark victims that free bytes on a node blocking `id` until the
    /// projected commitment fits it; mark nothing if it never would.
    fn try_preempt(&mut self, id: JobId, t: SimTime) {
        let (res, w) = (
            self.out(id).reservation.clone(),
            self.out(id).priority.weight(),
        );
        let mut eff = self.projected();
        if self.budgets.fits(&eff, &res) {
            return;
        }
        let mut marked = Vec::new();
        for v in self.victims(w) {
            let blocking = |n: NodeId| eff[n.0].saturating_add(res.get(n)) > self.budgets.get(n);
            if !self
                .out(v)
                .reservation
                .iter()
                .any(|(n, b)| b > 0 && blocking(n))
            {
                continue;
            }
            self.mark(v, t, false, &mut eff);
            marked.push(v);
            if self.budgets.fits(&eff, &res) {
                return;
            }
        }
        for v in marked {
            let j = self.job(v);
            j.preempt_mark = false;
            j.requested_at = None;
        }
    }

    /// After a shrink: mark victims of any priority that hold bytes on an
    /// over-budget node until the projected commitment fits everywhere.
    fn mark_for_resize(&mut self, t: SimTime) {
        let mut eff = self.projected();
        for v in self.victims(u64::MAX) {
            let over = |eff: &[u64], n: NodeId| eff[n.0] > self.budgets.get(n);
            if !(0..eff.len()).any(|n| over(&eff, NodeId(n))) {
                break;
            }
            if self.out(v).reservation.iter().any(|(n, _)| over(&eff, n)) {
                self.mark(v, t, true, &mut eff);
            }
        }
    }

    fn admit_pass(&mut self, t: SimTime) {
        match self.cfg.policy {
            AdmissionPolicy::Fifo => {
                while !self.jobs.values().any(|j| holds(j.out.state)) {
                    let Some(&id) = self.fifo.first() else {
                        break;
                    };
                    self.dequeue(id);
                    self.admit(id, t);
                }
            }
            AdmissionPolicy::WeightedFair => self.fair_pass(t),
        }
    }

    /// Class `c`'s head, if it fits on top of what is committed.
    fn fitting_head(&self, c: usize) -> Option<JobId> {
        let &id = self.class[c].first()?;
        let fits = self
            .budgets
            .fits(&self.committed, &self.out(id).reservation);
        fits.then_some(id)
    }

    fn fair_pass(&mut self, t: SimTime) {
        for (c, p) in Priority::ALL.iter().enumerate() {
            if !self.class[c].is_empty() {
                self.credits[c] += p.weight();
            }
        }
        loop {
            let mut order: Vec<usize> = (0..3).filter(|&c| !self.class[c].is_empty()).collect();
            if order.is_empty() {
                // Nothing waits; a block outlives its class's empty spell.
                return;
            }
            order.sort_by_key(|&c| (Reverse(self.credits[c]), c));
            if let Some(b) = self.blocked {
                if self.class[b].is_empty() {
                    self.blocked = None;
                } else {
                    // Only the blocked class's head may admit.
                    let Some(id) = self.fitting_head(b) else {
                        return;
                    };
                    self.blocked = None;
                    self.admit_head(b, id, t);
                    continue;
                }
            }
            let Some(rank) = order.iter().position(|&c| self.fitting_head(c).is_some()) else {
                return;
            };
            for &c in &order[..rank] {
                self.starve[c] += 1;
                if self.starve[c] >= AGING_LIMIT {
                    self.blocked = Some(c);
                }
            }
            let c = order[rank];
            self.admit_head(c, self.class[c][0], t);
        }
    }

    /// Admit class `c`'s head `id`, resetting the class's credit and
    /// bypass count.
    fn admit_head(&mut self, c: usize, id: JobId, t: SimTime) {
        self.dequeue(id);
        self.credits[c] = 0;
        self.starve[c] = 0;
        self.admit(id, t);
    }

    fn into_reference(self) -> Reference {
        let mut report = self.report;
        let jobs: Vec<JobOutcome> = self.jobs.into_values().map(|j| j.out).collect();
        let count = |s: JobState| jobs.iter().filter(|j| j.state == s).count();
        let end = jobs.iter().filter_map(|j| j.finished_at).max();
        report.makespan = end.map_or(SimDur::ZERO, |e| e - SimTime::ZERO);
        let mut lats: Vec<SimDur> = jobs
            .iter()
            .filter(|j| j.state == JobState::Done)
            .filter_map(|j| Some(j.finished_at? - j.arrival))
            .collect();
        lats.sort();
        let pct = |p: usize| match lats.len() {
            0 => SimDur::ZERO,
            n => lats[(n - 1) * p / 100],
        };
        (report.p50_latency, report.p99_latency) = (pct(50), pct(99));
        let share = |n: usize, of: f64| if of > 0.0 { n as f64 / of } else { 0.0 };
        report.throughput = share(count(JobState::Done), report.makespan.as_secs_f64());
        report.rejection_rate = share(count(JobState::Rejected), jobs.len() as f64);
        if let Some(slo) = self.slo {
            (report.shed_log, report.slo_log) = (slo.sheds, slo.log);
            report.capacity_needed_pct = slo.needed_pct;
        }
        report.jobs = jobs;
        Reference {
            report,
            admission_order: self.order,
            capacity_trace: self.capacity,
        }
    }
}

/// The first index where two series differ, or `Ok`.
fn same<T: PartialEq + Debug>(
    what: &str,
    engine: impl IntoIterator<Item = T>,
    reference: impl IntoIterator<Item = T>,
) -> Result<(), String> {
    let (e, r): (Vec<T>, Vec<T>) = (
        engine.into_iter().collect(),
        reference.into_iter().collect(),
    );
    match (0..e.len().max(r.len())).find(|&i| e.get(i) != r.get(i)) {
        Some(i) => Err(format!(
            "{what}[{i}]: engine {:?}, reference {:?}",
            e.get(i),
            r.get(i)
        )),
        None => Ok(()),
    }
}

/// Compare every field of the engine's report with the reference's —
/// each log entry by entry, logs first, so the first difference named is
/// the earliest decision that differs — and the derived admission order
/// and capacity trace with the ones the reference recorded. Job outcomes
/// are compared by their `Debug` text, which shows every field.
pub(crate) fn compare(engine: &SchedReport, reference: &Reference) -> Result<(), String> {
    let r = &reference.report;
    // Destructured, so a field added to the report fails to compile here
    // until it is compared.
    macro_rules! fields {
        (logs: $($log:ident),*; text: $($text:ident),*; values: $($value:ident),*) => {
            let SchedReport { $($log: _,)* $($text: _,)* $($value: _,)* } = engine;
            $(same(stringify!($log), &engine.$log, &r.$log)?;)*
            $(
                let text = |v: &[_]| v.iter().map(|x| format!("{x:?}")).collect::<Vec<_>>();
                same(stringify!($text), text(&engine.$text), text(&r.$text))?;
            )*
            $(same(stringify!($value), [&engine.$value], [&r.$value])?;)*
        };
    }
    fields!(
        logs: admission_log, chunk_log, fault_log, quarantine_log, restore_log, resize_log,
            preemption_latencies, shed_log, slo_log, max_committed;
        text: jobs;
        values: makespan, throughput, p50_latency, p99_latency, rejection_rate, events,
            capacity_needed_pct
    );
    let order = reference.admission_order.iter().copied();
    same("admission_order", engine.admission_order(), order)?;
    let trace = reference.capacity_trace.iter().copied();
    same("capacity_trace", engine.capacity_trace(), trace)
}

/// Run one input through the engine and the reference: the engine's
/// report when the two agree entry by entry, else the first difference.
pub(crate) fn agree(
    tree: &Tree,
    cfg: SchedulerConfig,
    specs: Vec<JobSpec>,
    resizes: Vec<(SimTime, NodeBudgets)>,
) -> Result<SchedReport, String> {
    let oracle = run(tree, &cfg, &specs, &resizes);
    let mut engine = JobScheduler::new(tree.clone(), cfg);
    for spec in specs {
        engine.submit(spec);
    }
    for (at, budgets) in resizes {
        engine.resize_budgets(at, budgets);
    }
    let report = engine.run().map_err(|e| e.to_string())?;
    compare(&report, &oracle)?;
    Ok(report)
}

/// splitmix64: the deterministic generator the differential traces are
/// drawn from (the one `tests/engine_regression.rs` uses).
pub(crate) fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

mod tests {
    use super::*;
    use crate::digest::report_digest;
    use crate::job::{JobWork, TenantId};
    use crate::reserve::Reservation;
    use northup::fault::FaultPlan;
    use northup::presets;
    use northup_hw::catalog;

    /// `CHAOS_2K` of `tests/engine_regression.rs`.
    const CHAOS_2K: u64 = 0x7950_f6c6_376f_c9c2;

    /// `tests/engine_regression.rs`'s 2k-job chaos run — its trace,
    /// preemption, a fault plan with probation, and two resizes —
    /// through both engines.
    #[test]
    fn the_chaos_2k_trace_agrees_with_the_reference() {
        const JOBS: usize = 2_000;
        let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
        let dram = tree.children(tree.root())[0];
        let budget = tree.node(dram).mem.capacity;
        let mut s = 0x6b8b_4567_3272_5b02u64 ^ JOBS as u64;
        let mut arrival_us = 0u64;
        let mut specs = Vec::new();
        for i in 0..JOBS {
            arrival_us += mix(&mut s) % 700;
            let frac = 0.05 + (mix(&mut s) % 900) as f64 / 1000.0;
            let chunks = (mix(&mut s) % 5) as u32;
            let prio = Priority::ALL[(mix(&mut s) % 3) as usize];
            let spec = JobSpec::new(
                format!("r{i}"),
                Reservation::new().with(dram, (budget as f64 * frac) as u64),
                JobWork::new(chunks)
                    .read(8 << 20)
                    .xfer(8 << 20)
                    .compute(SimDur::from_micros(200 + mix(&mut s) % 600)),
            );
            specs.push(
                spec.priority(prio)
                    .arrival(SimTime::from_secs_f64(arrival_us as f64 * 1e-6))
                    .tenant(TenantId((i % 3) as u32)),
            );
        }
        let full = NodeBudgets::from_tree(&tree, 1.0);
        let resizes = vec![
            (SimTime::from_secs_f64(0.1), full.scaled(0.7)),
            (SimTime::from_secs_f64(0.4), full),
        ];
        let cfg = SchedulerConfig {
            max_queue: 512,
            preempt: true,
            fault_plan: Some(FaultPlan::new(7).transient_rate(300).persistent_rate(20)),
            quarantine_after: 3,
            probation: true,
            ..SchedulerConfig::default()
        };
        let report = agree(&tree, cfg, specs, resizes).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            report_digest(&report),
            CHAOS_2K,
            "{:#x}",
            report_digest(&report)
        );
    }
}
