//! Job identity, priority classes, lifecycle states, and work shapes.

use crate::reserve::Reservation;
use northup_sim::{SimDur, SimTime};

/// Opaque job identifier, unique within one scheduler instance and
/// assigned in submission order (which makes it a deterministic
/// tie-breaker everywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Tenant identity, carried through to the report for per-tenant
/// accounting. Jobs default to tenant 0; the scheduler never reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Priority class for weighted fair admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Throughput-oriented background work.
    Batch,
    /// Default class.
    Normal,
    /// Latency-sensitive foreground work.
    Interactive,
}

impl Priority {
    /// Admission weight: an Interactive job gets 4 admission credits for
    /// every 1 a Batch job gets when both classes have waiters.
    pub fn weight(self) -> u64 {
        match self {
            Priority::Batch => 1,
            Priority::Normal => 2,
            Priority::Interactive => 4,
        }
    }

    /// All classes, highest priority first (the scheduler's scan order).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Normal, Priority::Batch];
}

/// Latency-SLO deadline class: what the service has promised this job,
/// and therefore what the overload controller (`crate::slo`) may do to
/// it when the fabric saturates.
///
/// The class is orthogonal to [`Priority`] (which decides *admission
/// order*); the SLO class decides *sacrifice order* under overload.
/// Jobs that don't declare one inherit a default from their priority
/// via [`SloClass::for_priority`], which preserves the pre-SLO
/// behaviour: Interactive work is never shed, Batch work is first
/// against the wall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SloClass {
    /// Hard latency promise: never shed, never degraded. The
    /// controller's whole job is defending this class's p99.
    Guaranteed,
    /// Soft promise: may run degraded (brownout) under overload, shed
    /// only after every best-effort job is gone.
    Standard,
    /// No promise: first to be backpressured, shed, and degraded.
    BestEffort,
}

impl SloClass {
    /// The default SLO class a job of priority `p` inherits when its
    /// spec declares none.
    pub fn for_priority(p: Priority) -> SloClass {
        match p {
            Priority::Interactive => SloClass::Guaranteed,
            Priority::Normal => SloClass::Standard,
            Priority::Batch => SloClass::BestEffort,
        }
    }

    /// True when the shedding tier may evict or decline this class.
    pub fn sheddable(self) -> bool {
        !matches!(self, SloClass::Guaranteed)
    }

    /// True when the brownout tier may shrink this class's chunk work.
    pub fn degradable(self) -> bool {
        !matches!(self, SloClass::Guaranteed)
    }
}

/// Lifecycle: `Queued → Admitted → Running → {Done, Failed}`, with
/// `Rejected` (backpressure, shed, or infeasible reservation) as the
/// alternative exit. With preemption enabled a `Running` job may be
/// evicted at a chunk boundary back to `Preempted` (queued again, no
/// capacity held, progress checkpointed) and later re-admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Waiting in an admission queue; no capacity held.
    Queued,
    /// Reservation committed against the node budgets; not yet issuing.
    Admitted,
    /// Chunks in flight on the shared fabric.
    Running,
    /// Evicted at a chunk boundary; reservation released, waiting to
    /// resume from its checkpoint (completed chunks are never re-run).
    Preempted,
    /// Completed all chunks; reservation released.
    Done,
    /// Aborted by the runtime; reservation released.
    Failed,
    /// Never admitted: queue full or reservation infeasible.
    Rejected,
}

impl JobState {
    /// Terminal states never transition again and hold no reservation.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Rejected)
    }
}

/// The steady-state shape of a job: how many chunks it processes and what
/// each chunk costs on the shared fabric (root read → link staging → leaf
/// compute → optional writeback). This is the out-of-core pipeline of
/// `northup-apps` collapsed to its per-chunk resource demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobWork {
    /// Number of sequential chunks (≥ 0; zero-chunk jobs finish at admission).
    pub chunks: u32,
    /// Bytes read from root storage per chunk.
    pub read_bytes: u64,
    /// Bytes staged across each link on the root→leaf path per chunk.
    pub xfer_bytes: u64,
    /// Leaf compute time per chunk.
    pub compute: SimDur,
    /// Bytes written back (links + root storage) per chunk.
    pub write_bytes: u64,
}

impl JobWork {
    /// A job of `chunks` chunks with all per-chunk costs zero; chain the
    /// builder methods to fill them in.
    pub fn new(chunks: u32) -> Self {
        JobWork {
            chunks,
            read_bytes: 0,
            xfer_bytes: 0,
            compute: SimDur::ZERO,
            write_bytes: 0,
        }
    }

    /// Set bytes read from root storage per chunk.
    pub fn read(mut self, bytes: u64) -> Self {
        self.read_bytes = bytes;
        self
    }

    /// Set bytes staged over each path link per chunk.
    pub fn xfer(mut self, bytes: u64) -> Self {
        self.xfer_bytes = bytes;
        self
    }

    /// Set leaf compute time per chunk.
    pub fn compute(mut self, dur: SimDur) -> Self {
        self.compute = dur;
        self
    }

    /// Set writeback bytes per chunk.
    pub fn write(mut self, bytes: u64) -> Self {
        self.write_bytes = bytes;
        self
    }

    /// The per-chunk cost in the shared stage-chain IR, ready for
    /// `northup::fabric::build_chain`.
    pub fn chunk_work(&self) -> northup::fabric::ChunkWork {
        northup::fabric::ChunkWork::new()
            .read(self.read_bytes)
            .xfer(self.xfer_bytes)
            .compute(self.compute)
            .write(self.write_bytes)
    }

    /// Crude service-time estimate of `chunks` chunks in nanoseconds:
    /// compute time plus every byte at 1 ns (the modeled ~1 GiB/s). The
    /// fleet router and the overload generator only compare or divide
    /// these, so the scale factor cancels. Exact for any input.
    pub fn service_estimate(&self, chunks: u32) -> u128 {
        let per_chunk = u128::from(self.compute.0)
            // analyze:allow(unit-consistency): deliberate: a byte is priced at 1 ns (the modeled ~1 GiB/s), which makes the sum the ns service-time estimate the router and the overload generator weigh against ns terms
            + u128::from(self.read_bytes)
            + u128::from(self.xfer_bytes)
            + u128::from(self.write_bytes);
        u128::from(chunks) * per_chunk
    }
}

/// Everything the submitter declares about one job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Name for reports ("gemm-8g", "hotspot-t3").
    pub name: String,
    /// Owning tenant (reported, not scheduled on; defaults to tenant 0).
    pub tenant: TenantId,
    /// Admission class.
    pub priority: Priority,
    /// Virtual arrival time (trace replay position).
    pub arrival: SimTime,
    /// Per-node capacity this job needs held while admitted.
    pub reservation: Reservation,
    /// Per-chunk fabric demand.
    pub work: JobWork,
    /// Chunks already completed elsewhere before this submission — the
    /// migration hook. A job checkpointed on another scheduler (another
    /// shard of a federation) resumes here from chunk `start_chunk`:
    /// completed chunks are never re-run, chunk-log indices continue
    /// where the source left off, and a job whose checkpoint already
    /// covers every chunk finishes at admission. Clamped to
    /// `work.chunks`; zero (the default) is a fresh job.
    pub start_chunk: u32,
}

impl JobSpec {
    /// A `Normal`-priority job arriving at time zero; adjust fields or use
    /// the builder methods for the rest.
    pub fn new(name: impl Into<String>, reservation: Reservation, work: JobWork) -> Self {
        JobSpec {
            name: name.into(),
            tenant: TenantId::default(),
            priority: Priority::Normal,
            arrival: SimTime::ZERO,
            reservation,
            work,
            start_chunk: 0,
        }
    }

    /// The SLO class the overload controller enforces for this job,
    /// derived from its priority.
    pub fn effective_slo(&self) -> SloClass {
        SloClass::for_priority(self.priority)
    }

    /// Set the admission class.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Set the owning tenant.
    pub fn tenant(mut self, t: TenantId) -> Self {
        self.tenant = t;
        self
    }

    /// Set the virtual arrival time.
    pub fn arrival(mut self, at: SimTime) -> Self {
        self.arrival = at;
        self
    }

    /// Resume from a checkpoint taken elsewhere: chunks `0..chunks` are
    /// treated as already complete and are never re-run here (the
    /// cross-scheduler half of the migration protocol — within one
    /// scheduler, eviction keeps the checkpoint automatically).
    pub fn resume_from(mut self, chunks: u32) -> Self {
        self.start_chunk = chunks;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_estimate_saturates_on_hostile_byte_counts() {
        // A `JobSpec` may carry any u64 byte count: the estimate is exact
        // in u128, so the overload generator's clamp to u64 saturates
        // instead of overflowing.
        let work = JobWork::new(2)
            .read(u64::MAX - 1)
            .xfer(1)
            .compute(SimDur(1))
            .write(1);
        let est = work.service_estimate(work.chunks);
        assert_eq!(est, 2 * (u128::from(u64::MAX) + 2));
        assert_eq!(u64::try_from(est).unwrap_or(u64::MAX), u64::MAX);
    }
}
