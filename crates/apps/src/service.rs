//! Multi-tenant service driver: replay an arrival trace of mixed
//! out-of-core jobs (GEMM, HotSpot, SpMV) through the `northup-sched`
//! admission-controlled scheduler — modeled or on real threads.
//!
//! Each application's steady state is collapsed to the [`JobWork`] shape
//! the scheduler's co-simulation serves (per-chunk root read, link
//! staging, leaf compute, writeback), with capacity reservations derived
//! from the same blocking parameters the real out-of-core drivers use —
//! so a "GEMM tenant" holds the DRAM staging ring a real paper-scale
//! GEMM would hold.
//!
//! Traces are generated, seeded and deterministic: [`synthetic_trace`]
//! for a mixed arrival stream, [`overload_trace`] for open-loop overload.
//! Three entry points replay a trace: [`run_service_with`] in virtual
//! time under any [`SchedulerConfig`]; [`run_service_slo`] under the
//! overload-control stack; and [`run_service_real`], which additionally
//! executes every admitted job's chunk chain on the process-wide
//! `northup-exec` pool through [`RealFabric`], several jobs at a time,
//! with each job's admitted reservation installed as a `CapacityLease` so
//! staging allocations are enforced for real.

use crate::calibration::paper;
use crate::calibration::GEMM_RING;
use northup::fabric::ChunkChain;
use northup::{retry_backoff, NodeId, Tree, RETRY_ATTEMPTS};
use northup_exec::{fan_out, shared, CancelToken};
use northup_sched::{
    build_chain, staging_reservation, AdmissionPolicy, Fabric, FaultPlan, JobId, JobOutcome,
    JobScheduler, JobSpec, JobWork, Priority, RealFabric, SchedError, SchedReport, SchedulerConfig,
    SloConfig, TenantId,
};
use northup_sim::{SimDur, SimTime};
use rand::{Rng, SeedableRng, StdRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// The application mix a service-trace job can be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceJobKind {
    /// Paper-scale tiled dense GEMM (§IV-A), scaled down by `scale`.
    Gemm,
    /// HotSpot-2D with temporal blocking (§IV-B).
    Hotspot,
    /// CSR-Adaptive SpMV (§IV-C).
    Spmv,
}

impl ServiceJobKind {
    /// All kinds, in the round-robin order traces cycle through.
    pub const ALL: [ServiceJobKind; 3] = [
        ServiceJobKind::Gemm,
        ServiceJobKind::Hotspot,
        ServiceJobKind::Spmv,
    ];

    /// Short label used in job names and reports.
    pub fn label(self) -> &'static str {
        match self {
            ServiceJobKind::Gemm => "gemm",
            ServiceJobKind::Hotspot => "hotspot",
            ServiceJobKind::Spmv => "spmv",
        }
    }
}

/// Derive (reservation, per-chunk work) for one tenant of `kind` on
/// `tree`, scaled down from paper-scale by `1/scale` in linear dimension
/// (`scale ≥ 1`; larger ⇒ smaller jobs).
pub fn job_profile(kind: ServiceJobKind, tree: &Tree, scale: u64) -> JobSpec {
    let scale = scale.max(1);
    match kind {
        ServiceJobKind::Gemm => {
            // One chunk = one block × block tile of C; the staging ring
            // holds `GEMM_RING` B-shards of the same size.
            let block = (paper::GEMM_BLOCK as u64 / scale).max(256);
            let n = (paper::GEMM_N as u64 / scale).max(block);
            let tile_bytes = block * block * 4;
            let chunks = ((n / block) * (n / block)) as u32;
            JobSpec::new(
                "gemm",
                staging_reservation(tree, GEMM_RING as u64 * tile_bytes),
                JobWork::new(chunks)
                    .read(tile_bytes)
                    .xfer(tile_bytes)
                    .compute(SimDur::from_micros(900))
                    .write(tile_bytes / 4),
            )
        }
        ServiceJobKind::Hotspot => {
            // One chunk = one trapezoid block per pass; double buffering.
            let block = (paper::HOTSPOT_BLOCK as u64 / scale).max(256);
            let n = (paper::HOTSPOT_N as u64 / scale).max(block);
            let tile_bytes = block * block * 4;
            let chunks = (2 * (n / block) * (n / block)) as u32;
            JobSpec::new(
                "hotspot",
                staging_reservation(tree, 2 * tile_bytes),
                JobWork::new(chunks)
                    .read(tile_bytes)
                    .xfer(tile_bytes)
                    .compute(SimDur::from_micros(400))
                    .write(tile_bytes),
            )
        }
        ServiceJobKind::Spmv => {
            // One chunk = one nnz-balanced CSR shard (values + indices +
            // the dense x gather); writeback is just the y slice.
            let rows = paper::SPMV_ROWS / scale;
            let nnz = (rows as f64 * paper::SPMV_NNZ_PER_ROW) as u64;
            let shard_bytes = (nnz * 8 + rows * 4) / crate::calibration::SPMV_CHUNKS as u64;
            JobSpec::new(
                "spmv",
                staging_reservation(tree, shard_bytes),
                JobWork::new(crate::calibration::SPMV_CHUNKS as u32)
                    .read(shard_bytes)
                    .xfer(shard_bytes)
                    .compute(SimDur::from_micros(250))
                    .write(rows * 4 / crate::calibration::SPMV_CHUNKS as u64),
            )
        }
    }
}

/// Shape of a synthetic arrival trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of jobs.
    pub jobs: usize,
    /// RNG seed (same seed ⇒ same trace ⇒ same schedule).
    pub seed: u64,
    /// Mean inter-arrival gap in microseconds of virtual time; lower ⇒
    /// higher offered load.
    pub mean_gap_us: u64,
    /// Linear-dimension scale-down from paper-scale inputs.
    pub scale: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            jobs: 32,
            seed: 7,
            mean_gap_us: 2_000,
            scale: 16,
        }
    }
}

/// How many tenants a synthetic trace cycles through.
pub const SERVICE_TENANTS: u32 = 4;

/// Generate a deterministic mixed-application arrival trace: kinds cycle
/// Gemm → Hotspot → SpMV, tenants cycle `0..SERVICE_TENANTS` (both
/// index-derived, so neither draws from the RNG stream), priorities and
/// inter-arrival gaps are drawn from the seeded RNG.
pub fn synthetic_trace(tree: &Tree, cfg: &TraceConfig) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut at_us: u64 = 0;
    let mut trace = Vec::with_capacity(cfg.jobs);
    for i in 0..cfg.jobs {
        let kind = ServiceJobKind::ALL[i % ServiceJobKind::ALL.len()];
        let mut spec = job_profile(kind, tree, cfg.scale);
        spec.name = format!("{}-{i}", kind.label());
        spec.tenant = TenantId(i as u32 % SERVICE_TENANTS);
        spec.priority = match rng.gen_range(0..6u32) {
            0 => Priority::Interactive,
            1 | 2 => Priority::Batch,
            _ => Priority::Normal,
        };
        at_us += rng.gen_range(0..cfg.mean_gap_us.max(1) * 2);
        spec.arrival = SimTime::from_secs_f64(at_us as f64 * 1e-6);
        trace.push(spec);
    }
    trace
}

/// Shape of an open-loop overload trace: arrivals come at a fixed
/// multiple of the tree's estimated service capacity, independent of
/// completions — so whenever `load_pct > 100` the backlog grows without
/// bound and only admission control can defend latency. This is the
/// regime the SLO overload controller (`northup_sched::SloConfig`)
/// exists for.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Number of jobs.
    pub jobs: usize,
    /// RNG seed (drives inter-arrival gaps only; kinds, tenants, and
    /// classes are index-derived so load experiments never perturb the
    /// stream).
    pub seed: u64,
    /// Offered load as a percentage of estimated capacity: 100 ⇒ at
    /// capacity, 150 ⇒ 1.5×, 200 ⇒ 2× overload.
    pub load_pct: u32,
    /// Linear-dimension scale-down from paper-scale inputs.
    pub scale: u64,
    /// Assumed sustained job-level concurrency (admitted jobs making
    /// progress at once); divides the mean per-job service estimate into
    /// a sustainable arrival gap.
    pub concurrency: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            jobs: 96,
            seed: 11,
            load_pct: 100,
            scale: 32,
            concurrency: 3,
        }
    }
}

/// Generate a deterministic open-loop overload trace at
/// `cfg.load_pct`% of estimated capacity. Kinds cycle
/// Gemm → Hotspot → SpMV and classes cycle
/// Interactive → Normal → Batch → Batch on a different period (so every
/// kind appears in every class); tenants cycle `0..SERVICE_TENANTS`.
/// Every job holds `1/concurrency` of the staging level, so admission is
/// genuinely capacity-limited — excess arrivals *queue*, which is what
/// gives the controller a backlog to cap and shed. Only the
/// inter-arrival gaps are drawn from the seeded RNG — open loop, so
/// arrivals never react to completions.
pub fn overload_trace(tree: &Tree, cfg: &OverloadConfig) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Sustainable gap = mean per-job service estimate over the kind mix,
    // divided by the assumed concurrency; offered load scales it down.
    let mut demand_ns: u64 = 0;
    for kind in ServiceJobKind::ALL {
        let work = job_profile(kind, tree, cfg.scale).work;
        let est = u64::try_from(work.service_estimate(work.chunks.max(1))).unwrap_or(u64::MAX);
        demand_ns += est / ServiceJobKind::ALL.len() as u64;
    }
    let concurrency = u64::from(cfg.concurrency.max(1));
    let sustainable_ns = demand_ns / concurrency;
    let mean_gap_ns = (sustainable_ns * 100 / u64::from(cfg.load_pct.max(1))).max(1);
    // One admission slot: jobs reserve an equal share of the staging
    // level, so at most `concurrency` run at once and the rest wait.
    let stage = tree
        .children(tree.root())
        .first()
        .copied()
        .unwrap_or_else(|| tree.root());
    let slot_bytes = (tree.node(stage).mem.capacity / concurrency).max(1);
    let mut at_ns: u64 = 0;
    let mut trace = Vec::with_capacity(cfg.jobs);
    for i in 0..cfg.jobs {
        let kind = ServiceJobKind::ALL[i % ServiceJobKind::ALL.len()];
        let mut spec = job_profile(kind, tree, cfg.scale);
        spec.name = format!("{}-{i}", kind.label());
        spec.tenant = TenantId(i as u32 % SERVICE_TENANTS);
        spec.reservation = staging_reservation(tree, slot_bytes);
        // Period-4 class cycle against the period-3 kind cycle: 25%
        // Interactive, 25% Normal, 50% Batch shed fodder.
        spec.priority = match i % 4 {
            0 => Priority::Interactive,
            1 => Priority::Normal,
            _ => Priority::Batch,
        };
        at_ns += rng.gen_range(1..=mean_gap_ns * 2);
        spec.arrival = SimTime(at_ns);
        trace.push(spec);
    }
    trace
}

/// The controller the overload study certifies — the default
/// [`SloConfig`], autoscale off: a 70 ms guaranteed-class target with
/// early, sticky escalation (caps at 50% pressure, shedding at 70%,
/// brownout at 85%, relaxing below 40%; one victim may queue per class
/// and up to 16 are shed per 5 ms tick). Empirically (fixed-seed 2×
/// overload trace): the uncontrolled run's Interactive p99 lands ~40%
/// over target; this config holds it ~15% under, sheds only
/// Batch/Normal, and brownout keeps ~25% more jobs completing than
/// shedding alone would.
pub fn overload_slo() -> SloConfig {
    SloConfig::default()
}

/// Replay `trace` under the overload-control stack: weighted-fair
/// admission and — when `slo` is `Some` — the feedback controller
/// (backpressure → shedding → brownout → autoscale projection).
/// Preemption is deliberately **off**: mid-flight eviction would absorb
/// moderate overload by itself, so turning it off is what makes this
/// driver certify that *admission-side* control alone defends the SLO.
/// Pass `None` for the uncontrolled baseline the overload study
/// (`figures -- slo`) uses as its regression witness.
pub fn run_service_slo(
    tree: &Tree,
    trace: Vec<JobSpec>,
    slo: Option<SloConfig>,
) -> Result<SchedReport, SchedError> {
    run_service_with(
        tree,
        trace,
        SchedulerConfig {
            policy: AdmissionPolicy::WeightedFair,
            preempt: false,
            slo,
            ..SchedulerConfig::default()
        },
    )
}

/// Replay `trace` through a [`JobScheduler`] with full control over the
/// configuration (policy, preemption, resize drain, faults, SLO control).
pub fn run_service_with(
    tree: &Tree,
    trace: Vec<JobSpec>,
    cfg: SchedulerConfig,
) -> Result<SchedReport, SchedError> {
    let mut sched = JobScheduler::new(tree.clone(), cfg);
    for spec in trace {
        sched.submit(spec);
    }
    sched.run()
}

/// One job's real-thread execution record from [`run_service_real`].
#[derive(Debug, Clone)]
pub struct RealJobRun {
    /// The scheduler's job id (submission order).
    pub id: JobId,
    /// Job name from the trace.
    pub name: String,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Chunks executed for real (always equals the modeled `chunks_done`).
    pub chunks_run: u32,
    /// The fabric's commutative checksum over every staged byte —
    /// deterministic for a given chunk set regardless of thread count.
    pub checksum: u64,
    /// Chunk attempts retried after an injected device fault (always 0
    /// without a fault plan).
    pub retries: u32,
}

/// Result of [`run_service_real`]: the modeled schedule plus the
/// real-thread execution record of every job that ran chunks.
#[derive(Debug)]
pub struct ServiceRealRun {
    /// The virtual-time schedule the execution followed.
    pub report: SchedReport,
    /// Real execution records, in job-id order (admitted jobs only).
    pub jobs: Vec<RealJobRun>,
    /// The cap on jobs in flight at once that the caller asked for.
    pub threads: usize,
    /// Jobs that were allowed in flight at once: `threads`, capped by the
    /// job count and by how many of the largest admitted lease fit the
    /// staging node's capacity.
    pub lanes: usize,
}

/// Replay `trace` in virtual time, then execute every admitted job's
/// chunk chain **for real** on the process-wide thread pool. Each job
/// runs in a [`RealFabric`] arena over `tree`, which
/// [`RealFabric::start_job`] restarts for it: the dataset pattern is
/// restored and the job's admitted reservation installed as a
/// `CapacityLease`, so staging `alloc`s are enforced at the byte level.
/// Its chunks are driven in order through `ThreadPool::run_chain` —
/// exactly the chunks the model says the job completed, including the
/// partial prefixes of jobs that end `Failed`, or `Rejected` after an
/// eviction.
///
/// Jobs overlap: up to [`ServiceRealRun::lanes`] of them run at once,
/// the caller's thread among them, started in job-id order, each keeping
/// its chunks in order. A job takes an idle arena, sized to the run's
/// largest dataset, or builds one: never more arenas than lanes.
/// Per-job results do not depend on `threads`, and when jobs fail the
/// error returned is the lowest failed job id's, as if they had run one
/// after another.
pub fn run_service_real(
    tree: &Tree,
    trace: Vec<JobSpec>,
    policy: AdmissionPolicy,
    threads: usize,
) -> Result<ServiceRealRun, SchedError> {
    run_real_inner(
        tree,
        trace,
        SchedulerConfig {
            policy,
            ..SchedulerConfig::default()
        },
        threads,
    )
}

/// Real backoff sleeps are capped so chaos test runs stay fast; the
/// modeled replay charges the uncapped virtual-time backoff.
const REAL_BACKOFF_CAP: Duration = Duration::from_millis(5);

/// One admitted job that ran chunks in the model, ready to run for real.
struct RealJob<'a> {
    outcome: &'a JobOutcome,
    chain: ChunkChain,
    staging: NodeId,
}

/// How many jobs run at once: at most `threads`, and few enough
/// that the staging buffers their leases allow fit the capacity of every
/// staging node together (a job stages one chunk at a time, inside its
/// lease, so `lanes × largest lease` bounds the bytes in flight).
fn lane_count(tree: &Tree, jobs: &[RealJob<'_>], threads: usize) -> usize {
    let mut largest: BTreeMap<NodeId, u64> = BTreeMap::new();
    for job in jobs {
        let lease = job.outcome.reservation.get(job.staging);
        let slot = largest.entry(job.staging).or_default();
        *slot = lease.max(*slot);
    }
    let fit = largest
        .iter()
        .filter(|(_, &lease)| lease > 0)
        .map(|(&node, &lease)| tree.node(node).mem.capacity / lease)
        .min()
        .map_or(usize::MAX, |n| usize::try_from(n).unwrap_or(usize::MAX));
    threads.min(jobs.len()).min(fit).max(1)
}

/// The dataset one job's chunks wrap around: two of its largest chunks
/// (at least 4 KiB each). A chunk size too large to double is
/// [`NorthupError::Invalid`](northup::NorthupError::Invalid).
fn dataset_bytes(chain: &ChunkChain) -> Result<u64, SchedError> {
    let work = chain.work;
    let per_chunk = work
        .read_bytes
        .max(work.xfer_bytes)
        .max(work.write_bytes)
        .max(4 << 10);
    per_chunk.checked_mul(2).ok_or_else(|| {
        SchedError::Runtime(northup::NorthupError::Invalid(format!(
            "a {per_chunk} B chunk has no dataset: twice it overflows u64"
        )))
    })
}

/// Execute one admitted job's chunk chain in `arena`, built here at
/// `arena_bytes` if there is none. Under a fault plan the job gets a
/// fresh arena instead, so its injectors start at operation zero
/// whichever lane runs it.
fn run_job_real(
    tree: &Tree,
    arena: &mut Option<RealFabric>,
    arena_bytes: u64,
    job: &RealJob<'_>,
    plan: Option<&FaultPlan>,
) -> Result<RealJobRun, SchedError> {
    let RealJob {
        outcome,
        chain,
        staging,
    } = job;
    let file_bytes = dataset_bytes(chain)?;
    let pool = shared();
    let fab = match arena {
        Some(fab) if plan.is_none() => fab,
        _ => arena.insert(match plan {
            Some(p) => RealFabric::with_faults(tree, Arc::clone(pool), file_bytes, p.clone())?,
            None => RealFabric::new(tree, Arc::clone(pool), arena_bytes)?,
        }),
    };
    fab.start_job(file_bytes, outcome.lease())?;
    let token = CancelToken::new();
    let mut t = SimTime::ZERO;
    let mut failure = None;
    let max_attempts = if plan.is_some() { RETRY_ATTEMPTS } else { 1 };
    let backoff = |chunk: u32, attempt: u32| -> Duration {
        let jitter = plan
            .map(|p| p.jitter(*staging, u64::from(chunk), attempt))
            .unwrap_or(0.0);
        Duration::from_secs_f64(retry_backoff(attempt, jitter).as_secs_f64()).min(REAL_BACKOFF_CAP)
    };
    let stats =
        pool.run_chain_with_retry(0, outcome.chunks_done, &token, max_attempts, backoff, |i| {
            match fab.run_chunk(chain, i, t) {
                Ok(end) => {
                    t = end;
                    failure = None;
                    true
                }
                Err(e) => {
                    failure = Some(e);
                    false
                }
            }
        });
    if stats.gave_up || stats.completed < outcome.chunks_done {
        if let Some(e) = failure {
            return Err(e.into());
        }
    }
    debug_assert_eq!(stats.completed, outcome.chunks_done);
    Ok(RealJobRun {
        id: outcome.id,
        name: outcome.name.clone(),
        tenant: outcome.tenant,
        chunks_run: stats.completed,
        checksum: fab.checksum(),
        retries: stats.retries,
    })
}

/// The jobs of `report` that ran chunks in the model, in job-id order,
/// each with its chain compiled from its spec in `specs`.
fn real_jobs<'a>(tree: &Tree, report: &'a SchedReport, specs: &[JobSpec]) -> Vec<RealJob<'a>> {
    report
        .jobs
        .iter()
        .zip(specs)
        .filter(|(outcome, _)| outcome.chunks_done > 0)
        .filter_map(|(outcome, spec)| {
            let chain = build_chain(
                tree,
                outcome.leaf?,
                spec.work.chunk_work(),
                spec.work.chunks,
            );
            let staging = chain.staging_node(tree);
            Some(RealJob {
                outcome,
                chain,
                staging,
            })
        })
        .collect()
}

/// [`run_service_real`] under any configuration. With a
/// [`SchedulerConfig::fault_plan`], the one plan drives the modeled
/// replay (seeded stage faults, retry backoff, quarantine — all in
/// virtual time) **and** the real execution (every job gets a fresh
/// [`RealFabric`] arena whose fault injectors on its staging backends
/// count from operation zero, whichever lane runs it; chunks are
/// driven through `ThreadPool::run_chain_with_retry` with real,
/// cancellation-aware backoff sleeps). Chunk bodies are transactional,
/// so a retried chunk applies its side effects exactly once and the
/// per-job checksums equal a fault-free run's. Same tree + trace + plan
/// ⇒ bit-identical report, checksums, and retry counts.
fn run_real_inner(
    tree: &Tree,
    trace: Vec<JobSpec>,
    cfg: SchedulerConfig,
    threads: usize,
) -> Result<ServiceRealRun, SchedError> {
    let plan = cfg.fault_plan.clone();
    let specs = trace.clone();
    let report = run_service_with(tree, trace, cfg)?;
    let jobs = real_jobs(tree, &report, &specs);
    let lanes = lane_count(tree, &jobs, threads);
    // Every arena holds the run's largest dataset; a job whose dataset
    // overflows fails on its own turn.
    let arena_bytes = jobs
        .iter()
        .filter_map(|job| dataset_bytes(&job.chain).ok())
        .max()
        .unwrap_or(0);

    // `fan_out` claims jobs in job-id order, so every job below a started
    // one has started too. After a failure no job above it starts; the
    // ones below still finish, so the lowest failed job is known when the
    // split returns. The counter only steers the claims (`Relaxed`).
    // A failed job's arena is dropped, not reused.
    let lowest_failed = AtomicUsize::new(usize::MAX);
    let arenas: Mutex<Vec<RealFabric>> = Mutex::new(Vec::new());
    let idle = || arenas.lock().unwrap_or_else(PoisonError::into_inner);
    let ran = fan_out(lanes, jobs.iter().enumerate().collect(), |(i, job)| {
        if i > lowest_failed.load(Ordering::Relaxed) {
            return None;
        }
        let mut arena = idle().pop();
        let ran = run_job_real(tree, &mut arena, arena_bytes, job, plan.as_ref());
        if ran.is_ok() {
            idle().extend(arena);
        } else {
            lowest_failed.fetch_min(i, Ordering::Relaxed);
        }
        Some(ran)
    });
    // Job-id order; the first error met is the lowest failed job's, which
    // is the one a sequential run would have stopped at. Jobs above it
    // may not have run.
    let jobs = ran
        .into_iter()
        .map_while(|ran| ran)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ServiceRealRun {
        report,
        jobs,
        threads,
        lanes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use northup::presets;
    use northup_hw::catalog;
    use northup_sched::{JobState, INTERACTIVE_TARGET};

    fn tree() -> Tree {
        presets::apu_two_level(catalog::ssd_hyperx_predator())
    }

    /// The default configuration under `policy`.
    fn with_policy(policy: AdmissionPolicy) -> SchedulerConfig {
        SchedulerConfig {
            policy,
            ..SchedulerConfig::default()
        }
    }

    /// [`run_service_real`] with `plan` driving both the model and the
    /// real arenas.
    fn run_real_chaos(
        tree: &Tree,
        trace: Vec<JobSpec>,
        policy: AdmissionPolicy,
        threads: usize,
        plan: FaultPlan,
    ) -> Result<ServiceRealRun, SchedError> {
        let cfg = SchedulerConfig {
            fault_plan: Some(plan),
            ..with_policy(policy)
        };
        run_real_inner(tree, trace, cfg, threads)
    }

    #[test]
    fn profiles_fit_the_apu_staging_level() {
        let tree = tree();
        let dram = tree.children(tree.root())[0];
        let budget = tree.node(dram).mem.capacity;
        for kind in ServiceJobKind::ALL {
            let spec = job_profile(kind, &tree, 16);
            assert!(
                spec.reservation.get(dram) > 0 && spec.reservation.get(dram) <= budget,
                "{:?} reservation must be admissible",
                kind
            );
            assert!(spec.work.chunks > 0);
        }
    }

    #[test]
    fn trace_is_deterministic_and_sorted_enough() {
        let tree = tree();
        let cfg = TraceConfig::default();
        let t1 = synthetic_trace(&tree, &cfg);
        let t2 = synthetic_trace(&tree, &cfg);
        assert_eq!(t1.len(), 32);
        for (a, b) in t1.iter().zip(t2.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.priority, b.priority);
        }
    }

    #[test]
    fn service_completes_mixed_trace_and_beats_fifo() {
        let tree = tree();
        let trace = synthetic_trace(&tree, &TraceConfig::default());
        let fair = run_service_with(
            &tree,
            trace.clone(),
            with_policy(AdmissionPolicy::WeightedFair),
        )
        .unwrap();
        let fifo = run_service_with(&tree, trace, with_policy(AdmissionPolicy::Fifo)).unwrap();
        assert!(fair.all_terminal() && fifo.all_terminal());
        assert!(fair.count(JobState::Done) + fair.count(JobState::Rejected) == fair.jobs.len());
        assert!(
            fair.throughput >= fifo.throughput,
            "fair {:.2} jobs/s vs fifo {:.2} jobs/s",
            fair.throughput,
            fifo.throughput
        );
    }

    #[test]
    fn trace_cycles_through_all_tenants() {
        let tree = tree();
        let trace = synthetic_trace(&tree, &TraceConfig::default());
        let tenants: std::collections::BTreeSet<_> = trace.iter().map(|s| s.tenant).collect();
        assert_eq!(tenants.len(), SERVICE_TENANTS as usize);
        assert_eq!(trace[0].tenant, northup_sched::TenantId(0));
        assert_eq!(trace[5].tenant, northup_sched::TenantId(1));
    }

    #[test]
    fn overload_trace_is_deterministic_and_open_loop() {
        let tree = tree();
        let cfg = OverloadConfig::default();
        let t1 = overload_trace(&tree, &cfg);
        let t2 = overload_trace(&tree, &cfg);
        assert_eq!(t1.len(), cfg.jobs);
        for (a, b) in t1.iter().zip(t2.iter()) {
            assert_eq!(
                (&a.name, a.arrival, a.priority),
                (&b.name, b.arrival, b.priority)
            );
        }
        // Every kind appears in every class (period-3 × period-4 cycles).
        let combos: std::collections::BTreeSet<_> = t1
            .iter()
            .enumerate()
            .map(|(i, s)| (i % 3, s.priority as u8))
            .collect();
        assert_eq!(combos.len(), 9, "kind × class coverage: {combos:?}");
        // Doubling the offered load halves the span of the same arrivals.
        let double = overload_trace(
            &tree,
            &OverloadConfig {
                load_pct: 200,
                ..cfg.clone()
            },
        );
        let span = |t: &[JobSpec]| t.last().unwrap().arrival.0;
        assert!(
            span(&double) < span(&t1) * 3 / 4,
            "2x load compresses arrivals: {} vs {}",
            span(&double),
            span(&t1)
        );
    }

    #[test]
    fn empty_and_single_job_traces_settle_terminally() {
        let tree = tree();
        for jobs in [0, 1] {
            let trace = overload_trace(
                &tree,
                &OverloadConfig {
                    jobs,
                    ..OverloadConfig::default()
                },
            );
            for slo in [
                None,
                Some(overload_slo()),
                Some(SloConfig { autoscale: true }),
            ] {
                let controlled = slo.is_some();
                let r = run_service_slo(&tree, trace.clone(), slo).unwrap();
                assert!(r.all_terminal(), "{jobs} jobs, controlled {controlled}");
                assert_eq!(r.count(JobState::Done), jobs);
                if jobs == 0 {
                    // With nothing to wait for, the first tick does not
                    // re-arm.
                    assert_eq!(r.slo_log.len(), usize::from(controlled));
                }
            }
        }
    }

    #[test]
    fn slo_controller_sheds_batch_to_protect_interactive_under_overload() {
        use northup_sched::JobState;
        let tree = tree();
        let cfg = OverloadConfig {
            jobs: 320,
            load_pct: 200,
            ..OverloadConfig::default()
        };
        let trace = overload_trace(&tree, &cfg);
        let target = INTERACTIVE_TARGET;
        let on = run_service_slo(&tree, trace.clone(), Some(overload_slo())).unwrap();
        let off = run_service_slo(&tree, trace, None).unwrap();
        assert!(on.all_terminal() && off.all_terminal());
        assert!(off.shed_log.is_empty(), "no controller, no sheds");
        assert!(!on.shed_log.is_empty(), "2x overload forces shedding");
        assert!(
            on.shed_log.iter().all(|s| s.class != Priority::Interactive),
            "shedding never touches the guaranteed class"
        );
        // The controller holds the guaranteed class inside its SLO while
        // the uncontrolled run breaches it — the tentpole claim.
        let p99 = |r: &SchedReport| r.class_p99(Priority::Interactive);
        assert!(
            p99(&on) <= target,
            "controlled p99 {:?} must hold the {:?} target",
            p99(&on),
            target
        );
        assert!(
            p99(&off) > target,
            "uncontrolled p99 {:?} is the regression witness",
            p99(&off)
        );
        // Brownout really ran: some non-guaranteed jobs completed with
        // degraded chunk work.
        assert!(on.degraded_jobs() > 0, "tier 3 brownout engaged");
        assert!(on.count(JobState::Done) > 0);
    }

    #[test]
    fn interactive_burst_preempts_batch_service_jobs() {
        use northup_sched::Reservation;
        let tree = tree();
        let dram = tree.children(tree.root())[0];
        let budget = tree.node(dram).mem.capacity;
        let hog = JobSpec::new(
            "hog",
            Reservation::new().with(dram, budget * 6 / 10),
            JobWork::new(16)
                .read(8 << 20)
                .xfer(8 << 20)
                .compute(SimDur::from_micros(500)),
        )
        .priority(Priority::Batch);
        let vip = JobSpec::new(
            "vip",
            Reservation::new().with(dram, budget * 6 / 10),
            JobWork::new(2)
                .read(8 << 20)
                .xfer(8 << 20)
                .compute(SimDur::from_micros(500)),
        )
        .priority(Priority::Interactive)
        .arrival(SimTime::from_secs_f64(0.002));
        let report = run_service_with(
            &tree,
            vec![hog, vip],
            SchedulerConfig {
                preempt: true,
                ..SchedulerConfig::default()
            },
        )
        .unwrap();
        assert!(report.all_terminal());
        let hog = report.jobs.iter().find(|j| j.name == "hog").unwrap();
        let vip = report.jobs.iter().find(|j| j.name == "vip").unwrap();
        assert_eq!(vip.state, JobState::Done);
        assert_eq!(hog.state, JobState::Done);
        assert!(hog.preemptions >= 1, "batch hog evicted for the burst");
        assert_eq!(hog.chunks_done, 16, "evicted job still completes fully");
        assert!(
            vip.admitted_at.unwrap() < hog.finished_at.unwrap(),
            "interactive job admitted before the batch job drained"
        );
    }

    #[test]
    fn real_service_runs_the_full_trace_with_leases_enforced() {
        let tree = tree();
        let cfg = TraceConfig {
            scale: 64,
            ..TraceConfig::default()
        };
        let trace = synthetic_trace(&tree, &cfg);
        assert_eq!(trace.len(), 32);
        let run = run_service_real(&tree, trace, AdmissionPolicy::WeightedFair, 4).unwrap();
        assert!(run.report.all_terminal());
        assert!(run.report.count(JobState::Done) > 0);
        // Every job the model says ran chunks executed exactly those
        // chunks for real, under its installed lease.
        for out in run.report.jobs.iter().filter(|j| j.chunks_done > 0) {
            let real = run
                .jobs
                .iter()
                .find(|r| r.id == out.id)
                .unwrap_or_else(|| panic!("{} missing a real run", out.name));
            assert_eq!(real.chunks_run, out.chunks_done, "{}", out.name);
            assert_ne!(real.checksum, 0, "{} streamed real bytes", out.name);
            assert_eq!(real.tenant, out.tenant);
        }
    }

    #[test]
    fn chaos_service_retries_transparently_to_the_clean_checksums() {
        let tree = tree();
        let cfg = TraceConfig {
            jobs: 9,
            seed: 3,
            scale: 64,
            ..TraceConfig::default()
        };
        let clean = run_service_real(
            &tree,
            synthetic_trace(&tree, &cfg),
            AdmissionPolicy::Fifo,
            2,
        )
        .unwrap();
        let chaos = || {
            run_real_chaos(
                &tree,
                synthetic_trace(&tree, &cfg),
                AdmissionPolicy::Fifo,
                2,
                FaultPlan::new(13).transient_rate(8192),
            )
            .unwrap()
        };
        let run = chaos();
        assert!(run.report.all_terminal());
        assert!(
            !run.report.fault_log.is_empty(),
            "the modeled replay sees the plan's stage faults"
        );
        let retries: u32 = run.jobs.iter().map(|j| j.retries).sum();
        assert!(retries > 0, "the real arenas see injected device faults");
        // Retried chunks commit exactly once: every job that completed in
        // both runs streams byte-identical data.
        for r in &run.jobs {
            if let Some(c) = clean.jobs.iter().find(|c| c.id == r.id) {
                if c.chunks_run == r.chunks_run {
                    assert_eq!(c.checksum, r.checksum, "{}", r.name);
                }
            }
        }
        // Same trace + plan ⇒ the whole chaos run reproduces bit for bit.
        let again = chaos();
        assert_eq!(format!("{:?}", run.report), format!("{:?}", again.report));
        for (a, b) in run.jobs.iter().zip(again.jobs.iter()) {
            assert_eq!(
                (a.checksum, a.retries),
                (b.checksum, b.retries),
                "{}",
                a.name
            );
        }
    }

    /// Per kind, in `ServiceJobKind::ALL` order: `(chunks_run, checksum,
    /// retries under chaos_plan())` of one scale-16 job, captured from the
    /// sequential `run_service_real` before jobs overlapped. Every job of
    /// the default 32-job trace and of the benchmark's 96-job trace
    /// completes, so a job's record depends on its kind alone.
    const PINNED: [(u32, u64, u32); 3] = [
        (16, 0x1fe0_0000, 7),
        (8, 0x3fbf_fb86, 3),
        (4, 0xb8e0_00fc, 1),
    ];

    fn chaos_plan() -> FaultPlan {
        FaultPlan::new(13).transient_rate(8192)
    }

    fn assert_pinned(run: &ServiceRealRun, jobs: usize, chaos: bool, what: &str) {
        assert_eq!(run.jobs.len(), jobs, "{what}");
        for (i, job) in run.jobs.iter().enumerate() {
            let (chunks, checksum, retries) = PINNED[i % PINNED.len()];
            assert_eq!(job.id, JobId(i as u64), "{what}: job-id order");
            assert_eq!(
                (job.chunks_run, job.checksum, job.retries),
                (chunks, checksum, if chaos { retries } else { 0 }),
                "{what}: {}",
                job.name
            );
        }
        let dram = tree().children(tree().root())[0];
        let largest = run
            .report
            .jobs
            .iter()
            .map(|j| j.reservation.get(dram))
            .max()
            .unwrap();
        assert!(
            run.lanes >= 1 && run.lanes <= run.threads.min(jobs),
            "{what}"
        );
        assert!(
            run.lanes as u64 * largest <= tree().node(dram).mem.capacity,
            "{what}: {} lanes of {largest} B leases overrun staging",
            run.lanes
        );
    }

    fn pinned_results_hold_at_every_thread_count(cfg: TraceConfig) {
        let tree = tree();
        for threads in [1, 2, 4, 8] {
            let what = format!("{} jobs, {threads} threads", cfg.jobs);
            let clean = run_service_real(
                &tree,
                synthetic_trace(&tree, &cfg),
                AdmissionPolicy::WeightedFair,
                threads,
            )
            .unwrap();
            assert_pinned(&clean, cfg.jobs, false, &what);
            let chaos = run_real_chaos(
                &tree,
                synthetic_trace(&tree, &cfg),
                AdmissionPolicy::WeightedFair,
                threads,
                chaos_plan(),
            )
            .unwrap();
            assert_pinned(&chaos, cfg.jobs, true, &format!("{what}, chaos"));
        }
    }

    #[test]
    fn overlap_keeps_the_pinned_results_of_the_default_trace() {
        pinned_results_hold_at_every_thread_count(TraceConfig::default());
    }

    /// Half a minute unoptimized; CI's release step runs it.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release")]
    fn overlap_keeps_the_pinned_results_of_the_benchmark_trace() {
        pinned_results_hold_at_every_thread_count(TraceConfig {
            jobs: 96,
            ..TraceConfig::default()
        });
    }

    #[test]
    fn a_lane_arena_runs_each_job_as_a_fresh_arena_would() {
        let tree = tree();
        let cfg = TraceConfig {
            jobs: 9,
            ..TraceConfig::default()
        };
        let specs = synthetic_trace(&tree, &cfg);
        for plan in [None, Some(chaos_plan())] {
            let cfg = SchedulerConfig {
                fault_plan: plan.clone(),
                ..with_policy(AdmissionPolicy::WeightedFair)
            };
            let report = run_service_with(&tree, specs.clone(), cfg).unwrap();
            let jobs = real_jobs(&tree, &report, &specs);
            let arena_bytes = jobs
                .iter()
                .map(|job| dataset_bytes(&job.chain).unwrap())
                .max()
                .unwrap();
            let record = |run: RealJobRun| (run.chunks_run, run.checksum, run.retries);
            let mut lane = None;
            let mut retries = 0;
            for job in &jobs {
                let in_lane = run_job_real(&tree, &mut lane, arena_bytes, job, plan.as_ref());
                let own = dataset_bytes(&job.chain).unwrap();
                let fresh = run_job_real(&tree, &mut None, own, job, plan.as_ref());
                let in_lane = record(in_lane.unwrap());
                retries += in_lane.2;
                assert_eq!(in_lane, record(fresh.unwrap()), "{}", job.outcome.name);
            }
            assert_eq!(jobs.len(), 9);
            assert_eq!(retries > 0, plan.is_some(), "faults reach the arenas");
        }
    }

    #[test]
    fn a_dataset_too_large_to_double_is_a_typed_error() {
        let tree = tree();
        let leaf = tree.leaves().next().unwrap().id;
        let work = JobWork::new(1).read(u64::MAX).chunk_work();
        assert!(matches!(
            dataset_bytes(&build_chain(&tree, leaf, work, 1)),
            Err(SchedError::Runtime(northup::NorthupError::Invalid(_)))
        ));
    }

    /// `n` two-chunk jobs of 64 KiB chunks, each reserving `lease` bytes
    /// of the staging level.
    fn small_jobs(tree: &Tree, n: usize, lease: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|i| {
                JobSpec::new(
                    format!("small-{i}"),
                    staging_reservation(tree, lease),
                    JobWork::new(2)
                        .read(64 << 10)
                        .xfer(64 << 10)
                        .compute(SimDur::from_micros(50))
                        .write(16 << 10),
                )
            })
            .collect()
    }

    #[test]
    fn lanes_follow_threads_jobs_and_the_staging_budget() {
        let tree = tree();
        let dram = tree.children(tree.root())[0];
        let budget = tree.node(dram).mem.capacity;
        let run = |jobs: usize, lease: u64, threads: usize| {
            run_service_real(
                &tree,
                small_jobs(&tree, jobs, lease),
                AdmissionPolicy::Fifo,
                threads,
            )
            .unwrap()
        };
        let executed = |r: &ServiceRealRun| -> Vec<(JobId, u32, u64)> {
            r.jobs
                .iter()
                .map(|j| (j.id, j.chunks_run, j.checksum))
                .collect()
        };
        // One thread: one lane, and the run still ends.
        let single = run(5, 64 << 10, 1);
        assert_eq!((single.lanes, single.jobs.len()), (1, 5));
        // More threads than jobs: a lane per job, same results.
        let wide = run(5, 64 << 10, 8);
        assert_eq!(wide.lanes, 5);
        assert_eq!(executed(&wide), executed(&single));
        // Only one 60 % lease fits the staging node, whatever the threads.
        let fat = run(3, budget * 6 / 10, 4);
        assert_eq!(fat.lanes, 1);
        assert_eq!(executed(&fat), executed(&run(3, budget * 6 / 10, 1)));
        // Three 30 % leases fit; a fourth would not.
        assert_eq!(run(6, budget * 3 / 10, 8).lanes, 3);
    }

    /// Two jobs that both run out of retries, the slow one first: `big`
    /// builds a 16 MiB arena and then meets an injected device fault on
    /// every attempt (the plan's period equals a chunk's three staging
    /// operations); `tiny` is refused its first staging buffer at once.
    fn two_failing_jobs(tree: &Tree) -> (JobSpec, JobSpec, FaultPlan) {
        let dram = tree.children(tree.root())[0];
        let big = JobSpec::new(
            "big",
            staging_reservation(tree, 8 << 20),
            JobWork::new(2)
                .read(8 << 20)
                .xfer(8 << 20)
                .compute(SimDur::from_micros(50))
                .write(1 << 20),
        );
        let tiny = JobSpec::new(
            "tiny",
            staging_reservation(tree, 1 << 10),
            JobWork::new(2)
                .read(4 << 10)
                .xfer(4 << 10)
                .compute(SimDur::from_micros(50))
                .write(1 << 10),
        );
        let plan = FaultPlan::new(5).transient_rate(21845).on_nodes([dram]);
        assert_eq!(plan.real_fail_every(dram), Some(3));
        (big, tiny, plan)
    }

    #[test]
    fn the_lowest_failed_job_decides_the_error_at_any_thread_count() {
        let tree = tree();
        let (big, tiny, plan) = two_failing_jobs(&tree);
        let error = |trace: Vec<JobSpec>, threads: usize| -> String {
            run_real_chaos(&tree, trace, AdmissionPolicy::Fifo, threads, plan.clone())
                .unwrap_err()
                .to_string()
        };
        for threads in [1, 2, 4, 8] {
            let slow_first = error(vec![big.clone(), tiny.clone()], threads);
            assert!(
                slow_first.contains("injected device fault"),
                "{threads} threads: job 0's fault, not job 1's quicker refusal: {slow_first}"
            );
            let quick_first = error(vec![tiny.clone(), big.clone()], threads);
            assert!(
                quick_first.contains("lease"),
                "{threads} threads: {quick_first}"
            );
        }
        // Without a plan there are no retries, and the rule is the same.
        let clean = |trace: Vec<JobSpec>, threads: usize| -> String {
            run_service_real(&tree, trace, AdmissionPolicy::Fifo, threads)
                .unwrap_err()
                .to_string()
        };
        let mut tinier = tiny.clone();
        tinier.work = tinier.work.xfer(2 << 10).read(2 << 10);
        assert_ne!(
            clean(vec![tiny.clone(), tinier.clone()], 1),
            clean(vec![tinier.clone(), tiny.clone()], 1),
            "the two refusals name different sizes"
        );
        for trace in [vec![tiny.clone(), tinier.clone()], vec![tinier, tiny]] {
            assert_eq!(clean(trace.clone(), 4), clean(trace, 1));
        }
    }

    #[test]
    fn modeled_and_real_execution_agree_for_any_thread_count() {
        let tree = tree();
        let cfg = TraceConfig {
            jobs: 9,
            seed: 3,
            scale: 64,
            ..TraceConfig::default()
        };
        let one = run_service_real(
            &tree,
            synthetic_trace(&tree, &cfg),
            AdmissionPolicy::Fifo,
            1,
        )
        .unwrap();
        let four = run_service_real(
            &tree,
            synthetic_trace(&tree, &cfg),
            AdmissionPolicy::Fifo,
            4,
        )
        .unwrap();
        // The modeled schedule is thread-count independent...
        assert_eq!(one.report.makespan, four.report.makespan);
        // ...and so is the real execution: same jobs, chunk counts, and
        // byte-level checksums.
        assert_eq!(one.jobs.len(), four.jobs.len());
        for (a, b) in one.jobs.iter().zip(four.jobs.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.chunks_run, b.chunks_run);
            assert_eq!(a.checksum, b.checksum, "{}", a.name);
        }
    }
}
