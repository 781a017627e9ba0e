//! The Northup runtime: tree + backends + virtual-time resources.
//!
//! A [`Runtime`] binds a [`Tree`] to storage backends (where bytes live) and
//! to `northup-sim` resources (when operations finish). Every data-management
//! call (see `data.rs`) both *performs* the operation on real bytes and
//! *schedules* it in virtual time with dataflow dependencies, so compute/IO
//! overlap emerges exactly as it would from the paper's multi-stage task
//! queues (§III-C) without wall-clock measurement.

use crate::dag::{DagRecorder, TaskDag};
use crate::data::BufInfo;
use crate::error::{NorthupError, Result};
use crate::topology::{NodeId, ProcKind, ProcessorDesc, Tree};
use northup_hw::{
    FileBackend, HeapBackend, IoTracker, PhantomBackend, StorageBackend, StorageClass,
};
use northup_sim::{Breakdown, Category, Resource, SimDur, SimTime, Timeline};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// How data operations execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Real bytes: heap buffers and real scratch files; kernels compute real
    /// results. Used by tests, examples and small-scale runs.
    Real,
    /// Capacity accounting only: buffers are phantom, byte movement is
    /// skipped, and only virtual time is charged. Used for paper-scale
    /// figure runs (a 32k x 32k float matrix is 4 GiB).
    Modeled,
}

/// Per-storage-class fixed costs of buffer setup/teardown (file open/close
/// plus metadata, malloc, clCreateBuffer/clReleaseMemObject). These feed
/// the "buffer setup" category of the paper's Figs. 7 and 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupCosts {
    /// File allocation (open + create).
    pub file_alloc: SimDur,
    /// File release (close + unlink bookkeeping).
    pub file_release: SimDur,
    /// Host-memory allocation.
    pub mem_alloc: SimDur,
    /// Host-memory release.
    pub mem_release: SimDur,
    /// Device-buffer allocation.
    pub dev_alloc: SimDur,
    /// Device-buffer release.
    pub dev_release: SimDur,
}

impl Default for SetupCosts {
    fn default() -> Self {
        SetupCosts {
            file_alloc: SimDur::from_micros(300),
            file_release: SimDur::from_micros(100),
            mem_alloc: SimDur::from_micros(20),
            mem_release: SimDur::from_micros(5),
            dev_alloc: SimDur::from_micros(100),
            dev_release: SimDur::from_micros(50),
        }
    }
}

impl SetupCosts {
    /// Alloc cost for a storage class.
    pub fn alloc(&self, class: StorageClass) -> SimDur {
        match class {
            StorageClass::File => self.file_alloc,
            StorageClass::Memory => self.mem_alloc,
            StorageClass::Device => self.dev_alloc,
        }
    }

    /// Release cost for a storage class.
    pub fn release(&self, class: StorageClass) -> SimDur {
        match class {
            StorageClass::File => self.file_release,
            StorageClass::Memory => self.mem_release,
            StorageClass::Device => self.dev_release,
        }
    }
}

pub(crate) struct RtInner {
    pub backends: Vec<Box<dyn StorageBackend>>,
    /// Per-node device resource (serves this node's own reads/writes/copies).
    pub node_res: Vec<Resource>,
    /// Per-node resource of the edge to the parent (None at the root).
    pub link_res: Vec<Option<Resource>>,
    /// Per-node, per-attached-processor resources.
    pub proc_res: Vec<Vec<Resource>>,
    /// Live buffers by handle. Ordered so any schedule-visible iteration
    /// (diagnostics, teardown) is deterministic across runs.
    pub buffers: BTreeMap<u64, BufInfo>,
    pub next_handle: u64,
    pub timeline: Timeline,
    pub io: IoTracker,
    /// Per-node count of recursive tasks spawned through it (the work-queue
    /// bookkeeping of Listing 1).
    pub spawned: Vec<u64>,
    /// Optional §III-C dependency-graph recorder.
    pub dag: Option<DagRecorder>,
    /// Optional capacity lease: the admitted reservation `alloc` draws from
    /// when this runtime executes one job of a multi-tenant schedule.
    pub lease: Option<std::sync::Arc<crate::lease::CapacityLease>>,
    /// Which lease each live buffer was charged to, so `release` credits
    /// the right accounting even if the installed lease changed since.
    pub charged: BTreeMap<u64, std::sync::Arc<crate::lease::CapacityLease>>,
}

impl RtInner {
    /// Record an operation into the DAG, if recording is enabled. The
    /// label is formatted only then (callers pass `format_args!`), so a
    /// run that records no DAG allocates nothing for it.
    pub(crate) fn dag_record(
        &mut self,
        label: impl std::fmt::Display,
        category: northup_sim::Category,
        duration: SimDur,
        reads: &[crate::data::BufferHandle],
        writes: &[crate::data::BufferHandle],
    ) {
        if let Some(dag) = self.dag.as_mut() {
            dag.record(label, category, duration, reads, writes);
        }
    }
}

/// Hook for substituting custom storage backends per node (fault
/// injection, instrumented devices, novel memories). Return `None` to use
/// the default backend for the node's class and execution mode.
pub type BackendFactory<'a> =
    dyn Fn(&crate::topology::Node) -> Option<Box<dyn StorageBackend>> + 'a;

/// The Northup runtime.
pub struct Runtime {
    tree: Tree,
    mode: ExecMode,
    setup: SetupCosts,
    pub(crate) inner: Mutex<RtInner>,
}

impl Runtime {
    /// Create a runtime over `tree` in the given execution mode.
    pub fn new(tree: Tree, mode: ExecMode) -> Result<Self> {
        Self::with_custom_backends(tree, mode, SetupCosts::default(), &|_| None)
    }

    /// Create a runtime substituting custom backends where `factory`
    /// returns one (an extension point for fault injection and novel
    /// device models).
    pub fn with_custom_backends(
        tree: Tree,
        mode: ExecMode,
        setup: SetupCosts,
        factory: &BackendFactory<'_>,
    ) -> Result<Self> {
        let mut backends: Vec<Box<dyn StorageBackend>> = Vec::with_capacity(tree.len());
        let mut node_res = Vec::with_capacity(tree.len());
        let mut link_res = Vec::with_capacity(tree.len());
        let mut proc_res = Vec::with_capacity(tree.len());
        for node in tree.nodes() {
            let spec = &node.mem;
            let backend: Box<dyn StorageBackend> = match factory(node) {
                Some(custom) => custom,
                None => match mode {
                    ExecMode::Modeled => Box::new(PhantomBackend::new(&spec.name, spec.capacity)),
                    ExecMode::Real => match spec.class {
                        StorageClass::File => Box::new(
                            FileBackend::new(&spec.name, spec.capacity)
                                .map_err(NorthupError::Hw)?,
                        ),
                        _ => Box::new(HeapBackend::new(&spec.name, spec.capacity)),
                    },
                },
            };
            backends.push(backend);
            node_res.push(Resource::new_compute());
            link_res.push(node.link.as_ref().map(|_| Resource::new_compute()));
            proc_res.push(node.procs.iter().map(|_| Resource::new_compute()).collect());
        }
        let n = tree.len();
        Ok(Runtime {
            tree,
            mode,
            setup,
            inner: Mutex::new(RtInner {
                backends,
                node_res,
                link_res,
                proc_res,
                buffers: BTreeMap::new(),
                next_handle: 0,
                timeline: Timeline::with_spans(),
                io: IoTracker::new(),
                spawned: vec![0; n],
                dag: None,
                lease: None,
                charged: BTreeMap::new(),
            }),
        })
    }

    /// The topology.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The configured setup costs.
    pub fn setup_costs(&self) -> SetupCosts {
        self.setup
    }

    /// Whether real bytes move (Real mode).
    pub fn is_real(&self) -> bool {
        self.mode == ExecMode::Real
    }

    /// The first processor of `kind` attached to `node`
    /// ([`NorthupError::NoProcessor`] when there is none).
    pub fn proc_at(&self, node: NodeId, kind: ProcKind) -> Result<&ProcessorDesc> {
        Ok(&self.tree.node(node).procs[self.proc_index(node, kind)?])
    }

    /// Locate the index of a processor of `kind` on `node`.
    pub(crate) fn proc_index(&self, node: NodeId, kind: ProcKind) -> Result<usize> {
        self.tree
            .node(node)
            .procs
            .iter()
            .position(|p| p.kind == kind)
            .ok_or(NorthupError::NoProcessor(node))
    }

    /// Record a recursive spawn through `node` (work-queue bookkeeping).
    pub(crate) fn note_spawn(&self, node: NodeId) {
        self.inner.lock().spawned[node.0] += 1;
    }

    /// Total recursive tasks ever spawned through `node` (queue statistics,
    /// §V-E: "examining the status of a subsystem can be easily accomplished
    /// by checking the queue associated with the root of a subtree").
    pub fn tasks_spawned(&self, node: NodeId) -> u64 {
        self.inner.lock().spawned[node.0]
    }

    /// Snapshot the execution report so far.
    pub fn report(&self) -> RunReport {
        let g = self.inner.lock();
        let breakdown = g.timeline.breakdown();
        let io: Vec<(String, northup_hw::IoTotals)> =
            g.io.devices()
                .map(|(name, t)| (name.to_string(), t))
                .collect();
        RunReport { breakdown, io }
    }

    /// Current virtual makespan (latest finish of anything scheduled).
    pub fn makespan(&self) -> SimDur {
        self.inner.lock().timeline.makespan()
    }

    /// Forget the recorded timeline — spans, busy totals and makespan —
    /// so a runtime that serves one job after another logs each job's
    /// spans only. Resource busy times are kept.
    pub fn clear_timeline(&self) {
        self.inner.lock().timeline.reset();
    }

    /// Export the recorded activity spans as Chrome trace-event JSON
    /// (open in `chrome://tracing` / Perfetto) — one track per category.
    pub fn chrome_trace(&self) -> String {
        self.inner.lock().timeline.chrome_trace()
    }

    /// Virtual time at which a processor of `kind` on `node` frees up.
    pub fn proc_busy_until(&self, node: NodeId, kind: ProcKind) -> Result<SimTime> {
        let pi = self.proc_index(node, kind)?;
        Ok(self.inner.lock().proc_res[node.0][pi].busy_until())
    }

    /// Start recording the task dependency graph (paper §III-C future
    /// work: "the recursive tree can be further unfolded to a dependency
    /// graph"). Operations issued after this call are captured.
    pub fn enable_dag(&self) {
        let mut g = self.inner.lock();
        if g.dag.is_none() {
            g.dag = Some(DagRecorder::default());
        }
    }

    /// Snapshot the recorded task DAG (empty if recording was not enabled).
    pub fn task_dag(&self) -> TaskDag {
        self.inner
            .lock()
            .dag
            .as_ref()
            .map(|d| d.snapshot())
            .unwrap_or_default()
    }

    /// Install a capacity lease: subsequent `alloc`s charge the lease on
    /// the buffer's node and `release`s credit it back. Replaces any
    /// previously installed lease and returns it (buffers charged to the
    /// old lease still credit the old lease's accounting through its
    /// shared `Arc`) — so a service runtime can swap leases between jobs,
    /// or restore the previous one after a scoped run.
    pub fn install_lease(
        &self,
        lease: std::sync::Arc<crate::lease::CapacityLease>,
    ) -> Option<std::sync::Arc<crate::lease::CapacityLease>> {
        self.inner.lock().lease.replace(lease)
    }
}

/// Execution report: the material of the paper's Figs. 6–8.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-category busy times + makespan.
    pub breakdown: Breakdown,
    /// Per-device I/O totals (bytes and ops).
    pub io: Vec<(String, northup_hw::IoTotals)>,
}

impl RunReport {
    /// Total runtime (virtual makespan).
    pub fn makespan(&self) -> SimDur {
        self.breakdown.makespan
    }

    /// Fraction of summed busy time in a category (Figs. 7/8 bars).
    pub fn share(&self, c: Category) -> f64 {
        self.breakdown.share(c)
    }
}
