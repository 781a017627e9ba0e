//! The stage-chain IR: one representation of a chunk's
//! read → link → compute → link → write-back journey, shared by every
//! execution backend.
//!
//! Northup grew two parallel execution worlds that each re-implemented
//! the same chunk lifecycle: the runtime's virtual-time pipeline
//! ([`ChunkPipeline`](crate::ChunkPipeline) over [`Runtime`](crate::Runtime)
//! resources) and the scheduler's stage-granular co-simulation
//! (`northup-sched`'s `SimFabric`). This module extracts what they share:
//!
//! * [`Stage`] — the five step kinds of a chunk's root→leaf→root journey.
//! * [`StageCost`] — what one stage costs (bytes moved or compute time).
//! * [`ChunkWork`] — the per-chunk demand shape a job declares.
//! * [`ChunkChain`] — the compiled chain: an ordered list of costed
//!   stages for one placement, repeated `chunks` times, built by
//!   [`build_chain`].
//! * [`Fabric`] — the chunk-serving trait, implemented by the *real*
//!   backend (`northup-sched::RealFabric`): it drives a chain through a
//!   [`Runtime`](crate::Runtime) in [`ExecMode::Real`](crate::ExecMode)
//!   on the `northup-exec` work-stealing pool, with allocations metered
//!   by the job's [`CapacityLease`](crate::CapacityLease). The *modeled*
//!   backend (`northup-sched::SimFabric`) books the same chain stage by
//!   stage on shared virtual-time resources and needs no trait.
//!
//! The invariant that makes preemption and mode-agreement testable: a
//! chain is a pure function of (tree, leaf, work), so every backend sees
//! the *same* stages with the *same* costs, and chunk index `i` means the
//! same unit of work everywhere. A preempted job's checkpoint is the
//! count of chunks it completed; it resumes at the next index.

use crate::error::NorthupError;
use crate::topology::{NodeId, Tree};
use northup_sim::{SimDur, SimTime};
use std::fmt;

/// Errors from fabric execution — distinct from [`NorthupError`] so
/// callers (the scheduler, the service driver) can tell a failed chunk
/// from their own errors without string-matching.
#[derive(Debug)]
pub enum FabricError {
    /// The backing runtime rejected a data movement or compute charge
    /// while serving a chunk.
    Runtime(NorthupError),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Runtime(e) => write!(f, "fabric chunk execution failed: {e}"),
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Runtime(e) => Some(e),
        }
    }
}

impl From<NorthupError> for FabricError {
    fn from(e: NorthupError) -> Self {
        FabricError::Runtime(e)
    }
}

/// One step kind of a chunk's root→leaf→root journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Read the chunk's input bytes from the root storage.
    Read,
    /// Stage bytes down the link into the given node.
    LinkDown(NodeId),
    /// Run the leaf kernel on the given node.
    Compute(NodeId),
    /// Move result bytes up the link out of the given node.
    LinkUp(NodeId),
    /// Write result bytes back to the root storage.
    WriteBack,
}

impl Stage {
    /// The tree node whose device serves this stage (`root` for the
    /// root-storage stages). This is the failure domain of the stage:
    /// fault plans key their decisions on it, and quarantining it fences
    /// every stage it would serve.
    pub fn node(&self, root: NodeId) -> NodeId {
        match self {
            Stage::Read | Stage::WriteBack => root,
            Stage::LinkDown(hop) | Stage::LinkUp(hop) => *hop,
            Stage::Compute(leaf) => *leaf,
        }
    }
}

/// What one stage costs: bytes for transfer stages, time for compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCost {
    /// Bytes served by a storage or link resource (zero for compute).
    pub bytes: u64,
    /// Kernel time charged to a processor (zero for transfers).
    pub compute: SimDur,
}

impl StageCost {
    /// A pure byte-movement cost.
    pub fn bytes(bytes: u64) -> Self {
        StageCost {
            bytes,
            compute: SimDur::ZERO,
        }
    }

    /// A pure compute cost.
    pub fn compute(compute: SimDur) -> Self {
        StageCost { bytes: 0, compute }
    }
}

/// One costed stage of a compiled chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainStage {
    /// The step kind.
    pub stage: Stage,
    /// Its cost on whatever resource serves it.
    pub cost: StageCost,
}

/// The per-chunk demand shape a job declares: how many bytes each chunk
/// reads from root storage, stages across each link, computes for, and
/// writes back. This is the out-of-core steady state of every Northup
/// application collapsed to its resource demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkWork {
    /// Bytes read from root storage per chunk.
    pub read_bytes: u64,
    /// Bytes staged across each link on the root→leaf path per chunk.
    pub xfer_bytes: u64,
    /// Leaf compute time per chunk.
    pub compute: SimDur,
    /// Bytes written back (links + root storage) per chunk.
    pub write_bytes: u64,
}

impl ChunkWork {
    /// All-zero work (compiles to an empty chain).
    pub fn new() -> Self {
        ChunkWork::default()
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

    /// True when every per-chunk cost is zero.
    pub fn is_zero(&self) -> bool {
        self.read_bytes == 0
            && self.xfer_bytes == 0
            && self.compute == SimDur::ZERO
            && self.write_bytes == 0
    }
}

/// A maximal run of consecutive chain stages served by the same tree
/// node. Schedulers that walk a chain stage-by-stage can instead book a
/// whole run against that node's resource in one pass — the run
/// boundaries are exactly where a chunk changes failure domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRun {
    /// Index of the first stage of the run in `ChunkChain::stages`.
    pub start: u32,
    /// Number of consecutive stages in the run.
    pub len: u32,
    /// The dense tree node serving every stage of the run.
    pub node: NodeId,
}

/// A compiled stage chain: the ordered, costed stages one chunk passes
/// through when placed on `leaf`, executed `chunks` times in sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkChain {
    /// The leaf the chain is placed on.
    pub leaf: NodeId,
    /// The declared per-chunk demand the chain was compiled from.
    pub work: ChunkWork,
    /// The costed stages of one chunk, zero-cost stages skipped.
    pub stages: Vec<ChainStage>,
    /// The serving node of each stage (`stages[i]` ↔ `nodes[i]`), i.e.
    /// `stage.node(root)` precomputed as dense ids so hot schedulers
    /// never re-derive failure domains per event.
    pub nodes: Vec<NodeId>,
    /// Maximal consecutive same-node stage runs over `stages`.
    pub runs: Vec<StageRun>,
    /// How many sequential chunks the chain runs.
    pub chunks: u32,
}

impl ChunkChain {
    /// True when the chain has no bookable stages (all-zero work).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The staging node: the first hop on the root→`leaf` path (the leaf
    /// itself when it hangs directly off the root).
    pub fn staging_node(&self, tree: &Tree) -> NodeId {
        let mut cur = self.leaf;
        while let Some(p) = tree.parent(cur) {
            if p == tree.root() {
                return cur;
            }
            cur = p;
        }
        cur
    }
}

/// Compile the stage chain for one chunk of `work` placed on `leaf`:
/// root read, link staging down every linked hop of the root→leaf path,
/// leaf compute, link write-back up the same hops, root write-back —
/// with zero-cost stages skipped. Empty when the work shape is all-zero.
///
/// Every backend must execute this exact chain, which is what makes
/// Modeled and Real runs agree on chunk counts and per-chunk semantics.
pub fn build_chain(tree: &Tree, leaf: NodeId, work: ChunkWork, chunks: u32) -> ChunkChain {
    // Path root -> leaf, excluding the root itself, so each entry names
    // the link it is reached over.
    let mut path = Vec::new();
    let mut cur = leaf;
    while let Some(p) = tree.parent(cur) {
        path.push(cur);
        cur = p;
    }
    path.reverse();

    let mut stages = Vec::new();
    if work.read_bytes > 0 {
        stages.push(ChainStage {
            stage: Stage::Read,
            cost: StageCost::bytes(work.read_bytes),
        });
    }
    if work.xfer_bytes > 0 {
        for &hop in &path {
            if tree.node(hop).link.is_some() {
                stages.push(ChainStage {
                    stage: Stage::LinkDown(hop),
                    cost: StageCost::bytes(work.xfer_bytes),
                });
            }
        }
    }
    if work.compute > SimDur::ZERO {
        stages.push(ChainStage {
            stage: Stage::Compute(leaf),
            cost: StageCost::compute(work.compute),
        });
    }
    if work.write_bytes > 0 {
        for &hop in path.iter().rev() {
            if tree.node(hop).link.is_some() {
                stages.push(ChainStage {
                    stage: Stage::LinkUp(hop),
                    cost: StageCost::bytes(work.write_bytes),
                });
            }
        }
        stages.push(ChainStage {
            stage: Stage::WriteBack,
            cost: StageCost::bytes(work.write_bytes),
        });
    }
    let root = tree.root();
    let nodes: Vec<NodeId> = stages.iter().map(|s| s.stage.node(root)).collect();
    let mut runs: Vec<StageRun> = Vec::new();
    for (i, &n) in nodes.iter().enumerate() {
        match runs.last_mut() {
            Some(r) if r.node == n => r.len += 1,
            _ => runs.push(StageRun {
                start: i as u32,
                len: 1,
                node: n,
            }),
        }
    }
    ChunkChain {
        leaf,
        work,
        stages,
        nodes,
        runs,
        chunks,
    }
}

/// An execution backend that serves a compiled [`ChunkChain`] one whole
/// chunk at a time: the real fabric moves actual bytes and runs actual
/// kernels, returning the virtual completion its runtime charged.
pub trait Fabric {
    /// Serve one whole chunk of `chain` (chunk index `idx`), starting no
    /// earlier than `ready`, and return its completion in virtual time.
    /// Chunks of one chain are sequential: callers pass the previous
    /// chunk's completion as the next chunk's `ready`.
    fn run_chunk(
        &mut self,
        chain: &ChunkChain,
        idx: u32,
        ready: SimTime,
    ) -> Result<SimTime, FabricError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use northup_hw::catalog;

    fn tree() -> Tree {
        presets::apu_two_level(catalog::ssd_hyperx_predator())
    }

    #[test]
    fn chain_covers_the_path_and_skips_zero_cost() -> Result<(), crate::TopologyError> {
        let tree = tree();
        let leaf = tree.staging_level()?;
        let work = ChunkWork::new()
            .read(1)
            .xfer(1)
            .compute(SimDur::from_micros(1))
            .write(1);
        let chain = build_chain(&tree, leaf, work, 3);
        assert_eq!(chain.chunks, 3);
        assert_eq!(chain.stages.first().map(|s| s.stage), Some(Stage::Read));
        assert_eq!(chain.stages.last().map(|s| s.stage), Some(Stage::WriteBack));
        assert!(chain.stages.iter().any(|s| s.stage == Stage::Compute(leaf)));

        let read_only = build_chain(&tree, leaf, ChunkWork::new().read(1), 1);
        assert_eq!(read_only.stages.len(), 1);
        assert_eq!(read_only.stages[0].stage, Stage::Read);

        assert!(build_chain(&tree, leaf, ChunkWork::new(), 1).is_empty());
        Ok(())
    }

    #[test]
    fn costs_attach_to_the_right_stages() -> Result<(), crate::TopologyError> {
        let tree = tree();
        let leaf = tree.staging_level()?;
        let work = ChunkWork::new()
            .read(100)
            .xfer(50)
            .compute(SimDur::from_micros(7))
            .write(25);
        let chain = build_chain(&tree, leaf, work, 1);
        for cs in &chain.stages {
            match cs.stage {
                Stage::Read => assert_eq!(cs.cost.bytes, 100),
                Stage::LinkDown(_) => assert_eq!(cs.cost.bytes, 50),
                Stage::Compute(_) => assert_eq!(cs.cost.compute, SimDur::from_micros(7)),
                Stage::LinkUp(_) => assert_eq!(cs.cost.bytes, 25),
                Stage::WriteBack => assert_eq!(cs.cost.bytes, 25),
            }
        }
        Ok(())
    }

    #[test]
    fn staging_node_is_first_hop_below_root() -> Result<(), crate::TopologyError> {
        let tree = tree();
        let leaf = tree.staging_level()?;
        let chain = build_chain(&tree, leaf, ChunkWork::new().read(1), 1);
        let staging = chain.staging_node(&tree);
        // On the two-level APU preset the leaf hangs directly off the root.
        assert_eq!(tree.parent(staging), Some(tree.root()));
        Ok(())
    }

    #[test]
    fn stage_nodes_name_their_failure_domain() -> Result<(), crate::TopologyError> {
        let tree = tree();
        let leaf = tree.staging_level()?;
        let root = tree.root();
        let work = ChunkWork::new()
            .read(8)
            .xfer(8)
            .compute(SimDur::from_micros(1))
            .write(8);
        let chain = build_chain(&tree, leaf, work, 1);
        for cs in &chain.stages {
            let n = cs.stage.node(root);
            match cs.stage {
                Stage::Read | Stage::WriteBack => assert_eq!(n, root),
                Stage::Compute(l) => assert_eq!(n, l),
                Stage::LinkDown(h) | Stage::LinkUp(h) => assert_eq!(n, h),
            }
        }
        Ok(())
    }

    /// The precompiled `nodes` and `runs` vectors are derived views of
    /// `stages` — the hot schedulers index them blindly, so they must
    /// stay mutually consistent for every work shape (zero-cost stages
    /// skipped, single-stage chains, deeper asymmetric trees included).
    #[test]
    fn compiled_nodes_and_runs_tile_the_stages() -> Result<(), crate::TopologyError> {
        let shapes = [
            ChunkWork::new()
                .read(8)
                .xfer(8)
                .compute(SimDur::from_micros(1))
                .write(8),
            ChunkWork::new().read(1),
            ChunkWork::new().xfer(4).compute(SimDur::from_micros(2)),
            ChunkWork::new(),
        ];
        for tree in [tree(), presets::asymmetric_fig2()] {
            let root = tree.root();
            for leaf in tree.leaves().map(|l| l.id).collect::<Vec<_>>() {
                for work in shapes {
                    let chain = build_chain(&tree, leaf, work, 1);
                    // nodes[i] is stages[i]'s failure domain, precomputed.
                    assert_eq!(chain.nodes.len(), chain.stages.len());
                    for (cs, &n) in chain.stages.iter().zip(&chain.nodes) {
                        assert_eq!(n, cs.stage.node(root));
                    }
                    // runs tile 0..stages.len() contiguously, each run is
                    // maximal (adjacent runs never share a node), and each
                    // covers stages served by exactly its node.
                    let mut next = 0u32;
                    for (i, r) in chain.runs.iter().enumerate() {
                        assert_eq!(r.start, next, "runs must tile contiguously");
                        assert!(r.len > 0, "empty run");
                        for j in r.start..r.start + r.len {
                            assert_eq!(chain.nodes[j as usize], r.node);
                        }
                        if i > 0 {
                            assert_ne!(chain.runs[i - 1].node, r.node, "run not maximal");
                        }
                        next += r.len;
                    }
                    assert_eq!(next as usize, chain.stages.len());
                }
            }
        }
        Ok(())
    }
}
