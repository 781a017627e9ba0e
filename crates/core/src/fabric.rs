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
//! * [`ChunkWork`] — the per-chunk demand shape a job declares.
//! * [`ChunkChain`] — the compiled chain: an ordered list of priced
//!   stages for one placement, repeated `chunks` times, built by
//!   [`build_chain`]. Each stage carries its duration, priced once there
//!   with the device and link functions `Runtime` moves data with.
//! * [`Fabric`] — the chunk-serving trait, implemented by the *real*
//!   backend (`northup-sched::RealFabric`): it drives a chain through a
//!   [`Runtime`](crate::Runtime) in [`ExecMode::Real`](crate::ExecMode)
//!   on the `northup-exec` thread pool, with allocations metered
//!   by the job's [`CapacityLease`](crate::CapacityLease). The *modeled*
//!   backend (`northup-sched::SimFabric`) books each stage's duration on
//!   a shared virtual-time server and needs no trait.
//!
//! The invariant that makes preemption and mode-agreement testable: a
//! chain is a pure function of (tree, leaf, work), so every backend sees
//! the *same* stages with the *same* durations, and chunk index `i`
//! means the same unit of work everywhere. A preempted job's checkpoint
//! is the count of chunks it completed; it resumes at the next index.

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

/// One priced stage of a compiled chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainStage {
    /// The step kind.
    pub stage: Stage,
    /// How long the device, link or processor serving it is busy.
    pub dur: SimDur,
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

/// A compiled stage chain: the ordered, priced stages one chunk passes
/// through when placed on `leaf`, executed `chunks` times in sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkChain {
    /// The leaf the chain is placed on.
    pub leaf: NodeId,
    /// The declared per-chunk demand the chain was compiled from.
    pub work: ChunkWork,
    /// The priced stages of one chunk, zero-demand stages skipped.
    pub stages: Vec<ChainStage>,
    /// The serving node of each stage (`stages[i]` ↔ `nodes[i]`), i.e.
    /// `stage.node(root)` precomputed as dense ids so hot schedulers
    /// never re-derive failure domains per event.
    pub nodes: Vec<NodeId>,
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
/// with zero-demand stages skipped. Empty when the work shape is all-zero.
/// Each stage is priced here, once, by the functions `Runtime` moves data
/// with: root stages by the root device's
/// [`read_time`](northup_hw::DeviceSpec::read_time), link stages by the
/// hop's [`hop_time`](northup_hw::LinkSpec::hop_time), compute as
/// declared.
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
    let root = tree.root();
    let root_mem = &tree.node(root).mem;

    let mut stages = Vec::new();
    if work.read_bytes > 0 {
        stages.push(ChainStage {
            stage: Stage::Read,
            dur: root_mem.read_time(work.read_bytes),
        });
    }
    if work.xfer_bytes > 0 {
        for &hop in &path {
            if let Some(link) = &tree.node(hop).link {
                stages.push(ChainStage {
                    stage: Stage::LinkDown(hop),
                    dur: link.hop_time(work.xfer_bytes),
                });
            }
        }
    }
    if work.compute > SimDur::ZERO {
        stages.push(ChainStage {
            stage: Stage::Compute(leaf),
            dur: work.compute,
        });
    }
    if work.write_bytes > 0 {
        for &hop in path.iter().rev() {
            if let Some(link) = &tree.node(hop).link {
                stages.push(ChainStage {
                    stage: Stage::LinkUp(hop),
                    dur: link.hop_time(work.write_bytes),
                });
            }
        }
        stages.push(ChainStage {
            stage: Stage::WriteBack,
            // The root's *read* rate and latency, where `Runtime` writes
            // a file at `write_time`; every pinned schedule digest is
            // computed under this price. The write price waits on a
            // re-sized overload trace: at it, the overload run misses its
            // completion and latency targets.
            dur: root_mem.read_time(work.write_bytes),
        });
    }
    let nodes: Vec<NodeId> = stages.iter().map(|s| s.stage.node(root)).collect();
    ChunkChain {
        leaf,
        work,
        stages,
        nodes,
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
    use crate::{presets, ExecMode, Runtime};
    use northup_hw::catalog;
    use northup_sim::Category;

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

    /// Every stage's `dur` is the price of the device, link or processor
    /// that serves it, on trees of two, three and four levels.
    #[test]
    fn costs_attach_to_the_right_stages() {
        let ssd = catalog::ssd_hyperx_predator();
        let (read, xfer, write) = (100_000, 50_000, 25_000);
        let compute = SimDur::from_micros(7);
        let work = ChunkWork::new()
            .read(read)
            .xfer(xfer)
            .compute(compute)
            .write(write);
        for tree in [
            presets::apu_two_level(ssd.clone()),
            presets::discrete_gpu_three_level(ssd.clone()),
            presets::asymmetric_fig2(),
        ] {
            let root = &tree.node(tree.root()).mem;
            let hop_time = |hop: NodeId, len| tree.node(hop).link.as_ref().map(|l| l.hop_time(len));
            for leaf in tree.leaves().map(|l| l.id) {
                for cs in &build_chain(&tree, leaf, work, 1).stages {
                    let want = match cs.stage {
                        Stage::Read => Some(root.read_time(read)),
                        Stage::LinkDown(hop) => hop_time(hop, xfer),
                        Stage::Compute(_) => Some(compute),
                        Stage::LinkUp(hop) => hop_time(hop, write),
                        // The root's read price, not its write price (see
                        // `build_chain`: the fix waits on the overload trace).
                        Stage::WriteBack => Some(root.read_time(write)),
                    };
                    assert_eq!(Some(cs.dur), want, "{:?} on {leaf}", cs.stage);
                }
            }
        }
        // On the SSD root that is not the device's write price: the one
        // divergence from `Runtime`, pinned by the loop above.
        assert_ne!(ssd.read_time(write), ssd.write_time(write));
    }

    /// `Runtime` and a compiled chain price the stages both models share
    /// alike, so the two cannot drift (only `WriteBack` differs, until
    /// the overload trace is re-sized for its write price): a root→staging
    /// move's `FileIo` busy time is the chain's `Read`, and a DRAM→GPU
    /// move's `DeviceTransfer` busy time is that hop's `LinkDown`.
    #[test]
    fn runtime_moves_and_chain_stages_price_alike() -> crate::Result<()> {
        let len = 3 << 20;
        let busy = |tree: Tree, from: NodeId, to: NodeId, c: Category| -> crate::Result<SimDur> {
            let rt = Runtime::new(tree, ExecMode::Modeled)?;
            let (src, dst) = (rt.alloc(len, from)?, rt.alloc(len, to)?);
            rt.move_data(dst, 0, src, 0, len)?;
            Ok(rt.report().breakdown.get(c))
        };
        let ssd = catalog::ssd_hyperx_predator();

        // apu_two_level: n0 = SSD root, n1 = DRAM staging leaf.
        let apu = presets::apu_two_level(ssd.clone());
        let chain = build_chain(&apu, NodeId(1), ChunkWork::new().read(len), 1);
        assert_eq!(chain.stages[0].stage, Stage::Read);
        let file_io = busy(apu, NodeId(0), NodeId(1), Category::FileIo)?;
        assert_eq!(file_io, chain.stages[0].dur);

        // discrete_gpu_three_level: n1 = DRAM, n2 = GPU device memory.
        let gpu = presets::discrete_gpu_three_level(ssd);
        let chain = build_chain(&gpu, NodeId(2), ChunkWork::new().xfer(len), 1);
        let hop = chain
            .stages
            .iter()
            .find(|s| s.stage == Stage::LinkDown(NodeId(2)));
        let dma = busy(gpu, NodeId(1), NodeId(2), Category::DeviceTransfer)?;
        assert_eq!(Some(dma), hop.map(|s| s.dur));
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

    /// The precompiled `nodes` vector is a derived view of `stages` — the
    /// hot schedulers index it blindly, so it must match for every work
    /// shape (zero-demand stages skipped, single-stage chains, deeper
    /// asymmetric trees included).
    #[test]
    fn compiled_nodes_tile_the_stages() {
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
            for leaf in tree.leaves().map(|l| l.id) {
                for work in shapes {
                    let chain = build_chain(&tree, leaf, work, 1);
                    // nodes[i] is stages[i]'s failure domain, precomputed.
                    assert_eq!(chain.nodes.len(), chain.stages.len());
                    for (cs, &n) in chain.stages.iter().zip(&chain.nodes) {
                        assert_eq!(n, cs.stage.node(root));
                    }
                }
            }
        }
    }
}
