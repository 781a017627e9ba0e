//! The recursive execution context (paper §III-C, Listing 3).
//!
//! A Northup application is one recursive function over a [`Ctx`]:
//!
//! ```
//! use northup::{Ctx, ExecMode, Runtime, presets};
//! use northup_hw::catalog;
//!
//! fn myfunction(ctx: &Ctx) {
//!     if ctx.level() == ctx.max_level() {
//!         // compute_task(): launch the kernel on the attached processor
//!     } else {
//!         for chunk in 0..4 {
//!             // setup_buffer(); data_down();
//!             ctx.spawn(0, |child| myfunction(child)); // northup_spawn
//!             // data_up();
//!         }
//!         let _ = chunk;
//!     }
//! }
//! # fn chunk() {}
//!
//! let rt = Runtime::new(
//!     presets::apu_two_level(catalog::ssd_hyperx_predator()),
//!     ExecMode::Real,
//! ).unwrap();
//! myfunction(&rt.root_ctx());
//! ```
//!
//! The context answers the paper's queries (`get_cur_treenode`,
//! `get_level`, `get_max_treelevel`, `get_device`) and provides the
//! node-relative data movement sugar. Recursion depth equals the number of
//! memory levels, so the paper's stack-overflow caveat is moot by
//! construction.

use crate::data::BufferHandle;
use crate::error::Result;
use crate::runtime::Runtime;
use crate::topology::{NodeId, ProcKind, ProcessorDesc};
use northup_sim::Served;

/// Execution context at one tree node during the recursion.
pub struct Ctx<'rt> {
    rt: &'rt Runtime,
    node: NodeId,
}

impl Runtime {
    /// Start the recursion at the tree root (the slowest storage, level 0).
    pub fn root_ctx(&self) -> Ctx<'_> {
        Ctx {
            rt: self,
            node: self.tree().root(),
        }
    }

    /// A context pinned at an arbitrary node (for tests and schedulers).
    pub fn ctx_at(&self, node: NodeId) -> Ctx<'_> {
        Ctx { rt: self, node }
    }
}

impl<'rt> Ctx<'rt> {
    /// The runtime this context belongs to.
    pub fn rt(&self) -> &'rt Runtime {
        self.rt
    }

    /// The paper's `get_cur_treenode()`.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The paper's `get_level()`.
    pub fn level(&self) -> usize {
        self.rt.tree().level(self.node)
    }

    /// The paper's `get_max_treelevel()`.
    pub fn max_level(&self) -> usize {
        self.rt.tree().max_level()
    }

    /// Whether computation happens here.
    pub fn is_leaf(&self) -> bool {
        self.rt.tree().node(self.node).is_leaf()
    }

    /// The paper's `get_children_list()`.
    pub fn children(&self) -> &'rt [NodeId] {
        self.rt.tree().children(self.node)
    }

    /// The paper's `get_parent()`.
    pub fn parent(&self) -> Option<NodeId> {
        self.rt.tree().parent(self.node)
    }

    /// Processors attached here (empty on pure memory nodes).
    pub fn procs(&self) -> &'rt [ProcessorDesc] {
        &self.rt.tree().node(self.node).procs
    }

    /// The paper's `get_device()`: the primary attached processor kind.
    pub fn device(&self) -> Option<ProcKind> {
        self.procs().first().map(|p| p.kind)
    }

    /// The paper's `northup_spawn`: recurse into child `index`, tracking the
    /// task in this node's work-queue statistics. Returns the closure's
    /// result.
    ///
    /// # Panics
    /// Panics if `index` is out of range (children come from
    /// [`children`](Self::children)).
    pub fn spawn<R>(&self, index: usize, f: impl FnOnce(&Ctx<'rt>) -> R) -> R {
        let child = self.children()[index];
        self.rt.note_spawn(self.node);
        let ctx = Ctx {
            rt: self.rt,
            node: child,
        };
        f(&ctx)
    }

    /// Allocate a buffer on this node (paper: `alloc(size, node)` inside
    /// `setup_buffer`).
    pub fn alloc(&self, size: u64) -> Result<BufferHandle> {
        self.rt.alloc(size, self.node)
    }

    /// `data_down`: move from a buffer on this node into a buffer on a child.
    pub fn move_down(
        &self,
        dst: BufferHandle,
        dst_off: u64,
        src: BufferHandle,
        src_off: u64,
        len: u64,
    ) -> Result<Served> {
        self.rt
            .move_data_down(self.node, dst, dst_off, src, src_off, len)
    }

    /// `data_up`: move from a buffer on this node into a buffer on the parent.
    pub fn move_up(
        &self,
        dst: BufferHandle,
        dst_off: u64,
        src: BufferHandle,
        src_off: u64,
        len: u64,
    ) -> Result<Served> {
        self.rt
            .move_data_up(self.node, dst, dst_off, src, src_off, len)
    }

    /// Launch a leaf computation here (see [`Runtime::charge_compute`]).
    pub fn compute(
        &self,
        kind: ProcKind,
        dur: northup_sim::SimDur,
        reads: &[BufferHandle],
        writes: &[BufferHandle],
        label: &str,
    ) -> Result<Served> {
        self.rt
            .charge_compute(self.node, kind, dur, reads, writes, label)
    }

    /// Remaining capacity here (drives blocking-size decisions).
    pub fn available(&self) -> u64 {
        self.rt.available(self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::runtime::ExecMode;
    use northup_hw::catalog;

    fn rt3() -> Runtime {
        Runtime::new(
            presets::discrete_gpu_three_level(catalog::ssd_hyperx_predator()),
            ExecMode::Real,
        )
        .unwrap()
    }

    #[test]
    fn root_ctx_is_level_zero() {
        let rt = rt3();
        let ctx = rt.root_ctx();
        assert_eq!(ctx.level(), 0);
        assert_eq!(ctx.max_level(), 2);
        assert!(!ctx.is_leaf());
        assert_eq!(ctx.parent(), None);
    }

    #[test]
    fn recursion_reaches_the_leaf() {
        let rt = rt3();
        // Walk down the single spine.
        let depth = {
            fn descend(ctx: &Ctx, depth: usize) -> usize {
                if ctx.is_leaf() {
                    assert_eq!(ctx.level(), ctx.max_level());
                    assert_eq!(ctx.device(), Some(ProcKind::Gpu));
                    depth
                } else {
                    ctx.spawn(0, |child| descend(child, depth + 1))
                }
            }
            descend(&rt.root_ctx(), 0)
        };
        assert_eq!(depth, 2);
    }

    #[test]
    fn spawn_counts_tasks_in_work_queues() {
        let rt = rt3();
        let ctx = rt.root_ctx();
        for _ in 0..5 {
            ctx.spawn(0, |child| {
                assert_eq!(child.level(), 1);
            });
        }
        assert_eq!(rt.tasks_spawned(ctx.node()), 5);
    }

    #[test]
    fn node_relative_moves_work_through_ctx() {
        let rt = rt3();
        let root = rt.root_ctx();
        let src = root.alloc(64).unwrap();
        rt.write_slice(src, 0, &[3u8; 64]).unwrap();
        root.spawn(0, |dram| {
            let stage = dram.alloc(64).unwrap();
            // data_down from the parent's perspective is move_down on root,
            // but from the child we express it as: parent's buffer -> mine.
            rt.move_data(stage, 0, src, 0, 64).unwrap();
            dram.spawn(0, |gpu| {
                let dev = gpu.alloc(64).unwrap();
                rt.move_data(dev, 0, stage, 0, 64).unwrap();
                let mut out = [0u8; 64];
                rt.read_slice(dev, 0, &mut out).unwrap();
                assert_eq!(out, [3u8; 64]);
                // And back up.
                gpu.move_up(stage, 0, dev, 0, 64).unwrap();
            });
        });
    }

    #[test]
    fn apu_leaf_has_both_devices() {
        let rt = Runtime::new(
            presets::apu_two_level(catalog::ssd_hyperx_predator()),
            ExecMode::Real,
        )
        .unwrap();
        let leaf = rt.ctx_at(NodeId(1));
        let kinds: Vec<ProcKind> = leaf.procs().iter().map(|p| p.kind).collect();
        assert_eq!(kinds, [ProcKind::Gpu, ProcKind::Cpu]);
        assert_eq!(leaf.device(), Some(ProcKind::Gpu));
    }
}
