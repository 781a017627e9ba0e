//! The divide-and-conquer template for chain topologies (paper §III-C,
//! Listing 3).
//!
//! "We also support task queues to keep track of the progress of data
//! movement for individual chunks ... This enables multi-stage data
//! transfer and better parallelism. Whenever the space of lower memory
//! levels is freed, more chunks can be scheduled for movement."
//!
//! An out-of-core application states its buffer sizes, a load closure and
//! a work closure; the two types here own the transfer discipline:
//!
//! * [`ChunkPipeline`] is the staging level: a ring of buffer slots, loads
//!   for chunk *t+1* issued before chunk *t*'s compute and write-back (so
//!   the storage device streams ahead instead of head-of-line blocking
//!   behind result writes), write-after-read hazards bounding how far
//!   ahead the ring may run. A run always starts at the first item;
//!   nothing resumes a pipeline part-way. Users: `matmul`, `hotspot` and
//!   `reduce` in `northup-apps`.
//! * [`ChainBufs`] is Listing 3's recursion below the staging level
//!   (`setup_buffer` at the child, `move_data_down`, recurse,
//!   `move_data_up`): one buffer set per deeper level, pushed down and
//!   pulled up level by level. Users: `matmul`, `hotspot`, `spmv` and
//!   `distributed` in `northup-apps`.

use crate::data::BufferHandle;
use crate::error::Result;
use crate::runtime::Runtime;
use crate::topology::{NodeId, TopologyError};

/// One buffer per entry of `sizes` on `node`.
fn alloc_set(rt: &Runtime, node: NodeId, sizes: &[u64]) -> Result<Vec<BufferHandle>> {
    sizes.iter().map(|&s| rt.alloc(s, node)).collect()
}

/// A ring of staging slots at one tree node, each slot holding one buffer
/// per configured size.
///
/// ```
/// use northup::{presets, ChunkPipeline, ExecMode, NodeId, ProcKind, Runtime};
/// use northup_hw::catalog;
/// use northup_sim::SimDur;
///
/// let rt = Runtime::new(
///     presets::apu_two_level(catalog::ssd_hyperx_predator()),
///     ExecMode::Real,
/// ).unwrap();
/// let file = rt.alloc(4096, NodeId(0)).unwrap();
///
/// let pipe = ChunkPipeline::new(&rt, NodeId(1), 2, &[1024]).unwrap();
/// let chunks: Vec<u64> = (0..4).collect();
/// pipe.run(
///     &chunks,
///     |&i, bufs| { rt.move_data(bufs[0], 0, file, i * 1024, 1024)?; Ok(()) },
///     |_, bufs| {
///         rt.charge_compute(NodeId(1), ProcKind::Gpu, SimDur::from_micros(50),
///                           &[bufs[0]], &[], "kernel")?;
///         Ok(())
///     },
/// ).unwrap();
/// pipe.release().unwrap();
/// ```
pub struct ChunkPipeline<'rt> {
    rt: &'rt Runtime,
    node: NodeId,
    ring: usize,
    /// `slots[r][k]` = buffer `k` of ring slot `r`.
    slots: Vec<Vec<BufferHandle>>,
}

impl<'rt> ChunkPipeline<'rt> {
    /// Allocate `ring` slots (min 2 — prefetch needs double buffering) of
    /// one buffer per entry of `buf_sizes` on `node`.
    pub fn new(rt: &'rt Runtime, node: NodeId, ring: usize, buf_sizes: &[u64]) -> Result<Self> {
        let ring = ring.max(2);
        let slots = (0..ring)
            .map(|_| alloc_set(rt, node, buf_sizes))
            .collect::<Result<_>>()?;
        Ok(ChunkPipeline {
            rt,
            node,
            ring,
            slots,
        })
    }

    /// The staging node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Ring depth.
    pub fn ring(&self) -> usize {
        self.ring
    }

    /// Drive `items` through the pipeline: `load(item, slot)` stages the
    /// item's inputs; `work(item, slot)` computes and writes back. Loads for
    /// item *t+1* are issued before `work(t)`, which is what lets the
    /// storage device stream ahead. Slot reuse hazards (a load overwriting
    /// a slot still being read) are handled by the runtime's dataflow
    /// dependencies.
    pub fn run<T>(
        &self,
        items: &[T],
        mut load: impl FnMut(&T, &[BufferHandle]) -> Result<()>,
        mut work: impl FnMut(&T, &[BufferHandle]) -> Result<()>,
    ) -> Result<()> {
        let Some(first) = items.first() else {
            return Ok(());
        };
        load(first, &self.slots[0])?;
        for (t, item) in items.iter().enumerate() {
            if let Some(next) = items.get(t + 1) {
                load(next, &self.slots[(t + 1) % self.ring])?;
            }
            work(item, &self.slots[t % self.ring])?;
        }
        Ok(())
    }

    /// Release every staged buffer.
    pub fn release(self) -> Result<()> {
        for slot in self.slots {
            for b in slot {
                self.rt.release(b)?;
            }
        }
        Ok(())
    }
}

/// One buffer set per memory level below a staging node, for trees that
/// are a chain from there down (`stage -> [device memory ...] -> leaf`).
///
/// On a two-level tree the chain is empty and every call degenerates to
/// the staged buffers themselves, so one application body serves every
/// chain preset — the property the paper's Listing 2 lacks.
///
/// ```
/// use northup::{presets, ChainBufs, ExecMode, NodeId, ProcKind, Runtime};
/// use northup_hw::catalog;
/// use northup_sim::SimDur;
///
/// // SSD root -> DRAM staging (n1) -> discrete-GPU memory leaf (n2).
/// let rt = Runtime::new(
///     presets::discrete_gpu_three_level(catalog::ssd_hyperx_predator()),
///     ExecMode::Real,
/// ).unwrap();
/// let stage = NodeId(1);
/// let staged = [rt.alloc(256, stage).unwrap(), rt.alloc(64, stage).unwrap()];
/// rt.write_slice(staged[0], 0, &[3u8; 256]).unwrap();
///
/// let deep = ChainBufs::new(&rt, stage, &[256, 64]).unwrap();
/// assert_eq!(deep.leaf(), NodeId(2));
/// // Input 0 travels to the leaf; buffer 1 (the output) is not moved.
/// let leaf = deep.push_down(&staged, &[(0, 256)]).unwrap();
/// rt.charge_compute(deep.leaf(), ProcKind::Gpu, SimDur::from_micros(10),
///                   &[leaf[0]], &[leaf[1]], "kernel").unwrap();
/// // The result climbs back to the level just below the staging node.
/// let top = deep.pull_up(1, 64).unwrap().expect("one deeper level");
/// rt.move_data(staged[1], 0, top, 0, 64).unwrap();
/// deep.release().unwrap();
/// ```
pub struct ChainBufs<'rt> {
    rt: &'rt Runtime,
    stage: NodeId,
    /// `levels[d]` = node `d + 1` hops below the staging node and its
    /// buffers, one per configured size.
    levels: Vec<(NodeId, Vec<BufferHandle>)>,
}

impl<'rt> ChainBufs<'rt> {
    /// Allocate one buffer per entry of `sizes` on every node below
    /// `stage`. Errors with [`TopologyError::NotAChain`] when `stage` or a
    /// node below it has more than one child.
    pub fn new(rt: &'rt Runtime, stage: NodeId, sizes: &[u64]) -> Result<Self> {
        let tree = rt.tree();
        let chain = tree.chain_below(stage);
        let fork = std::iter::once(&stage)
            .chain(&chain)
            .find(|&&n| tree.children(n).len() > 1);
        if let Some(&fork) = fork {
            return Err(TopologyError::NotAChain(fork).into());
        }
        let levels = chain
            .into_iter()
            .map(|node| Ok((node, alloc_set(rt, node, sizes)?)))
            .collect::<Result<_>>()?;
        Ok(ChainBufs { rt, stage, levels })
    }

    /// The compute leaf: the last node of the chain, or the staging node
    /// itself when nothing lies below it.
    pub fn leaf(&self) -> NodeId {
        self.levels.last().map_or(self.stage, |l| l.0)
    }

    /// Move buffer `k`'s first `bytes` bytes one level down at a time, from
    /// `staged[k]` to the leaf, for each `(k, bytes)` of `moves`; returns
    /// the leaf-level buffer set (`staged` itself on an empty chain). A
    /// buffer left out of `moves` keeps its contents at every level — the
    /// §IV-A reuse of a shard that is already resident, or an output that
    /// has nothing to send down.
    pub fn push_down<'a>(
        &'a self,
        staged: &'a [BufferHandle],
        moves: &[(usize, u64)],
    ) -> Result<&'a [BufferHandle]> {
        let mut cur = staged;
        for (_, bufs) in &self.levels {
            for &(k, bytes) in moves {
                self.rt.move_data(bufs[k], 0, cur[k], 0, bytes)?;
            }
            cur = bufs;
        }
        Ok(cur)
    }

    /// Move the leaf's buffer `k` up to the level just below the staging
    /// node and return that level's buffer `k`; the caller moves it into
    /// its own staged buffer (plain or strided). `None` on an empty chain:
    /// the leaf buffer already is the staged one.
    pub fn pull_up(&self, k: usize, bytes: u64) -> Result<Option<BufferHandle>> {
        let mut levels = self.levels.iter().rev();
        let Some((_, leaf)) = levels.next() else {
            return Ok(None);
        };
        let mut cur = leaf[k];
        for (_, bufs) in levels {
            self.rt.move_data(bufs[k], 0, cur, 0, bytes)?;
            cur = bufs[k];
        }
        Ok(Some(cur))
    }

    /// Release every buffer, top level first.
    pub fn release(self) -> Result<()> {
        for (_, bufs) in self.levels {
            for b in bufs {
                self.rt.release(b)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NorthupError;
    use crate::presets;
    use crate::runtime::ExecMode;
    use crate::topology::ProcKind;
    use northup_hw::catalog;
    use northup_sim::SimDur;

    fn rt() -> Runtime {
        Runtime::new(
            presets::apu_two_level(catalog::ssd_hyperx_predator()),
            ExecMode::Real,
        )
        .unwrap()
    }

    #[test]
    fn pipeline_visits_every_item_in_order() {
        let rt = rt();
        let pipe = ChunkPipeline::new(&rt, NodeId(1), 2, &[64]).unwrap();
        let items: Vec<u32> = (0..7).collect();
        let loaded = std::cell::RefCell::new(Vec::new());
        let worked = std::cell::RefCell::new(Vec::new());
        pipe.run(
            &items,
            |&i, _| {
                loaded.borrow_mut().push(i);
                Ok(())
            },
            |&i, _| {
                worked.borrow_mut().push(i);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(worked.into_inner(), items);
        assert_eq!(loaded.into_inner(), items, "each item loaded exactly once");
        pipe.release().unwrap();
    }

    #[test]
    fn loads_run_one_item_ahead_of_work() {
        let rt = rt();
        let pipe = ChunkPipeline::new(&rt, NodeId(1), 2, &[16]).unwrap();
        let events = std::cell::RefCell::new(Vec::new());
        pipe.run(
            &[0, 1, 2],
            |&i, _| {
                events.borrow_mut().push(format!("load{i}"));
                Ok(())
            },
            |&i, _| {
                events.borrow_mut().push(format!("work{i}"));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(
            events.into_inner(),
            vec!["load0", "load1", "work0", "load2", "work1", "work2"]
        );
    }

    #[test]
    fn pipelined_chunks_overlap_io_and_compute() {
        // The whole point: with the pipeline, total time ~ max(io, compute),
        // not their sum.
        let rt = rt();
        let chunk = 50_000_000u64; // ~36 ms SSD read each
        let file = rt.alloc(chunk * 6, NodeId(0)).unwrap();
        let pipe = ChunkPipeline::new(&rt, NodeId(1), 2, &[chunk]).unwrap();
        let items: Vec<u64> = (0..6).collect();
        let compute = SimDur::from_millis(35);
        pipe.run(
            &items,
            |&i, bufs| {
                rt.move_data(bufs[0], 0, file, i * chunk, chunk)?;
                Ok(())
            },
            |_, bufs| {
                rt.charge_compute(NodeId(1), ProcKind::Gpu, compute, &[bufs[0]], &[], "k")?;
                Ok(())
            },
        )
        .unwrap();
        let makespan = rt.makespan().as_secs_f64();
        let io = 6.0 * (chunk as f64 / 1.4e9);
        let comp = 6.0 * compute.as_secs_f64();
        let serial = io + comp;
        assert!(
            makespan < 0.75 * serial,
            "makespan {makespan:.3} vs serial {serial:.3}"
        );
        assert!(makespan >= io.max(comp) - 1e-9);
    }

    #[test]
    fn ring_is_clamped_to_double_buffering() {
        let rt = rt();
        let pipe = ChunkPipeline::new(&rt, NodeId(1), 1, &[8, 8]).unwrap();
        assert_eq!(pipe.ring(), 2);
        assert_eq!(pipe.node(), NodeId(1));
        pipe.release().unwrap();
    }

    #[test]
    fn empty_item_list_is_a_noop() {
        let rt = rt();
        let pipe = ChunkPipeline::new(&rt, NodeId(1), 2, &[8]).unwrap();
        pipe.run(
            &[] as &[u32],
            |_, _| panic!("no loads"),
            |_, _| panic!("no work"),
        )
        .unwrap();
        pipe.release().unwrap();
    }

    fn read8(rt: &Runtime, h: BufferHandle) -> [u8; 8] {
        let mut out = [0u8; 8];
        rt.read_slice(h, 0, &mut out).unwrap();
        out
    }

    #[test]
    fn empty_chain_degenerates_to_the_staged_buffers() {
        let rt = rt();
        let stage = NodeId(1);
        let staged = [rt.alloc(8, stage).unwrap()];
        let deep = ChainBufs::new(&rt, stage, &[8]).unwrap();
        let spans = rt.report().breakdown.spans;
        assert_eq!(deep.leaf(), stage);
        assert_eq!(deep.push_down(&staged, &[(0, 8)]).unwrap(), &staged);
        assert_eq!(deep.pull_up(0, 8).unwrap(), None);
        assert_eq!(rt.report().breakdown.spans, spans, "no transfer issued");
        deep.release().unwrap();
    }

    #[test]
    fn chain_moves_level_by_level_and_unlisted_buffers_keep_their_contents() {
        let rt = Runtime::new(presets::exascale_node(), ExecMode::Real).unwrap();
        let (stage, hbm, gpu) = (NodeId(1), NodeId(2), NodeId(3));
        let free = [hbm, gpu].map(|n| rt.available(n));
        let staged = [rt.alloc(8, stage).unwrap(), rt.alloc(8, stage).unwrap()];
        rt.write_slice(staged[0], 0, &[1; 8]).unwrap();
        rt.write_slice(staged[1], 0, &[2; 8]).unwrap();

        let deep = ChainBufs::new(&rt, stage, &[8, 8]).unwrap();
        assert_eq!(deep.leaf(), gpu);
        let leaf = deep.push_down(&staged, &[(0, 8), (1, 8)]).unwrap();
        assert_eq!((read8(&rt, leaf[0]), read8(&rt, leaf[1])), ([1; 8], [2; 8]));

        // Both staged buffers change, only buffer 1 is pushed again: the
        // leaf keeps buffer 0 from the previous full push.
        rt.write_slice(staged[0], 0, &[9; 8]).unwrap();
        rt.write_slice(staged[1], 0, &[7; 8]).unwrap();
        let spans = rt.report().breakdown.spans;
        assert_eq!(deep.push_down(&staged, &[(1, 8)]).unwrap(), leaf);
        assert_eq!(
            rt.report().breakdown.spans - spans,
            2,
            "one move_data per level"
        );
        assert_eq!((read8(&rt, leaf[0]), read8(&rt, leaf[1])), ([1; 8], [7; 8]));

        // The leaf's bytes climb to the level just below the staging node.
        let top = deep.pull_up(1, 8).unwrap().expect("two deeper levels");
        assert_eq!(rt.buffer_node(top).unwrap(), hbm);
        assert_eq!(read8(&rt, top), [7; 8]);

        deep.release().unwrap();
        assert_eq!([hbm, gpu].map(|n| rt.available(n)), free);
    }

    #[test]
    fn forks_and_missing_processors_are_typed_errors() {
        // Fig. 2: the DRAM node "3" fans out to two accelerator leaves.
        let rt = Runtime::new(presets::asymmetric_fig2(), ExecMode::Real).unwrap();
        let tree = rt.tree();
        let fork = tree
            .nodes()
            .find(|n| n.parent.is_some() && n.children.len() == 2)
            .expect("fig. 2 has a two-child inner node")
            .id;
        assert!(matches!(
            ChainBufs::new(&rt, fork, &[8]),
            Err(NorthupError::Topology(TopologyError::NotAChain(n))) if n == fork
        ));
        assert_eq!(
            rt.used(tree.children(fork)[0]),
            0,
            "rejected before allocating"
        );

        // Node 1 is a DRAM leaf with only a CPU.
        assert_eq!(rt.proc_at(NodeId(1), ProcKind::Cpu).unwrap().name, "cpu0");
        assert!(matches!(
            rt.proc_at(NodeId(1), ProcKind::Gpu),
            Err(NorthupError::NoProcessor(NodeId(1)))
        ));
    }

    #[test]
    fn release_returns_all_capacity() {
        let rt = rt();
        let before = rt.available(NodeId(1));
        let pipe = ChunkPipeline::new(&rt, NodeId(1), 3, &[1024, 2048]).unwrap();
        assert_eq!(rt.available(NodeId(1)), before - 3 * (1024 + 2048));
        pipe.release().unwrap();
        assert_eq!(rt.available(NodeId(1)), before);
    }
}
