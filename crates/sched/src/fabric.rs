//! The modeled backend of the stage-chain IR: shared virtual-time
//! resources for the co-simulation.
//!
//! One [`SimFabric`] holds a `northup-sim` [`Resource`] per tree node
//! (storage/memory bandwidth), per tree edge (link bandwidth + latency),
//! and per attached processor (compute). All admitted jobs serve their
//! chunk traffic on these *shared* resources, so SSD and PCIe contention
//! between concurrent jobs shows up directly in their makespans.
//!
//! The construction is close to `northup::Runtime`'s single-job model but
//! not equal to it: each node's resource is built from the device's
//! *read* bandwidth and *read* latency, and a chunk's root
//! [`Stage::WriteBack`] is served on that same resource. So a write-back
//! is charged at the root's read rate (an `ssd_hyperx_predator` root,
//! 1400 MB/s read / 600 MB/s write, is written at 1400 MB/s plus its
//! 60 µs read latency), where `Runtime::schedule_transfer` charges the
//! device's `write_bw` and `write_latency`. Every pinned schedule digest
//! and the `service`, `slo` and `chaos` figures are computed under this
//! model.
//!
//! The *what* of a chunk — its ordered, costed stages — is the
//! [`ChunkChain`](northup::fabric::ChunkChain) IR compiled by
//! [`northup::fabric::build_chain`]; this module only decides *when*
//! each stage is served. A chunk is served **stage by stage**: the
//! scheduler books one [`ChainStage`] at its
//! actual virtual ready time and only then learns when the next stage
//! may start. Booking the whole chain at issue time would let an early
//! chunk reserve the root storage far into the future (the [`Resource`]
//! list scheduler never backfills idle gaps), which silently serializes
//! concurrent jobs.

use northup::fabric::{ChainStage, Stage};
use northup::Tree;
use northup_sim::{Resource, SimTime};

/// Shared contention model: one resource per node, edge, and processor.
#[derive(Debug)]
pub struct SimFabric {
    /// Indexed by `NodeId.0`: the node's storage/memory bandwidth.
    node_res: Vec<Resource>,
    /// Indexed by `NodeId.0`: the link from this node up to its parent.
    link_res: Vec<Option<Resource>>,
    /// Indexed by `NodeId.0`: the node's first attached processor.
    comp_res: Vec<Option<Resource>>,
}

impl SimFabric {
    /// Build the fabric: node bandwidth and latency from
    /// `DeviceSpec.read_bw` and `read_latency` (for reads and write-backs
    /// alike), link bandwidth/latency from `LinkSpec`, one compute
    /// resource per node with processors.
    pub fn new(tree: &Tree) -> Self {
        let mut node_res = Vec::with_capacity(tree.len());
        let mut link_res = Vec::with_capacity(tree.len());
        let mut comp_res = Vec::with_capacity(tree.len());
        for n in tree.nodes() {
            node_res.push(Resource::new(
                &n.mem.name,
                n.mem.read_bw,
                n.mem.read_latency,
            ));
            link_res.push(
                n.link
                    .as_ref()
                    .map(|l| Resource::new(&l.name, l.bandwidth, l.latency)),
            );
            comp_res.push(n.procs.first().map(|_| Resource::new_compute()));
        }
        SimFabric {
            node_res,
            link_res,
            comp_res,
        }
    }

    /// Book one stage starting no earlier than `ready`; returns when it
    /// completes (FIFO-queued behind whatever the resource already
    /// serves).
    pub fn serve(&mut self, stage: &ChainStage, ready: SimTime) -> SimTime {
        match stage.stage {
            Stage::Read => self.node_res[0].serve_bytes(ready, stage.cost.bytes).end,
            Stage::LinkDown(hop) => match self.link_res[hop.0].as_mut() {
                Some(link) => link.serve_bytes(ready, stage.cost.bytes).end,
                None => ready,
            },
            Stage::Compute(leaf) => match self.comp_res[leaf.0].as_mut() {
                Some(comp) => comp.serve_for(ready, stage.cost.compute).end,
                None => ready + stage.cost.compute,
            },
            Stage::LinkUp(hop) => match self.link_res[hop.0].as_mut() {
                Some(link) => link.serve_bytes(ready, stage.cost.bytes).end,
                None => ready,
            },
            Stage::WriteBack => self.node_res[0].serve_bytes(ready, stage.cost.bytes).end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobWork;
    use northup::fabric::{build_chain, ChunkChain};
    use northup::{presets, NodeId};
    use northup_hw::catalog;
    use northup_sim::SimDur;

    fn leaf_of(tree: &Tree) -> NodeId {
        tree.leaves().next().unwrap().id
    }

    /// One whole chunk for a single tenant, stage after stage.
    fn serve_chunk(fab: &mut SimFabric, chain: &ChunkChain, ready: SimTime) -> SimTime {
        chain
            .stages
            .iter()
            .fold(ready, |t, stage| fab.serve(stage, t))
    }

    #[test]
    fn chunks_on_one_leaf_serialize_on_shared_resources() {
        let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
        let mut fab = SimFabric::new(&tree);
        let leaf = leaf_of(&tree);
        let work = JobWork::new(1)
            .read(64 << 20)
            .xfer(64 << 20)
            .compute(SimDur::from_millis(3));
        let chain = build_chain(&tree, leaf, work.chunk_work(), 1);
        let t1 = serve_chunk(&mut fab, &chain, SimTime::ZERO);
        let t2 = serve_chunk(&mut fab, &chain, SimTime::ZERO);
        assert!(t1 > SimTime::ZERO);
        assert!(
            t2 > t1,
            "second chunk must queue behind the first on shared SSD/link"
        );
    }

    #[test]
    fn chain_ir_covers_the_path_and_skips_zero_cost() {
        let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
        let leaf = leaf_of(&tree);
        let full = build_chain(
            &tree,
            leaf,
            JobWork::new(1)
                .read(1)
                .xfer(1)
                .compute(SimDur::from_micros(1))
                .write(1)
                .chunk_work(),
            1,
        );
        assert_eq!(full.stages.first().map(|s| s.stage), Some(Stage::Read));
        assert_eq!(full.stages.last().map(|s| s.stage), Some(Stage::WriteBack));
        assert!(full.stages.iter().any(|s| s.stage == Stage::Compute(leaf)));
        let read_only = build_chain(&tree, leaf, JobWork::new(1).read(1).chunk_work(), 1);
        assert_eq!(read_only.stages.len(), 1);
        assert!(build_chain(&tree, leaf, JobWork::new(1).chunk_work(), 1).is_empty());
    }
}
