//! The modeled backend of the stage-chain IR: shared virtual-time
//! servers for the co-simulation.
//!
//! One [`SimFabric`] holds a `northup-sim` [`Resource`] for the root
//! storage, one per linked node (the link up to its parent) and one per
//! node with processors (its first processor). All admitted jobs serve
//! their chunk traffic on these *shared* servers, so SSD and PCIe
//! contention between concurrent jobs shows up directly in their
//! makespans.
//!
//! The *what* of a chunk — its ordered stages and how long each keeps
//! its server busy — is the [`ChunkChain`](northup::fabric::ChunkChain)
//! IR compiled and priced by [`northup::fabric::build_chain`], with the
//! device and link functions `northup::Runtime` moves data with (its one
//! divergence, a write-back priced at the root's read rate, is written
//! there). This module only books durations and decides *when* each
//! stage is served. A chunk is served **stage by stage**: the scheduler
//! books one [`ChainStage`] at its actual virtual ready time and only
//! then learns when the next stage may start. Booking the whole chain at
//! issue time would let an early chunk reserve the root storage far into
//! the future (the [`Resource`] list scheduler never backfills idle
//! gaps), which silently serializes concurrent jobs.

use northup::fabric::{ChainStage, Stage};
use northup::Tree;
use northup_sim::{Resource, SimTime};

/// Shared contention model: one server for the root storage, one per
/// link and one per computing node.
#[derive(Debug)]
pub struct SimFabric {
    /// The root storage: every `Read` and `WriteBack`.
    root: Resource,
    /// Indexed by `NodeId.0`: the link from this node up to its parent.
    links: Vec<Option<Resource>>,
    /// Indexed by `NodeId.0`: the node's first attached processor.
    procs: Vec<Option<Resource>>,
}

impl SimFabric {
    /// Build the fabric's servers for `tree`. They carry no rate: a
    /// stage's duration comes priced in its chain.
    pub fn new(tree: &Tree) -> Self {
        let server = |has: bool| has.then(Resource::new_compute);
        SimFabric {
            root: Resource::new_compute(),
            links: tree.nodes().map(|n| server(n.link.is_some())).collect(),
            procs: tree.nodes().map(|n| server(!n.procs.is_empty())).collect(),
        }
    }

    /// Book one stage's duration starting no earlier than `ready`;
    /// returns when it completes (FIFO-queued behind whatever its server
    /// already serves). A stage with no server takes its duration
    /// uncontended.
    pub fn serve(&mut self, stage: &ChainStage, ready: SimTime) -> SimTime {
        let server = match stage.stage {
            Stage::Read | Stage::WriteBack => Some(&mut self.root),
            Stage::LinkDown(hop) | Stage::LinkUp(hop) => self.links[hop.0].as_mut(),
            Stage::Compute(leaf) => self.procs[leaf.0].as_mut(),
        };
        match server {
            Some(res) => res.serve_for(ready, stage.dur).end,
            None => ready + stage.dur,
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
}
