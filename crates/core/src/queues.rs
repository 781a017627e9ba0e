//! Per-node work queues (paper Listing 1: `list *work_queue[numQueues]`).
//!
//! "The tree node can also store the links to work queues which keep track
//! of the recursive tasks; and this allows for the implementation of load
//! balancing across different tree branches" (§III-B), and §V-E:
//! "examining the status of a subsystem can be easily accomplished by
//! checking the queue that \[is\] associated with the root of a subtree."
//!
//! [`WorkQueues`] keeps what that status check reads: the number of tasks
//! pending on each node. Schedulers count a task in when they place it on
//! a node and out when it retires, and dispatchers read per-subtree depths
//! to steer new work.

use crate::topology::{NodeId, Tree};

/// Pending-task counts for every node of a tree.
#[derive(Debug, Clone)]
pub struct WorkQueues {
    pending: Vec<usize>,
}

impl WorkQueues {
    /// Empty queues for every node of `tree`.
    pub fn new(tree: &Tree) -> Self {
        WorkQueues {
            pending: vec![0; tree.len()],
        }
    }

    /// Count a task in on `node`.
    pub fn enqueue(&mut self, node: NodeId) {
        self.pending[node.0] += 1;
    }

    /// Count a task out of `node`. A node with nothing pending stays at
    /// zero.
    pub fn complete(&mut self, node: NodeId) {
        let p = &mut self.pending[node.0];
        *p = p.saturating_sub(1);
    }

    /// Pending tasks in the whole subtree rooted at `node` — the §V-E
    /// subsystem-status query.
    pub fn subtree_depth(&self, tree: &Tree, node: NodeId) -> usize {
        let mut total = self.pending[node.0];
        for &c in tree.children(node) {
            total += self.subtree_depth(tree, c);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use northup_hw::catalog;

    fn tree() -> Tree {
        presets::asymmetric_fig2_with(catalog::ssd_hyperx_predator())
    }

    #[test]
    fn enqueue_complete_roundtrip() {
        let t = tree();
        let mut wq = WorkQueues::new(&t);
        wq.enqueue(NodeId(1));
        assert_eq!(wq.subtree_depth(&t, NodeId(1)), 1);
        wq.complete(NodeId(1));
        assert_eq!(wq.subtree_depth(&t, NodeId(1)), 0);
        wq.complete(NodeId(1));
        assert_eq!(
            wq.subtree_depth(&t, NodeId(1)),
            0,
            "an empty node stays empty"
        );
    }

    #[test]
    fn subtree_depth_aggregates_branches() {
        let t = tree();
        let mut wq = WorkQueues::new(&t);
        // Fig. 2 subtree 2: n2 (nvm) -> n3 (dram) -> n4 (gpu leaf).
        wq.enqueue(NodeId(2));
        wq.enqueue(NodeId(3));
        wq.enqueue(NodeId(4));
        wq.enqueue(NodeId(1));
        assert_eq!(wq.subtree_depth(&t, NodeId(2)), 3);
        assert_eq!(wq.subtree_depth(&t, NodeId(1)), 1);
        assert_eq!(wq.subtree_depth(&t, t.root()), 4);
    }
}
