//! Property test for [`WorkQueues`]: under any interleaving of enqueues
//! and completions over several nodes and queues, every query agrees
//! with a plain `Vec` model that retires tasks by scanning — the
//! behaviour is the scan's, only the cost is not.

use northup::{presets, NodeId, TaskId, Tree, WorkQueues};
use northup_hw::catalog;
use proptest::prelude::*;

const QUEUES: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    /// Enqueue on `(node, queue)` (both taken modulo what exists).
    Enqueue(usize, usize),
    /// Complete the `pick`-th id ever issued (modulo how many there are,
    /// so it is often already retired) against the node it lives on —
    /// or, with `stray`, against the next node over.
    Complete { pick: usize, stray: bool },
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..64, 0usize..QUEUES).prop_map(|(n, q)| Op::Enqueue(n, q)),
            (0usize..64, 0usize..QUEUES).prop_map(|(n, q)| Op::Enqueue(n, q)),
            (0usize..4096, 0u8..8).prop_map(|(pick, s)| Op::Complete {
                pick,
                stray: s == 0
            }),
        ],
        0..300,
    )
}

/// The reference: `queues[node][q]` is a `Vec` of pending ids in arrival
/// order, and a completion is `position` + `remove`.
struct Model {
    queues: Vec<Vec<Vec<u64>>>,
    totals: Vec<(u64, u64)>,
}

impl Model {
    fn complete(&mut self, node: usize, id: u64) -> bool {
        for q in &mut self.queues[node] {
            if let Some(pos) = q.iter().position(|&t| t == id) {
                q.remove(pos);
                self.totals[node].1 += 1;
                return true;
            }
        }
        false
    }

    fn subtree_depth(&self, tree: &Tree, node: NodeId) -> usize {
        let here: usize = self.queues[node.0].iter().map(Vec::len).sum();
        let below: usize = tree
            .children(node)
            .iter()
            .map(|&c| self.subtree_depth(tree, c))
            .sum();
        here + below
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_query_matches_the_scanning_model(ops in ops_strategy()) {
        let tree = presets::asymmetric_fig2_with(catalog::ssd_hyperx_predator());
        let nodes = tree.len();
        let mut wq = WorkQueues::new(&tree, QUEUES);
        let mut model = Model {
            queues: vec![vec![Vec::new(); QUEUES]; nodes],
            totals: vec![(0, 0); nodes],
        };
        // (id, node) of every task ever enqueued.
        let mut issued: Vec<(TaskId, usize)> = Vec::new();
        for op in ops {
            match op {
                Op::Enqueue(n, q) => {
                    let node = n % nodes;
                    let id = wq.enqueue(NodeId(node), q, format!("t{}", issued.len()));
                    prop_assert!(issued.iter().all(|&(old, _)| old.0 < id.0), "ids ascend");
                    model.queues[node][q].push(id.0);
                    model.totals[node].0 += 1;
                    issued.push((id, node));
                }
                Op::Complete { pick, stray } => {
                    let Some(&(id, home)) = issued.get(pick % issued.len().max(1)) else {
                        continue;
                    };
                    let node = if stray { (home + 1) % nodes } else { home };
                    prop_assert_eq!(
                        wq.complete(NodeId(node), id),
                        model.complete(node, id.0)
                    );
                }
            }
            for n in 0..nodes {
                let node = NodeId(n);
                let depths: Vec<usize> = model.queues[n].iter().map(Vec::len).collect();
                for (q, pending) in model.queues[n].iter().enumerate() {
                    prop_assert_eq!(wq.depth(node, q), pending.len());
                    prop_assert_eq!(
                        wq.front(node, q).map(|t| t.id.0),
                        pending.first().copied()
                    );
                }
                prop_assert_eq!(wq.node_depth(node), depths.iter().sum::<usize>());
                prop_assert_eq!(wq.subtree_depth(&tree, node), model.subtree_depth(&tree, node));
                let shortest = (0..QUEUES).min_by_key(|&q| (depths[q], q)).unwrap();
                prop_assert_eq!(wq.shortest_queue(node), shortest);
                prop_assert_eq!(wq.totals(node), model.totals[n]);
            }
        }
    }
}
