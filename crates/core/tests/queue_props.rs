//! Property test for [`WorkQueues`]: under any interleaving of enqueues
//! and completions over the nodes of a tree, every subtree depth agrees
//! with a plain `Vec` model that lists the pending tasks by home node.

use northup::{presets, NodeId, Tree, WorkQueues};
use northup_hw::catalog;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Enqueue on a node (taken modulo what exists).
    Enqueue(usize),
    /// Complete the `pick`-th pending task (modulo how many there are) on
    /// its home node; with nothing pending, complete on node `pick`
    /// instead, which must leave every count alone.
    Complete(usize),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..64).prop_map(Op::Enqueue),
            (0usize..64).prop_map(Op::Enqueue),
            (0usize..4096).prop_map(Op::Complete),
        ],
        0..300,
    )
}

/// The reference depth: pending tasks homed anywhere under `node`.
fn model_depth(pending: &[usize], tree: &Tree, node: NodeId) -> usize {
    let here = pending.iter().filter(|&&home| home == node.0).count();
    let below: usize = tree
        .children(node)
        .iter()
        .map(|&c| model_depth(pending, tree, c))
        .sum();
    here + below
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_query_matches_the_scanning_model(ops in ops_strategy()) {
        let tree = presets::asymmetric_fig2_with(catalog::ssd_hyperx_predator());
        let nodes = tree.len();
        let mut wq = WorkQueues::new(&tree);
        // Home node of every pending task, in arrival order.
        let mut pending: Vec<usize> = Vec::new();
        for op in ops {
            match op {
                Op::Enqueue(n) => {
                    wq.enqueue(NodeId(n % nodes));
                    pending.push(n % nodes);
                }
                Op::Complete(pick) if pending.is_empty() => wq.complete(NodeId(pick % nodes)),
                Op::Complete(pick) => {
                    let home = pending.remove(pick % pending.len());
                    wq.complete(NodeId(home));
                }
            }
            for n in 0..nodes {
                let node = NodeId(n);
                prop_assert_eq!(
                    wq.subtree_depth(&tree, node),
                    model_depth(&pending, &tree, node)
                );
            }
        }
    }
}
