//! Capacity reservations and per-node budgets.
//!
//! A job declares, per tree node, how many bytes of that memory level it
//! needs held for it while it runs (DRAM staging ring, device-memory
//! working set). The scheduler admits reservations against
//! [`NodeBudgets`] derived from the tree's `DeviceSpec` capacities, and
//! bridges an admitted reservation to a `northup::CapacityLease` so the
//! runtime's `alloc` enforces it.

use northup::lease::CapacityLease;
use northup::{NodeId, Tree};
use std::sync::Arc;

/// Per-node byte reservation declared by a job.
///
/// Entries are `(node, bytes)` pairs with `bytes > 0`, sorted by node
/// and held at exact capacity: the usual reservation names one node, and
/// a scheduler holds one per job, so it costs one 16-byte allocation and
/// the admission loops walk a slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reservation {
    per_node: Vec<(NodeId, u64)>,
}

impl Reservation {
    /// Empty reservation (no capacity held; always admissible).
    pub fn new() -> Self {
        Reservation::default()
    }

    /// Builder-style: reserve `bytes` on `node`.
    pub fn with(mut self, node: NodeId, bytes: u64) -> Self {
        self.set(node, bytes);
        self
    }

    /// Reserve `bytes` on `node` (replacing any previous amount; zero
    /// removes the entry).
    pub fn set(&mut self, node: NodeId, bytes: u64) {
        match (self.per_node.binary_search_by_key(&node, |e| e.0), bytes) {
            (Ok(i), 0) => {
                self.per_node.remove(i);
                self.per_node.shrink_to_fit();
            }
            (Ok(i), _) => self.per_node[i].1 = bytes,
            (Err(_), 0) => {}
            (Err(i), _) => {
                self.per_node.reserve_exact(1);
                self.per_node.insert(i, (node, bytes));
            }
        }
    }

    /// Reserved bytes on `node` (zero when not reserved).
    pub fn get(&self, node: NodeId) -> u64 {
        self.per_node
            .binary_search_by_key(&node, |e| e.0)
            .map_or(0, |i| self.per_node[i].1)
    }

    /// All (node, bytes) entries in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.per_node.iter().copied()
    }

    /// True when nothing is reserved.
    pub fn is_empty(&self) -> bool {
        self.per_node.is_empty()
    }

    /// Bridge to the runtime: a capacity lease granting exactly this
    /// reservation, for `Runtime::install_lease`.
    pub fn to_lease(&self) -> Arc<CapacityLease> {
        CapacityLease::new(self.iter())
    }
}

impl FromIterator<(NodeId, u64)> for Reservation {
    fn from_iter<I: IntoIterator<Item = (NodeId, u64)>>(iter: I) -> Self {
        let mut r = Reservation::new();
        for (n, b) in iter {
            r.set(n, b);
        }
        r
    }
}

/// Admission budgets: the schedulable bytes of every tree node.
#[derive(Debug, Clone)]
pub struct NodeBudgets {
    budget: Vec<u64>,
}

impl NodeBudgets {
    /// Budgets from the tree's device capacities, scaled by `headroom`
    /// (e.g. 0.9 keeps 10% of every level for runtime slack). `headroom`
    /// is clamped to `[0, 1]`.
    pub fn from_tree(tree: &Tree, headroom: f64) -> Self {
        let headroom = headroom.clamp(0.0, 1.0);
        NodeBudgets {
            budget: tree
                .nodes()
                .map(|n| (n.mem.capacity as f64 * headroom) as u64)
                .collect(),
        }
    }

    /// Nodes the budget vector covers.
    pub(crate) fn len(&self) -> usize {
        self.budget.len()
    }

    /// Schedulable bytes on `node` (zero for unknown nodes).
    pub fn get(&self, node: NodeId) -> u64 {
        self.budget.get(node.0).copied().unwrap_or(0)
    }

    /// Scale every node's budget by `factor` (clamped to `[0, 1]`), e.g.
    /// to model losing half of each memory level to a co-located tenant.
    pub fn scaled(&self, factor: f64) -> Self {
        let factor = factor.clamp(0.0, 1.0);
        NodeBudgets {
            budget: self
                .budget
                .iter()
                .map(|&b| (b as f64 * factor) as u64)
                .collect(),
        }
    }

    /// Set one node's budget to zero — quarantine: nothing more may be
    /// committed on the fenced node, and reservations touching it become
    /// infeasible. Unknown nodes are ignored.
    pub fn zero(&mut self, node: NodeId) {
        self.set(node, 0);
    }

    /// Set one node's budget to an explicit byte count — probation
    /// restore: a fenced node that survives its fault-free window gets
    /// its pre-fence budget back. Unknown nodes are ignored.
    pub fn set(&mut self, node: NodeId, bytes: u64) {
        if let Some(b) = self.budget.get_mut(node.0) {
            *b = bytes;
        }
    }

    /// The per-node budget vector (index = `NodeId.0`), for logs.
    pub fn snapshot(&self) -> Vec<u64> {
        self.budget.clone()
    }

    /// Whether a reservation can ever be admitted (each entry within the
    /// node's total budget).
    pub fn feasible(&self, r: &Reservation) -> bool {
        r.iter().all(|(n, b)| b <= self.get(n))
    }

    /// Whether `r` fits on top of the currently committed bytes
    /// (`committed` is a dense per-node vector indexed by `NodeId.0`,
    /// shorter-than-tree vectors read as zero).
    pub fn fits(&self, committed: &[u64], r: &Reservation) -> bool {
        r.iter().all(|(n, b)| {
            let used = committed.get(n.0).copied().unwrap_or(0);
            used.saturating_add(b) <= self.get(n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use northup::presets;
    use northup_hw::catalog;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn reservation_accumulates_and_bridges_to_lease() {
        let r = Reservation::new()
            .with(NodeId(1), 100)
            .with(NodeId(2), 50)
            .with(NodeId(1), 80); // replaces
        assert_eq!(r.get(NodeId(1)), 80);
        assert_eq!(r.get(NodeId(2)), 50);
        let lease = r.to_lease();
        assert_eq!(lease.granted(NodeId(1)), Some(80));
        assert_eq!(lease.granted(NodeId(0)), None);
    }

    proptest! {
        /// Against a `BTreeMap<NodeId, u64>` (what `Reservation` was):
        /// set-to-zero removes, a second set replaces, and every reader
        /// agrees with the map after every step.
        #[test]
        fn reservation_matches_a_btreemap_model(
            ops in prop::collection::vec((0usize..6, prop_oneof![0u64..1, 1u64..1000]), 0..24),
        ) {
            let mut model: BTreeMap<NodeId, u64> = BTreeMap::new();
            let mut r = Reservation::new();
            for &(n, bytes) in &ops {
                let node = NodeId(n);
                r.set(node, bytes);
                if bytes == 0 {
                    model.remove(&node);
                } else {
                    model.insert(node, bytes);
                }
                prop_assert!(r.iter().eq(model.iter().map(|(&n, &b)| (n, b))), "node order");
                prop_assert_eq!(r.per_node.capacity(), model.len(), "held at exact capacity");
                prop_assert_eq!(r.is_empty(), model.is_empty());
                let lease = r.to_lease();
                for probe in (0..7).map(NodeId) {
                    prop_assert_eq!(r.get(probe), model.get(&probe).copied().unwrap_or(0));
                    prop_assert_eq!(lease.granted(probe), model.get(&probe).copied());
                }
            }
            // Equality is by content: the same entries collected in the
            // opposite order, and built with the builder, compare equal.
            let collected: Reservation = model.iter().rev().map(|(&n, &b)| (n, b)).collect();
            let built = model.iter().fold(Reservation::new(), |r, (&n, &b)| r.with(n, b));
            prop_assert_eq!(&collected, &r);
            prop_assert_eq!(&built, &r);
            prop_assert_eq!(r.clone().with(NodeId(6), 1) == r, false);
        }
    }

    #[test]
    fn budgets_follow_capacity_and_headroom() {
        let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
        let full = NodeBudgets::from_tree(&tree, 1.0);
        let half = NodeBudgets::from_tree(&tree, 0.5);
        for n in tree.nodes() {
            assert_eq!(full.get(n.id), n.mem.capacity);
            assert!(half.get(n.id) <= n.mem.capacity / 2 + 1);
        }
    }

    #[test]
    fn fits_accounts_for_committed_bytes() {
        let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
        let budgets = NodeBudgets::from_tree(&tree, 1.0);
        let dram = NodeId(1);
        let cap = budgets.get(dram);
        let r = Reservation::new().with(dram, cap / 2 + 1);
        assert!(budgets.feasible(&r));
        let mut committed = vec![0u64; tree.len()];
        assert!(budgets.fits(&committed, &r));
        committed[dram.0] = cap / 2 + 1;
        assert!(!budgets.fits(&committed, &r), "two halves-plus-one exceed");
    }
}
