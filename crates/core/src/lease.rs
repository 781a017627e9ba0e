//! Capacity leases: per-node byte budgets granted to one tenant.
//!
//! A multi-tenant scheduler (see `northup-sched`) admits a job against the
//! tree's per-node capacities and hands the job a [`CapacityLease`] for its
//! admitted reservation. Installing the lease on a [`Runtime`](crate::Runtime)
//! makes every `alloc` draw down the job's reservation on the buffer's node
//! and every `release` return it — so a job that under-declared its
//! footprint fails fast with [`NorthupError::LeaseExceeded`](crate::NorthupError)
//! instead of silently eating a co-tenant's memory.
//!
//! Nodes absent from the lease are unconstrained: a GEMM job that reserved
//! DRAM staging and device memory is not charged for its scratch files on
//! the storage root unless the scheduler chose to meter those too.

use crate::topology::NodeId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A per-node byte budget granted to one job, with live usage accounting.
///
/// Cloning the `Arc` shares the accounting: the scheduler keeps one end to
/// observe usage, the runtime holds the other to charge it.
#[derive(Debug)]
pub struct CapacityLease {
    granted: BTreeMap<NodeId, u64>,
    used: Mutex<BTreeMap<NodeId, u64>>,
}

impl CapacityLease {
    /// A lease granting `bytes` on each listed node. Nodes not listed are
    /// unconstrained.
    pub fn new(granted: impl IntoIterator<Item = (NodeId, u64)>) -> Arc<Self> {
        Arc::new(CapacityLease {
            granted: granted.into_iter().collect(),
            used: Mutex::new(BTreeMap::new()),
        })
    }

    /// The granted budget on `node`, if this lease constrains it.
    pub fn granted(&self, node: NodeId) -> Option<u64> {
        self.granted.get(&node).copied()
    }

    /// Bytes currently charged against `node`.
    pub fn used(&self, node: NodeId) -> u64 {
        self.used.lock().get(&node).copied().unwrap_or(0)
    }

    /// Charge `bytes` on `node`; on over-budget, nothing is charged and the
    /// remaining budget is returned as the error.
    pub(crate) fn try_charge(&self, node: NodeId, bytes: u64) -> Result<(), u64> {
        let Some(grant) = self.granted(node) else {
            return Ok(());
        };
        let mut used = self.used.lock();
        let u = used.entry(node).or_insert(0);
        let remaining = grant.saturating_sub(*u);
        if bytes > remaining {
            return Err(remaining);
        }
        *u += bytes;
        Ok(())
    }

    /// Return `bytes` on `node`. Credits for unconstrained or over-credited
    /// nodes are ignored (a buffer may outlive the lease that charged it).
    pub(crate) fn credit(&self, node: NodeId, bytes: u64) {
        if self.granted.contains_key(&node) {
            let mut used = self.used.lock();
            if let Some(u) = used.get_mut(&node) {
                *u = u.saturating_sub(bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_and_credits_tracked_per_node() {
        let lease = CapacityLease::new([(NodeId(1), 100), (NodeId(2), 50)]);
        assert_eq!(lease.try_charge(NodeId(1), 60), Ok(()));
        assert_eq!(lease.used(NodeId(1)), 60);
        // Over-budget: rejected, nothing charged.
        assert_eq!(lease.try_charge(NodeId(1), 41), Err(40));
        assert_eq!(lease.used(NodeId(1)), 60);
        lease.credit(NodeId(1), 60);
        assert_eq!(lease.try_charge(NodeId(1), 100), Ok(()));
    }

    #[test]
    fn unlisted_nodes_are_unconstrained() {
        let lease = CapacityLease::new([(NodeId(1), 10)]);
        assert_eq!(lease.granted(NodeId(0)), None);
        assert_eq!(lease.try_charge(NodeId(0), u64::MAX), Ok(()));
        lease.credit(NodeId(0), 5);
        assert_eq!(lease.used(NodeId(0)), 0);
    }

    #[test]
    fn over_credit_saturates() {
        let lease = CapacityLease::new([(NodeId(3), 8)]);
        lease.try_charge(NodeId(3), 4).unwrap();
        lease.credit(NodeId(3), 100);
        assert_eq!(lease.used(NodeId(3)), 0);
        assert_eq!(lease.try_charge(NodeId(3), 8), Ok(()));
    }
}
