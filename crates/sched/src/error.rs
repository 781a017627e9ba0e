//! Typed errors for scheduling runs.
//!
//! The event loop used to `expect()` its internal invariants (a running
//! job always has a chain, a tree always has a leaf). Those are still
//! invariants — but a violated invariant in a multi-tenant arbiter
//! should surface as a typed error the embedding service can report and
//! contain, not a panic that takes down every co-scheduled tenant.

use std::fmt;

use crate::job::JobId;
use northup::{FabricError, NorthupError};

/// Errors a [`JobScheduler::run`](crate::JobScheduler::run) can surface.
#[derive(Debug)]
pub enum SchedError {
    /// A job reached the stage/issue path without a compiled chain —
    /// admission and eviction bookkeeping disagree.
    MissingChain(JobId),
    /// The tree offers no leaf to place a job on.
    NoLeaf,
    /// The event heap produced a kind the dispatcher does not know.
    UnknownEvent(u8),
    /// A scheduled resize's budget vector does not hold exactly one
    /// entry per tree node.
    BudgetLength {
        /// The resize, by `resize_budgets` call order.
        resize: usize,
        /// Entries in its budget vector.
        len: usize,
        /// Nodes in the scheduler's tree.
        nodes: usize,
    },
    /// A backend fabric failed while serving chunks.
    Fabric(FabricError),
    /// The core runtime rejected an operation.
    Runtime(NorthupError),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::MissingChain(id) => {
                write!(f, "job {id:?} is running but holds no compiled chain")
            }
            SchedError::NoLeaf => write!(f, "tree has no leaf to place jobs on"),
            SchedError::UnknownEvent(k) => write!(f, "unknown scheduler event kind {k}"),
            SchedError::BudgetLength { resize, len, nodes } => write!(
                f,
                "resize {resize} gives {len} node budgets for a tree of {nodes} nodes"
            ),
            SchedError::Fabric(e) => write!(f, "fabric failure during scheduling: {e}"),
            SchedError::Runtime(e) => write!(f, "runtime failure during scheduling: {e}"),
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Fabric(e) => Some(e),
            SchedError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FabricError> for SchedError {
    fn from(e: FabricError) -> Self {
        SchedError::Fabric(e)
    }
}

impl From<NorthupError> for SchedError {
    fn from(e: NorthupError) -> Self {
        SchedError::Runtime(e)
    }
}
