//! Unified error type for the Northup runtime.

use crate::data::BufferHandle;
use crate::topology::{NodeId, TopologyError};
use northup_hw::HwError;
use std::fmt;

/// Errors surfaced by the Northup runtime and data-management API.
#[derive(Debug)]
pub enum NorthupError {
    /// Backend (capacity / bounds / OS I/O) failure.
    Hw(HwError),
    /// Topology lookup failure.
    Topology(TopologyError),
    /// The buffer handle is unknown (never allocated or already released).
    UnknownBuffer(BufferHandle),
    /// Data movement requested between non-adjacent tree nodes — Northup
    /// moves data along tree edges (§III-A).
    NotAdjacent(NodeId, NodeId),
    /// A `move_data_down`/`move_data_up` argument lives on the wrong node.
    WrongNode {
        /// The buffer's actual node.
        actual: NodeId,
        /// Where the operation required it to live.
        expected: NodeId,
    },
    /// A leaf operation was issued on a node without the requested processor.
    NoProcessor(NodeId),
    /// No cost model is known for the named processor, so its compute
    /// time cannot be modeled.
    NoCostModel(String),
    /// An argument breaks the operation's contract: a block that does not
    /// divide the problem size, a non-square matrix where one is needed,
    /// an empty candidate list — or a computed result failed its check.
    Invalid(String),
    /// An access range does not fit the buffer.
    BadRange {
        /// Offending buffer.
        buffer: BufferHandle,
        /// Access offset.
        offset: u64,
        /// Access length.
        len: u64,
        /// Buffer size.
        size: u64,
    },
    /// An allocation would overrun the installed capacity lease (the job's
    /// admitted reservation on that node — see `northup-sched`).
    LeaseExceeded {
        /// The node whose reservation ran out.
        node: NodeId,
        /// Bytes the allocation asked for.
        requested: u64,
        /// Bytes still unused in the lease on that node.
        remaining: u64,
    },
}

impl fmt::Display for NorthupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NorthupError::Hw(e) => write!(f, "hardware backend: {e}"),
            NorthupError::Topology(e) => write!(f, "topology: {e}"),
            NorthupError::UnknownBuffer(b) => write!(f, "unknown buffer {b:?}"),
            NorthupError::NotAdjacent(a, b) => {
                write!(f, "nodes {a} and {b} do not share a tree edge")
            }
            NorthupError::WrongNode { actual, expected } => {
                write!(f, "buffer lives on {actual}, operation requires {expected}")
            }
            NorthupError::NoProcessor(n) => write!(f, "node {n} has no matching processor"),
            NorthupError::NoCostModel(name) => write!(f, "no cost model for processor '{name}'"),
            NorthupError::Invalid(why) => write!(f, "invalid argument: {why}"),
            NorthupError::BadRange {
                buffer,
                offset,
                len,
                size,
            } => write!(
                f,
                "range [{offset}, {offset}+{len}) out of bounds for buffer {buffer:?} of {size} B"
            ),
            NorthupError::LeaseExceeded {
                node,
                requested,
                remaining,
            } => write!(
                f,
                "capacity lease exhausted on {node}: requested {requested} B, {remaining} B left"
            ),
        }
    }
}

impl std::error::Error for NorthupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NorthupError::Hw(e) => Some(e),
            NorthupError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HwError> for NorthupError {
    fn from(e: HwError) -> Self {
        NorthupError::Hw(e)
    }
}

impl From<TopologyError> for NorthupError {
    fn from(e: TopologyError) -> Self {
        NorthupError::Topology(e)
    }
}

/// Result alias for runtime operations.
pub type Result<T> = std::result::Result<T, NorthupError>;
