//! Typed fleet errors.

use northup_sched::SchedError;

/// Everything that can go wrong running a federation.
#[derive(Debug)]
pub enum FleetError {
    /// The configuration declares zero shards.
    NoShards,
    /// The shard tree has no leaf to place work on.
    NoLeaf,
    /// `FleetConfig::shard_overrides` names a shard the fleet does not
    /// have (an index ≥ `shards`).
    NoSuchShard(usize),
    /// A shard's scheduler failed (propagated unchanged).
    Sched(SchedError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoShards => write!(f, "fleet config declares zero shards"),
            FleetError::NoLeaf => write!(f, "shard tree has no leaf to place work on"),
            FleetError::NoSuchShard(s) => write!(f, "fault override for missing shard {s}"),
            FleetError::Sched(e) => write!(f, "shard scheduler error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Sched(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchedError> for FleetError {
    fn from(e: SchedError) -> Self {
        FleetError::Sched(e)
    }
}
