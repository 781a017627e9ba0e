//! Fleet configuration: shard topology, seeding and per-shard scheduler
//! knobs, plus the modeled inter-shard link.

use northup::{presets, FaultPlan, Tree};
use northup_sched::{JobSpec, JobWork, Priority, Reservation, SchedulerConfig, TenantId};
use northup_sim::{transfer_time, SimDur, SimTime};
use std::collections::BTreeMap;

/// Bandwidth of the link jobs migrate over (DESIGN.md §11), in bytes per
/// second: EDR InfiniBand-class. Checkpointed state and un-staged input
/// move between shards over it; shards share nothing else.
const LINK_BANDWIDTH: f64 = 12.5e9;
/// Fixed setup latency of one inter-shard transfer.
const LINK_LATENCY: SimDur = SimDur::from_micros(5);

/// Virtual time to move `bytes` across the inter-shard link: latency
/// plus the serialization time.
pub(crate) fn link_transfer(bytes: u64) -> SimDur {
    transfer_time(bytes, LINK_BANDWIDTH, LINK_LATENCY)
}

/// Everything the federation needs to run: N shard trees, per-shard
/// scheduler knobs and per-shard fault overrides.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards (independent trees; must be ≥ 1).
    pub shards: usize,
    /// Fleet seed: per-shard fault-plan seeds and router tiebreaks all
    /// derive from it, so one `u64` pins the whole replay.
    pub seed: u64,
    /// The tree every shard instantiates (shards are homogeneous —
    /// one budget vector describes them all, which is what makes the
    /// gang-style all-or-nothing feasibility check a single comparison).
    pub tree: Tree,
    /// Per-shard scheduler configuration. Its `fault_plan` acts as a
    /// template: shard `s` runs the same rates/scripts reseeded from the
    /// fleet seed, so every shard faults with the same shape but an
    /// independent stream.
    pub sched: SchedulerConfig,
    /// Per-shard fault-plan overrides: shard `s` uses
    /// `shard_overrides[&s]` verbatim (no reseeding) instead of the
    /// reseeded template — how a chaos study scripts a guaranteed
    /// quarantine on one shard while the rest stay clean. A key
    /// ≥ `shards` makes `Fleet::new` fail with `FleetError::NoSuchShard`.
    pub shard_overrides: BTreeMap<usize, FaultPlan>,
}

impl FleetConfig {
    /// The standard fleet: `shards` × [`presets::fleet_shard`] trees with
    /// fault-aware placement and probation enabled inside every shard and
    /// a deep admission queue for trace replay.
    pub fn preset(shards: usize, seed: u64) -> Self {
        FleetConfig {
            shards,
            seed,
            tree: presets::fleet_shard(),
            sched: SchedulerConfig {
                max_queue: 8192,
                fault_aware_placement: true,
                probation: true,
                ..SchedulerConfig::default()
            },
            shard_overrides: BTreeMap::new(),
        }
    }
}

/// One job as the fleet sees it: a shard-agnostic spec plus the shard
/// holding its input data (the locality anchor of router scoring).
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// Name for reports.
    pub name: String,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Admission class.
    pub priority: Priority,
    /// Virtual arrival time at the router.
    pub arrival: SimTime,
    /// Per-node capacity held while admitted — on whichever single shard
    /// the job lands (all-or-nothing; never split across shards).
    pub reservation: Reservation,
    /// Per-chunk fabric demand.
    pub work: JobWork,
    /// Shard whose root storage holds the input (clamped to the shard
    /// count at routing time).
    pub home: u32,
}

impl FleetJob {
    /// A `Normal`-priority job arriving at time zero with its data on
    /// shard 0; adjust with the builder methods.
    pub fn new(name: impl Into<String>, reservation: Reservation, work: JobWork) -> Self {
        FleetJob {
            name: name.into(),
            tenant: TenantId::default(),
            priority: Priority::Normal,
            arrival: SimTime::ZERO,
            reservation,
            work,
            home: 0,
        }
    }

    /// Set the shard holding the input data.
    pub fn home(mut self, shard: u32) -> Self {
        self.home = shard;
        self
    }

    /// Set the virtual arrival time.
    pub fn arrival(mut self, at: SimTime) -> Self {
        self.arrival = at;
        self
    }

    /// Set the admission class.
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Set the owning tenant.
    pub fn tenant(mut self, t: TenantId) -> Self {
        self.tenant = t;
        self
    }

    /// The shard-local spec for a fresh (un-migrated) submission.
    pub(crate) fn to_spec(&self) -> JobSpec {
        JobSpec::new(
            self.name.clone(),
            self.reservation.clone(),
            self.work.clone(),
        )
        .tenant(self.tenant)
        .priority(self.priority)
        .arrival(self.arrival)
    }

    /// Total input bytes staged from the home shard's root storage —
    /// what a non-home placement must move over the inter-shard link.
    pub(crate) fn input_bytes(&self) -> u64 {
        self.work
            .read_bytes
            .saturating_mul(u64::from(self.work.chunks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_transfer_is_latency_plus_serialization() {
        assert_eq!(link_transfer(0), LINK_LATENCY);
        let one_second = LINK_BANDWIDTH as u64;
        assert_eq!(
            link_transfer(one_second),
            LINK_LATENCY + SimDur::from_secs_f64(1.0)
        );
    }

    #[test]
    fn preset_enables_the_recovery_satellites() {
        let cfg = FleetConfig::preset(16, 7);
        assert_eq!(cfg.shards, 16);
        assert!(cfg.sched.fault_aware_placement);
        assert!(cfg.sched.probation);
        assert!(cfg.tree.leaves().count() >= 3);
    }

    #[test]
    fn fleet_job_builders_fill_every_field() {
        let j = FleetJob::new("j", Reservation::new(), JobWork::new(4).read(1 << 20))
            .home(3)
            .priority(Priority::Interactive)
            .tenant(TenantId(2))
            .arrival(SimTime::from_secs_f64(1.0));
        assert_eq!(j.home, 3);
        assert_eq!(j.input_bytes(), 4 << 20);
        let spec = j.to_spec();
        assert_eq!(spec.priority, Priority::Interactive);
        assert_eq!(spec.tenant, TenantId(2));
        assert_eq!(spec.start_chunk, 0);
    }
}
