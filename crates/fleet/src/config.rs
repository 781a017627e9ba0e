//! Fleet configuration: shard topology, seeding, the inter-shard link,
//! and router weights.

use northup::{presets, FaultPlan, Tree};
use northup_sched::{JobSpec, JobWork, Priority, Reservation, SchedulerConfig, TenantId};
use northup_sim::{SimDur, SimTime};
use std::collections::BTreeMap;

/// The modeled link jobs migrate over (DESIGN.md §11): checkpointed
/// state and un-staged input move between shards at `bandwidth` with a
/// fixed `latency` floor. Shards share nothing else — the link is the
/// only inter-tree edge in the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterShardLink {
    /// Sustained transfer bandwidth in bytes per second (clamped to
    /// ≥ 1.0 so a transfer always has a finite finish time).
    pub bandwidth: f64,
    /// Per-transfer setup latency.
    pub latency: SimDur,
}

impl Default for InterShardLink {
    fn default() -> Self {
        // EDR InfiniBand-class: ~12.5 GB/s with a 5 µs setup cost.
        InterShardLink {
            bandwidth: 12.5e9,
            latency: SimDur::from_micros(5),
        }
    }
}

impl InterShardLink {
    /// Virtual time to move `bytes` across the link: latency plus the
    /// serialization time at `bandwidth`.
    pub fn transfer(&self, bytes: u64) -> SimDur {
        let serialize = SimDur::from_secs_f64(bytes as f64 / self.bandwidth.max(1.0));
        self.latency + serialize
    }
}

/// Weights of the router's scoring terms (all in comparable
/// nanosecond-denominated units; see [`crate::router`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterWeights {
    /// Weight of the data-locality term: the modeled time to move the
    /// job's input to a non-home shard.
    pub locality: u64,
    /// Weight of the load term: estimated service time of work already
    /// routed to the shard this replay.
    pub load: u64,
    /// Weight of the fault-pressure term: each sub-threshold persistent
    /// fault a shard has accumulated repels roughly one millisecond's
    /// worth of score.
    pub fault: u64,
    /// Weight of the SLO-pressure term: shed jobs and guaranteed-class
    /// p99 overshoot from the shard's latest report repel new work the
    /// same way fault pressure does.
    pub slo: u64,
}

impl Default for RouterWeights {
    fn default() -> Self {
        RouterWeights {
            locality: 1,
            load: 1,
            fault: 1,
            slo: 1,
        }
    }
}

/// Everything the federation needs to run: N shard trees, per-shard
/// scheduler knobs, the inter-shard link, and the migration bounds.
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
    /// The modeled inter-shard migration link.
    pub link: InterShardLink,
    /// Router scoring weights.
    pub weights: RouterWeights,
    /// Per-shard fault-plan overrides: shard `s` uses
    /// `shard_overrides[&s]` verbatim (no reseeding) instead of the
    /// reseeded template — how a chaos study scripts a guaranteed
    /// quarantine on one shard while the rest stay clean.
    pub shard_overrides: BTreeMap<usize, FaultPlan>,
    /// Cross-shard migrations one job may make before its failure is
    /// final.
    pub max_migrations: u32,
    /// Re-run rounds the federation may take to settle migrations
    /// (bounds the replay; each round only re-runs shards that received
    /// migrants).
    pub max_rounds: u32,
}

impl FleetConfig {
    /// The standard fleet: `shards` × [`presets::fleet_shard`] trees with
    /// fault-aware placement and probation enabled inside every shard, a
    /// deep admission queue for trace replay, and default link/weights.
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
            link: InterShardLink::default(),
            weights: RouterWeights::default(),
            shard_overrides: BTreeMap::new(),
            max_migrations: 3,
            max_rounds: 4,
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
        let link = InterShardLink {
            bandwidth: 1e9,
            latency: SimDur::from_micros(10),
        };
        assert_eq!(link.transfer(0), SimDur::from_micros(10));
        let t = link.transfer(1 << 30);
        assert!(t > SimDur::from_secs_f64(1.0), "1 GiB at 1 GB/s: {t:?}");
        let degenerate = InterShardLink {
            bandwidth: 0.0,
            latency: SimDur::ZERO,
        };
        // Clamped bandwidth keeps transfers finite.
        assert!(degenerate.transfer(1 << 20) < SimDur::from_secs_f64(1e9));
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
