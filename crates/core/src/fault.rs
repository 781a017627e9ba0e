//! Deterministic fault plans and retry policies — the failure-domain
//! vocabulary shared by every execution backend.
//!
//! A production-scale out-of-core service must survive flaky SSDs,
//! stalled links, and dying leaves. The hw layer already *surfaces*
//! device faults as typed errors ([`FaultyBackend`](northup_hw) →
//! `NorthupError::Hw`); this module supplies the pieces the layers above
//! need to *recover*:
//!
//! * [`FaultPlan`] — a seeded, immutable description of which stage
//!   bookings fault. The decision for the `ordinal`-th operation on a
//!   node is a pure hash of `(seed, node, ordinal)`, so a chaos run is
//!   bit-reproducible: same plan + same trace ⇒ same faults at the same
//!   virtual-time points, same schedule, same report. Plans can mix
//!   probabilistic rates (in 1/65536 units) with exactly scripted
//!   injections ([`FaultPlan::script`]) for targeted tests.
//! * [`FaultKind`] — *transient* faults go away when retried (a bus
//!   hiccup, a dropped DMA); *persistent* faults do not (a dying device)
//!   and count toward node quarantine.
//! * [`retry_backoff`] — at most [`RETRY_ATTEMPTS`] attempts with
//!   exponential backoff and jitter drawn from the plan's seeded stream
//!   (never from a global RNG). The scheduler sleeps in virtual time;
//!   real-mode drivers sleep for real — both compute the delay with
//!   [`retry_backoff`].
//!
//! Nothing here touches wall clocks or ambient randomness, so the
//! project's determinism-taint invariant holds by construction.

use crate::topology::NodeId;
use northup_sim::SimDur;
use std::collections::{BTreeMap, BTreeSet};

/// What retrying a faulted stage will do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The fault clears on retry (bounded attempts + backoff recover it).
    Transient,
    /// The fault does not clear; the stage must move to other hardware.
    /// Persistent faults count toward the node's quarantine threshold.
    Persistent,
}

/// The per-64k probability space faults are drawn from.
const ROLL_SPACE: u32 = 1 << 16;

/// A deterministic, seeded fault plan.
///
/// The plan is consulted once per stage booking: the `ordinal`-th booking
/// on `node` faults (or not) as a pure function of `(seed, node,
/// ordinal)`. Ordinals are per-node operation counters the consumer
/// maintains, so the plan itself stays immutable and shareable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    transient_per_64k: u32,
    persistent_per_64k: u32,
    /// Nodes the probabilistic rates apply to; empty = every node.
    nodes: BTreeSet<NodeId>,
    /// Exactly scripted injections, overriding the probabilistic stream.
    scripted: BTreeMap<(NodeId, u64), FaultKind>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults; add rates or scripted
    /// injections with the builder methods.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_per_64k: 0,
            persistent_per_64k: 0,
            nodes: BTreeSet::new(),
            scripted: BTreeMap::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Builder: the same rates, node filter, and scripted injections
    /// under a different seed — how a federation derives per-shard plans
    /// from one fleet seed (every shard faults with the same *shape* but
    /// an independent stream).
    pub fn reseeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: each targeted booking faults *transiently* with
    /// probability `per_64k / 65536` (clamped to the roll space).
    pub fn transient_rate(mut self, per_64k: u32) -> Self {
        self.transient_per_64k = per_64k.min(ROLL_SPACE);
        self
    }

    /// Builder: each targeted booking faults *persistently* with
    /// probability `per_64k / 65536` (clamped to the roll space).
    pub fn persistent_rate(mut self, per_64k: u32) -> Self {
        self.persistent_per_64k = per_64k.min(ROLL_SPACE);
        self
    }

    /// Builder: restrict the probabilistic rates to these nodes (an empty
    /// set — the default — targets every node). Scripted injections are
    /// unaffected.
    pub fn on_nodes<I: IntoIterator<Item = NodeId>>(mut self, nodes: I) -> Self {
        self.nodes = nodes.into_iter().collect();
        self
    }

    /// Builder: script an exact injection — the `ordinal`-th booking on
    /// `node` faults with `kind`, regardless of the rates.
    pub fn script(mut self, node: NodeId, ordinal: u64, kind: FaultKind) -> Self {
        self.scripted.insert((node, ordinal), kind);
        self
    }

    /// True when the probabilistic rates apply to `node`.
    pub fn targets(&self, node: NodeId) -> bool {
        self.nodes.is_empty() || self.nodes.contains(&node)
    }

    /// The fault (if any) for the `ordinal`-th booking on `node`. Pure:
    /// the same arguments always return the same answer.
    pub fn decide(&self, node: NodeId, ordinal: u64) -> Option<FaultKind> {
        if let Some(&k) = self.scripted.get(&(node, ordinal)) {
            return Some(k);
        }
        if !self.targets(node) {
            return None;
        }
        let roll = (self.hash(node, ordinal, 0x01) & u64::from(ROLL_SPACE - 1)) as u32;
        if roll < self.persistent_per_64k {
            Some(FaultKind::Persistent)
        } else if roll
            < self
                .persistent_per_64k
                .saturating_add(self.transient_per_64k)
        {
            Some(FaultKind::Transient)
        } else {
            None
        }
    }

    /// Deterministic backoff jitter in `[0, 1)` for the `attempt`-th
    /// retry of the fault at `(node, ordinal)` — drawn from the plan's
    /// seeded stream, never from a global RNG.
    pub fn jitter(&self, node: NodeId, ordinal: u64, attempt: u32) -> f64 {
        let h = self.hash(node, ordinal, 0x100 + u64::from(attempt));
        // 53 high bits → an exactly representable dyadic in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Derive a [`FaultyBackend`](northup_hw) failure period for
    /// real-mode wiring: every `N`-th matching backend op on `node`
    /// fails, approximating the transient rate. `None` when the node is
    /// untargeted or the plan injects no transient faults. The period is
    /// floored at 2 so a retried operation can succeed.
    pub fn real_fail_every(&self, node: NodeId) -> Option<u64> {
        if self.transient_per_64k == 0 || !self.targets(node) {
            return None;
        }
        Some(u64::from(ROLL_SPACE / self.transient_per_64k.max(1)).max(2))
    }

    /// splitmix64 over the plan seed and the decision coordinates.
    fn hash(&self, node: NodeId, ordinal: u64, salt: u64) -> u64 {
        let mut x = self
            .seed
            .wrapping_add((node.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(ordinal.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(salt.wrapping_mul(0x94D0_49BB_1331_11EB));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// Total serve attempts per transiently faulted stage, including the
/// first. When they are exhausted the fault escalates to the persistent
/// path (the stage moves to other hardware, or the job fails).
pub const RETRY_ATTEMPTS: u32 = 4;
/// Backoff before the first retry.
pub const RETRY_BASE: SimDur = SimDur::from_micros(200);
/// Ceiling on the exponential backoff (before jitter).
pub const RETRY_CAP: SimDur = SimDur::from_millis(20);

/// The backoff before the `retry`-th retry (1-based), stretched by
/// `jitter ∈ [0, 1]`: `min(RETRY_BASE × 2^(retry-1), RETRY_CAP) ×
/// (1 + jitter)`, floored at one microsecond so same-instant event loops
/// cannot form.
pub fn retry_backoff(retry: u32, jitter: f64) -> SimDur {
    let exp = retry.saturating_sub(1).min(20);
    let raw = RETRY_BASE.as_secs_f64() * (1u64 << exp) as f64;
    let capped = raw.min(RETRY_CAP.as_secs_f64());
    let j = if jitter.is_finite() {
        jitter.clamp(0.0, 1.0)
    } else {
        0.0
    };
    SimDur::from_secs_f64(capped * (1.0 + j)).max(SimDur::from_micros(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seed_dependent() {
        let a = FaultPlan::new(7).transient_rate(8000).persistent_rate(800);
        let b = FaultPlan::new(7).transient_rate(8000).persistent_rate(800);
        let c = FaultPlan::new(8).transient_rate(8000).persistent_rate(800);
        let stream = |p: &FaultPlan| -> Vec<Option<FaultKind>> {
            (0..4096).map(|i| p.decide(NodeId(1), i)).collect()
        };
        assert_eq!(stream(&a), stream(&b), "same seed ⇒ same stream");
        assert_ne!(stream(&a), stream(&c), "different seed ⇒ different stream");
        let faults = stream(&a).iter().filter(|d| d.is_some()).count();
        // ~13.4% expected; generous brackets keep the test seed-robust.
        assert!(faults > 200 && faults < 1200, "got {faults} faults");
    }

    #[test]
    fn scripts_override_rates_and_node_filters() {
        let plan = FaultPlan::new(1)
            .on_nodes([NodeId(2)])
            .transient_rate(65536)
            .script(NodeId(5), 3, FaultKind::Persistent);
        assert_eq!(plan.decide(NodeId(2), 0), Some(FaultKind::Transient));
        assert_eq!(plan.decide(NodeId(4), 0), None, "untargeted node");
        assert_eq!(plan.decide(NodeId(5), 3), Some(FaultKind::Persistent));
        assert_eq!(plan.decide(NodeId(5), 4), None);
    }

    #[test]
    fn reseeded_keeps_the_shape_but_changes_the_stream() {
        let base = FaultPlan::new(7)
            .transient_rate(8000)
            .persistent_rate(800)
            .on_nodes([NodeId(2)])
            .script(NodeId(5), 3, FaultKind::Persistent);
        let other = base.clone().reseeded(99);
        assert_eq!(other.seed(), 99);
        assert!(other.targets(NodeId(2)) && !other.targets(NodeId(4)));
        assert_eq!(other.decide(NodeId(5), 3), Some(FaultKind::Persistent));
        let stream = |p: &FaultPlan| -> Vec<Option<FaultKind>> {
            (0..4096).map(|i| p.decide(NodeId(2), i)).collect()
        };
        assert_ne!(stream(&base), stream(&other), "independent streams");
    }

    #[test]
    fn jitter_is_deterministic_and_in_range() {
        let plan = FaultPlan::new(42);
        for a in 1..6 {
            let j1 = plan.jitter(NodeId(0), 17, a);
            let j2 = plan.jitter(NodeId(0), 17, a);
            assert_eq!(j1.to_bits(), j2.to_bits());
            assert!((0.0..1.0).contains(&j1));
        }
        assert_ne!(
            plan.jitter(NodeId(0), 17, 1).to_bits(),
            plan.jitter(NodeId(0), 18, 1).to_bits()
        );
    }

    #[test]
    fn backoff_grows_caps_and_respects_jitter() {
        let b1 = retry_backoff(1, 0.0);
        let b2 = retry_backoff(2, 0.0);
        // 200 µs × 2^7 = 25.6 ms is past the 20 ms cap.
        let b8 = retry_backoff(8, 0.0);
        assert_eq!(b1, RETRY_BASE);
        assert!(b2 > b1, "exponential growth");
        assert_eq!(b8, RETRY_CAP, "capped");
        assert!(retry_backoff(1, 1.0) > b1, "jitter stretches");
        assert!(
            retry_backoff(1, f64::NAN) == b1,
            "non-finite jitter ignored"
        );
        assert!(
            retry_backoff(40, 0.0) >= b1,
            "huge retry counts do not wrap"
        );
    }

    #[test]
    fn real_fail_every_follows_the_rate() {
        let none = FaultPlan::new(0);
        assert_eq!(none.real_fail_every(NodeId(0)), None);
        let p = FaultPlan::new(0).transient_rate(8192); // 1/8
        assert_eq!(p.real_fail_every(NodeId(0)), Some(8));
        let hot = FaultPlan::new(0).transient_rate(65536);
        assert_eq!(hot.real_fail_every(NodeId(0)), Some(2), "floored at 2");
        let scoped = FaultPlan::new(0).transient_rate(8192).on_nodes([NodeId(1)]);
        assert_eq!(scoped.real_fail_every(NodeId(0)), None);
        assert_eq!(scoped.real_fail_every(NodeId(1)), Some(8));
    }
}
