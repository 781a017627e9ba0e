//! The shard router: pure scoring over data locality, shard load, and
//! fault pressure, with a seeded deterministic tiebreak.
//!
//! Every term is denominated in (estimated) nanoseconds so the weighted
//! sum compares like with like:
//!
//! * **locality** — the modeled time to move the job's input over the
//!   inter-shard link when the candidate is not the job's home shard
//!   (zero at home: data gravity).
//! * **load** — the summed service-time estimate of everything already
//!   routed to the candidate this replay (a static finish-time proxy;
//!   routed load never un-counts, which keeps scores monotone and
//!   replay-order independent).
//! * **fault pressure** — the same sub-threshold persistent-fault signal
//!   fault-aware placement biases on *inside* a shard
//!   (`SchedReport::node_fault_pressure`), lifted to the router: each
//!   accumulated fault repels [`PRESSURE_NS`] of score.
//! * **SLO pressure** — the overload-controller signal: [`PRESSURE_NS`]
//!   per job the shard shed last round, plus the guaranteed-class p99
//!   overshoot beyond its target in plain nanoseconds. An
//!   overloaded-but-healthy shard additionally *exports* load — like a
//!   quarantined shard it accepts no migrants, so its frozen trace keeps
//!   the exactly-once chunk accounting.
//!
//! Ties break by a splitmix64 hash of `(fleet seed, job uid, shard)` —
//! deterministic for a fixed seed, yet uncorrelated with submission
//! order — and finally by shard id. The score is a pure function of its
//! inputs: same seed + same trace ⇒ same placement, bit for bit.

use crate::config::{FleetConfig, RouterWeights};
use northup_sched::JobWork;

/// Score penalty per unit of accumulated fault pressure (~1 ms: one
/// persistent fault outweighs a millisecond of queued load).
pub const PRESSURE_NS: u64 = 1_000_000;

/// splitmix64 — the project's standard pure mixer (same constants as
/// `FaultPlan`'s decision hash).
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What the router knows about one shard when it scores a candidate.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardView {
    /// Estimated service nanoseconds already routed to the shard.
    pub load_ns: u128,
    /// Sub-threshold persistent faults the shard has accumulated
    /// (from its latest report; zero before the first round).
    pub pressure: u64,
    /// The shard has fenced a node this replay: it migrates work *out*
    /// and accepts none in — its report is frozen once its trace stops
    /// changing, which is what keeps completed chunk prefixes stable
    /// across migration rounds (DESIGN.md §11).
    pub troubled: bool,
    /// SLO pressure from the shard's latest report, in score
    /// nanoseconds: [`PRESSURE_NS`] per shed job plus the
    /// guaranteed-class p99 overshoot beyond its target. Healthy shards
    /// report zero.
    pub slo_ns: u128,
    /// The shard is exporting overload (it shed work this replay):
    /// like `troubled`, it gives work away and accepts no migrants —
    /// the same frozen-trace rule that keeps chunk prefixes exactly-once
    /// applies to overload exports.
    pub exporting: bool,
}

/// Crude service-time estimate of `remaining` chunks in nanoseconds:
/// compute time plus bytes at ~1 GiB/s (1 byte ≈ 1 ns). The router only
/// compares these against each other, so the scale factor cancels.
pub(crate) fn cost_ns(work: &JobWork, remaining: u32) -> u128 {
    let per_chunk = u128::from(work.compute.0)
        // analyze:allow(unit-consistency): deliberate: a byte is priced at 1 ns (the modeled ~1 GiB/s), which makes the sum the ns service-time estimate the score weighs against its other ns terms
        + u128::from(work.read_bytes)
        + u128::from(work.xfer_bytes)
        + u128::from(work.write_bytes);
    u128::from(remaining) * per_chunk
}

/// Pick the best shard for a job (or migration remnant), or `None` when
/// no candidate is open.
///
/// `transfer_bytes` is what a non-home placement moves over the link;
/// `exclude` removes the migration source from candidacy. Troubled
/// shards are never candidates. The gang-style all-or-nothing
/// feasibility check — the *whole* reservation fits a single shard's
/// budget vector or the job is rejected outright — happens in the
/// caller, because shards are homogeneous and the answer is
/// shard-independent.
pub(crate) fn route(
    cfg: &FleetConfig,
    uid: u64,
    home: usize,
    transfer_bytes: u64,
    views: &[ShardView],
    exclude: Option<usize>,
) -> Option<usize> {
    let RouterWeights {
        locality,
        load,
        fault,
        slo,
    } = cfg.weights;
    let away_ns = u128::from(cfg.link.transfer(transfer_bytes).0);
    let mut best: Option<((u128, u64, usize), usize)> = None;
    for (s, view) in views.iter().enumerate() {
        if view.troubled || view.exporting || Some(s) == exclude {
            continue;
        }
        let locality_ns = if s == home { 0 } else { away_ns };
        let score = u128::from(locality) * locality_ns
            + u128::from(load) * view.load_ns
            + u128::from(fault) * u128::from(view.pressure) * u128::from(PRESSURE_NS)
            + u128::from(slo) * view.slo_ns;
        let tiebreak = mix64(cfg.seed ^ mix64(uid.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ s as u64));
        let key = (score, tiebreak, s);
        if best.as_ref().is_none_or(|(b, _)| key < *b) {
            best = Some((key, s));
        }
    }
    best.map(|(_, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use northup_sched::JobWork;

    fn cfg(shards: usize, seed: u64) -> FleetConfig {
        FleetConfig::preset(shards, seed)
    }

    #[test]
    fn data_gravity_wins_on_an_idle_fleet() {
        let c = cfg(8, 42);
        let views = vec![ShardView::default(); 8];
        // A job with real input bytes sticks to its home shard.
        for home in 0..8 {
            assert_eq!(route(&c, 1, home, 64 << 20, &views, None), Some(home));
        }
    }

    #[test]
    fn load_spills_jobs_off_a_saturated_home() {
        let c = cfg(4, 7);
        let mut views = vec![ShardView::default(); 4];
        // Home is drowning in routed work; the input is tiny.
        views[0].load_ns = u128::from(c.link.transfer(1 << 10).0) * 1000;
        let s = route(&c, 5, 0, 1 << 10, &views, None);
        assert!(s.is_some() && s != Some(0), "spilled off home: {s:?}");
    }

    #[test]
    fn fault_pressure_repels_and_troubled_excludes() {
        let c = cfg(3, 9);
        let mut views = vec![ShardView::default(); 3];
        views[0].troubled = true; // never a candidate
        views[1].pressure = 50; // ~50 ms of repulsion
        let s = route(&c, 2, 0, 0, &views, None);
        assert_eq!(s, Some(2));
        views[2].troubled = true;
        assert_eq!(route(&c, 2, 0, 0, &views, Some(1)), None, "all closed");
    }

    #[test]
    fn slo_pressure_repels_and_exporting_excludes() {
        let c = cfg(3, 11);
        let mut views = vec![ShardView::default(); 3];
        // Home shard is drowning in SLO pressure (sheds + p99 overshoot):
        // new work is repelled even though its data lives there.
        views[0].slo_ns = u128::from(PRESSURE_NS) * 10_000;
        let s = route(&c, 4, 0, 1 << 10, &views, None);
        assert!(s.is_some() && s != Some(0), "repelled off home: {s:?}");
        // An overloaded-but-healthy shard exporting load accepts no
        // migrants, exactly like a quarantined one.
        views[1].exporting = true;
        views[2].troubled = true;
        assert_eq!(route(&c, 4, 0, 0, &views, Some(0)), None, "all closed");
    }

    #[test]
    fn tiebreaks_are_seed_deterministic() {
        let views = vec![ShardView::default(); 16];
        // Zero transfer bytes over a zero-latency link: every shard
        // scores identically, so only the seeded tiebreak decides.
        let tieable = |seed| {
            let mut c = cfg(16, seed);
            c.link.latency = northup_sim::SimDur::ZERO;
            c
        };
        let a: Vec<_> = (0..64)
            .map(|uid| route(&tieable(1), uid, 0, 0, &views, None))
            .collect();
        let b: Vec<_> = (0..64)
            .map(|uid| route(&tieable(1), uid, 0, 0, &views, None))
            .collect();
        let c: Vec<_> = (0..64)
            .map(|uid| route(&tieable(2), uid, 0, 0, &views, None))
            .collect();
        assert_eq!(a, b, "same seed ⇒ same placements");
        assert_ne!(a, c, "different seed ⇒ different tiebreaks");
        // And the tiebreak actually spreads jobs around.
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert!(distinct.len() > 4, "spread: {distinct:?}");
    }

    #[test]
    fn cost_estimate_scales_with_remaining_chunks() {
        let w = JobWork::new(8).read(1 << 20).xfer(1 << 20);
        assert_eq!(cost_ns(&w, 8), 4 * cost_ns(&w, 2));
        assert_eq!(cost_ns(&w, 0), 0);
    }
}
