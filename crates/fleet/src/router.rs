//! The shard router: pure scoring over data locality, shard load, and
//! fault pressure, with a seeded deterministic tiebreak.
//!
//! Every term is denominated in (estimated) nanoseconds, so the score is
//! their plain sum:
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
//!
//! The router does not read a shard's SLO state: a shard given an
//! overload controller runs it, and its sheds settle in place.
//!
//! Ties break by a splitmix64 hash of `(fleet seed, job uid, shard)` —
//! deterministic for a fixed seed, yet uncorrelated with submission
//! order — and finally by shard id. The score is a pure function of its
//! inputs: same seed + same trace ⇒ same placement, bit for bit.

use crate::config::link_transfer;

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
}

/// Pick the best shard for a job (or migration remnant), or `None` when
/// no candidate is open.
///
/// `seed` is the fleet seed the tiebreak hashes; `transfer_bytes` is
/// what a non-home placement moves over the link;
/// `exclude` removes the migration source from candidacy. Troubled
/// shards are never candidates. The gang-style all-or-nothing
/// feasibility check — the *whole* reservation fits a single shard's
/// budget vector or the job is rejected outright — happens in the
/// caller, because shards are homogeneous and the answer is
/// shard-independent.
pub(crate) fn route(
    seed: u64,
    uid: u64,
    home: usize,
    transfer_bytes: u64,
    views: &[ShardView],
    exclude: Option<usize>,
) -> Option<usize> {
    let away_ns = u128::from(link_transfer(transfer_bytes).0);
    let mut best: Option<((u128, u64, usize), usize)> = None;
    for (s, view) in views.iter().enumerate() {
        if view.troubled || Some(s) == exclude {
            continue;
        }
        let locality_ns = if s == home { 0 } else { away_ns };
        let score =
            locality_ns + view.load_ns + u128::from(view.pressure) * u128::from(PRESSURE_NS);
        let tiebreak = mix64(seed ^ mix64(uid.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ s as u64));
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

    #[test]
    fn data_gravity_wins_on_an_idle_fleet() {
        let views = vec![ShardView::default(); 8];
        // A job with real input bytes sticks to its home shard.
        for home in 0..8 {
            assert_eq!(route(42, 1, home, 64 << 20, &views, None), Some(home));
        }
    }

    #[test]
    fn load_spills_jobs_off_a_saturated_home() {
        let mut views = vec![ShardView::default(); 4];
        // Home is drowning in routed work; the input is tiny.
        views[0].load_ns = u128::from(link_transfer(1 << 10).0) * 1000;
        let s = route(7, 5, 0, 1 << 10, &views, None);
        assert!(s.is_some() && s != Some(0), "spilled off home: {s:?}");
    }

    #[test]
    fn fault_pressure_repels_and_troubled_excludes() {
        let mut views = vec![ShardView::default(); 3];
        views[0].troubled = true; // never a candidate
        views[1].pressure = 50; // ~50 ms of repulsion
        let s = route(9, 2, 0, 0, &views, None);
        assert_eq!(s, Some(2));
        views[2].troubled = true;
        assert_eq!(route(9, 2, 0, 0, &views, Some(1)), None, "all closed");
    }

    #[test]
    fn tiebreaks_are_seed_deterministic() {
        let views = vec![ShardView::default(); 16];
        // With the home shard excluded, every candidate pays the same
        // link latency on an idle fleet and scores identically, so only
        // the seeded tiebreak decides.
        let place = |seed, uid| route(seed, uid, 0, 0, &views, Some(0));
        let a: Vec<_> = (0..64).map(|uid| place(1, uid)).collect();
        let b: Vec<_> = (0..64).map(|uid| place(1, uid)).collect();
        let c: Vec<_> = (0..64).map(|uid| place(2, uid)).collect();
        assert_eq!(a, b, "same seed ⇒ same placements");
        assert_ne!(a, c, "different seed ⇒ different tiebreaks");
        // And the tiebreak actually spreads jobs around.
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert!(distinct.len() > 4, "spread: {distinct:?}");
    }

    #[test]
    fn cost_estimate_scales_with_remaining_chunks() {
        let w = JobWork::new(8).read(1 << 20).xfer(1 << 20);
        assert_eq!(w.service_estimate(8), 4 * w.service_estimate(2));
        assert_eq!(w.service_estimate(0), 0);
    }
}
