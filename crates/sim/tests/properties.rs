//! Property tests on the virtual-time substrate: FIFO resource laws,
//! timeline aggregation, and steal-simulation conservation under arbitrary
//! request sequences.

use northup_sim::{Resource, SimDur, SimTime, Timeline};
use proptest::prelude::*;

proptest! {
    /// FIFO law: every request starts no earlier than its ready time and no
    /// earlier than the previous request's start; busy time equals the sum
    /// of durations; requests never overlap.
    #[test]
    fn resource_fifo_laws(reqs in prop::collection::vec((0u64..10_000, 0u64..5_000), 1..100)) {
        let mut r = Resource::new("dev", 1e6, SimDur::ZERO); // 1 B/us
        let mut prev_end = SimTime::ZERO;
        let mut total = SimDur::ZERO;
        for &(ready_us, bytes) in &reqs {
            let ready = SimTime(ready_us * 1_000);
            let s = r.serve_bytes(ready, bytes);
            prop_assert!(s.start >= ready);
            prop_assert!(s.start >= prev_end, "no overlap on a FIFO server");
            prop_assert!(s.end >= s.start);
            total += s.duration();
            prev_end = s.end;
        }
        prop_assert_eq!(r.busy_until(), prev_end);
        prop_assert!(prev_end.since(SimTime::ZERO) >= total);
    }

    /// Makespan on one resource is at least max(total busy, latest ready).
    #[test]
    fn resource_makespan_bounds(reqs in prop::collection::vec((0u64..1_000, 1u64..1_000), 1..60)) {
        let mut r = Resource::new("dev", 1e9, SimDur::ZERO);
        let mut last_end = SimTime::ZERO;
        let mut busy = SimDur::ZERO;
        for &(ready_us, bytes) in &reqs {
            let s = r.serve_bytes(SimTime(ready_us * 1_000), bytes);
            last_end = last_end.max(s.end);
            busy += s.duration();
        }
        prop_assert!(last_end.since(SimTime::ZERO) >= busy);
    }

    /// Timeline aggregation equals a straightforward reference fold.
    #[test]
    fn timeline_matches_reference_fold(
        spans in prop::collection::vec((0u64..1_000, 0u64..1_000, 0usize..7), 0..80)
    ) {
        use northup_sim::Category;
        let mut t = Timeline::new();
        let mut ref_busy = [0u64; 7];
        let mut ref_makespan = 0u64;
        for &(start_us, dur_us, cat_i) in &spans {
            let cat = Category::ALL[cat_i];
            let start = SimTime(start_us * 1_000);
            let end = SimTime((start_us + dur_us) * 1_000);
            t.record(start, end, cat, "x");
            ref_busy[cat_i] += dur_us * 1_000;
            ref_makespan = ref_makespan.max(end.0);
        }
        let b = t.breakdown();
        for (i, &cat) in Category::ALL.iter().enumerate() {
            prop_assert_eq!(b.get(cat).0, ref_busy[i]);
        }
        prop_assert_eq!(b.makespan.0, ref_makespan);
        prop_assert_eq!(b.spans, spans.len());
        // Shares sum to 1 whenever anything was recorded.
        if b.total_busy().0 > 0 {
            let sum: f64 = Category::ALL.iter().map(|&c| b.share(c)).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    /// Faster workers never lengthen a stealing schedule.
    #[test]
    fn steal_sim_monotone_in_rates(
        tasks in prop::collection::vec(0.5f64..5.0, 1..40),
        base_rate in 0.5f64..4.0,
        boost in 1.0f64..3.0,
    ) {
        use northup_sim::{deal_round_robin, simulate_stealing, SimWorker};
        let make = |rate: f64| {
            (0..3usize)
                .map(|i| SimWorker::new(format!("w{i}"), rate, (0..3).filter(|&v| v != i).collect()))
                .collect::<Vec<_>>()
        };
        let slow = simulate_stealing(&make(base_rate), deal_round_robin(&tasks, 3));
        let fast = simulate_stealing(&make(base_rate * boost), deal_round_robin(&tasks, 3));
        prop_assert!(fast.makespan <= slow.makespan);
    }
}
