//! Property tests for the calendar event queue: against a `BinaryHeap`
//! oracle, [`CalendarQueue`] must be a drop-in replacement — every
//! interleaving of pushes and pops yields the heap's exact pop order,
//! regardless of how the events land in ring buckets, the pile beyond
//! the horizon, or the past-time clamp path, and regardless of how often
//! the ring's geometry is re-derived on the way.

use northup_sched::CalendarQueue;
use northup_sim::SimTime;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

type Ev = (SimTime, u8, u64, u64);

/// (µs offset, kind, id) — compressed so shrinking stays readable.
/// Offsets span six decades so cases hit the active bucket, the ring,
/// and the pile; kinds/ids supply tie-breaking dimensions.
fn event_strategy() -> impl Strategy<Value = (u64, u8, u64)> {
    (0u64..3_000_000, 0u8..7, 0u64..50)
}

/// An op script: `Push(ev)` or `Pop` (pop on an empty queue is a no-op
/// on both sides).
#[derive(Debug, Clone)]
enum Op {
    Push((u64, u8, u64)),
    Pop,
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            event_strategy().prop_map(Op::Push),
            event_strategy().prop_map(Op::Push),
            event_strategy().prop_map(Op::Push),
            Just(Op::Pop),
            Just(Op::Pop),
        ],
        0..400,
    )
}

/// splitmix64, for streams too long to draw op by op from a strategy.
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn ev(raw: (u64, u8, u64), seq: u64) -> Ev {
    (
        SimTime::from_secs_f64(raw.0 as f64 * 1e-6),
        raw.1,
        raw.2,
        seq,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of pushes and pops matches the heap, pop for pop.
    #[test]
    fn pop_order_matches_binary_heap(ops in ops_strategy()) {
        let mut cal = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Push(raw) => {
                    // The seq component makes every event unique, so the
                    // orders are fully determined and comparable.
                    let e = ev(*raw, i as u64);
                    cal.push(e);
                    heap.push(Reverse(e));
                }
                Op::Pop => {
                    prop_assert_eq!(cal.pop(), heap.pop().map(|Reverse(e)| e));
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        while let Some(Reverse(e)) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(e));
        }
        prop_assert!(cal.is_empty());
    }

    /// `peek` agrees with the next `pop` and disturbs nothing.
    #[test]
    fn peek_is_consistent_with_pop(raws in prop::collection::vec(event_strategy(), 1..200)) {
        let mut cal = CalendarQueue::new();
        for (i, raw) in raws.iter().enumerate() {
            cal.push(ev(*raw, i as u64));
        }
        let mut last = None;
        while !cal.is_empty() {
            let peeked = cal.peek();
            let popped = cal.pop();
            prop_assert_eq!(peeked, popped);
            if let (Some(prev), Some(cur)) = (last, popped) {
                prop_assert!(prev <= cur, "pops went backwards: {prev:?} then {cur:?}");
            }
            last = popped;
        }
    }

    /// Hold streams whose re-push distances mix three scales drawn per
    /// case — from nanoseconds to minutes — over a seeded backlog: the
    /// shapes that make the queue change its geometry with events in the
    /// ring (a trickle under an overshooting bulk, a crowd in one bucket,
    /// bursts at one instant). Whatever it decides, the order is the
    /// heap's.
    #[test]
    fn mixed_scale_hold_stream_matches_binary_heap(
        seed in 0u64..u64::MAX,
        live in 1u64..3000,
        backlog in 0u64..3000,
        scales in (0u32..38, 0u32..38, 0u32..38),
    ) {
        let mut rnd = splitmix(seed);
        let mut cal = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        for id in 0..backlog {
            let e = (SimTime(rnd() % (1 << scales.2)), 5, id, 0);
            cal.push(e);
            heap.push(Reverse(e));
        }
        for id in 0..live {
            let e = (SimTime(rnd() % (1 << scales.0)), 0, id, 0);
            cal.push(e);
            heap.push(Reverse(e));
        }
        for _ in 0..20_000 {
            let popped = cal.pop();
            prop_assert_eq!(popped, heap.pop().map(|Reverse(e)| e));
            let (now, kind, id, _) = popped.expect("live events");
            if kind == 0 {
                let r = rnd();
                let scale = [scales.0, scales.1, scales.2][(r % 3) as usize];
                // One push in eight lands on the instant just popped.
                let ahead = if (r >> 2).is_multiple_of(8) { 0 } else { (r >> 8) % (1 << scale) };
                let e = (SimTime(now.0 + ahead), 0, id, 0);
                cal.push(e);
                heap.push(Reverse(e));
            }
        }
        while let Some(Reverse(e)) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(e));
        }
        prop_assert!(cal.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The shape of a replay at scale, which the ≤ 400-op scripts above
    /// never reach: tens of thousands of stage-done events in flight over
    /// a far-future pile of seeded arrivals, one popped and one pushed at
    /// a time. A quarter of the pushes land within a bucket or two; the
    /// rest reach up to 280 virtual seconds ahead — forty times the 7 s a
    /// fixed 4096-bucket ring covers at this density — so the queue has to
    /// re-derive its geometry mid-stream, with the ring full.
    #[test]
    fn stage_done_stream_matches_binary_heap(seed in 0u64..u64::MAX, live in 50_000u64..70_000) {
        let mut rnd = splitmix(seed);
        let mut delta = move || {
            let r = rnd();
            if r.is_multiple_of(4) { (r >> 8) % 33_000_000 } else { (r >> 8) % 280_000_000_000 }
        };
        let mut cal = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        let push = |cal: &mut CalendarQueue, heap: &mut BinaryHeap<Reverse<Ev>>, e: Ev| {
            cal.push(e);
            heap.push(Reverse(e));
        };
        // Seeded arrivals, 7 ms apart, out to 20 minutes.
        for id in 0..170_000u64 {
            push(&mut cal, &mut heap, (SimTime(id * 7_000_000), 5, id, 0));
        }
        for id in 0..live {
            push(&mut cal, &mut heap, (SimTime(delta()), 0, id, 0));
        }
        for _ in 0..3 * live {
            let popped = cal.pop();
            prop_assert_eq!(popped, heap.pop().map(|Reverse(e)| e));
            let (now, kind, id, _) = popped.expect("live events");
            if kind == 0 {
                push(&mut cal, &mut heap, (SimTime(now.0 + delta()), 0, id, 0));
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        while let Some(Reverse(e)) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(e));
        }
        prop_assert!(cal.is_empty());
    }
}
