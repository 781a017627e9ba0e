//! Property tests for the event queue: against a `BinaryHeap` oracle,
//! [`CalendarQueue`] must be a drop-in replacement — every interleaving
//! of pushes and pops yields the heap's exact pop order, whichever radix
//! bucket an event waits in, however often it drops to a lower one, and
//! whether it was pushed into the current 4.096 µs window, behind it, or
//! at the saturated end of time.

use northup_sched::CalendarQueue;
use northup_sim::SimTime;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

type Ev = (SimTime, u8, u64, u64);

/// (µs offset, kind, id) — compressed so shrinking stays readable.
/// Offsets span six decades so cases hit the current window and the
/// buckets up to ~2³² ns; kinds/ids supply tie-breaking dimensions.
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
    /// case — from nanoseconds to minutes — over a seeded backlog: a
    /// trickle under an overshooting bulk, a crowd in one window, bursts
    /// at one instant. However the events spread over the buckets, the
    /// order is the heap's.
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
    /// a far-future backlog of seeded arrivals, one popped and one pushed
    /// at a time. A quarter of the pushes land within 33 ms; the rest
    /// reach up to 280 virtual seconds ahead, into the buckets the
    /// arrivals wait in, so large buckets are drained mid-stream.
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

/// Times on the bit edges a radix heap keys on: 2ᵏ − 1, 2ᵏ and 2ᵏ + 1 ns
/// for every k — k = 12 is the 4.096 µs window — and the saturated end of
/// time, `u64::MAX`, which `SimTime + transfer_time(.., 0.0, ..)` — a
/// stage over a link with no bandwidth — saturates to.
fn edge_time() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u32..64, 0u64..3).prop_map(|(k, d)| (1u64 << k) - 1 + d),
        (0u32..64, 0u64..3).prop_map(|(k, d)| (1u64 << k) - 1 + d),
        Just(u64::MAX),
    ]
}

/// An op script over edge times: `Push(t, kind, id)`, `Behind(d, kind,
/// id)` — a push `d` ns behind the last popped time — or `Pop`.
#[derive(Debug, Clone)]
enum EdgeOp {
    Push(u64, u8, u64),
    Behind(u64, u8, u64),
    Pop,
}

fn edge_ops() -> impl Strategy<Value = Vec<EdgeOp>> {
    let tagged = || (edge_time(), 0u8..7, 0u64..4);
    prop::collection::vec(
        prop_oneof![
            tagged().prop_map(|(t, k, i)| EdgeOp::Push(t, k, i)),
            tagged().prop_map(|(t, k, i)| EdgeOp::Push(t, k, i)),
            tagged().prop_map(|(d, k, i)| EdgeOp::Behind(d, k, i)),
            Just(EdgeOp::Pop),
            Just(EdgeOp::Pop),
        ],
        0..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Times across the whole 64-bit range, on either side of every bit a
    /// bucket index can turn on, and pushes behind the last pop: the
    /// order is still the heap's.
    #[test]
    fn bucket_edge_times_match_binary_heap(ops in edge_ops()) {
        let mut cal = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        let mut last = 0u64;
        for (i, op) in ops.iter().enumerate() {
            let e = match *op {
                EdgeOp::Push(t, kind, id) => (SimTime(t), kind, id, i as u64),
                EdgeOp::Behind(d, kind, id) => (SimTime(last.saturating_sub(d)), kind, id, i as u64),
                EdgeOp::Pop => {
                    let popped = cal.pop();
                    prop_assert_eq!(popped, heap.pop().map(|Reverse(e)| e));
                    if let Some(e) = popped {
                        last = e.0 .0;
                    }
                    continue;
                }
            };
            cal.push(e);
            heap.push(Reverse(e));
            prop_assert_eq!(cal.len(), heap.len());
        }
        while let Some(Reverse(e)) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(e));
        }
        prop_assert!(cal.is_empty());
    }
}
