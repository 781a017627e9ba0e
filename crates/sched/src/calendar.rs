//! Radix-heap event queue: the event engine's priority queue for
//! million-job traces (DESIGN.md §12).
//!
//! A monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, 1990) over
//! 4.096 µs *windows*: an event's window is its time shifted right by
//! `WINDOW_SHIFT`. The queue remembers the window it last refilled
//! from. Events in that window, or behind it, wait in a small binary
//! heap; every later event waits in bucket `b`, where `b` is the highest
//! bit in which its window differs from the remembered one. Pushes are
//! O(1) appends. When the heap runs dry, the lowest occupied bucket is
//! drained: its earliest window becomes the remembered one, that
//! window's events go to the heap, and the rest drop into lower buckets.
//!
//! **Ordering contract.** [`CalendarQueue::pop`] yields events in
//! ascending `(SimTime, kind, id, seq)` order — the exact tuple order the
//! former `BinaryHeap<Reverse<(SimTime, u8, u64, u64)>>` produced — so a
//! run driven by this queue is *bit-identical* to a heap-driven run. The
//! argument: every bucketed event's window is later than the remembered
//! one, so the heap's events precede them all; a bucket's events share
//! the remembered window's bits above `b` and have bit `b` set, so every
//! event of a lower bucket precedes every event of a higher one; and
//! draining bucket `b` leaves the higher buckets' keys unchanged, because
//! the new window agrees with the old one above bit `b`. A push behind
//! the remembered window (a same-instant push during dispatch, or one
//! behind a `peek`) joins the heap and still pops first. The property
//! tests in `crates/sched/tests/calendar_props.rs` drain random
//! interleaved push/pop streams against a `BinaryHeap` oracle and
//! require equality element for element.
//!
//! **Packed storage.** Internally every event lives as a 16-byte
//! `(time_ns, kind·2⁵⁶ | id·2¹⁶ | seq)` pair rather than the 32-byte
//! public tuple, halving the bytes every bucket move and heap sift has
//! to copy. Packing is order-preserving — lexicographic order on the
//! pair equals tuple order on `(SimTime, kind, id, seq)` — provided
//! `id < 2⁴⁰` and `seq < 2¹⁶`, which the engine guarantees (ids are dense
//! job/node/tenant indices and `seq` is always 0 there) and `push`
//! enforces with debug assertions.
//!
//! **Cost.** Every move takes an event to a strictly lower bucket or
//! into the heap, and a window has 64 − 12 = 52 bits, so an event
//! changes bucket at most 52 times however many others are queued. A
//! drained bucket keeps its storage only when it is small
//! (`KEEP_EVENTS`), so the memory follows the population and a burst
//! leaves no capacity behind. The name `CalendarQueue` is the one the
//! engine and the benchmark harness import; it outlived the calendar.
//!
//! Determinism: buckets follow only event *times* already queued (integer
//! arithmetic, no clocks, no randomness), so one event stream ⇒ one pop
//! order, bit for bit.

use northup_sim::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One engine event: `(time, kind, id, seq)`, compared lexicographically.
/// `id` must fit in 40 bits and `seq` in 16 (see the packed-storage note
/// in the module docs); both hold by construction for every engine event.
pub type Event = (SimTime, u8, u64, u64);

/// Internal 16-byte representation: `(time_ns, key)` with
/// `key = kind << 56 | id << 16 | seq`. Natural tuple order on the pair
/// equals [`Event`] tuple order within the documented field bounds.
type Packed = (u64, u64);

#[inline]
fn pack(ev: Event) -> Packed {
    let (t, kind, id, seq) = ev;
    debug_assert!(id < 1 << 40, "event id {id} overflows the 40-bit pack");
    debug_assert!(seq < 1 << 16, "event seq {seq} overflows the 16-bit pack");
    (t.0, (kind as u64) << 56 | id << 16 | seq)
}

#[inline]
fn unpack(p: Packed) -> Event {
    let (t, key) = p;
    (
        SimTime(t),
        (key >> 56) as u8,
        (key >> 16) & ((1 << 40) - 1),
        key & 0xFFFF,
    )
}

/// A window is `2^WINDOW_SHIFT` ns = 4.096 µs: the events of one window
/// are ordered by the heap, never by the buckets.
const WINDOW_SHIFT: u32 = 12;

/// Most events a drained bucket keeps storage for; a larger one is freed.
const KEEP_EVENTS: usize = 1024;

/// A monotone radix heap over [`Event`]s, drop-in for a min-heap.
#[derive(Debug)]
pub struct CalendarQueue {
    /// The remembered window's events, and any pushed behind it.
    near: BinaryHeap<Reverse<Packed>>,
    /// `buckets[b]`: events whose window first differs from `window` in
    /// bit `b` (and is therefore later). Boxed, so the 1.5 KB of bucket
    /// headers stay out of the scheduler's run state.
    buckets: Box<[Vec<Packed>; 64]>,
    /// Bit `b` set while `buckets[b]` holds events.
    occupied: u64,
    /// The window of the last refill.
    window: u64,
    /// Total events stored.
    len: usize,
    /// Events placed by refills, for the tests that pin the cost per
    /// event (`crates/` holds no stopwatch).
    #[cfg(test)]
    moves: u64,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty queue whose remembered window is the one at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            near: BinaryHeap::new(),
            buckets: Box::new(std::array::from_fn(|_| Vec::new())),
            occupied: 0,
            window: 0,
            len: 0,
            #[cfg(test)]
            moves: 0,
        }
    }

    /// Events stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an event: a heap push at or behind the remembered window, a
    /// bucket append past it.
    pub fn push(&mut self, ev: Event) {
        let p = pack(ev);
        self.len += 1;
        let w = p.0 >> WINDOW_SHIFT;
        if w <= self.window {
            self.near.push(Reverse(p));
        } else {
            self.file(w, p);
        }
    }

    /// Append `p`, whose window `w` is later than the remembered one, to
    /// its bucket.
    #[inline]
    fn file(&mut self, w: u64, p: Packed) {
        let b = 63 - (w ^ self.window).leading_zeros() as usize;
        self.occupied |= 1 << b;
        self.buckets[b].push(p);
    }

    /// Remove and return the minimum event, or `None` when empty.
    pub fn pop(&mut self) -> Option<Event> {
        if self.near.is_empty() {
            self.refill();
        }
        let Reverse(p) = self.near.pop()?;
        self.len -= 1;
        Some(unpack(p))
    }

    /// The minimum event without removing it, or `None` when empty.
    pub fn peek(&mut self) -> Option<Event> {
        if self.near.is_empty() {
            self.refill();
        }
        self.near.peek().map(|&Reverse(p)| unpack(p))
    }

    /// Drain the lowest occupied bucket: its earliest window becomes the
    /// remembered one, that window's events go to the (empty) heap and
    /// the rest to lower buckets.
    fn refill(&mut self) {
        if self.occupied == 0 {
            return;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= self.occupied - 1;
        let mut drained = std::mem::take(&mut self.buckets[b]);
        let earliest = drained.iter().map(|p| p.0 >> WINDOW_SHIFT).min();
        self.window = earliest.unwrap_or(self.window);
        for &p in &drained {
            let w = p.0 >> WINDOW_SHIFT;
            if w == self.window {
                self.near.push(Reverse(p));
            } else {
                self.file(w, p);
            }
        }
        #[cfg(test)]
        {
            self.moves += drained.len() as u64;
        }
        drained.clear();
        if drained.capacity() <= KEEP_EVENTS {
            self.buckets[b] = drained;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: u8, id: u64) -> Event {
        (SimTime(t), kind, id, 0)
    }

    #[test]
    fn pack_preserves_tuple_order_and_roundtrips() {
        let samples = [
            ev(0, 0, 0),
            ev(0, 0, 1),
            ev(0, 6, (1 << 40) - 1),
            (SimTime(0), 6, (1 << 40) - 1, (1 << 16) - 1),
            ev(7, 3, 12),
            (SimTime(7), 3, 12, 9),
            ev(u64::MAX, 6, 42),
        ];
        for &a in &samples {
            assert_eq!(unpack(pack(a)), a, "roundtrip");
            for &b in &samples {
                assert_eq!(pack(a).cmp(&pack(b)), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn drains_in_tuple_order() {
        let mut q = CalendarQueue::new();
        q.push(ev(500, 5, 2));
        q.push(ev(10, 0, 9));
        q.push(ev(10, 0, 1));
        q.push(ev(10, 1, 0));
        q.push(ev(1 << 40, 6, 3)); // far future: a high bucket
        q.push(ev(0, 5, 0));
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        assert_eq!(
            out,
            vec![
                ev(0, 5, 0),
                ev(10, 0, 1),
                ev(10, 0, 9),
                ev(10, 1, 0),
                ev(500, 5, 2),
                ev(1 << 40, 6, 3),
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_pushes_match_heap_order() {
        // Deterministic pseudo-random stream (splitmix64), interleaving
        // pushes and pops, with pushes always at/after the current time —
        // the engine's monotone future-event property.
        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut q = CalendarQueue::new();
        let mut rnd = splitmix(0x1234_5678);
        let mut now = 0u64;
        for i in 0..50_000u64 {
            let r = rnd();
            if !r.is_multiple_of(3) || q.is_empty() {
                let dt = r % 100_000; // near future and far future mixed
                let dt = if r.is_multiple_of(17) { dt * 1000 } else { dt };
                let e = (SimTime(now + dt), (r % 7) as u8, i, 0);
                heap.push(Reverse(e));
                q.push(e);
            } else {
                let a = heap.pop().map(|Reverse(e)| e);
                let b = q.pop();
                assert_eq!(a, b, "divergence mid-stream");
                if let Some(e) = a {
                    now = e.0 .0;
                }
            }
        }
        loop {
            let a = heap.pop().map(|Reverse(e)| e);
            let b = q.pop();
            assert_eq!(a, b, "divergence in the drain");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn past_time_push_still_pops_first() {
        let mut q = CalendarQueue::new();
        q.push(ev(1000, 0, 1));
        assert_eq!(q.pop(), Some(ev(1000, 0, 1)));
        // Behind the remembered window now — into the heap, and still the
        // minimum remaining.
        q.push(ev(2000, 0, 2));
        q.push(ev(500, 0, 3));
        assert_eq!(q.pop(), Some(ev(500, 0, 3)));
        assert_eq!(q.pop(), Some(ev(2000, 0, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_overtaken_by_sliding_window_pops_in_order() {
        // Regression for a bug the property tests caught in the calendar
        // this queue replaced: an event far ahead waits in a high bucket;
        // popping an earlier one moves the remembered window forward, so
        // a *later* push lands in a lower bucket. The waiting event must
        // still pop first.
        let mut q = CalendarQueue::new();
        q.push(ev(16_384_000, 0, 1));
        q.push(ev(17_000_000, 0, 2));
        assert_eq!(q.pop(), Some(ev(16_384_000, 0, 1)));
        q.push(ev(20_000_000, 0, 3));
        assert_eq!(q.pop(), Some(ev(17_000_000, 0, 2)));
        assert_eq!(q.pop(), Some(ev(20_000_000, 0, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        for t in [7u64, 3, 900_000, 3, 12] {
            q.push(ev(t, 2, t));
        }
        while !q.is_empty() {
            let p = q.peek();
            assert_eq!(p, q.pop());
        }
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn million_distant_arrivals_drain_sorted() {
        // Mimics the seeded-arrival shape of a million-job trace: all
        // pushes up front, spanning hours of virtual time, then a full
        // drain through repeated refills.
        let mut q = CalendarQueue::new();
        let mut state = 9u64;
        let n = 200_000u64;
        for i in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            q.push((SimTime(state % (1 << 42)), 5, i, 0));
        }
        assert_eq!(q.len(), n as usize);
        let mut prev: Option<Event> = None;
        let mut count = 0usize;
        while let Some(e) = q.pop() {
            if let Some(p) = prev {
                assert!(p <= e, "out of order: {p:?} then {e:?}");
            }
            prev = Some(e);
            count += 1;
        }
        assert_eq!(count, n as usize);
    }

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

    /// Pop `holds` times, re-pushing every kind-0 event `delta()` later.
    /// Returns the pushes made, the caller's fill included.
    fn hold(q: &mut CalendarQueue, holds: u64, mut delta: impl FnMut() -> u64) -> u64 {
        let mut pushes = q.len() as u64;
        let mut prev = q.peek().expect("filled");
        for _ in 0..holds {
            let e = q.pop().expect("held events");
            assert!(prev <= e, "out of order: {prev:?} then {e:?}");
            prev = e;
            if e.1 == 0 {
                q.push((SimTime(e.0 .0 + delta()), 0, e.2, 0));
                pushes += 1;
            }
        }
        pushes
    }

    #[test]
    fn an_event_changes_bucket_at_most_52_times() {
        // The worst case: windows 2⁵¹, 2⁵¹ + 2⁵⁰, …, 2⁵² − 1 all start in
        // bucket 51, and each refill sends the earliest to the heap and
        // the rest one bucket down. The last one, at the top of the time
        // range, changes bucket 52 times: 51 → 50 → … → 0 → heap.
        let mut q = CalendarQueue::new();
        let mut w = 0u64;
        for k in (0..52).rev() {
            w |= 1 << k;
            q.push((SimTime(w << WINDOW_SHIFT), 0, k, 0));
        }
        q.push((SimTime(u64::MAX), 6, 0, 0));
        let mut prev = q.pop().expect("filled");
        while let Some(e) = q.pop() {
            assert!(prev < e, "out of order: {prev:?} then {e:?}");
            prev = e;
        }
        // `u64::MAX` shares the last window and moves with it.
        assert_eq!(q.moves, (1..=52).sum::<u64>() + 52);
    }

    #[test]
    fn moves_per_operation_do_not_grow_with_the_backlog() {
        // The replay's shape: seeded arrivals 7 ms apart, 2000 stage-dones
        // in flight re-pushed up to 280 ms ahead. The backlog beyond the
        // stream waits in high buckets that no refill drains, so 10⁶
        // resident events cost the stream what 10⁴ do.
        let per_op = |backlog: u64| {
            let mut rnd = splitmix(5);
            let mut q = CalendarQueue::new();
            for id in 0..backlog {
                q.push((SimTime(id * 7_000_000), 5, id, 0));
            }
            for id in 0..2000 {
                q.push((SimTime(rnd() % 280_000_000), 0, id, 0));
            }
            let filled = q.len() as u64;
            let pops = 300_000;
            let pushes = hold(&mut q, pops, || rnd() % 280_000_000) - filled;
            assert!(q.moves <= 52 * (filled + pushes));
            q.moves as f64 / (pops + pushes) as f64
        };
        let (small, large) = (per_op(10_000), per_op(1_000_000));
        assert!(
            large <= small,
            "{large:.3} moves/op at 10⁶, {small:.3} at 10⁴"
        );
    }

    #[test]
    fn a_drained_burst_leaves_small_buckets_behind() {
        // 10⁶ events over 73 virtual minutes: the high buckets hold
        // hundreds of thousands of events at a time. Once drained, none
        // keeps more storage than `KEEP_EVENTS`.
        let mut rnd = splitmix(13);
        let mut q = CalendarQueue::new();
        for id in 0..1_000_000u64 {
            q.push((SimTime(rnd() % (1 << 42)), 5, id, 0));
        }
        while q.pop().is_some() {}
        let held: usize = q.buckets.iter().map(Vec::capacity).sum();
        assert!(held <= 64 * KEEP_EVENTS, "{held} events' storage");
    }
}
