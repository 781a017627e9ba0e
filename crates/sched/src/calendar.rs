//! Bucketed calendar queue: the event engine's priority queue for
//! million-job traces (DESIGN.md §12).
//!
//! A Brown-style calendar queue replaces the former
//! `BinaryHeap<Reverse<(SimTime, u8, u64, u64)>>`: a ring of
//! power-of-two-width *buckets* covers the near future, and everything
//! beyond the ring's horizon waits in a sorted *pile*. Pushes into the
//! horizon are O(1) bucket appends; pops sort one small bucket at a time
//! instead of sifting a million-entry heap, so the hot path touches a
//! few contiguous cache lines rather than log₂(n) scattered ones.
//!
//! **Ordering contract.** [`CalendarQueue::pop`] yields events in
//! ascending `(SimTime, kind, id, seq)` order — the exact tuple order the
//! heap produced, tie-broken by the same `(kind, id)` fields — so a run
//! driven by the calendar queue is *bit-identical* to a heap-driven run.
//! Identical tuples are interchangeable (the engine never distinguishes
//! two equal events), which is why the per-bucket `sort_unstable` is
//! safe. The property tests in `crates/sched/tests/calendar_props.rs`
//! drain random interleaved push/pop streams against a `BinaryHeap`
//! oracle and require equality element for element.
//!
//! **Packed storage.** Internally every event lives as a 16-byte
//! `(time_ns, kind·2⁵⁶ | id·2¹⁶ | seq)` pair rather than the 32-byte
//! public tuple, halving the bytes every bucket sort and pile merge has
//! to move. Packing is order-preserving — lexicographic order on the
//! pair equals tuple order on `(SimTime, kind, id, seq)` — provided
//! `id < 2⁴⁰` and `seq < 2¹⁶`, which the engine guarantees (ids are dense
//! job/node/tenant indices and `seq` is always 0 there) and `push`
//! enforces with debug assertions.
//!
//! **Monotonicity.** The simulation only schedules into the future, so
//! pushes at or after the current head time are the fast path. A push
//! *behind* the head (possible only for same-instant work during event
//! dispatch) is clamped into the active bucket, which the pop path keeps
//! sorted — exactly matching heap semantics, where a pop always returns
//! the minimum of whatever remains.
//!
//! **Geometry.** The ring has `n` buckets (a power of two, so a slot is
//! a shift and a mask) of `2^shift` nanoseconds each; slot
//! `(head + k) & (n − 1)` covers `[floor + k·width, floor + (k+1)·width)`
//! and `floor + n·width` is the horizon. A queue is born with
//! `RING_BUCKETS` buckets of 4.096 µs, which is a placeholder, not a
//! tuning: nothing promises it will ever be replaced, and a queue whose
//! traffic fits it keeps it. It changes on two occasions, both noticed by
//! a pop, both judged from the events queued at that moment:
//!
//! * *The ring holds no more events than have been parked beyond it since
//!   the pile was last folded* — the horizon is too near. A dry ring is
//!   the limiting case, and free: there is nothing to re-bucket. The
//!   other is a ring kept alive by a trickle of near events (a control
//!   tick, say) while the bulk of the traffic overshoots it; those few
//!   events are swept into the pile first. Then `n` is set from how many
//!   events are queued (`TARGET_PER_BUCKET` each, never fewer than
//!   `RING_BUCKETS`, never more than `MAX_RING_BUCKETS`; it only ever
//!   grows) and the width so that the horizon spans the nearest
//!   `n · TARGET_PER_BUCKET` of them.
//! * *The bucket about to become active is crowded (`DENSE_BUCKET`) and
//!   the whole ring, that full, would fit in `CROWDED_RING` buckets* —
//!   the buckets are too wide. The ring is swept into the pile and the
//!   width set so that the crowd itself would spread `TARGET_PER_BUCKET`
//!   to a bucket. (A crowd sharing one instant is left alone: no width
//!   spreads it.)
//!
//! Geometry decides where an event *waits*, never when it pops. The
//! active window's events sit in a small binary heap, which is trusted
//! only once every pile event inside the window has been pulled into it,
//! and the head never steps past the pile's minimum; so `pop` returns
//! the global minimum under any `n`, any width, and any number of
//! changes of either. Three more things keep the cost per event flat.
//! Pile events are pulled one window at a time, as the head reaches
//! them, so a trace's seeded arrivals are sorted once and never spread
//! over the ring, and what overshoots later is sorted by itself and
//! merged in, not re-sorted with the pile. Empty buckets are skipped by
//! an occupancy bitmap: a sparse ring costs a word scan per pop, not a
//! step per bucket. And a drained bucket's storage is lent to the next
//! bucket that needs some, so the ring's memory follows the buckets
//! occupied at one time, not the buckets swept.
//!
//! Determinism: bucket geometry adapts only to event *times* already in
//! the queue (integer arithmetic, no clocks, no randomness), so one
//! event stream ⇒ one pop order, bit for bit.

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

/// Fewest ring buckets, and the count a queue is born with. 4096 buckets
/// × a few events each keeps per-pop sorts tiny at small populations.
const RING_BUCKETS: usize = 4096;

/// Most ring buckets: 3 MiB of bucket headers and a 16 KiB occupancy
/// bitmap. Past `MAX_RING_BUCKETS · TARGET_PER_BUCKET` queued events the
/// buckets get fuller instead.
const MAX_RING_BUCKETS: usize = 1 << 17;

/// Target mean events per bucket when the geometry is re-derived.
const TARGET_PER_BUCKET: usize = 4;

/// A bucket with more events than this may mean the buckets are too
/// wide (see `CROWDED_RING`).
const DENSE_BUCKET: usize = 16 * TARGET_PER_BUCKET;

/// A dense bucket narrows the ring only if the whole ring, at that
/// bucket's fill, would fit in this many buckets. A crowd that is a small
/// part of a well-spread ring is a burst, and not worth re-bucketing the
/// ring for.
const CROWDED_RING: usize = 16;

/// What the queue has spent on keeping order, for the tests that pin its
/// cost per event (`crates/` holds no stopwatch).
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
struct Work {
    /// Events handed to a sort or a heapify, or moved by a pile merge.
    ordered: u64,
    /// Occupancy words examined while skipping empty buckets.
    scanned: u64,
    /// Times the geometry was re-derived.
    regeared: u64,
}

/// A bucketed calendar queue over [`Event`]s, drop-in for a min-heap.
#[derive(Debug)]
pub struct CalendarQueue {
    /// The near-future ring (see the module docs for the slot math). The
    /// active bucket's events live in `active`, so `ring[head]` is empty.
    ring: Vec<Vec<Reverse<Packed>>>,
    /// One bit per ring bucket, set while the bucket holds events.
    occupied: Vec<u64>,
    /// Storage of drained buckets, lent to the next empty bucket pushed
    /// into so a sweep of the ring allocates nothing.
    spare: Vec<Vec<Reverse<Packed>>>,
    /// The active (earliest) bucket.
    head: usize,
    /// Start of the active bucket's window, in virtual nanoseconds.
    floor: u64,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    /// The active window's events as a min-heap: however many the width
    /// lets into one window, a pop or a same-window push costs the
    /// logarithm of that, never the whole bucket.
    active: BinaryHeap<Reverse<Packed>>,
    /// The pile: events that were at or beyond the horizon when pushed,
    /// sorted descending (the earliest at the back).
    far: Vec<Packed>,
    /// Pile events pushed since the last fold, in push order.
    late: Vec<Packed>,
    /// Earliest time in `late` (`u64::MAX` when empty).
    late_min: u64,
    /// Earliest time in the whole pile (`u64::MAX` when empty). The head
    /// never walks past it, and once it falls inside the active window
    /// the pile's due events are pulled in *before* the active bucket is
    /// trusted — otherwise a later ring event would pop first.
    pile_min: u64,
    /// Events currently stored in the ring, `active` included.
    in_ring: usize,
    /// Total events stored.
    len: usize,
    #[cfg(test)]
    work: Work,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty queue anchored at virtual time zero, with the placeholder
    /// geometry (module docs, *Geometry*, for when it changes).
    pub fn new() -> Self {
        CalendarQueue {
            ring: vec![Vec::new(); RING_BUCKETS],
            occupied: vec![0; RING_BUCKETS / 64],
            spare: Vec::new(),
            head: 0,
            floor: 0,
            shift: 12,
            active: BinaryHeap::new(),
            far: Vec::new(),
            late: Vec::new(),
            late_min: u64::MAX,
            pile_min: u64::MAX,
            in_ring: 0,
            len: 0,
            #[cfg(test)]
            work: Work::default(),
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

    /// End of the active bucket's window.
    fn window_end(&self) -> u64 {
        self.floor.saturating_add(1 << self.shift)
    }

    /// End of the ring's coverage: events at or past this go to the pile.
    fn horizon(&self) -> u64 {
        let span = (self.ring.len() as u64).saturating_mul(1 << self.shift);
        self.floor.saturating_add(span)
    }

    /// Insert an event: a bucket append for a future event within the
    /// horizon (the overwhelming case), a heap push for one in the active
    /// window — a same-instant push behind the head clamps into it — and
    /// an append to the pile for one beyond the horizon.
    pub fn push(&mut self, ev: Event) {
        let p = pack(ev);
        self.len += 1;
        if p.0 < self.window_end() {
            self.active.push(Reverse(p));
            self.in_ring += 1;
        } else if p.0 < self.horizon() {
            let ahead = ((p.0 - self.floor) >> self.shift) as usize;
            let slot = (self.head + ahead) & (self.ring.len() - 1);
            self.occupied[slot >> 6] |= 1 << (slot & 63);
            let bucket = &mut self.ring[slot];
            if bucket.capacity() == 0 {
                if let Some(lent) = self.spare.pop() {
                    *bucket = lent;
                }
            }
            bucket.push(Reverse(p));
            self.in_ring += 1;
        } else {
            self.late_min = self.late_min.min(p.0);
            self.pile_min = self.pile_min.min(p.0);
            self.late.push(p);
        }
    }

    /// Remove and return the minimum event, or `None` when empty.
    pub fn pop(&mut self) -> Option<Event> {
        self.settle();
        let Reverse(p) = self.active.pop()?;
        self.len -= 1;
        self.in_ring -= 1;
        Some(unpack(p))
    }

    /// The minimum event without removing it, or `None` when empty.
    /// Advances internally (amortized against the matching pop).
    pub fn peek(&mut self) -> Option<Event> {
        self.settle();
        self.active.peek().map(|&Reverse(p)| unpack(p))
    }

    /// Bring the queue's minimum to the top of `active` (which stays
    /// empty only if the queue is).
    fn settle(&mut self) {
        if self.len == 0 {
            return;
        }
        loop {
            // The window slides forward as `head` walks, so it can reach
            // events parked in the pile. Pull them in before trusting
            // the active bucket: without this, a ring event later than
            // the pile's minimum would pop first.
            if self.in_ring == 0 || self.pile_min < self.window_end() {
                self.pull_due();
            }
            if !self.active.is_empty() {
                return;
            }
            // The ring holds *something*, so an occupied bucket is at
            // most one revolution away; stop short of it if the pile's
            // minimum comes first.
            let to_pile = (self.pile_min - self.floor) >> self.shift;
            let step = self.next_occupied().min(to_pile as usize).max(1);
            let stride = (step as u64).saturating_mul(1 << self.shift);
            self.floor = self.floor.saturating_add(stride);
            self.head = (self.head + step) & (self.ring.len() - 1);
            if let Some(shift) = self.crowd_shift() {
                self.sweep_ring();
                self.fold_late();
                self.shift = shift;
                self.anchor();
                self.pull_far();
            } else if !self.ring[self.head].is_empty() {
                self.occupied[self.head >> 6] &= !(1 << (self.head & 63));
                let bucket = std::mem::take(&mut self.ring[self.head]);
                #[cfg(test)]
                {
                    self.work.ordered += bucket.len() as u64;
                }
                let drained = std::mem::replace(&mut self.active, bucket.into()).into_vec();
                if drained.capacity() > 0 {
                    self.spare.push(drained);
                }
            }
        }
    }

    /// The narrower bucket width (as a shift) the ring should take when
    /// the bucket about to become active holds most of the ring's events:
    /// the buckets are then too wide to tell the traffic apart, and this
    /// one's own events, spread [`TARGET_PER_BUCKET`] to a bucket, say
    /// how wide they should be. `None` for an ordinary bucket, and for a
    /// crowd that shares (nearly) one instant — no width spreads that.
    fn crowd_shift(&self) -> Option<u32> {
        let crowd = &self.ring[self.head];
        if crowd.len() <= DENSE_BUCKET || crowd.len() * CROWDED_RING <= self.in_ring {
            return None;
        }
        let (lo, hi) = crowd.iter().fold((u64::MAX, 0), |(lo, hi), Reverse(p)| {
            (lo.min(p.0), hi.max(p.0))
        });
        let buckets = (crowd.len() / TARGET_PER_BUCKET) as u64;
        let width = ((hi - lo) / buckets).next_power_of_two();
        (hi - lo >= buckets).then_some(width.trailing_zeros())
    }

    /// Buckets from the (empty) active bucket to the next occupied one,
    /// found a bitmap word at a time. Callers guarantee that one exists.
    fn next_occupied(&mut self) -> usize {
        let mask = self.ring.len() - 1;
        let mut word = self.head >> 6;
        let mut bits = self.occupied[word] & (!0 << (self.head & 63));
        // One extra turn: the first word's low bits are only seen on the
        // way back round.
        for _ in 0..=self.occupied.len() {
            #[cfg(test)]
            {
                self.work.scanned += 1;
            }
            if bits != 0 {
                let slot = word << 6 | bits.trailing_zeros() as usize;
                return slot.wrapping_sub(self.head) & mask;
            }
            word = (word + 1) & (self.occupied.len() - 1);
            bits = self.occupied[word];
        }
        debug_assert!(false, "ring events but no bucket is marked occupied");
        1
    }

    /// Move every pile event inside the active window into `active`.
    /// `late` is folded into `far` first if it holds one of them or the
    /// ring is dry; and if the ring then holds no more events than `late`
    /// does, the geometry has stopped matching the traffic and is
    /// re-derived with the ring swept into the fold (module docs,
    /// *Geometry*).
    fn pull_due(&mut self) {
        if self.in_ring == 0 || self.late_min < self.window_end() {
            let regear = self.in_ring <= self.late.len();
            if regear {
                self.sweep_ring();
            }
            self.fold_late();
            if regear {
                self.regear();
            }
        }
        self.pull_far();
    }

    /// Move `far`'s events inside the active window into `active`.
    fn pull_far(&mut self) {
        let end = self.window_end();
        let due = self.far.iter().rev().take_while(|p| p.0 < end).count();
        let keep = self.far.len() - due;
        self.active.extend(self.far.drain(keep..).map(Reverse));
        self.in_ring += due;
        let far_min = self.far.last().map_or(u64::MAX, |p| p.0);
        self.pile_min = far_min.min(self.late_min);
    }

    /// Empty the ring into `late`, keeping every bucket's storage where
    /// it is.
    fn sweep_ring(&mut self) {
        if self.in_ring == 0 {
            return;
        }
        self.late.extend(self.active.drain().map(|Reverse(p)| p));
        for word in 0..self.occupied.len() {
            let mut bits = std::mem::take(&mut self.occupied[word]);
            while bits != 0 {
                let slot = word << 6 | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let bucket = self.ring[slot].drain(..);
                self.late.extend(bucket.map(|Reverse(p)| p));
            }
        }
        self.in_ring = 0;
    }

    /// Sort `late` and merge it into `far`.
    fn fold_late(&mut self) {
        if self.late.is_empty() {
            return;
        }
        self.late.sort_unstable_by(|a, b| b.cmp(a));
        #[cfg(test)]
        {
            self.work.ordered += self.late.len() as u64;
        }
        if self.far.is_empty() {
            std::mem::swap(&mut self.far, &mut self.late);
        } else {
            self.merge_late();
        }
        self.late_min = u64::MAX;
    }

    /// Merge the sorted `late` run into `far`. Both are descending, so
    /// the merge fills `far` from the back — earliest first — in place,
    /// and stops as soon as `late` is spent: it costs `late` plus the
    /// `far` events earlier than `late`'s last, not the whole pile.
    fn merge_late(&mut self) {
        let (mut i, mut j) = (self.far.len(), self.late.len());
        let mut k = i + j;
        self.far.resize(k, (0, 0));
        while j > 0 {
            k -= 1;
            if i > 0 && self.far[i - 1] < self.late[j - 1] {
                i -= 1;
                self.far[k] = self.far[i];
            } else {
                j -= 1;
                self.far[k] = self.late[j];
            }
        }
        #[cfg(test)]
        {
            self.work.ordered += (self.far.len() - k) as u64;
        }
        self.late.clear();
    }

    /// Re-derive the geometry from the pile, which at this point holds
    /// every queued event, sorted: bucket count from the population,
    /// width from the span of the nearest events the ring can hold at
    /// the target fill. Pure integer arithmetic over queued times —
    /// deterministic.
    fn regear(&mut self) {
        let Some(&(earliest, _)) = self.far.last() else {
            return;
        };
        let want = (self.far.len() / TARGET_PER_BUCKET)
            .next_power_of_two()
            .min(MAX_RING_BUCKETS);
        if want > self.ring.len() {
            self.ring.resize_with(want, Vec::new);
            self.occupied.resize(want / 64, 0);
        }
        let n = self.ring.len();
        let probe = n * TARGET_PER_BUCKET;
        let latest = self.far[self.far.len().saturating_sub(probe)].0;
        let width = ((latest - earliest) / n as u64).max(1).next_power_of_two();
        self.shift = width.trailing_zeros();
        self.anchor();
        #[cfg(test)]
        {
            self.work.regeared += 1;
        }
    }

    /// Restart the (swept) ring's window at the pile's earliest event.
    fn anchor(&mut self) {
        debug_assert_eq!(self.in_ring, 0, "anchoring moves no ring events");
        self.head = 0;
        self.floor = self.far.last().map_or(self.floor, |p| p.0);
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
        q.push(ev(1 << 40, 6, 3)); // far future: overflow
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
        // Behind the head now — clamped, but still the minimum remaining.
        q.push(ev(2000, 0, 2));
        q.push(ev(500, 0, 3));
        assert_eq!(q.pop(), Some(ev(500, 0, 3)));
        assert_eq!(q.pop(), Some(ev(2000, 0, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_overtaken_by_sliding_window_pops_in_order() {
        // Regression for a bug the property tests caught: an event
        // beyond the initial horizon waits in overflow; popping a deep
        // ring event slides the window forward so a *later* push lands
        // in the ring. The overflow event must still pop first.
        let mut q = CalendarQueue::new();
        q.push(ev(16_384_000, 0, 1)); // deep in the ring
        q.push(ev(17_000_000, 0, 2)); // beyond the initial horizon
        assert_eq!(q.pop(), Some(ev(16_384_000, 0, 1)));
        q.push(ev(20_000_000, 0, 3)); // inside the slid horizon
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
        // drain through repeated overflow refills.
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
    fn stage_done_stream_costs_constant_work_per_event() {
        // The stream of `calendar_props.rs`'s large-population test: 60k
        // stage-dones in flight over 170k seeded arrivals, a quarter of
        // the pushes within 33 ms and the rest up to 280 s ahead. The
        // fixed 4096-bucket ring re-sorted its whole overflow pile at
        // every refill of such a stream (two sorts per push on the 300k
        // replay); here an event is ordered a bounded number of times
        // however large the population, and the bitmap pays about a word
        // per pop.
        let mut rnd = splitmix(20);
        let mut delta = move || {
            let r = rnd();
            if r.is_multiple_of(4) {
                (r >> 8) % 33_000_000
            } else {
                (r >> 8) % 280_000_000_000
            }
        };
        let mut q = CalendarQueue::new();
        for id in 0..170_000u64 {
            q.push((SimTime(id * 7_000_000), 5, id, 0));
        }
        for id in 0..60_000u64 {
            q.push((SimTime(delta()), 0, id, 0));
        }
        let pops = 400_000;
        let pushes = hold(&mut q, pops, delta);
        let w = q.work;
        assert!(w.ordered <= 3 * pushes, "{w:?} for {pushes} pushes");
        assert!(w.scanned <= 2 * pops, "{w:?} for {pops} pops");
        assert!(w.regeared <= 4, "{w:?}");
        assert!(q.ring.len() > RING_BUCKETS, "the ring grew with the pile");
    }

    #[test]
    fn sparse_ring_is_walked_a_word_at_a_time() {
        // The overload shape: arrivals every 1.5 ms in the pile, three
        // stage-dones in flight a few ms ahead and a control tick every
        // 8 ms that keeps the ring from ever running dry. The fixed ring
        // kept its 4.096 µs placeholder width for the whole run and
        // stepped over 40 empty buckets per pop.
        let mut rnd = splitmix(3);
        let mut q = CalendarQueue::new();
        for id in 0..75_000u64 {
            q.push((SimTime(id * 1_500_000), 5, id, 0));
        }
        for id in 0..3 {
            q.push((SimTime(1 + id), 0, id, 0));
        }
        q.push((SimTime(0), 0, 9, 0));
        let pops = 300_000;
        let pushes = hold(&mut q, pops, move || {
            let r = rnd();
            if r.is_multiple_of(16) {
                8_000_000
            } else {
                (r >> 8) % 4_000_000
            }
        });
        let w = q.work;
        assert!(w.scanned <= 2 * pops, "{w:?} for {pops} pops");
        assert!(w.ordered <= 3 * pushes, "{w:?} for {pushes} pushes");
    }

    #[test]
    fn a_trickle_of_near_events_does_not_pin_the_geometry() {
        // One event hops 8 ms at a time, so the ring is never dry, while
        // a thousand others, a millisecond apart, each reach 100 s ahead
        // — 6000 placeholder horizons. A queue that waits for a dry ring
        // keeps 4.096 µs buckets for the whole run and walks 2000 of them
        // per hop.
        let mut q = CalendarQueue::new();
        for id in 0..1000u64 {
            q.push((SimTime(id * 1_000_000), 0, id, 0));
        }
        let mut prev = q.peek().expect("filled");
        for _ in 0..200_000 {
            let e = q.pop().expect("held events");
            assert!(prev <= e, "out of order: {prev:?} then {e:?}");
            prev = e;
            let ahead = if e.2 == 0 { 8_000_000 } else { 100_000_000_000 };
            q.push((SimTime(e.0 .0 + ahead), 0, e.2, 0));
        }
        let w = q.work;
        assert!(q.shift > 12, "still the placeholder width: {w:?}");
        assert!(w.ordered <= 3 * 201_000, "{w:?}");
        assert!(w.scanned <= 2 * 200_000, "{w:?}");
    }

    #[test]
    fn a_crowded_bucket_narrows_the_ring() {
        // The hold model: 10^5 events seeded over 700 s, each re-pushed
        // at most 14 ms after it pops, so a dense cluster travels over a
        // sparse pile. Geometry derived from the pile alone puts the
        // whole cluster in one 33 ms bucket.
        let mut rnd = splitmix(7);
        let mut q = CalendarQueue::new();
        for id in 0..100_000u64 {
            q.push((SimTime(rnd() % 14_000_000 * 50_000), 0, id, 0));
        }
        let pops = 1_000_000;
        let pushes = hold(&mut q, pops, move || rnd() % 14_000_000);
        let w = q.work;
        assert!(q.shift < 20, "buckets of {} ns: {w:?}", 1u64 << q.shift);
        assert!(w.ordered <= 3 * pushes, "{w:?} for {pushes} pushes");
        assert!(w.scanned <= 2 * pops, "{w:?} for {pops} pops");
    }

    #[test]
    fn a_swept_ring_holds_storage_for_the_buckets_in_use() {
        // 200k seeded arrivals size the ring at 65 536 buckets; 2000
        // events in flight, re-pushed up to 10 s ahead, occupy a few
        // hundred of them at a time while the head sweeps two thirds of
        // the ring. Were a drained bucket to keep its storage, the ring
        // would end up holding a bucket's worth for every slot swept —
        // some 400k events' worth — rather than for the buckets in use.
        let mut rnd = splitmix(11);
        let mut q = CalendarQueue::new();
        for id in 0..200_000u64 {
            q.push((SimTime(id * 7_000_000), 5, id, 0));
        }
        for id in 0..2000u64 {
            q.push((SimTime(rnd() % 10_000_000_000), 0, id, 0));
        }
        hold(&mut q, 700_000, move || rnd() % 10_000_000_000);
        assert_eq!(q.ring.len(), 1 << 16);
        let held: usize = q.ring.iter().chain(&q.spare).map(Vec::capacity).sum();
        assert!(
            held + q.active.capacity() <= 16 * 2000,
            "{held} events' storage"
        );
    }
}
