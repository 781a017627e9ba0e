//! The SLO feedback controller: deterministic overload control in
//! escalating tiers (DESIGN.md §15).
//!
//! The scheduler samples per-class completion latency in **virtual
//! time** and, on every `EV_CONTROL` tick, compares the guaranteed
//! class's p99-so-far against its target. The ratio of the two — the
//! *pressure*, in integer percent — drives four escalating tiers:
//!
//! 1. **Backpressure** — a dynamic queue cap on best-effort arrivals,
//!    so Batch work is rejected-with-reason before it poisons the
//!    queues ([`RejectReason::QueueFull`]).
//! 2. **Shedding** — queued sheddable work is evicted newest-first and
//!    settled `Rejected` with [`RejectReason::Shed`], logged as a typed
//!    [`ShedOutcome`].
//! 3. **Degradation** — brownout: subsequent non-guaranteed admissions
//!    compile a shrunken chain ([`DegradeLevel`] skips the writeback
//!    stage, then halves/quarters the staged bytes), trading result
//!    fidelity for queue drain.
//! 4. **Autoscaling** — a first-order capacity projection in the spirit
//!    of the paper's §V-D model: sustained breach scales the node
//!    budgets by `pressure` percent (when enabled) and, always, records
//!    the peak requirement as "capacity needed for this trace at this
//!    SLO" (`SchedReport::capacity_needed_pct`).
//!
//! Every decision is a pure function of virtual time and previously
//! sampled state: same trace + same [`SloConfig`] ⇒ bit-identical
//! control actions. With `SchedulerConfig::slo = None` (the default) no
//! control event is ever scheduled and the schedule is bit-identical to
//! the pre-SLO engine.

use crate::job::{JobId, Priority};
use northup_sim::{SimDur, SimTime};

/// Why an arrival never ran: the typed split of what used to be a bare
/// `Rejected` count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RejectReason {
    /// The queue (global limit or a controller-imposed class cap) was
    /// full at arrival.
    QueueFull,
    /// The overload controller evicted or declined the job to defend
    /// the guaranteed class's SLO.
    Shed,
    /// The reservation can never fit the (current) node budgets.
    Infeasible,
}

impl RejectReason {
    /// Every variant, in a stable order for report iteration.
    pub const ALL: [RejectReason; 3] = [
        RejectReason::QueueFull,
        RejectReason::Shed,
        RejectReason::Infeasible,
    ];

    /// Stable lower-case name for reports and JSON encodings.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::Shed => "shed",
            RejectReason::Infeasible => "infeasible",
        }
    }
}

/// Brownout level the degradation tier applies to non-guaranteed
/// admissions. Each level shrinks the per-chunk work a little further;
/// level 0 is full fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum DegradeLevel {
    /// Full-fidelity chains.
    #[default]
    None,
    /// Skip the optional writeback stage (`write_bytes = 0`).
    SkipWriteback,
    /// Also stage half the bytes per chunk (half read, half transfer).
    HalfStaging,
    /// Also quarter the staged bytes — the deepest brownout.
    QuarterStaging,
}

impl DegradeLevel {
    /// All levels in escalation order.
    pub const ALL: [DegradeLevel; 4] = [
        DegradeLevel::None,
        DegradeLevel::SkipWriteback,
        DegradeLevel::HalfStaging,
        DegradeLevel::QuarterStaging,
    ];

    /// Numeric rank (0 = full fidelity, 3 = deepest brownout).
    pub fn rank(self) -> u8 {
        match self {
            DegradeLevel::None => 0,
            DegradeLevel::SkipWriteback => 1,
            DegradeLevel::HalfStaging => 2,
            DegradeLevel::QuarterStaging => 3,
        }
    }

    /// One level deeper (saturating).
    pub fn deeper(self) -> DegradeLevel {
        Self::ALL[(usize::from(self.rank()) + 1).min(3)]
    }

    /// One level shallower (saturating).
    pub fn shallower(self) -> DegradeLevel {
        Self::ALL[usize::from(self.rank().saturating_sub(1))]
    }

    /// The per-chunk work a job admitted at this level actually runs:
    /// monotone non-increasing in every field, so a degraded chain can
    /// never demand more of the fabric than the full-fidelity one (the
    /// budget-envelope argument the proptests check).
    pub fn apply(self, work: &crate::job::JobWork) -> crate::job::JobWork {
        let mut w = work.clone();
        match self {
            DegradeLevel::None => {}
            DegradeLevel::SkipWriteback => {
                w.write_bytes = 0;
            }
            DegradeLevel::HalfStaging => {
                w.write_bytes = 0;
                w.read_bytes /= 2;
                w.xfer_bytes /= 2;
            }
            DegradeLevel::QuarterStaging => {
                w.write_bytes = 0;
                w.read_bytes /= 4;
                w.xfer_bytes /= 4;
            }
        }
        w
    }
}

/// One job the shedding tier removed (settled with
/// [`RejectReason::Shed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedOutcome {
    /// The shed job.
    pub job: JobId,
    /// Virtual time of the control tick that shed it.
    pub at: SimTime,
    /// The job's admission class.
    pub class: Priority,
}

/// One control-tick observation: what the controller saw and what tier
/// it answered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSample {
    /// Virtual time of the tick.
    pub at: SimTime,
    /// p99-so-far per class (Interactive, Normal, Batch), integer-index
    /// percentile over the sliding sample window; `SimDur::ZERO` with
    /// no completions yet.
    pub p99: [SimDur; 3],
    /// Escalation tier answered with (0 = nominal … 4 = autoscale).
    pub tier: u8,
    /// Brownout level in force after the tick.
    pub degrade: DegradeLevel,
    /// Dynamic best-effort queue cap in force (`u32::MAX` = uncapped).
    pub batch_cap: u32,
    /// Applied capacity scale in percent of the original budgets.
    pub scale_pct: u32,
}

/// The controller's one setting. Everything else it decides from is a
/// constant: the Interactive p99 target ([`INTERACTIVE_TARGET`]), the
/// tick, and the tier thresholds, each an integer percentage of the
/// target so every comparison is exact integer math. The p99 each tick
/// reads covers a sliding window of at least the last 512 completions
/// per class (`WINDOW`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SloConfig {
    /// Apply the projected capacity to the node budgets, up to 4× the
    /// originals (when `false` the projection is still computed and
    /// reported, but budgets stay fixed — pure capacity planning).
    pub autoscale: bool,
}

/// The guaranteed-class (Interactive) p99 latency target the tiers
/// defend.
pub const INTERACTIVE_TARGET: SimDur = SimDur::from_millis(70);
/// Control-tick interval in virtual time.
pub(crate) const TICK: SimDur = SimDur::from_millis(5);
/// Pressure (percent of target) at which backpressure engages.
const CAP_PCT: u32 = 50;
/// Pressure at which shedding engages.
const SHED_PCT: u32 = 70;
/// Pressure at which brownout deepens one level per tick.
const DEGRADE_PCT: u32 = 85;
/// Pressure below which the controller relaxes one step per tick — low
/// enough that the clamps never oscillate off mid-overload.
const RELAX_PCT: u32 = 40;
/// Best-effort queue cap applied while backpressure is engaged.
const BATCH_CAP: u32 = 1;
/// Most jobs the shedding tier removes per tick (bounds the work a
/// single tick does).
const SHED_PER_TICK: u32 = 16;
/// Consecutive breached ticks before the autoscale tier reacts.
const BREACH_TICKS: u32 = 4;
/// Autoscale ceiling in percent of the original budgets.
const MAX_SCALE_PCT: u32 = 400;

const _: () = {
    assert!(TICK.0 > 0 && INTERACTIVE_TARGET.0 > 0);
    assert!(RELAX_PCT < CAP_PCT && CAP_PCT < SHED_PCT && SHED_PCT < DEGRADE_PCT);
    assert!(BREACH_TICKS >= 1 && MAX_SCALE_PCT >= 100);
};

/// Completion-latency samples a class window always covers: it grows to
/// `2 * WINDOW - 1` samples, then its older half drains.
const WINDOW: usize = 512;

/// Rank of the p99 among `n` samples counted from the largest (1 = the
/// maximum): `sorted[(n - 1) * 99 / 100]`, the [`percentile_sorted`] rule.
const fn p99_rank(n: usize) -> usize {
    n - (n - 1) * 99 / 100
}

/// Largest samples kept per class: the p99 rank of the fullest window.
const TOP: usize = p99_rank(2 * WINDOW - 1);

const _: () = {
    let mut n = 1;
    while n < 2 * WINDOW {
        assert!(p99_rank(n) <= TOP, "TOP must cover every window size");
        n += 1;
    }
};

/// Insert `x` into `top`, the `held` largest samples so far in
/// descending order (only the first `TOP` are stored); the smallest
/// stored sample falls off the end when it is full.
fn offer(top: &mut [SimDur; TOP], held: usize, x: SimDur) {
    let at = top[..held.min(TOP)].partition_point(|&y| y >= x);
    if at < TOP {
        top.copy_within(at..TOP - 1, at + 1);
        top[at] = x;
    }
}

/// What one control tick decided; the scheduler applies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SloDecision {
    /// Shed up to this many queued sheddable jobs now.
    pub shed: u32,
    /// Scale budgets to this percent of the originals (no-op when equal
    /// to the previously applied scale).
    pub scale_pct: u32,
}

/// Mutable controller state, owned by the run. Everything in here is a
/// deterministic function of the completion stream and the tick clock.
#[derive(Debug, Clone)]
pub(crate) struct SloState {
    /// Apply the projection to the budgets ([`SloConfig::autoscale`]).
    autoscale: bool,
    /// Sliding completion-latency windows per class, in arrival order.
    samples: [Vec<SimDur>; 3],
    /// The `TOP` largest samples of each window, in descending order
    /// (the first `min(len, TOP)` entries are meaningful). Boxed, one
    /// allocation per run: held inline, its 288 bytes grow the
    /// scheduler's run state and move the event loop's hot fields, which
    /// slows runs that configure no controller.
    top: Box<[[SimDur; TOP]; 3]>,
    /// Arrivals observed per class (for the report).
    pub arrivals: [u64; 3],
    /// Completions observed per class.
    pub completions: [u64; 3],
    /// Current escalation tier (0 = nominal).
    pub tier: u8,
    /// Brownout level in force.
    pub degrade: DegradeLevel,
    /// Dynamic best-effort queue cap (`None` = uncapped).
    pub batch_cap: Option<u32>,
    /// Consecutive ticks at or above `SHED_PCT`.
    breach_streak: u32,
    /// Capacity scale currently applied, percent of original budgets.
    pub scale_pct: u32,
    /// Peak projected capacity requirement — the "capacity needed for
    /// this trace at this SLO" answer (100 = the original budgets
    /// suffice).
    pub needed_pct: u32,
    /// Per-tick observations, in tick order.
    pub log: Vec<SloSample>,
    /// Every shed job, in shed order.
    pub sheds: Vec<ShedOutcome>,
}

impl SloState {
    /// Fresh controller state for one run.
    pub fn new(cfg: SloConfig) -> Self {
        SloState {
            autoscale: cfg.autoscale,
            samples: [Vec::new(), Vec::new(), Vec::new()],
            top: Box::new([[SimDur::ZERO; TOP]; 3]),
            arrivals: [0; 3],
            completions: [0; 3],
            tier: 0,
            degrade: DegradeLevel::None,
            batch_cap: None,
            breach_streak: 0,
            scale_pct: 100,
            needed_pct: 100,
            log: Vec::new(),
            sheds: Vec::new(),
        }
    }

    /// Record one arrival in class `class` (0 = Interactive).
    pub fn on_arrival(&mut self, class: usize) {
        self.arrivals[class] += 1;
    }

    /// Record one completion latency in class `class`. The window keeps
    /// the most recent `WINDOW` samples: it grows to twice the window
    /// then drains the older half, so the p99 estimate always covers at
    /// least the last `WINDOW` completions. The kept-largest array takes
    /// the sample in O(`TOP`), or is rebuilt from the survivors of a
    /// drain.
    pub fn on_completion(&mut self, class: usize, latency: SimDur) {
        self.completions[class] += 1;
        let (buf, top) = (&mut self.samples[class], &mut self.top[class]);
        buf.push(latency);
        if buf.len() >= 2 * WINDOW {
            buf.drain(..WINDOW);
            for (held, &x) in buf.iter().enumerate() {
                offer(top, held, x);
            }
        } else {
            offer(top, buf.len() - 1, latency);
        }
    }

    /// p99-so-far of one class over the current window (integer-index
    /// percentile; `SimDur::ZERO` with no samples), read from the
    /// kept-largest array without sorting.
    pub fn p99(&self, class: usize) -> SimDur {
        match self.samples[class].len() {
            0 => SimDur::ZERO,
            n => self.top[class][p99_rank(n) - 1],
        }
    }

    /// One control tick: observe, decide the tier, log the sample, and
    /// return what the scheduler must apply. `shed_backlog` is how many
    /// sheddable jobs are currently queued (bounds the shed quota).
    pub fn tick(&mut self, at: SimTime, shed_backlog: u32) -> SloDecision {
        let p99 = [self.p99(0), self.p99(1), self.p99(2)];
        // Ratio of like units (ns / ns) expressed in integer percent.
        let pressure_pct =
            u32::try_from(p99[0].0.saturating_mul(100) / INTERACTIVE_TARGET.0).unwrap_or(u32::MAX);

        let mut shed = 0u32;
        if pressure_pct >= DEGRADE_PCT {
            self.tier = self.tier.max(3);
            self.degrade = self.degrade.deeper();
            self.batch_cap = Some(BATCH_CAP);
            shed = SHED_PER_TICK.min(shed_backlog);
        } else if pressure_pct >= SHED_PCT {
            self.tier = self.tier.max(2);
            self.batch_cap = Some(BATCH_CAP);
            shed = SHED_PER_TICK.min(shed_backlog);
        } else if pressure_pct >= CAP_PCT {
            self.tier = self.tier.max(1);
            self.batch_cap = Some(BATCH_CAP);
        } else if pressure_pct < RELAX_PCT {
            // De-escalate one step per calm tick: brownout lifts first,
            // then the queue cap, then the tier resets.
            if self.degrade != DegradeLevel::None {
                self.degrade = self.degrade.shallower();
            } else if self.batch_cap.is_some() {
                self.batch_cap = None;
            } else {
                self.tier = 0;
            }
        }

        // Autoscale projection (§V-D spirit): a sustained breach means
        // the offered load needs `demand` percent of today's capacity to
        // meet the target. Latency overshoot alone under-reports once
        // shedding engages — the controller's own evictions are what
        // keep p99 near target — so the demand estimate is the max of
        // the latency pressure and the shed expansion factor
        // `arrivals / (arrivals - sheds)`: the capacity that would also
        // have served every job the controller turned away. First-order,
        // because modeled service time scales inversely with the
        // budget-limited parallelism.
        let total_arrivals: u64 = self.arrivals.iter().sum();
        let served = total_arrivals
            .saturating_sub(self.sheds.len() as u64)
            .max(1);
        // Ratio of like units (jobs / jobs) expressed in integer percent.
        let shed_expand =
            u32::try_from(total_arrivals.saturating_mul(100) / served).unwrap_or(u32::MAX);
        let demand_pct = pressure_pct.max(shed_expand);
        if pressure_pct >= SHED_PCT {
            self.breach_streak += 1;
        } else {
            self.breach_streak = 0;
        }
        if self.breach_streak >= BREACH_TICKS {
            // `scale_pct` only grows toward the ceiling, so the clamp's
            // bounds are always ordered.
            let projected = (self.scale_pct.saturating_mul(demand_pct) / 100)
                .clamp(self.scale_pct, MAX_SCALE_PCT);
            self.needed_pct = self.needed_pct.max(projected);
            if self.autoscale && projected > self.scale_pct {
                self.tier = 4;
                self.scale_pct = projected;
                self.breach_streak = 0;
            }
        }

        self.log.push(SloSample {
            at,
            p99,
            tier: self.tier,
            degrade: self.degrade,
            batch_cap: self.batch_cap.unwrap_or(u32::MAX),
            scale_pct: self.scale_pct,
        });
        SloDecision {
            shed,
            scale_pct: self.scale_pct,
        }
    }

    /// Record one shed outcome (the scheduler calls this as it evicts).
    pub fn record_shed(&mut self, outcome: ShedOutcome) {
        self.sheds.push(outcome);
    }

    /// The brownout level a new admission of `slo` class compiles at.
    pub fn degrade_for(&self, slo: crate::job::SloClass) -> DegradeLevel {
        if slo.degradable() {
            self.degrade
        } else {
            DegradeLevel::None
        }
    }
}

/// Integer-index percentile of an ascending-sorted latency slice: the
/// sample at index `(len - 1) * pct / 100` — the one rule behind every
/// p50/p99 the scheduler, the controller and the fleet report print.
/// Empty ⇒ `SimDur::ZERO`; a single sample is every percentile of
/// itself; `pct` above 100 clamps.
pub fn percentile_sorted(sorted: &[SimDur], pct: usize) -> SimDur {
    match sorted.len() {
        0 => SimDur::ZERO,
        n => sorted[(n - 1) * pct.min(100) / 100],
    }
}

/// [`percentile_sorted`] of an unsorted latency slice (sorts a copy):
/// the oracle the controller's kept-largest p99 is tested against.
#[cfg(test)]
fn percentile_of(samples: &[SimDur], pct: usize) -> SimDur {
    let mut sorted: Vec<SimDur> = samples.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, pct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobWork, SloClass};
    use proptest::prelude::*;

    #[test]
    fn percentile_edge_cases_never_panic_or_lie() {
        // Empty: zero, not a panic.
        assert_eq!(percentile_of(&[], 50), SimDur::ZERO);
        assert_eq!(percentile_of(&[], 99), SimDur::ZERO);
        // Single sample: every percentile is that sample.
        let one = [SimDur::from_millis(7)];
        for pct in [0, 50, 99, 100] {
            assert_eq!(percentile_of(&one, pct), SimDur::from_millis(7));
        }
        // All-equal: every percentile is the common value.
        let flat = [SimDur::from_millis(3); 17];
        for pct in [0, 50, 99, 100] {
            assert_eq!(percentile_of(&flat, pct), SimDur::from_millis(3));
        }
        // Unsorted input is handled (the sampler sorts a copy).
        let mixed = [
            SimDur::from_millis(9),
            SimDur::from_millis(1),
            SimDur::from_millis(5),
        ];
        assert_eq!(percentile_of(&mixed, 50), SimDur::from_millis(5));
        // Integer-index convention: p99 of 3 samples is index
        // (3-1)*99/100 = 1, the median — only p100 reaches the max.
        assert_eq!(percentile_of(&mixed, 99), SimDur::from_millis(5));
        assert_eq!(percentile_of(&mixed, 100), SimDur::from_millis(9));
        // Out-of-range pct clamps instead of indexing out of bounds.
        assert_eq!(percentile_of(&mixed, 250), SimDur::from_millis(9));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Against the sort oracle, after every completion. 93 % of the
        /// latencies are one value and the tail draws from fourteen, so
        /// the kept-largest array sees ties at every rank; up to 3 000
        /// samples per class cross the 1 024-sample drain up to four
        /// times.
        #[test]
        fn kept_largest_p99_matches_the_sort_oracle(
            stream in prop::collection::vec((0usize..3, 0u64..200), 3_000..9_000),
        ) {
            let mut s = SloState::new(SloConfig::default());
            for (class, v) in stream {
                s.on_completion(class, SimDur(v.saturating_sub(185)));
                prop_assert_eq!(s.p99(class), percentile_of(&s.samples[class], 99));
            }
        }
    }

    #[test]
    fn degrade_levels_are_monotone_non_increasing() {
        let w = JobWork::new(4)
            .read(32 << 20)
            .xfer(32 << 20)
            .compute(SimDur::from_millis(2))
            .write(8 << 20);
        let mut prev = w.clone();
        for level in DegradeLevel::ALL {
            let d = level.apply(&w);
            assert!(d.read_bytes <= prev.read_bytes, "{level:?}");
            assert!(d.xfer_bytes <= prev.xfer_bytes, "{level:?}");
            assert!(d.write_bytes <= prev.write_bytes, "{level:?}");
            assert_eq!(d.compute, w.compute, "compute is never skipped");
            assert_eq!(d.chunks, w.chunks, "chunk count is the contract");
            prev = d;
        }
        assert_eq!(DegradeLevel::QuarterStaging.apply(&w).write_bytes, 0);
        assert_eq!(DegradeLevel::None.apply(&w), w);
    }

    #[test]
    fn escalation_ladder_walks_up_and_relaxes_down() {
        let mut s = SloState::new(SloConfig::default());
        // Calm: plenty of fast completions, no reaction.
        for _ in 0..32 {
            s.on_completion(0, SimDur::from_millis(1));
        }
        let d = s.tick(SimTime::ZERO, 10);
        assert_eq!((s.tier, d.shed), (0, 0));
        assert!(s.batch_cap.is_none());
        // Breach: p99 lands well past target ⇒ cap, shed, then brownout.
        for _ in 0..64 {
            s.on_completion(0, SimDur(INTERACTIVE_TARGET.0 * 2));
        }
        let mut at = SimTime::ZERO + TICK;
        let d = s.tick(at, 10);
        assert!(s.tier >= 2, "tier {}", s.tier);
        assert!(d.shed > 0 && s.batch_cap.is_some());
        assert_eq!(s.needed_pct, 100, "one breached tick projects nothing");
        assert!(s.degrade != DegradeLevel::None, "brownout engaged");
        // Sustained breach projects a capacity need > 100%.
        for _ in 1..BREACH_TICKS {
            at += TICK;
            s.tick(at, 10);
        }
        assert!(s.needed_pct > 100, "needed {}", s.needed_pct);
        assert_eq!(s.scale_pct, 100, "autoscale off: budgets untouched");
        // Recovery: fresh fast completions age the breach out of the
        // window and the controller steps back down.
        for _ in 0..2048 {
            s.on_completion(0, SimDur::from_millis(1));
        }
        for _ in 0..8 {
            at += TICK;
            s.tick(at, 0);
        }
        assert_eq!(s.degrade, DegradeLevel::None, "brownout lifted");
        assert!(s.batch_cap.is_none(), "cap lifted");
        assert_eq!(s.tier, 0, "tier reset");
    }

    #[test]
    fn autoscale_projection_applies_and_respects_the_ceiling() {
        let mut s = SloState::new(SloConfig { autoscale: true });
        // 8× the target: the demand is twice the ceiling.
        for _ in 0..64 {
            s.on_completion(0, SimDur(INTERACTIVE_TARGET.0 * 8));
        }
        let mut at = SimTime::ZERO;
        for _ in 0..2 * BREACH_TICKS {
            s.tick(at, 0);
            at += TICK;
        }
        let ceiling = SimDur(INTERACTIVE_TARGET.0 * u64::from(MAX_SCALE_PCT) / 100);
        assert!(s.log.iter().all(|t| t.p99[0] > ceiling));
        assert!(s.scale_pct > 100, "scaled: {}", s.scale_pct);
        assert!(s.scale_pct <= MAX_SCALE_PCT, "ceiling: {}", s.scale_pct);
        assert_eq!(s.needed_pct, s.scale_pct);
    }

    #[test]
    fn guaranteed_class_is_never_degraded() {
        let mut s = SloState::new(SloConfig::default());
        s.degrade = DegradeLevel::QuarterStaging;
        assert_eq!(s.degrade_for(SloClass::Guaranteed), DegradeLevel::None);
        assert_eq!(
            s.degrade_for(SloClass::BestEffort),
            DegradeLevel::QuarterStaging
        );
        assert_eq!(
            s.degrade_for(SloClass::Standard),
            DegradeLevel::QuarterStaging
        );
    }

    #[test]
    fn controller_decisions_are_pure_replay_functions() {
        let run = || {
            let mut s = SloState::new(SloConfig::default());
            let mut out = Vec::new();
            for i in 0..200u64 {
                s.on_completion((i % 3) as usize, SimDur::from_millis(1 + (i * 7) % 140));
                if i % 4 == 0 {
                    out.push(s.tick(SimTime::from_secs_f64(i as f64 * 1e-3), (i % 9) as u32));
                }
            }
            (out, s.log, s.needed_pct)
        };
        assert_eq!(run(), run(), "bit-identical double run");
    }
}
