//! Virtual time primitives.
//!
//! All performance numbers in the Northup reproduction come from a
//! deterministic virtual clock rather than wall-clock measurement. Time is
//! kept as integer nanoseconds so that runs are bit-for-bit reproducible
//! across machines and across repeated runs (no floating-point accumulation
//! order issues, no `Instant` nondeterminism).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from (possibly fractional) seconds. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(secs_to_ns(s))
    }

    /// This instant expressed in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`; saturates to zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDur {
    /// The zero-length duration.
    pub const ZERO: SimDur = SimDur(0);

    /// Construct from (possibly fractional) seconds. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDur(secs_to_ns(s))
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDur(us.saturating_mul(1_000))
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDur(ms.saturating_mul(1_000_000))
    }

    /// This duration expressed in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True when the duration is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The fraction `self / total`, or 0 when `total` is zero.
    ///
    /// Used for breakdown percentages (paper Figs. 7 and 8).
    pub fn fraction_of(self, total: SimDur) -> f64 {
        if total.0 == 0 {
            0.0
        } else {
            self.0 as f64 / total.0 as f64
        }
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(other.0))
    }
}

fn secs_to_ns(s: f64) -> u64 {
    if !s.is_finite() || s <= 0.0 {
        return 0;
    }
    let ns = s * 1e9;
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns.round() as u64
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDur) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, d: SimDur) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    fn sub(self, other: SimTime) -> SimDur {
        self.since(other)
    }
}

impl Add for SimDur {
    type Output = SimDur;
    fn add(self, other: SimDur) -> SimDur {
        SimDur(self.0.saturating_add(other.0))
    }
}

impl AddAssign for SimDur {
    fn add_assign(&mut self, other: SimDur) {
        *self = *self + other;
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    fn sub(self, other: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(other.0))
    }
}

impl SubAssign for SimDur {
    fn sub_assign(&mut self, other: SimDur) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDur {
    type Output = SimDur;
    fn mul(self, k: u64) -> SimDur {
        SimDur(self.0.saturating_mul(k))
    }
}

impl Mul<f64> for SimDur {
    type Output = SimDur;
    fn mul(self, k: f64) -> SimDur {
        SimDur::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl Div<u64> for SimDur {
    type Output = SimDur;
    fn div(self, k: u64) -> SimDur {
        SimDur(self.0 / k.max(1))
    }
}

impl Sum for SimDur {
    fn sum<I: Iterator<Item = SimDur>>(iter: I) -> SimDur {
        iter.fold(SimDur::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else {
            write!(f, "{:.3}us", s * 1e6)
        }
    }
}

/// Time taken to move `bytes` at `bytes_per_sec`, plus a fixed per-op latency.
///
/// This is the first-order transfer model the paper's §V-D emulator uses:
/// `t = latency + bytes / bandwidth`.
pub fn transfer_time(bytes: u64, bytes_per_sec: f64, latency: SimDur) -> SimDur {
    if bytes == 0 {
        return latency;
    }
    if bytes_per_sec <= 0.0 {
        return SimDur(u64::MAX);
    }
    latency + SimDur::from_secs_f64(bytes as f64 / bytes_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_secs_f64(1.5);
        let d = SimDur::from_secs_f64(0.25);
        assert_eq!((t + d).as_secs_f64(), 1.75);
        assert_eq!((t + d).since(t), d);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs_f64(1.0);
        let b = SimTime::from_secs_f64(2.0);
        assert_eq!(a.since(b), SimDur::ZERO);
        assert_eq!(b.since(a), SimDur::from_secs_f64(1.0));
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimDur::from_secs_f64(f64::NAN), SimDur::ZERO);
        assert_eq!(SimDur::from_secs_f64(f64::NEG_INFINITY), SimDur::ZERO);
    }

    #[test]
    fn transfer_time_matches_first_order_model() {
        // 1400 MB/s read of 1400 MB takes 1 second plus latency.
        let bw = 1400.0 * 1e6;
        let lat = SimDur::from_micros(100);
        let t = transfer_time(1_400_000_000, bw, lat);
        assert!((t.as_secs_f64() - 1.0001).abs() < 1e-6, "{t}");
    }

    #[test]
    fn transfer_of_zero_bytes_costs_only_latency() {
        let lat = SimDur::from_micros(50);
        assert_eq!(transfer_time(0, 1e9, lat), lat);
    }

    #[test]
    fn zero_bandwidth_is_effectively_infinite_time() {
        assert_eq!(transfer_time(1, 0.0, SimDur::ZERO), SimDur(u64::MAX));
    }

    #[test]
    fn fraction_of_handles_zero_total() {
        assert_eq!(SimDur::from_millis(5).fraction_of(SimDur::ZERO), 0.0);
        let half = SimDur::from_millis(5).fraction_of(SimDur::from_millis(10));
        assert!((half - 0.5).abs() < 1e-12);
    }

    #[test]
    fn durations_sum() {
        let total: SimDur = (1..=4).map(SimDur::from_millis).sum();
        assert_eq!(total, SimDur::from_millis(10));
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(format!("{}", SimDur::from_secs_f64(2.5)), "2.500s");
        assert_eq!(format!("{}", SimDur::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDur::from_micros(7)), "7.000us");
    }
}
