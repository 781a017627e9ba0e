//! FIFO bandwidth resources.
//!
//! A [`Resource`] models a single hardware unit that serves requests one at a
//! time in issue order: a storage device, a DMA/PCIe link, or a processor.
//! Requests are expressed either as byte transfers (served at the resource's
//! bandwidth) or as precomputed durations (e.g. a kernel's modeled time).
//!
//! The scheduling rule is the classic list-scheduling recurrence
//!
//! ```text
//! start = max(ready, busy_until)
//! end   = start + duration
//! ```
//!
//! which is exactly what a FIFO discrete-event server would produce given the
//! same issue order, but can be computed eagerly while the Northup runtime
//! executes the real program. Overlap between, say, the SSD and the GPU falls
//! out naturally because each is its own `Resource`.

use crate::time::{transfer_time, SimDur, SimTime};

/// A FIFO server with a fixed bandwidth and per-operation latency.
#[derive(Debug, Clone)]
pub struct Resource {
    bytes_per_sec: f64,
    latency: SimDur,
    busy_until: SimTime,
}

/// The scheduled interval of a single served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// When service began (>= the request's ready time).
    pub start: SimTime,
    /// When service completed.
    pub end: SimTime,
}

impl Served {
    /// Length of the service interval.
    pub fn duration(&self) -> SimDur {
        self.end.since(self.start)
    }
}

impl Resource {
    /// Create a bandwidth resource. `bytes_per_sec` applies to
    /// [`serve_bytes`](Self::serve_bytes); `latency` is charged per operation.
    /// `_name` labels the device at the call site and is not stored.
    pub fn new(_name: &str, bytes_per_sec: f64, latency: SimDur) -> Self {
        Resource {
            bytes_per_sec,
            latency,
            busy_until: SimTime::ZERO,
        }
    }

    /// Create a resource used only via [`serve_for`](Self::serve_for) (e.g.
    /// a processor).
    pub fn new_compute() -> Self {
        Resource::new("", f64::INFINITY, SimDur::ZERO)
    }

    /// The time at which all currently issued requests will have completed.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Serve a byte transfer that becomes ready at `ready`.
    pub fn serve_bytes(&mut self, ready: SimTime, bytes: u64) -> Served {
        let dur = if self.bytes_per_sec.is_infinite() {
            self.latency
        } else {
            transfer_time(bytes, self.bytes_per_sec, self.latency)
        };
        self.enqueue(ready, dur)
    }

    /// Serve a request of a precomputed duration.
    pub fn serve_for(&mut self, ready: SimTime, dur: SimDur) -> Served {
        self.enqueue(ready, dur)
    }

    fn enqueue(&mut self, ready: SimTime, dur: SimDur) -> Served {
        let start = ready.max(self.busy_until);
        let end = start + dur;
        self.busy_until = end;
        Served { start, end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDur {
        SimDur::from_millis(n)
    }

    fn at_ms(n: u64) -> SimTime {
        SimTime::ZERO + ms(n)
    }

    #[test]
    fn fifo_serializes_requests() {
        let mut r = Resource::new("ssd", 1000.0 * 1e6, SimDur::ZERO); // 1 GB/s
        let a = r.serve_bytes(SimTime::ZERO, 500_000_000); // 0.5s
        let b = r.serve_bytes(SimTime::ZERO, 500_000_000); // queued behind a
        assert_eq!(a.start, SimTime::ZERO);
        assert!((a.end.as_secs_f64() - 0.5).abs() < 1e-9);
        assert_eq!(b.start, a.end);
        assert!((b.end.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ready_time_delays_start() {
        let mut r = Resource::new("hdd", 1e6, SimDur::ZERO);
        let s = r.serve_bytes(at_ms(100), 0);
        assert_eq!(s.start, at_ms(100));
    }

    #[test]
    fn idle_gap_is_not_counted_busy() {
        let mut r = Resource::new("dev", 1e9, SimDur::ZERO);
        let a = r.serve_bytes(SimTime::ZERO, 1_000_000); // 1ms busy
        let b = r.serve_bytes(at_ms(500), 1_000_000); // 1ms busy after a long gap
        assert_eq!(a.duration() + b.duration(), ms(2));
        assert_eq!(r.busy_until(), at_ms(501));
    }

    #[test]
    fn compute_resource_serves_work() {
        let mut p = Resource::new_compute();
        let s = p.serve_for(at_ms(5), ms(2_000));
        assert_eq!((s.start, s.end), (at_ms(5), at_ms(2_005)));
    }

    #[test]
    fn two_resources_overlap() {
        // An I/O device and a GPU working concurrently: the makespan is the
        // max of the two pipelines, not the sum.
        let mut io = Resource::new("ssd", 1e9, SimDur::ZERO);
        let mut gpu = Resource::new_compute();
        let load = io.serve_bytes(SimTime::ZERO, 1_000_000_000); // 1s
        let compute = gpu.serve_for(load.end, ms(100));
        let load2 = io.serve_bytes(SimTime::ZERO, 1_000_000_000); // overlaps compute
        let compute2 = gpu.serve_for(load2.end, ms(100));
        assert!(load2.start == load.end, "second load starts when I/O frees");
        assert!(compute.end < load2.end, "GPU idle waiting for second load");
        assert!((compute2.end.as_secs_f64() - 2.1).abs() < 1e-9);
    }
}
