//! I/O accounting for the first-order storage projection (paper §V-D).
//!
//! The paper: "we develop an emulator capable of performing a first-order
//! projection by keeping track of read/writes issued by application I/Os and
//! considering read/write bandwidths of the storage." [`IoTracker`] is that
//! tracker: every byte moved to or from a device is recorded per device.
//! The projection itself — re-timing those counts at a hypothetical
//! [`BwPoint`] — is `northup::projection`, the one copy of the formula.

use northup_sim::SimDur;
use std::collections::BTreeMap;

/// Direction of a recorded I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Device → host.
    Read,
    /// Host → device.
    Write,
}

/// Accumulated counters for one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoTotals {
    /// Bytes read from the device.
    pub bytes_read: u64,
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Read operations issued.
    pub read_ops: u64,
    /// Write operations issued.
    pub write_ops: u64,
}

/// A hypothetical device performance point for projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BwPoint {
    /// Read bandwidth, bytes/s.
    pub read_bw: f64,
    /// Write bandwidth, bytes/s.
    pub write_bw: f64,
    /// Per-read-op latency.
    pub read_latency: SimDur,
    /// Per-write-op latency.
    pub write_latency: SimDur,
}

impl BwPoint {
    /// A point from (read, write) MB/s with zero latency.
    pub fn from_mb_s(read: u64, write: u64) -> Self {
        BwPoint {
            read_bw: read as f64 * 1e6,
            write_bw: write as f64 * 1e6,
            read_latency: SimDur::ZERO,
            write_latency: SimDur::ZERO,
        }
    }
}

/// Per-device byte/op accounting.
#[derive(Debug, Clone, Default)]
pub struct IoTracker {
    totals: BTreeMap<String, IoTotals>,
}

impl IoTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        IoTracker::default()
    }

    /// Record one I/O against `device`.
    pub fn record(&mut self, device: &str, dir: Dir, bytes: u64) {
        // Look the device up before allocating its name: only a device's
        // first operation pays for the `String`.
        let t = match self.totals.get_mut(device) {
            Some(t) => t,
            None => self.totals.entry(device.to_owned()).or_default(),
        };
        match dir {
            Dir::Read => {
                t.bytes_read += bytes;
                t.read_ops += 1;
            }
            Dir::Write => {
                t.bytes_written += bytes;
                t.write_ops += 1;
            }
        }
    }

    /// Totals for one device (zero if never seen).
    pub fn totals(&self, device: &str) -> IoTotals {
        self.totals.get(device).copied().unwrap_or_default()
    }

    /// All devices seen, in name order.
    pub fn devices(&self) -> impl Iterator<Item = (&str, IoTotals)> {
        self.totals.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Clear all counters.
    pub fn reset(&mut self) {
        self.totals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_device_and_direction() {
        let mut t = IoTracker::new();
        t.record("ssd", Dir::Read, 100);
        t.record("ssd", Dir::Read, 50);
        t.record("ssd", Dir::Write, 30);
        t.record("hdd", Dir::Write, 7);
        let ssd = t.totals("ssd");
        assert_eq!(ssd.bytes_read, 150);
        assert_eq!(ssd.read_ops, 2);
        assert_eq!(ssd.bytes_written, 30);
        assert_eq!(t.totals("hdd").write_ops, 1);
        assert_eq!(t.totals("nvme"), IoTotals::default());
        let names: Vec<&str> = t.devices().map(|(name, _)| name).collect();
        assert_eq!(names, ["hdd", "ssd"]);
    }

    #[test]
    fn reset_clears() {
        let mut t = IoTracker::new();
        t.record("ssd", Dir::Read, 1);
        t.reset();
        assert_eq!(t.devices().count(), 0);
    }
}
