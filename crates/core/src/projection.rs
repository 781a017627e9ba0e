//! First-order faster-storage projection (paper §V-D, Fig. 9).
//!
//! The paper: "we develop an emulator capable of performing a first-order
//! projection by keeping track of read/writes issued by application I/Os
//! and considering read/write bandwidths of the storage. We also include
//! the I/O time into the overall runtime (the other components being
//! constant)."
//!
//! [`project_run`] reproduces that exactly: from a finished run's report it
//! takes the measured I/O busy time and total runtime, recomputes the I/O
//! time for a hypothetical (read, write) bandwidth pair from the recorded
//! byte counts, and forms `overall' = overall - io + io'`.
//!
//! The bench harness *also* regenerates Fig. 9 the stronger way — re-running
//! the full pipelined model with the faster device — and EXPERIMENTS.md
//! compares both.

use crate::runtime::RunReport;
use northup_hw::{BwPoint, IoTotals};
use northup_sim::{transfer_time, Category, SimDur};

/// Outcome of projecting one run to one bandwidth point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// The hypothetical device's read bandwidth (bytes/s).
    pub read_bw: f64,
    /// The hypothetical device's write bandwidth (bytes/s).
    pub write_bw: f64,
    /// Projected I/O time at this point.
    pub io_time: SimDur,
    /// Projected overall runtime (`overall - io_measured + io_projected`).
    pub overall: SimDur,
}

/// Project a finished run onto a hypothetical storage bandwidth point.
///
/// `device` selects which recorded device's bytes are re-timed (the
/// storage at the tree root in the paper's experiments).
pub fn project_run(report: &RunReport, device: &str, point: BwPoint) -> Projection {
    let totals = report
        .io
        .iter()
        .find(|(name, _)| name == device)
        .map(|(_, t)| *t)
        .unwrap_or_default();
    let io_measured = report.breakdown.get(Category::FileIo);
    let io_time = replay(totals, point);
    let overall = report.breakdown.makespan.saturating_sub(io_measured) + io_time;
    Projection {
        read_bw: point.read_bw,
        write_bw: point.write_bw,
        io_time,
        overall,
    }
}

fn replay(t: IoTotals, p: BwPoint) -> SimDur {
    transfer_time(t.bytes_read, p.read_bw, SimDur::ZERO)
        + p.read_latency * t.read_ops
        + transfer_time(t.bytes_written, p.write_bw, SimDur::ZERO)
        + p.write_latency * t.write_ops
}

/// The Fig. 9 sweep: entry SSD up to the fastest PCIe SSDs on the (2019)
/// market, as (read, write) MB/s.
pub const FIG9_SWEEP: [(u64, u64); 4] = [(1400, 600), (2000, 1000), (2800, 1600), (3500, 2100)];

#[cfg(test)]
mod tests {
    use super::*;
    use northup_sim::{Breakdown, SimTime, Timeline};

    fn fake_report(io_busy_s: f64, total_s: f64, bytes_read: u64, bytes_written: u64) -> RunReport {
        let mut tl = Timeline::new();
        tl.record(
            SimTime::ZERO,
            SimTime::from_secs_f64(io_busy_s),
            Category::FileIo,
            "io",
        );
        tl.record(
            SimTime::ZERO,
            SimTime::from_secs_f64(total_s),
            Category::GpuCompute,
            "gpu",
        );
        let breakdown: Breakdown = tl.breakdown();
        RunReport {
            breakdown,
            io: vec![(
                "ssd".to_string(),
                IoTotals {
                    bytes_read,
                    bytes_written,
                    read_ops: 1,
                    write_ops: 1,
                },
            )],
        }
    }

    #[test]
    fn projection_at_measured_bandwidth_reproduces_io_time() {
        // 1400 MB read at 1400 MB/s = 1s I/O; measured io busy 1s.
        let rep = fake_report(1.0, 10.0, 1_400_000_000, 0);
        let p = project_run(&rep, "ssd", BwPoint::from_mb_s(1400, 600));
        assert!((p.io_time.as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((p.overall.as_secs_f64() - 10.0).abs() < 1e-6);
        // Each recorded operation (one read, one write) adds its latency.
        let slow = BwPoint {
            read_latency: SimDur::from_millis(8),
            write_latency: SimDur::from_millis(3),
            ..BwPoint::from_mb_s(1400, 600)
        };
        let p = project_run(&rep, "ssd", slow);
        assert!((p.io_time.as_secs_f64() - 1.011).abs() < 1e-6);
    }

    #[test]
    fn faster_storage_shrinks_io_and_overall() {
        let rep = fake_report(2.0, 8.0, 1_400_000_000, 600_000_000);
        let sweep: Vec<Projection> = FIG9_SWEEP
            .iter()
            .map(|&(r, w)| project_run(&rep, "ssd", BwPoint::from_mb_s(r, w)))
            .collect();
        assert_eq!(sweep.len(), 4);
        for w in sweep.windows(2) {
            assert!(w[1].io_time < w[0].io_time, "I/O monotone");
            assert!(w[1].overall < w[0].overall, "overall monotone");
        }
        // Compute component (8 - 2 = 6s) is the floor.
        assert!(sweep.last().unwrap().overall.as_secs_f64() > 6.0);
    }

    #[test]
    fn unknown_device_projects_zero_io() {
        let rep = fake_report(1.0, 5.0, 1_000, 1_000);
        let p = project_run(&rep, "not-a-device", BwPoint::from_mb_s(3500, 2100));
        assert_eq!(p.io_time, SimDur::ZERO);
        // overall = 5 - 1 + 0 = 4.
        assert!((p.overall.as_secs_f64() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fig9_sweep_ends_at_3500_2100() {
        assert_eq!(FIG9_SWEEP[0], (1400, 600));
        assert_eq!(FIG9_SWEEP[3], (3500, 2100));
    }
}
