//! Application run results and comparison helpers.

use crate::host::{checksum, Grid};
use northup::{BufferHandle, Result, RunReport, Runtime};
use northup_sim::{Category, SimDur};

/// Result of one application run (baseline or Northup).
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Scenario label ("matmul/northup/ssd").
    pub name: String,
    /// Full runtime report (breakdown and I/O totals).
    pub report: RunReport,
    /// Checksum of the result (Real mode): its elements as `f64`, summed
    /// in row order.
    pub checksum: Option<f64>,
    /// The buffer holding the result on the runtime the run used (Real
    /// mode), for the caller to check against an oracle
    /// ([`crate::host::compare`]) while it holds that runtime. `None` in
    /// Modeled mode and where the result is a returned value.
    pub output: Option<BufferHandle>,
}

impl AppRun {
    /// The run of a driver whose result is the `grid` in `result` on
    /// `rt`: the report so far and, in Real mode, the result's checksum,
    /// folded from storage a band at a time, and its buffer.
    pub(crate) fn of(
        rt: &Runtime,
        name: impl Into<String>,
        result: BufferHandle,
        grid: Grid,
    ) -> Result<AppRun> {
        let real = rt.is_real();
        Ok(AppRun {
            name: name.into(),
            report: rt.report(),
            checksum: real.then(|| checksum(rt, result, grid)).transpose()?,
            output: real.then_some(result),
        })
    }

    /// Virtual makespan of the run.
    pub fn makespan(&self) -> SimDur {
        self.report.makespan()
    }

    /// Normalized runtime against a baseline run (the paper's Fig. 6 bars:
    /// > 1 means slower than the baseline).
    pub fn slowdown_vs(&self, baseline: &AppRun) -> f64 {
        let b = baseline.makespan().as_secs_f64();
        if b == 0.0 {
            return f64::INFINITY;
        }
        self.makespan().as_secs_f64() / b
    }

    /// Breakdown share of a category (Figs. 7/8 bars).
    pub fn share(&self, c: Category) -> f64 {
        self.report.share(c)
    }

    /// One-line textual summary.
    pub fn summary(&self) -> String {
        let b = &self.report.breakdown;
        format!(
            "{:<28} {:>10}  cpu {:>5.1}%  gpu {:>5.1}%  setup {:>5.1}%  io {:>5.1}%  xfer {:>5.1}%",
            self.name,
            format!("{}", self.makespan()),
            100.0 * b.share(Category::CpuCompute),
            100.0 * b.share(Category::GpuCompute),
            100.0 * b.share(Category::BufferSetup),
            100.0 * (b.share(Category::FileIo) + b.share(Category::MemCopy)),
            100.0 * b.share(Category::DeviceTransfer),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use northup_sim::{SimTime, Timeline};

    fn run(secs: f64) -> AppRun {
        let mut tl = Timeline::new();
        tl.record(
            SimTime::ZERO,
            SimTime::from_secs_f64(secs),
            Category::GpuCompute,
            "x",
        );
        AppRun {
            name: "t".into(),
            report: RunReport {
                breakdown: tl.breakdown(),
                io: vec![],
            },
            checksum: None,
            output: None,
        }
    }

    #[test]
    fn slowdown_is_a_ratio() {
        let base = run(2.0);
        let slow = run(5.0);
        assert!((slow.slowdown_vs(&base) - 2.5).abs() < 1e-9);
        assert!((base.slowdown_vs(&base) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_baseline_is_infinite() {
        assert!(run(1.0).slowdown_vs(&run(0.0)).is_infinite());
    }

    #[test]
    fn summary_mentions_name_and_time() {
        let r = run(1.5);
        let s = r.summary();
        assert!(s.contains('t'));
        assert!(s.contains("1.500s"));
    }
}
