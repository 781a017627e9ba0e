//! Execution-breakdown recording.
//!
//! The paper's Figs. 7 and 8 break total Northup execution time into CPU
//! compute, GPU compute, buffer setup, and data transfers / I/O. The
//! [`Timeline`] records every scheduled span with a [`Category`] and
//! aggregates per-category busy time plus the overall makespan.

use crate::time::{SimDur, SimTime};
use std::fmt;

/// Activity categories matching the paper's breakdown figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Leaf computation on a CPU (including CSR-Adaptive row binning).
    CpuCompute,
    /// Leaf computation on a GPU.
    GpuCompute,
    /// Buffer allocation / release / bookkeeping ("buffer setup").
    BufferSetup,
    /// File-storage I/O: open/read/write/close against HDD/SSD/NVM-as-storage.
    FileIo,
    /// Host<->device transfers over a link (the paper's "OpenCL transfers").
    DeviceTransfer,
    /// Memory-to-memory copies within a level (memcpy / DMA between DRAMs).
    MemCopy,
    /// Anything else (runtime overhead, tree lookups, queue management).
    Runtime,
}

impl Category {
    /// All categories in report order.
    pub const ALL: [Category; 7] = [
        Category::CpuCompute,
        Category::GpuCompute,
        Category::BufferSetup,
        Category::FileIo,
        Category::DeviceTransfer,
        Category::MemCopy,
        Category::Runtime,
    ];

    /// Short label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            Category::CpuCompute => "cpu",
            Category::GpuCompute => "gpu",
            Category::BufferSetup => "setup",
            Category::FileIo => "io",
            Category::DeviceTransfer => "xfer",
            Category::MemCopy => "memcpy",
            Category::Runtime => "runtime",
        }
    }

    fn index(self) -> usize {
        match self {
            Category::CpuCompute => 0,
            Category::GpuCompute => 1,
            Category::BufferSetup => 2,
            Category::FileIo => 3,
            Category::DeviceTransfer => 4,
            Category::MemCopy => 5,
            Category::Runtime => 6,
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded span of activity.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Start of the activity in virtual time.
    pub start: SimTime,
    /// End of the activity in virtual time.
    pub end: SimTime,
    /// What kind of activity this was.
    pub category: Category,
    /// Human-readable label ("load chunk (2,3)").
    pub label: String,
}

impl Span {
    /// Length of the span.
    pub fn duration(&self) -> SimDur {
        self.end.since(self.start)
    }
}

/// Aggregated per-category busy time plus the makespan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Busy time per category, indexed by [`Category::ALL`] order.
    pub busy: [SimDur; 7],
    /// Latest end time over all spans.
    pub makespan: SimDur,
    /// Number of recorded spans.
    pub spans: usize,
}

impl Breakdown {
    /// Busy time for one category.
    pub fn get(&self, c: Category) -> SimDur {
        self.busy[c.index()]
    }

    /// Sum of all per-category busy times. Can exceed the makespan when
    /// activities overlap (e.g. I/O hidden behind GPU compute).
    pub fn total_busy(&self) -> SimDur {
        self.busy.iter().copied().sum()
    }

    /// Fraction of summed busy time attributed to `c`.
    ///
    /// This is the quantity plotted in the paper's Figs. 7 and 8.
    pub fn share(&self, c: Category) -> f64 {
        self.get(c).fraction_of(self.total_busy())
    }

    /// Combined compute share (CPU + GPU).
    pub fn compute(&self) -> SimDur {
        self.get(Category::CpuCompute) + self.get(Category::GpuCompute)
    }
}

/// Records activity spans and computes breakdowns.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    spans: Vec<Span>,
    keep_spans: bool,
    busy: [SimDur; 7],
    makespan: SimTime,
    count: usize,
}

impl Timeline {
    /// A timeline that aggregates only (does not retain individual spans).
    pub fn new() -> Self {
        Timeline::default()
    }

    /// A timeline that additionally retains every span for trace export.
    pub fn with_spans() -> Self {
        Timeline {
            keep_spans: true,
            ..Timeline::default()
        }
    }

    /// Record an activity span.
    pub fn record(
        &mut self,
        start: SimTime,
        end: SimTime,
        category: Category,
        label: impl Into<String>,
    ) {
        let end = end.max(start);
        self.busy[category.index()] += end.since(start);
        self.makespan = self.makespan.max(end);
        self.count += 1;
        if self.keep_spans {
            self.spans.push(Span {
                start,
                end,
                category,
                label: label.into(),
            });
        }
    }

    /// The latest end time recorded so far.
    pub fn makespan(&self) -> SimDur {
        self.makespan.since(SimTime::ZERO)
    }

    /// Retained spans (empty unless constructed with [`with_spans`](Self::with_spans)).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Aggregate into a [`Breakdown`].
    pub fn breakdown(&self) -> Breakdown {
        Breakdown {
            busy: self.busy,
            makespan: self.makespan(),
            spans: self.count,
        }
    }

    /// Export retained spans as a Chrome trace-event JSON array (open in
    /// `chrome://tracing` or Perfetto). Each category gets its own track.
    /// Empty unless the timeline was built with [`with_spans`](Self::with_spans).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let cat = s.category;
            let tid = Category::ALL
                .iter()
                .position(|&c| c == cat)
                .unwrap_or(Category::ALL.len());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
                s.label.replace('\\', "\\\\").replace('"', "'"),
                cat.label(),
                s.start.0 / 1_000,
                s.duration().0.max(1) / 1_000,
                tid
            ));
        }
        out.push(']');
        out
    }

    /// Clear all recorded data.
    pub fn reset(&mut self) {
        self.spans.clear();
        self.busy = [SimDur::ZERO; 7];
        self.makespan = SimTime::ZERO;
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDur::from_millis(ms)
    }

    #[test]
    fn aggregates_per_category() {
        let mut t = Timeline::new();
        t.record(at(0), at(10), Category::FileIo, "read");
        t.record(at(5), at(25), Category::GpuCompute, "kernel");
        t.record(at(25), at(30), Category::FileIo, "write");
        let b = t.breakdown();
        assert_eq!(b.get(Category::FileIo), SimDur::from_millis(15));
        assert_eq!(b.get(Category::GpuCompute), SimDur::from_millis(20));
        assert_eq!(b.makespan, SimDur::from_millis(30));
        assert_eq!(b.spans, 3);
    }

    #[test]
    fn overlap_makes_busy_exceed_makespan() {
        let mut t = Timeline::new();
        t.record(at(0), at(10), Category::FileIo, "a");
        t.record(at(0), at(10), Category::GpuCompute, "b");
        let b = t.breakdown();
        assert_eq!(b.total_busy(), SimDur::from_millis(20));
        assert_eq!(b.makespan, SimDur::from_millis(10));
    }

    #[test]
    fn shares_sum_to_one() {
        let mut t = Timeline::new();
        t.record(at(0), at(10), Category::CpuCompute, "");
        t.record(at(0), at(30), Category::GpuCompute, "");
        t.record(at(0), at(60), Category::FileIo, "");
        let b = t.breakdown();
        let sum: f64 = Category::ALL.iter().map(|&c| b.share(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((b.share(Category::FileIo) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn inverted_span_is_clamped() {
        let mut t = Timeline::new();
        t.record(at(10), at(5), Category::Runtime, "bad");
        assert_eq!(t.breakdown().get(Category::Runtime), SimDur::ZERO);
        assert_eq!(t.makespan(), SimDur::from_millis(10));
    }

    #[test]
    fn spans_retained_only_when_requested() {
        let mut plain = Timeline::new();
        plain.record(at(0), at(1), Category::Runtime, "x");
        assert!(plain.spans().is_empty());

        let mut traced = Timeline::with_spans();
        traced.record(at(0), at(1), Category::Runtime, "x");
        assert_eq!(traced.spans().len(), 1);
        assert_eq!(traced.spans()[0].label, "x");
    }

    #[test]
    fn chrome_trace_exports_retained_spans() {
        let mut t = Timeline::with_spans();
        t.record(at(1), at(3), Category::FileIo, "load \"x\"");
        t.record(at(3), at(7), Category::GpuCompute, "kernel");
        let json = t.chrome_trace();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"cat\":\"io\""));
        assert!(json.contains("\"cat\":\"gpu\""));
        assert!(json.contains("\"ts\":1000"), "{json}");
        assert!(json.contains("\"dur\":4000"));
        // Quotes in labels are sanitized so the JSON stays valid.
        assert!(!json.contains("load \"x\""));
        // Without span retention the trace is empty.
        let mut plain = Timeline::new();
        plain.record(at(0), at(1), Category::Runtime, "x");
        assert_eq!(plain.chrome_trace(), "[]");
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = Timeline::with_spans();
        t.record(at(0), at(1), Category::MemCopy, "x");
        t.reset();
        assert_eq!(t.breakdown(), Breakdown::default());
        assert!(t.spans().is_empty());
    }
}
