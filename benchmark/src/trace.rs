//! Spans and tallies of the traced pass, kept in memory and written at
//! exit as one Chrome-trace file per workload.
//!
//! A span is one call into a layer, recorded by the harness around the
//! call (spans inside the product crates are a later change). Calls made
//! too often to afford a span each — storage-backend operations — are
//! tallied as `(layer, op) -> count, total ns, bytes` instead.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Aggregate of calls too frequent to record one by one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    pub layer: &'static str,
    pub op: String,
    pub count: u64,
    pub total_ns: u64,
    pub bytes: u64,
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Recorder for one workload's traced pass (single caller, so one stack).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    tallies: Vec<Tally>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            tallies: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: impl Into<String>, layer: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        // Read the clock last so the bookkeeping above is charged to the
        // parent, not to this span.
        self.spans[id].start_ns = self.origin.elapsed().as_nanos() as u64;
        SpanId(id)
    }

    /// Close `span` and return its duration in seconds.
    ///
    /// # Panics
    /// Panics when `span` is not the innermost open span.
    pub fn end(&mut self, span: SpanId) -> f64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(span.0), "spans must nest");
        let s = &mut self.spans[span.0];
        s.end_ns = now.max(s.start_ns);
        s.dur_ns() as f64 * 1e-9
    }

    pub fn tally(&mut self, layer: &'static str, op: &str, count: u64, total_ns: u64, bytes: u64) {
        self.tallies.push(Tally {
            layer,
            op: op.to_string(),
            count,
            total_ns,
            bytes,
        });
    }

    /// Self time per layer in seconds: span self times summed by layer.
    /// Tallied calls ran inside the first span (the traced repetition),
    /// so their time is reported under their own layer and taken out of
    /// that span's.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let selfs = self_times(&self.spans);
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(&selfs) {
            *by_layer.entry(s.layer).or_default() += *ns as f64 * 1e-9;
        }
        if let Some(root) = self.spans.first() {
            for t in &self.tallies {
                let s = t.total_ns as f64 * 1e-9;
                *by_layer.entry(t.layer).or_default() += s;
                *by_layer.entry(root.layer).or_default() -= s;
            }
        }
        by_layer
    }

    /// The trace in Chrome's JSON object format (`chrome://tracing`,
    /// Perfetto): complete events in microseconds, tallies alongside.
    /// A run traces one repetition, so every span carries the same
    /// `workload_rep_id`.
    pub fn chrome_trace(&self, workload: &str) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::obj([
                    ("name", Value::Str(s.name.clone())),
                    ("cat", Value::Str(s.layer.into())),
                    ("ph", Value::Str("X".into())),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    (
                        "args",
                        Value::obj([
                            ("id", Value::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                            ("workload_rep_id", Value::Str(format!("{workload}#0"))),
                        ]),
                    ),
                ])
            })
            .collect();
        let tallies = self
            .tallies
            .iter()
            .map(|t| {
                Value::obj([
                    ("layer", Value::Str(t.layer.into())),
                    ("op", Value::Str(t.op.clone())),
                    ("count", Value::Num(t.count as f64)),
                    ("total_ns", Value::Num(t.total_ns as f64)),
                    ("bytes", Value::Num(t.bytes as f64)),
                ])
            })
            .collect();
        Value::obj([
            ("displayTimeUnit", Value::Str("ms".into())),
            ("traceEvents", Value::Arr(events)),
            ("tallies", Value::Arr(tallies)),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, layer: &'static str, a: u64, b: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            layer,
            start_ns: a,
            end_ns: b,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // rep [0,100)
        //   submit [10,30)
        //   run    [30,90)
        //     tick [40,50)
        //     tick [45,60)   overlaps the first tick
        //     late [85,95)   sticks out of its parent: clipped to [85,90)
        let spans = vec![
            span("rep", "apps", 0, 100, None),
            span("submit", "sched", 10, 30, Some(0)),
            span("run", "sched", 30, 90, Some(0)),
            span("tick", "sim", 40, 50, Some(2)),
            span("tick", "sim", 45, 60, Some(2)),
            span("late", "sim", 85, 95, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 35, 10, 15, 10]);
    }

    #[test]
    fn tracer_nests_and_sums_by_layer() {
        let mut tr = Tracer::new();
        let rep = tr.begin("rep", "apps");
        let run = tr.begin("run", "sched");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(run);
        let total = tr.end(rep);
        assert_eq!(tr.spans[1].parent, Some(0));
        let by_layer = tr.layer_self_s();
        assert!(by_layer["sched"] >= 0.002);
        assert!((by_layer["sched"] + by_layer["apps"] - total).abs() < 1e-9);
    }

    #[test]
    fn tallies_move_time_from_their_parent_span() {
        let mut tr = Tracer::new();
        tr.spans.push(span("rep", "apps", 0, 1_000_000_000, None));
        tr.tally("hw", "file.read", 10, 250_000_000, 4096);
        let by_layer = tr.layer_self_s();
        assert!((by_layer["hw"] - 0.25).abs() < 1e-12);
        assert!((by_layer["apps"] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut tr = Tracer::new();
        let s = tr.begin("rep", "apps");
        tr.end(s);
        tr.tally("hw", "file.read", 1, 5, 8);
        let doc = tr.chrome_trace("gemm_ooc");
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("workload_rep_id"))
                .and_then(Value::as_str),
            Some("gemm_ooc#0")
        );
        assert_eq!(crate::json::parse(&doc.to_json()).unwrap(), doc);
    }
}
