//! Task-dependency-graph unfolding (paper §III-C, future work).
//!
//! "The recursive tree can be further unfolded to a dependency graph to
//! exploit more parallelism, which we leave for future work." This module
//! implements that unfolding: when enabled, the runtime records every
//! operation (alloc, move, compute, release) as a DAG node whose incoming
//! edges are the true dataflow dependencies (read-after-write) and
//! anti-dependencies (write-after-read / write-after-write) on buffers.
//!
//! The resulting [`TaskDag`] supports:
//!
//! * DOT export for visualization;
//! * **critical-path analysis** — the makespan a scheduler with unlimited
//!   resources could reach, i.e. the dependency-imposed lower bound;
//! * comparison against the FIFO makespan the runtime actually produced,
//!   quantifying exactly how much extra parallelism a dependency-graph
//!   scheduler could exploit over the paper's in-order task queues.

use crate::data::BufferHandle;
use northup_sim::{Category, SimDur};
use std::collections::{BTreeMap, BTreeSet};

/// One recorded operation.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// Node id (== index; ids are topologically ordered by construction).
    pub id: u32,
    /// Human-readable label ("load chunk (2,3)").
    pub label: String,
    /// Activity category.
    pub category: Category,
    /// Service duration of the operation.
    pub duration: SimDur,
}

/// The unfolded dependency graph.
///
/// ```
/// use northup::{presets, ExecMode, NodeId, ProcKind, Runtime};
/// use northup_hw::catalog;
/// use northup_sim::SimDur;
///
/// let rt = Runtime::new(
///     presets::apu_two_level(catalog::ssd_hyperx_predator()),
///     ExecMode::Real,
/// ).unwrap();
/// rt.enable_dag();
/// let a = rt.alloc(64, NodeId(0)).unwrap();
/// let b = rt.alloc(64, NodeId(1)).unwrap();
/// rt.move_data(b, 0, a, 0, 64).unwrap();
/// rt.charge_compute(NodeId(1), ProcKind::Gpu, SimDur::from_micros(10),
///                   &[b], &[b], "k").unwrap();
///
/// let dag = rt.task_dag();
/// assert_eq!(dag.len(), 4); // two allocs, one move, one compute
/// let (cp, path) = dag.critical_path();
/// assert!(cp > SimDur::ZERO && !path.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskDag {
    /// Operations, in issue order (a valid topological order).
    pub nodes: Vec<DagNode>,
    /// Edges `(from, to)` with `from < to`.
    pub edges: Vec<(u32, u32)>,
}

impl TaskDag {
    /// Number of operations.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no operations were recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Direct predecessors of each node.
    fn preds(&self) -> Vec<Vec<u32>> {
        let mut p = vec![Vec::new(); self.nodes.len()];
        for &(a, b) in &self.edges {
            p[b as usize].push(a);
        }
        p
    }

    /// Critical path: the dependency-imposed lower bound on the makespan
    /// (infinite resources), and one path achieving it (node ids, in order).
    pub fn critical_path(&self) -> (SimDur, Vec<u32>) {
        let preds = self.preds();
        let mut finish = vec![SimDur::ZERO; self.nodes.len()];
        let mut via: Vec<Option<u32>> = vec![None; self.nodes.len()];
        let mut best_end = SimDur::ZERO;
        let mut best_node = None;
        for (i, node) in self.nodes.iter().enumerate() {
            let mut start = SimDur::ZERO;
            for &p in &preds[i] {
                if finish[p as usize] > start {
                    start = finish[p as usize];
                    via[i] = Some(p);
                }
            }
            finish[i] = start + node.duration;
            if finish[i] > best_end {
                best_end = finish[i];
                best_node = Some(i as u32);
            }
        }
        let mut path = Vec::new();
        let mut cur = best_node;
        while let Some(n) = cur {
            path.push(n);
            cur = via[n as usize];
        }
        path.reverse();
        (best_end, path)
    }

    /// Sum of all operation durations (the serial lower bound's complement:
    /// the single-resource upper bound).
    pub fn total_work(&self) -> SimDur {
        self.nodes.iter().map(|n| n.duration).sum()
    }

    /// Average parallelism available in the graph: total work over the
    /// critical path length.
    pub fn parallelism(&self) -> f64 {
        let (cp, _) = self.critical_path();
        let cp = cp.as_secs_f64();
        if cp == 0.0 {
            return 0.0;
        }
        self.total_work().as_secs_f64() / cp
    }

    /// How much faster an ideal dependency-graph scheduler could be than an
    /// observed makespan: `observed / critical_path` (>= 1).
    pub fn headroom(&self, observed: SimDur) -> f64 {
        let (cp, _) = self.critical_path();
        if cp.is_zero() {
            return 1.0;
        }
        (observed.as_secs_f64() / cp.as_secs_f64()).max(1.0)
    }

    /// Per-category node counts (sanity/reporting), in stable label order.
    pub fn category_histogram(&self) -> BTreeMap<&'static str, usize> {
        let mut h = BTreeMap::new();
        for n in &self.nodes {
            *h.entry(n.category.label()).or_insert(0) += 1;
        }
        h
    }

    /// Graphviz DOT rendering (critical-path nodes highlighted).
    pub fn render_dot(&self) -> String {
        let (_, cp) = self.critical_path();
        let on_cp: BTreeSet<u32> = cp.into_iter().collect();
        let mut out = String::from("digraph tasks {\n  rankdir=LR;\n");
        for n in &self.nodes {
            let style = if on_cp.contains(&n.id) {
                " style=filled fillcolor=lightcoral"
            } else {
                ""
            };
            out.push_str(&format!(
                "  t{} [label=\"{}\\n{} {}\"{}];\n",
                n.id,
                n.label.replace('"', "'"),
                n.category.label(),
                n.duration,
                style
            ));
        }
        for &(a, b) in &self.edges {
            out.push_str(&format!("  t{a} -> t{b};\n"));
        }
        out.push_str("}\n");
        out
    }
}

/// Runtime-internal DAG recorder.
#[derive(Debug, Default)]
pub(crate) struct DagRecorder {
    dag: TaskDag,
    /// Last writer of each live buffer. Ordered so DAG construction (and
    /// thus DOT output) is identical run to run.
    writer: BTreeMap<u64, u32>,
    /// Readers of each buffer since its last write.
    readers: BTreeMap<u64, Vec<u32>>,
}

impl DagRecorder {
    pub(crate) fn record(
        &mut self,
        label: impl std::fmt::Display,
        category: Category,
        duration: SimDur,
        reads: &[BufferHandle],
        writes: &[BufferHandle],
    ) {
        let id = self.dag.nodes.len() as u32;
        let mut deps: Vec<u32> = Vec::new();
        for h in reads {
            if let Some(&w) = self.writer.get(&h.0) {
                deps.push(w);
            }
        }
        for h in writes {
            // True WAW dependency on the previous writer...
            if let Some(&w) = self.writer.get(&h.0) {
                deps.push(w);
            }
            // ...and WAR anti-dependencies on outstanding readers.
            if let Some(rs) = self.readers.get(&h.0) {
                deps.extend(rs.iter().copied());
            }
        }
        deps.sort_unstable();
        deps.dedup();
        for d in deps {
            if d != id {
                self.dag.edges.push((d, id));
            }
        }
        self.dag.nodes.push(DagNode {
            id,
            label: label.to_string(),
            category,
            duration,
        });
        for h in reads {
            self.readers.entry(h.0).or_default().push(id);
        }
        for h in writes {
            self.writer.insert(h.0, id);
            self.readers.insert(h.0, Vec::new());
        }
    }

    pub(crate) fn snapshot(&self) -> TaskDag {
        self.dag.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_dag(chains: &[&[(u64, u64)]]) -> TaskDag {
        // Each chain is a list of (duration_ms, buffer): ops write their
        // buffer and read the previous op's buffer in the chain.
        let mut rec = DagRecorder::default();
        for chain in chains {
            let mut prev: Option<BufferHandle> = None;
            for &(ms, buf) in *chain {
                let reads: Vec<BufferHandle> = prev.into_iter().collect();
                rec.record(
                    "op",
                    Category::Runtime,
                    SimDur::from_millis(ms),
                    &reads,
                    &[BufferHandle(buf)],
                );
                prev = Some(BufferHandle(buf));
            }
        }
        rec.snapshot()
    }

    #[test]
    fn critical_path_of_a_chain_is_its_sum() {
        let dag = node_dag(&[&[(10, 0), (20, 1), (30, 2)]]);
        let (cp, path) = dag.critical_path();
        assert_eq!(cp, SimDur::from_millis(60));
        assert_eq!(path, vec![0, 1, 2]);
        assert!((dag.parallelism() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn independent_chains_run_in_parallel() {
        let dag = node_dag(&[&[(10, 0), (10, 1)], &[(15, 10), (15, 11)]]);
        let (cp, _) = dag.critical_path();
        assert_eq!(cp, SimDur::from_millis(30), "longest chain only");
        assert!((dag.parallelism() - 50.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn war_hazard_creates_an_edge() {
        let mut rec = DagRecorder::default();
        let a = BufferHandle(1);
        let b = BufferHandle(2);
        // write a; read a (compute into b); overwrite a.
        rec.record("w", Category::FileIo, SimDur::from_millis(5), &[], &[a]);
        rec.record(
            "c",
            Category::GpuCompute,
            SimDur::from_millis(9),
            &[a],
            &[b],
        );
        rec.record("w2", Category::FileIo, SimDur::from_millis(5), &[], &[a]);
        let dag = rec.snapshot();
        assert!(
            dag.edges.contains(&(1, 2)),
            "WAR edge reader->overwriter: {:?}",
            dag.edges
        );
        let (cp, _) = dag.critical_path();
        assert_eq!(cp, SimDur::from_millis(19));
    }

    #[test]
    fn waw_orders_writes() {
        let mut rec = DagRecorder::default();
        let a = BufferHandle(1);
        rec.record("w1", Category::FileIo, SimDur::from_millis(5), &[], &[a]);
        rec.record("w2", Category::FileIo, SimDur::from_millis(5), &[], &[a]);
        let dag = rec.snapshot();
        assert!(dag.edges.contains(&(0, 1)));
    }

    #[test]
    fn headroom_is_observed_over_critical_path() {
        let dag = node_dag(&[&[(10, 0)], &[(10, 1)], &[(10, 2)]]);
        // Critical path 10ms; a serial FIFO would take 30ms.
        assert!((dag.headroom(SimDur::from_millis(30)) - 3.0).abs() < 1e-9);
        assert_eq!(dag.headroom(SimDur::ZERO), 1.0);
    }

    #[test]
    fn dot_render_contains_nodes_and_edges() {
        let dag = node_dag(&[&[(1, 0), (2, 1)]]);
        let dot = dag.render_dot();
        assert!(dot.contains("t0"));
        assert!(dot.contains("t0 -> t1;"));
        assert!(dot.contains("lightcoral"), "critical path highlighted");
    }

    #[test]
    fn empty_dag_is_benign() {
        let dag = TaskDag::default();
        assert!(dag.is_empty());
        let (cp, path) = dag.critical_path();
        assert_eq!(cp, SimDur::ZERO);
        assert!(path.is_empty());
        assert_eq!(dag.parallelism(), 0.0);
    }
}
