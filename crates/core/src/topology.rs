//! The Northup topological tree (paper §III-B, Listing 1, Fig. 2).
//!
//! The whole system is abstracted as an asymmetric, heterogeneous tree:
//! inner nodes and the root are memories/storages, leaves are the
//! software/hardware management transition points with processors attached.
//! Levels are numbered the paper's way: the slowest storage (root) is
//! level 0 and faster memories get larger numbers.
//!
//! Each node carries the [`DeviceSpec`] of its memory, the [`LinkSpec`] of
//! the edge to its parent, and (for leaves — plus the special CPU-on-inner-
//! node case of a discrete-GPU system) attached [`ProcessorDesc`]s. The
//! query API mirrors the paper's: `fetch_node_type`, `get_parent`,
//! `get_children_list`, `get_level`, `get_max_treelevel`.

use northup_hw::{DeviceSpec, LinkSpec, StorageClass};
use std::fmt;

/// Identifier of a tree node ("each tree node is associated with a unique
/// identifier").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Processor technology attached to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcKind {
    /// General-purpose CPU cores.
    Cpu,
    /// GPU (integrated or discrete).
    Gpu,
    /// FPGA / other accelerator.
    Fpga,
}

impl fmt::Display for ProcKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProcKind::Cpu => "cpu",
            ProcKind::Gpu => "gpu",
            ProcKind::Fpga => "fpga",
        })
    }
}

/// A processor attached to a tree node (the paper's `processor_t`).
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorDesc {
    /// Technology.
    pub kind: ProcKind,
    /// Name for reports ("apu-gpu").
    pub name: String,
}

impl ProcessorDesc {
    /// Convenience constructor.
    pub fn new(kind: ProcKind, name: impl Into<String>) -> Self {
        ProcessorDesc {
            kind,
            name: name.into(),
        }
    }
}

/// One tree node (the paper's `tree_node_t`, Listing 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Unique id.
    pub id: NodeId,
    /// Memory level: 0 at the root (slowest), increasing downward.
    pub level: usize,
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Children, in insertion order.
    pub children: Vec<NodeId>,
    /// The memory/storage device at this node.
    pub mem: DeviceSpec,
    /// Link to the parent (None for the root).
    pub link: Option<LinkSpec>,
    /// Attached processors. Usually only on leaves; a CPU may attach to a
    /// non-leaf node in a CPU + discrete GPU system (§III-B).
    pub procs: Vec<ProcessorDesc>,
}

impl Node {
    /// True when the node has no children (computation happens here).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The topological tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    nodes: Vec<Node>,
}

/// Errors from tree construction / queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Node id out of range.
    UnknownNode(NodeId),
    /// Attempted to build an empty tree.
    Empty,
    /// A chain schedule met a node with more than one child.
    NotAChain(NodeId),
    /// The root has no child: there is no level to stage chunks on.
    NoStagingLevel,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown tree node {n}"),
            TopologyError::Empty => write!(f, "tree has no nodes"),
            TopologyError::NotAChain(n) => {
                write!(f, "node {n} has several children where a chain is required")
            }
            TopologyError::NoStagingLevel => {
                write!(f, "the root has no child level to stage data on")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

impl Tree {
    /// The root node id (always `n0`, level 0 — the slowest storage).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Borrow a node.
    ///
    /// # Panics
    /// Panics on an unknown id (ids come from this tree, so an unknown id is
    /// a caller bug).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Checked lookup.
    pub fn try_node(&self, id: NodeId) -> Result<&Node, TopologyError> {
        self.nodes.get(id.0).ok_or(TopologyError::UnknownNode(id))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Trees always have a root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All nodes, id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// All leaf nodes, id order.
    pub fn leaves(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.is_leaf())
    }

    /// The paper's `fetch_node_type()`: the storage class driving data-
    /// movement dispatch.
    pub fn storage_class(&self, id: NodeId) -> StorageClass {
        self.node(id).mem.class
    }

    /// The paper's `get_parent()`.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// The paper's `get_children_list()`.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
    }

    /// The staging level of an out-of-core schedule: the root's first
    /// child, where chunks of the root's data are buffered. A single-node
    /// tree has none.
    pub fn staging_level(&self) -> Result<NodeId, TopologyError> {
        self.children(self.root())
            .first()
            .copied()
            .ok_or(TopologyError::NoStagingLevel)
    }

    /// The first-child chain strictly below `from`, top first — the path a
    /// chain schedule descends (empty when `from` is a leaf).
    pub fn chain_below(&self, from: NodeId) -> Vec<NodeId> {
        std::iter::successors(self.children(from).first().copied(), |&n| {
            self.children(n).first().copied()
        })
        .collect()
    }

    /// The paper's `get_level()`.
    pub fn level(&self, id: NodeId) -> usize {
        self.node(id).level
    }

    /// The paper's `get_max_treelevel()`: the deepest level present.
    pub fn max_level(&self) -> usize {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0)
    }

    /// Whether `a` and `b` share an edge (data moves along tree edges).
    pub fn adjacent(&self, a: NodeId, b: NodeId) -> bool {
        self.parent(a) == Some(b) || self.parent(b) == Some(a)
    }

    /// Render as an ASCII tree (what "Northup can output the topology"
    /// looks like here).
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        self.render_node(self.root(), "", true, &mut out);
        out
    }

    fn render_node(&self, id: NodeId, prefix: &str, last: bool, out: &mut String) {
        let n = self.node(id);
        let branch = if prefix.is_empty() {
            ""
        } else if last {
            "`- "
        } else {
            "|- "
        };
        let procs = if n.procs.is_empty() {
            String::new()
        } else {
            let names: Vec<String> = n.procs.iter().map(|p| format!("[{}]", p.kind)).collect();
            format!(" {}", names.join(""))
        };
        out.push_str(&format!(
            "{prefix}{branch}{} L{} {} ({}, {:.1} GiB){}\n",
            n.id,
            n.level,
            n.mem.name,
            n.mem.class,
            n.mem.capacity as f64 / (1u64 << 30) as f64,
            procs
        ));
        let child_prefix = if prefix.is_empty() {
            String::new()
        } else {
            format!("{prefix}{}", if last { "   " } else { "|  " })
        };
        let k = n.children.len();
        for (i, &c) in n.children.iter().enumerate() {
            self.render_node(c, &child_prefix, i + 1 == k, out);
        }
    }

    /// Render as Graphviz DOT.
    pub fn render_dot(&self) -> String {
        let mut out = String::from("digraph northup {\n  rankdir=TB;\n");
        for n in &self.nodes {
            let shape = if n.is_leaf() { "ellipse" } else { "circle" };
            out.push_str(&format!(
                "  {} [label=\"{}\\nL{} {}\" shape={shape}];\n",
                n.id.0, n.mem.name, n.level, n.mem.class
            ));
            for p in &n.procs {
                out.push_str(&format!(
                    "  p{}_{} [label=\"{}\" shape=box];\n  {} -> p{}_{};\n",
                    n.id.0, p.name, p.name, n.id.0, n.id.0, p.name
                ));
            }
        }
        for n in &self.nodes {
            for &c in &n.children {
                out.push_str(&format!("  {} -> {};\n", n.id.0, c.0));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Incremental tree builder. The runtime normally constructs the tree "at
/// program initialization" (§III-B) from one of the presets; the builder is
/// the escape hatch for custom machines.
#[derive(Debug, Clone)]
pub struct TreeBuilder {
    nodes: Vec<Node>,
}

impl TreeBuilder {
    /// Start a tree with the given root memory (level 0, slowest storage).
    pub fn new(root_mem: DeviceSpec) -> Self {
        TreeBuilder {
            nodes: vec![Node {
                id: NodeId(0),
                level: 0,
                parent: None,
                children: Vec::new(),
                mem: root_mem,
                link: None,
                procs: Vec::new(),
            }],
        }
    }

    /// Add a child memory under `parent`, connected by `link`. Returns the
    /// new node's id.
    ///
    /// # Panics
    /// Panics on an unknown parent (builder ids come from this builder).
    pub fn add_child(&mut self, parent: NodeId, mem: DeviceSpec, link: LinkSpec) -> NodeId {
        // analyze:allow(panic-paths): a parent id comes from this builder (its root or an earlier add_child); a foreign id is a construction bug in preset code, not a runtime condition
        assert!(parent.0 < self.nodes.len(), "unknown parent {parent}");
        let id = NodeId(self.nodes.len());
        let level = self.nodes[parent.0].level + 1;
        self.nodes.push(Node {
            id,
            level,
            parent: Some(parent),
            children: Vec::new(),
            mem,
            link: Some(link),
            procs: Vec::new(),
        });
        self.nodes[parent.0].children.push(id);
        id
    }

    /// Attach a processor to a node.
    ///
    /// # Panics
    /// Panics on an unknown node.
    pub fn attach_processor(&mut self, node: NodeId, proc_: ProcessorDesc) -> &mut Self {
        // analyze:allow(panic-paths): a node id comes from this builder (its root or an add_child); a foreign id is a construction bug in preset code, not a runtime condition
        assert!(node.0 < self.nodes.len(), "unknown node {node}");
        self.nodes[node.0].procs.push(proc_);
        self
    }

    /// Finish building.
    pub fn build(self) -> Tree {
        Tree { nodes: self.nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use northup_hw::catalog;

    fn sample_tree() -> Tree {
        let mut b = TreeBuilder::new(catalog::ssd_hyperx_predator());
        let dram = b.add_child(
            NodeId(0),
            catalog::dram_staging_2gb(),
            catalog::dram_dma_link(),
        );
        let gpu = b.add_child(dram, catalog::gpu_devmem_4gb(), catalog::pcie3_x16());
        b.attach_processor(gpu, ProcessorDesc::new(ProcKind::Gpu, "gpu"));
        b.attach_processor(dram, ProcessorDesc::new(ProcKind::Cpu, "cpu"));
        b.build()
    }

    #[test]
    fn levels_count_from_slowest_storage() {
        let t = sample_tree();
        assert_eq!(t.level(t.root()), 0);
        assert_eq!(t.level(NodeId(1)), 1);
        assert_eq!(t.level(NodeId(2)), 2);
        assert_eq!(t.max_level(), 2);
    }

    #[test]
    fn parent_child_queries() {
        let t = sample_tree();
        assert_eq!(t.parent(t.root()), None);
        assert_eq!(t.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(t.children(NodeId(0)), &[NodeId(1)]);
        assert_eq!(t.children(NodeId(2)), &[]);
        assert!(t.node(NodeId(2)).is_leaf());
        assert!(!t.node(NodeId(1)).is_leaf());
    }

    #[test]
    fn storage_classes_drive_dispatch() {
        let t = sample_tree();
        assert_eq!(t.storage_class(NodeId(0)), StorageClass::File);
        assert_eq!(t.storage_class(NodeId(1)), StorageClass::Memory);
        assert_eq!(t.storage_class(NodeId(2)), StorageClass::Device);
    }

    #[test]
    fn adjacency_and_edge_links() {
        let t = sample_tree();
        assert!(t.adjacent(NodeId(0), NodeId(1)));
        assert!(t.adjacent(NodeId(2), NodeId(1)));
        assert!(!t.adjacent(NodeId(0), NodeId(2)));
        // A node's link is the edge to its parent.
        assert_eq!(t.node(NodeId(2)).link.as_ref().unwrap().name, "pcie3-x16");
    }

    #[test]
    fn cpu_on_inner_node_is_allowed() {
        // §III-B: "the CPU can attach to a non-leaf node in a CPU + discrete
        // GPU system".
        let t = sample_tree();
        let inner = t.node(NodeId(1));
        assert!(!inner.is_leaf());
        assert_eq!(inner.procs[0].kind, ProcKind::Cpu);
    }

    #[test]
    fn asymmetric_branches() {
        let mut b = TreeBuilder::new(catalog::hdd_wd5000());
        let a = b.add_child(
            NodeId(0),
            catalog::dram_staging_2gb(),
            catalog::dram_dma_link(),
        );
        let _leaf1 = b.add_child(a, catalog::gpu_devmem_4gb(), catalog::pcie3_x16());
        let _leaf2 = b.add_child(a, catalog::stacked_dram_4gb(), catalog::dram_dma_link());
        let bnode = b.add_child(NodeId(0), catalog::dram_16gb(), catalog::dram_dma_link());
        let t = b.build();
        assert_eq!(t.children(NodeId(0)).len(), 2);
        assert_eq!(t.children(a).len(), 2);
        assert!(t.node(bnode).is_leaf());
        assert_eq!(t.leaves().count(), 3);
        assert_eq!(t.max_level(), 2);
    }

    #[test]
    fn ascii_render_mentions_every_node() {
        let t = sample_tree();
        let s = t.render_ascii();
        for n in t.nodes() {
            assert!(s.contains(&n.mem.name), "missing {} in:\n{s}", n.mem.name);
        }
        assert!(s.contains("[gpu]"));
    }

    #[test]
    fn dot_render_is_wellformed() {
        let s = sample_tree().render_dot();
        assert!(s.starts_with("digraph"));
        assert!(s.contains("0 -> 1;"));
        assert!(s.contains("1 -> 2;"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn try_node_checks_range() {
        let t = sample_tree();
        assert!(t.try_node(NodeId(99)).is_err());
        assert!(t.try_node(NodeId(1)).is_ok());
    }
}
