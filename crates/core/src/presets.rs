//! Ready-made topologies for the paper's evaluated machines and the
//! emerging-memory systems its discussion motivates.

use crate::topology::{NodeId, ProcKind, ProcessorDesc, Tree, TreeBuilder};
use northup_hw::{catalog, DeviceSpec};

fn apu_gpu_proc() -> ProcessorDesc {
    ProcessorDesc::new(ProcKind::Gpu, "apu-gpu")
}

fn apu_cpu_proc() -> ProcessorDesc {
    ProcessorDesc::new(ProcKind::Cpu, "apu-cpu")
}

/// The paper's two-level APU configuration (§V-B): storage (SSD or HDD) at
/// the root, a 2 GB DRAM staging buffer below it, with the APU's CPU and
/// integrated GPU both attached to the DRAM leaf (shared-virtual-memory
/// APU — "a leaf node associated with more than one processor", §III-E).
///
/// Node ids: `n0` = storage, `n1` = DRAM leaf.
pub fn apu_two_level(storage: DeviceSpec) -> Tree {
    let mut b = TreeBuilder::new(storage);
    let dram = b.add_child(
        NodeId(0),
        catalog::dram_staging_2gb(),
        catalog::dram_dma_link(),
    );
    b.attach_processor(dram, apu_gpu_proc());
    b.attach_processor(dram, apu_cpu_proc());
    b.build()
}

/// The paper's three-level discrete-GPU configuration (§V-C, Fig. 8):
/// storage -> DRAM -> W9100 device memory. The CPU attaches to the DRAM
/// *inner* node (§III-B's explicit exception); the GPU to the device-memory
/// leaf.
///
/// Node ids: `n0` = storage, `n1` = DRAM, `n2` = GPU device memory leaf.
pub fn discrete_gpu_three_level(storage: DeviceSpec) -> Tree {
    let mut b = TreeBuilder::new(storage);
    let dram = b.add_child(
        NodeId(0),
        catalog::dram_staging_2gb(),
        catalog::dram_dma_link(),
    );
    b.attach_processor(dram, ProcessorDesc::new(ProcKind::Cpu, "host-cpu"));
    let gpumem = b.add_child(dram, catalog::gpu_devmem_w9100(), catalog::pcie3_x16());
    b.attach_processor(gpumem, ProcessorDesc::new(ProcKind::Gpu, "w9100"));
    b.build()
}

/// In-memory baseline "tree": a single 16 GB DRAM root holding the whole
/// working set (§V-A), CPU and GPU attached. Used to time the baselines in
/// the same framework (no file level exists, so no I/O is ever charged).
pub fn in_memory() -> Tree {
    let mut b = TreeBuilder::new(catalog::dram_16gb());
    b.attach_processor(NodeId(0), apu_gpu_proc());
    b.attach_processor(NodeId(0), apu_cpu_proc());
    b.build()
}

/// The asymmetric, heterogeneous tree of the paper's Fig. 2: a root storage
/// with three subtrees of different depths and device mixes (one DRAM+CPU
/// leaf, one NVM subtree feeding a GPU, one DRAM node fanning out to two
/// accelerator leaves — "node 3 has two children 6 and 7").
pub fn asymmetric_fig2() -> Tree {
    asymmetric_fig2_with(catalog::hdd_wd5000())
}

/// [`asymmetric_fig2`] with a caller-chosen root storage (e.g. an SSD, so
/// batch studies are not bottlenecked by the shared root device).
pub fn asymmetric_fig2_with(storage: DeviceSpec) -> Tree {
    let mut b = TreeBuilder::new(storage); // n0
                                           // Subtree 1: DRAM leaf with a CPU.
    let n1 = b.add_child(NodeId(0), catalog::dram_16gb(), catalog::dram_dma_link());
    b.attach_processor(n1, ProcessorDesc::new(ProcKind::Cpu, "cpu0"));
    // Subtree 2: NVM -> DRAM -> GPU device memory.
    let n2 = b.add_child(
        NodeId(0),
        catalog::nvm_optane_like(),
        catalog::dram_dma_link(),
    );
    let n4 = b.add_child(n2, catalog::dram_staging_2gb(), catalog::dram_dma_link());
    let n5 = b.add_child(n4, catalog::gpu_devmem_4gb(), catalog::pcie3_x16());
    b.attach_processor(n5, ProcessorDesc::new(ProcKind::Gpu, "gpu0"));
    // Subtree 3: DRAM with two accelerator children (nodes 6 and 7).
    let n3 = b.add_child(
        NodeId(0),
        catalog::dram_staging_2gb(),
        catalog::dram_dma_link(),
    );
    let n6 = b.add_child(n3, catalog::stacked_dram_4gb(), catalog::dram_dma_link());
    b.attach_processor(n6, ProcessorDesc::new(ProcKind::Gpu, "pim"));
    let n7 = b.add_child(n3, catalog::gpu_devmem_4gb(), catalog::pcie3_x16());
    b.attach_processor(n7, ProcessorDesc::new(ProcKind::Fpga, "fpga0"));
    b.build()
}

/// A future exascale compute node (§V-D / §VI "Northup for HPC"): NVM as
/// large slow per-node memory, DRAM, die-stacked HBM, and GPU device
/// memory — four software-managed levels.
pub fn exascale_node() -> Tree {
    let mut b = TreeBuilder::new(catalog::nvm_optane_like());
    let dram = b.add_child(NodeId(0), catalog::dram_16gb(), catalog::dram_dma_link());
    b.attach_processor(dram, ProcessorDesc::new(ProcKind::Cpu, "host-cpu"));
    let hbm = b.add_child(dram, catalog::stacked_dram_4gb(), catalog::dram_dma_link());
    let gpu = b.add_child(hbm, catalog::gpu_devmem_w9100(), catalog::pcie3_x16());
    b.attach_processor(gpu, ProcessorDesc::new(ProcKind::Gpu, "exa-gpu"));
    b.build()
}

/// A small distributed cluster (the §VII future-work direction): a shared
/// parallel file system at the root, with `gpu_nodes` GPU compute nodes
/// and `cpu_nodes` CPU-only nodes hanging off it over InfiniBand. Each GPU
/// node is an NVM -> DRAM -> GPU chain (NVM as per-node slower memory, the
/// §VI "Northup for HPC" configuration); CPU nodes stop at DRAM.
pub fn cluster(gpu_nodes: usize, cpu_nodes: usize) -> Tree {
    let mut b = TreeBuilder::new(catalog::parallel_fs());
    for i in 0..gpu_nodes {
        let nvm = b.add_child(
            NodeId(0),
            catalog::nvm_optane_like(),
            catalog::infiniband_edr(),
        );
        let dram = b.add_child(nvm, catalog::dram_16gb(), catalog::dram_dma_link());
        b.attach_processor(dram, ProcessorDesc::new(ProcKind::Cpu, "host-cpu"));
        let gpu = b.add_child(dram, catalog::gpu_devmem_w9100(), catalog::pcie3_x16());
        b.attach_processor(gpu, ProcessorDesc::new(ProcKind::Gpu, "gpu0"));
        let _ = i;
    }
    for _ in 0..cpu_nodes {
        let nvm = b.add_child(
            NodeId(0),
            catalog::nvm_optane_like(),
            catalog::infiniband_edr(),
        );
        let dram = b.add_child(nvm, catalog::dram_16gb(), catalog::dram_dma_link());
        b.attach_processor(dram, ProcessorDesc::new(ProcKind::Cpu, "cpu0"));
    }
    b.build()
}

/// One shard of a federated fleet (DESIGN.md §11): a compact [`cluster`]
/// — two GPU nodes and one CPU node behind a parallel file system — that
/// `northup-fleet` instantiates N times, each shard with its own
/// `JobScheduler`, budgets, and fault plan. Small on purpose: a 16-shard
/// fleet replaying a 100k-job trace stays cheap while still exercising
/// multi-leaf placement, quarantine, and probation inside every shard.
pub fn fleet_shard() -> Tree {
    cluster(2, 1)
}

/// NVM remapped into the address space (paper §II / §III-B: the same part
/// can be "part of physical address space ... or fast storage"): identical
/// shape to [`apu_two_level`], but the root is NVM with a memory-class
/// interface, so data movement dispatches to memcpy instead of file I/O.
pub fn apu_with_nvm_memory() -> Tree {
    apu_two_level(catalog::nvm_as_memory())
}

#[cfg(test)]
mod tests {
    use super::*;
    use northup_hw::StorageClass;

    #[test]
    fn apu_preset_shape() {
        let t = apu_two_level(catalog::ssd_hyperx_predator());
        assert_eq!(t.len(), 2);
        assert_eq!(t.max_level(), 1);
        let leaf = t.node(NodeId(1));
        assert!(leaf.is_leaf());
        assert_eq!(leaf.procs.len(), 2, "APU leaf has CPU and GPU");
        assert_eq!(t.storage_class(NodeId(0)), StorageClass::File);
    }

    #[test]
    fn discrete_preset_shape() {
        let t = discrete_gpu_three_level(catalog::hdd_wd5000());
        assert_eq!(t.len(), 3);
        assert_eq!(t.max_level(), 2);
        // CPU on the inner DRAM node, GPU on the leaf.
        assert_eq!(t.node(NodeId(1)).procs[0].kind, ProcKind::Cpu);
        assert!(!t.node(NodeId(1)).is_leaf());
        assert_eq!(t.node(NodeId(2)).procs[0].kind, ProcKind::Gpu);
        assert_eq!(t.storage_class(NodeId(2)), StorageClass::Device);
    }

    #[test]
    fn in_memory_has_no_file_level() {
        let t = in_memory();
        assert_eq!(t.len(), 1);
        assert!(t.nodes().all(|n| n.mem.class != StorageClass::File));
    }

    #[test]
    fn fig2_tree_is_asymmetric() {
        let t = asymmetric_fig2();
        assert_eq!(t.children(NodeId(0)).len(), 3);
        // Depths differ across subtrees.
        let depths: Vec<usize> = t.leaves().map(|n| n.level).collect();
        let min = depths.iter().min().unwrap();
        let max = depths.iter().max().unwrap();
        assert!(max > min, "asymmetric depths: {depths:?}");
        // Heterogeneous processors.
        let kinds: std::collections::HashSet<ProcKind> = t
            .nodes()
            .flat_map(|n| n.procs.iter().map(|p| p.kind))
            .collect();
        assert!(kinds.len() >= 3, "cpu+gpu+fpga: {kinds:?}");
    }

    #[test]
    fn exascale_is_four_levels() {
        let t = exascale_node();
        assert_eq!(t.max_level(), 3);
        // Bandwidth increases monotonically down the chain.
        let mut id = Some(t.root());
        let mut last_bw = 0.0;
        while let Some(n) = id {
            let node = t.node(n);
            assert!(node.mem.read_bw > last_bw);
            last_bw = node.mem.read_bw;
            id = node.children.first().copied();
        }
    }

    #[test]
    fn cluster_preset_shape() {
        let t = cluster(3, 1);
        assert_eq!(t.children(NodeId(0)).len(), 4, "four nodes off the PFS");
        // GPU nodes are 3 levels deep below the root; CPU nodes are 2.
        let depths: Vec<usize> = t.leaves().map(|l| l.level).collect();
        assert_eq!(depths.iter().filter(|&&d| d == 3).count(), 3);
        assert_eq!(depths.iter().filter(|&&d| d == 2).count(), 1);
        // Node-to-node data never moves directly (tree edges only).
        let leaves: Vec<NodeId> = t.leaves().map(|l| l.id).collect();
        assert!(!t.adjacent(leaves[0], leaves[1]));
    }

    #[test]
    fn fleet_shard_is_a_small_multi_leaf_cluster() {
        let t = fleet_shard();
        assert_eq!(t.children(NodeId(0)).len(), 3, "three nodes off the PFS");
        assert!(t.leaves().count() >= 3, "re-routing needs leaf diversity");
        assert_eq!(t.storage_class(NodeId(0)), StorageClass::File);
    }

    #[test]
    fn nvm_remap_changes_dispatch_class_only() {
        let storage = apu_two_level(catalog::nvm_optane_like());
        let memory = apu_with_nvm_memory();
        assert_eq!(storage.len(), memory.len());
        assert_eq!(storage.storage_class(NodeId(0)), StorageClass::File);
        assert_eq!(memory.storage_class(NodeId(0)), StorageClass::Memory);
        assert_eq!(
            storage.node(NodeId(0)).mem.read_bw,
            memory.node(NodeId(0)).mem.read_bw
        );
    }
}
