//! The recursive programming model across topologies: full traversal of
//! the asymmetric Fig. 2 tree, level bookkeeping, per-branch work queues,
//! and the paper's tree-query API used from inside the recursion.

use northup_suite::prelude::*;

/// Recursively visit every leaf reachable from a context, moving one byte
/// of data down each edge and asserting the level arithmetic.
fn visit_all(ctx: &Ctx, carried: BufferHandle, touched: &mut Vec<NodeId>) -> Result<()> {
    let rt = ctx.rt();
    touched.push(ctx.node());
    if ctx.is_leaf() {
        assert_eq!(
            ctx.children().len(),
            0,
            "leaves have no children by definition"
        );
        return Ok(());
    }
    for i in 0..ctx.children().len() {
        let child = ctx.children()[i];
        // setup_buffer + data_down for this branch.
        let lower = rt.alloc(1, child)?;
        ctx.move_down(lower, 0, carried, 0, 1)?;
        ctx.spawn(i, |c| visit_all(c, lower, touched))?;
        rt.release(lower)?;
    }
    Ok(())
}

#[test]
fn recursion_covers_the_asymmetric_tree() {
    let tree = presets::asymmetric_fig2();
    let expected_nodes = tree.len();
    let rt = Runtime::new(tree, ExecMode::Real).unwrap();
    let root = rt.root_ctx();
    let seed = root.alloc(1).unwrap();
    rt.write_slice(seed, 0, &[42]).unwrap();

    let mut touched = Vec::new();
    visit_all(&root, seed, &mut touched).unwrap();
    assert_eq!(touched.len(), expected_nodes, "every node visited once");

    // Work-queue statistics: the root spawned one task per child subtree.
    assert_eq!(
        rt.tasks_spawned(NodeId(0)) as usize,
        rt.tree().children(NodeId(0)).len()
    );
}

#[test]
fn levels_increase_by_one_per_edge_everywhere() {
    for tree in [
        presets::apu_two_level(catalog::ssd_hyperx_predator()),
        presets::discrete_gpu_three_level(catalog::hdd_wd5000()),
        presets::asymmetric_fig2(),
        presets::exascale_node(),
    ] {
        for node in tree.nodes() {
            match node.parent {
                None => assert_eq!(node.level, 0, "root is level 0 (slowest storage)"),
                Some(p) => assert_eq!(node.level, tree.level(p) + 1),
            }
            for &c in &node.children {
                assert_eq!(tree.parent(c), Some(node.id));
            }
        }
        // max_level is attained by some leaf.
        assert!(tree.leaves().any(|l| l.level == tree.max_level()));
    }
}

#[test]
fn computation_happens_at_leaves_with_processors() {
    // Every preset leaf intended for compute has at least one processor,
    // and every processor-less node is an intermediate memory.
    for tree in [
        presets::apu_two_level(catalog::ssd_hyperx_predator()),
        presets::discrete_gpu_three_level(catalog::hdd_wd5000()),
        presets::asymmetric_fig2(),
        presets::exascale_node(),
    ] {
        for leaf in tree.leaves() {
            assert!(
                !leaf.procs.is_empty(),
                "leaf {} of {:?} has no processor",
                leaf.id,
                tree.node(NodeId(0)).mem.name
            );
        }
    }
}

#[test]
fn query_api_matches_paper_semantics() {
    let tree = presets::discrete_gpu_three_level(catalog::ssd_hyperx_predator());
    let rt = Runtime::new(tree, ExecMode::Real).unwrap();

    // get_cur_treenode / get_level / get_max_treelevel from Listing 3.
    let root = rt.root_ctx();
    assert_eq!(root.node(), NodeId(0));
    assert_eq!(root.level(), 0);
    assert_eq!(root.max_level(), 2);

    // fetch_node_type drives the move_data dispatch.
    assert_eq!(rt.tree().storage_class(NodeId(0)), StorageClass::File);
    assert_eq!(rt.tree().storage_class(NodeId(1)), StorageClass::Memory);
    assert_eq!(rt.tree().storage_class(NodeId(2)), StorageClass::Device);

    // get_device at the leaf selects the kernel target (§III-E).
    let leaf = rt.ctx_at(NodeId(2));
    assert_eq!(leaf.device(), Some(ProcKind::Gpu));
    assert!(leaf.is_leaf());
    assert_eq!(leaf.level(), leaf.max_level());
}

#[test]
fn render_outputs_are_stable() {
    let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
    let a = tree.render_ascii();
    let b = tree.render_ascii();
    assert_eq!(a, b);
    assert!(tree.render_dot().contains("digraph"));
}

/// A tree that is only a root has no level to stage chunks on. Every
/// out-of-core entry point that takes a tree reports that as the typed
/// [`TopologyError::NoStagingLevel`] instead of panicking, the ones that
/// take the caller's runtime included.
#[test]
fn a_single_node_tree_is_a_typed_error_from_every_out_of_core_entry_point() {
    use northup_suite::apps::reduce::{map_northup, reduce_northup, ReduceOp, StreamConfig};
    use northup_suite::apps::{hotspot, layout, matmul, spmv};
    use northup_suite::core::TopologyError;
    use northup_suite::sparse::gen;

    let lone = || TreeBuilder::new(catalog::ssd_hyperx_predator()).build();
    let m = gen::banded(64, 2, 7);
    let modeled = ExecMode::Modeled;
    let (mm, hs, st) = (
        MatmulConfig::small(),
        HotspotConfig::small(),
        StreamConfig::small(),
    );
    let input = SpmvInput::Matrix(m.clone());
    let on = |f: &dyn Fn(&Runtime) -> Result<AppRun>| f(&Runtime::new(lone(), modeled)?);
    let table: Vec<(&str, Result<()>)> = vec![
        (
            "reduce_northup",
            reduce_northup(&st, ReduceOp::Sum, lone(), modeled).map(drop),
        ),
        (
            "map_northup",
            on(&|rt| map_northup(rt, &st, 2.0, 1.0)).map(drop),
        ),
        (
            "matmul_northup",
            matmul::matmul_northup(&mm, lone(), modeled).map(drop),
        ),
        (
            "matmul_northup_on",
            on(&|rt| matmul::matmul_northup_on(rt, &mm)).map(drop),
        ),
        (
            "spmv_northup",
            spmv::spmv_northup(&input, lone(), modeled).map(drop),
        ),
        (
            "spmv_northup_on",
            on(&|rt| spmv::spmv_northup_on(rt, &input)).map(drop),
        ),
        (
            "power_iteration_northup",
            spmv::power_iteration_northup(&m, 2, lone()).map(drop),
        ),
        (
            "hotspot_northup",
            hotspot::hotspot_northup(&hs, lone(), modeled).map(drop),
        ),
        (
            "hotspot_northup_on",
            on(&|rt| hotspot::hotspot_northup_on(rt, &hs)).map(drop),
        ),
        (
            "hotspot_split_leaf",
            on(&|rt| hotspot::hotspot_split_leaf(rt, &hs, 0.5)).map(drop),
        ),
        (
            "spmv_with_format",
            on(&|rt| layout::spmv_with_format(rt, &m, layout::SpmvFormat::Csr)).map(drop),
        ),
    ];
    for (name, result) in table {
        assert!(
            matches!(
                result,
                Err(NorthupError::Topology(TopologyError::NoStagingLevel))
            ),
            "{name}: {result:?}"
        );
    }
}

/// A user-built tree may name its processors anything. One whose GPU has
/// no cost model gets the typed [`NorthupError::NoCostModel`] from the
/// out-of-core drivers that price its kernels, not a panic.
#[test]
fn an_unmodelled_processor_is_a_typed_error() {
    use northup_suite::apps::{hotspot, matmul};

    let mut b = TreeBuilder::new(catalog::ssd_hyperx_predator());
    let dram = b.add_child(
        NodeId(0),
        catalog::dram_staging_2gb(),
        catalog::dram_dma_link(),
    );
    b.attach_processor(dram, ProcessorDesc::new(ProcKind::Gpu, "mystery-gpu"));
    b.attach_processor(dram, ProcessorDesc::new(ProcKind::Cpu, "apu-cpu"));
    let tree = b.build();
    let on =
        |f: &dyn Fn(&Runtime) -> Result<AppRun>| f(&Runtime::new(tree.clone(), ExecMode::Modeled)?);
    let (mm, hs) = (MatmulConfig::small(), HotspotConfig::small());
    let table: Vec<(&str, Result<AppRun>)> = vec![
        (
            "matmul_northup_on",
            on(&|rt| matmul::matmul_northup_on(rt, &mm)),
        ),
        (
            "hotspot_northup_on",
            on(&|rt| hotspot::hotspot_northup_on(rt, &hs)),
        ),
    ];
    for (name, result) in table {
        assert!(
            matches!(&result, Err(NorthupError::NoCostModel(n)) if n == "mystery-gpu"),
            "{name}: {result:?}"
        );
    }
}
