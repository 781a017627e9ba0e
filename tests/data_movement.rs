//! Property tests on the unified data-management API (paper Table I):
//! round-trips across every storage-class pair, strided rectangles, layout
//! transforms, and capacity accounting under arbitrary alloc/release
//! interleavings.

use northup_suite::prelude::*;
use proptest::prelude::*;

fn rt_three_level() -> Runtime {
    Runtime::new(
        presets::discrete_gpu_three_level(catalog::ssd_hyperx_predator()),
        ExecMode::Real,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bytes written at the root survive a trip down to the leaf and back,
    /// at arbitrary offsets — through file I/O, memcpy and device DMA.
    #[test]
    fn round_trip_through_all_levels(
        len in 1u64..2000,
        src_off in 0u64..500,
        fill in any::<u8>(),
    ) {
        let rt = rt_three_level();
        let file = rt.alloc(src_off + len, NodeId(0)).unwrap();
        let dram = rt.alloc(len, NodeId(1)).unwrap();
        let dev = rt.alloc(len, NodeId(2)).unwrap();
        let back = rt.alloc(src_off + len, NodeId(0)).unwrap();

        let payload: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
        rt.write_slice(file, src_off, &payload).unwrap();

        rt.move_data(dram, 0, file, src_off, len).unwrap();
        rt.move_data(dev, 0, dram, 0, len).unwrap();
        rt.move_data(dram, 0, dev, 0, len).unwrap();
        rt.move_data(back, src_off, dram, 0, len).unwrap();

        let mut out = vec![0u8; len as usize];
        rt.read_slice(back, src_off, &mut out).unwrap();
        prop_assert_eq!(out, payload);
    }

    /// A strided rectangle extracted from a row-major "matrix" on storage
    /// matches a host-side extraction of the same rectangle.
    #[test]
    fn strided_moves_extract_rectangles(
        rows in 1usize..12,
        cols in 1usize..12,
        r0 in 0usize..4,
        c0 in 0usize..4,
        h in 1usize..6,
        w in 1usize..6,
    ) {
        prop_assume!(r0 + h <= rows && c0 + w <= cols);
        let rt = Runtime::new(
            presets::apu_two_level(catalog::ssd_hyperx_predator()),
            ExecMode::Real,
        ).unwrap();
        let grid: Vec<u8> = (0..rows * cols).map(|i| (i % 251) as u8).collect();
        let file = rt.alloc((rows * cols) as u64, NodeId(0)).unwrap();
        rt.write_slice(file, 0, &grid).unwrap();
        let stage = rt.alloc((h * w) as u64, NodeId(1)).unwrap();
        rt.move_data_strided(
            stage, 0, w as u64,
            file, (r0 * cols + c0) as u64, cols as u64,
            w as u64, h as u64,
        ).unwrap();
        let mut got = vec![0u8; h * w];
        rt.read_slice(stage, 0, &mut got).unwrap();
        let expect: Vec<u8> = (0..h)
            .flat_map(|r| grid[(r0 + r) * cols + c0..(r0 + r) * cols + c0 + w].to_vec())
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// move_data_transform == move + host-side permutation, and the inverse
    /// transform restores the original bytes.
    #[test]
    fn transforms_round_trip_across_levels(
        rows in 1usize..10,
        cols in 1usize..10,
        elem in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let rt = Runtime::new(
            presets::apu_two_level(catalog::ssd_hyperx_predator()),
            ExecMode::Real,
        ).unwrap();
        let bytes = (rows * cols * elem) as u64;
        let t = Transform::RowToCol { rows, cols, elem };

        let src = rt.alloc(bytes, NodeId(0)).unwrap();
        let mid = rt.alloc(bytes, NodeId(1)).unwrap();
        let back = rt.alloc(bytes, NodeId(0)).unwrap();
        let data: Vec<u8> = (0..bytes).map(|i| (i * 7 % 256) as u8).collect();
        rt.write_slice(src, 0, &data).unwrap();

        rt.move_data_transform(mid, src, t).unwrap();
        rt.move_data_transform(back, mid, t.inverse()).unwrap();
        let mut out = vec![0u8; bytes as usize];
        rt.read_slice(back, 0, &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    /// Capacity accounting is exact under arbitrary alloc/release sequences,
    /// and the node always recovers its full capacity.
    #[test]
    fn capacity_accounting_is_exact(ops in prop::collection::vec(1u64..2000, 1..30)) {
        let mut spec = catalog::dram_staging_2gb();
        spec.capacity = 64 * 1024;
        let mut b = northup::TreeBuilder::new(catalog::ssd_hyperx_predator());
        let dram = b.add_child(NodeId(0), spec, catalog::dram_dma_link());
        b.attach_processor(dram, ProcessorDesc::new(ProcKind::Gpu, "apu-gpu"));
        let rt = Runtime::new(b.build(), ExecMode::Real).unwrap();

        let mut live: Vec<(BufferHandle, u64)> = Vec::new();
        let mut used = 0u64;
        for (i, size) in ops.iter().enumerate() {
            if i % 3 == 2 && !live.is_empty() {
                let (h, sz) = live.remove(i % live.len());
                rt.release(h).unwrap();
                used -= sz;
            } else if used + size <= 64 * 1024 {
                let h = rt.alloc(*size, dram).unwrap();
                live.push((h, *size));
                used += size;
            }
            prop_assert_eq!(rt.used(dram), used);
        }
        for (h, _) in live {
            rt.release(h).unwrap();
        }
        prop_assert_eq!(rt.used(dram), 0);
        prop_assert_eq!(rt.available(dram), 64 * 1024);
    }
}

#[test]
fn capacity_exhaustion_is_an_error_not_a_panic() {
    let rt = Runtime::new(
        presets::apu_two_level(catalog::ssd_hyperx_predator()),
        ExecMode::Modeled,
    )
    .unwrap();
    // The staging DRAM holds 2 GiB; a 3 GiB chunk cannot fit.
    let err = rt.alloc(3 << 30, NodeId(1)).unwrap_err();
    assert!(matches!(err, NorthupError::Hw(_)), "{err}");
    // The runtime stays usable.
    let ok = rt.alloc(1 << 20, NodeId(1)).unwrap();
    rt.release(ok).unwrap();
}

#[test]
fn moves_between_sibling_leaves_are_rejected() {
    // Fig. 2's asymmetric tree has multiple branches; data moves along
    // edges only.
    let tree = presets::asymmetric_fig2();
    let rt = Runtime::new(tree, ExecMode::Real).unwrap();
    let a = rt.alloc(16, NodeId(1)).unwrap(); // CPU DRAM leaf
    let b = rt.alloc(16, NodeId(2)).unwrap(); // NVM subtree root
    assert!(matches!(
        rt.move_data(b, 0, a, 0, 16),
        Err(NorthupError::NotAdjacent(_, _))
    ));
}

#[test]
fn zero_length_moves_are_noops_with_latency_only() {
    let rt = Runtime::new(
        presets::apu_two_level(catalog::ssd_hyperx_predator()),
        ExecMode::Real,
    )
    .unwrap();
    let a = rt.alloc(8, NodeId(0)).unwrap();
    let b = rt.alloc(8, NodeId(1)).unwrap();
    rt.move_data(b, 0, a, 0, 0).unwrap();
    rt.move_data(b, 8, a, 8, 0).unwrap(); // offset == size is fine for len 0
}
