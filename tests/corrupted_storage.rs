//! Storage that goes bad after set-up must show in the result: each
//! out-of-core app computes from the bytes it staged from the root, so
//! perturbing what the root returns moves its checksum — or, where the
//! perturbed bytes are structure (SpMV's `row_ptr`), fails with a typed
//! error. A run that still matched would be computing from a host copy.

use northup_suite::apps::hotspot::hotspot_northup_on;
use northup_suite::apps::layout::{spmv_with_format, SpmvFormat};
use northup_suite::apps::matmul::matmul_northup_on;
use northup_suite::apps::spmv::spmv_northup_on;
use northup_suite::core::runtime::SetupCosts;
use northup_suite::hw::{BlockId, FileBackend, HwResult, StorageBackend};
use northup_suite::prelude::*;
use northup_suite::sparse::gen;

/// What goes wrong with the bytes a read returns.
type Perturb = fn(&mut [u8]);

/// A root file backend whose reads of one block come back through
/// `perturb`; writes, and so the apps' set-up, are untouched.
struct Perturbed {
    inner: FileBackend,
    block: BlockId,
    perturb: Perturb,
}

impl StorageBackend for Perturbed {
    fn alloc(&mut self, size: u64) -> HwResult<BlockId> {
        self.inner.alloc(size)
    }
    fn release(&mut self, block: BlockId) -> HwResult<()> {
        self.inner.release(block)
    }
    fn read(&mut self, block: BlockId, offset: u64, dst: &mut [u8]) -> HwResult<()> {
        self.inner.read(block, offset, dst)?;
        if block == self.block {
            (self.perturb)(dst);
        }
        Ok(())
    }
    fn write(&mut self, block: BlockId, offset: u64, src: &[u8]) -> HwResult<()> {
        self.inner.write(block, offset, src)
    }
    fn size_of(&self, block: BlockId) -> HwResult<u64> {
        self.inner.size_of(block)
    }
    fn used(&self) -> u64 {
        self.inner.used()
    }
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
}

/// Flip the sign of every little-endian `f32` (every read here starts on
/// a value boundary).
fn negate_f32s(bytes: &mut [u8]) {
    for word in bytes.chunks_exact_mut(4) {
        word[3] ^= 0x80;
    }
}

/// Every `u32` reads as `u32::MAX`.
fn saturate(bytes: &mut [u8]) {
    bytes.fill(0xff);
}

/// The APU tree, its root's reads of the `nth` root allocation perturbed
/// (`None`: a plain root).
fn runtime(corrupt: Option<(u64, Perturb)>) -> Runtime {
    let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
    Runtime::with_custom_backends(tree, ExecMode::Real, SetupCosts::default(), &move |node| {
        let (nth, perturb) = corrupt.filter(|_| node.id == NodeId(0))?;
        let inner = FileBackend::new(&node.mem.name, node.mem.capacity).unwrap();
        Some(Box::new(Perturbed {
            inner,
            block: BlockId(nth),
            perturb,
        }) as Box<dyn StorageBackend>)
    })
    .unwrap()
}

/// The checksums of a clean run and of one whose root perturbs `nth`.
fn checksums(nth: u64, perturb: Perturb, run: impl Fn(&Runtime) -> Result<AppRun>) -> (f64, f64) {
    let clean = run(&runtime(None)).unwrap().checksum.unwrap();
    let corrupt = run(&runtime(Some((nth, perturb))))
        .unwrap()
        .checksum
        .unwrap();
    (clean, corrupt)
}

#[test]
fn gemm_computes_from_the_staged_a() {
    let cfg = MatmulConfig {
        n: 48,
        block: 16,
        ring: 2,
        seed: 3,
    };
    // Root allocations: A, B, C.
    let (clean, corrupt) = checksums(0, negate_f32s, |rt| matmul_northup_on(rt, &cfg));
    assert_ne!(clean.to_bits(), corrupt.to_bits(), "{clean} vs {corrupt}");
}

#[test]
fn hotspot_computes_from_the_staged_power_grid() {
    let cfg = HotspotConfig {
        n: 32,
        block: 16,
        steps_per_pass: 2,
        passes: 2,
        ring: 2,
        seed: 3,
    };
    // Root allocations: two temperature grids, then the power grid.
    let (clean, corrupt) = checksums(2, negate_f32s, |rt| hotspot_northup_on(rt, &cfg));
    assert_ne!(clean.to_bits(), corrupt.to_bits(), "{clean} vs {corrupt}");
}

#[test]
fn spmv_computes_from_the_staged_matrix() {
    let input = SpmvInput::Matrix(gen::powerlaw(600, 600, 128, 0.9, 42));
    // Root allocations: row_ptr, col_id, data, x, y.
    let (clean, corrupt) = checksums(2, negate_f32s, |rt| spmv_northup_on(rt, &input));
    assert_eq!(
        corrupt.to_bits(),
        (-clean).to_bits(),
        "{clean} vs {corrupt}"
    );

    let run = spmv_northup_on(&runtime(Some((0, saturate))), &input);
    assert!(
        matches!(run, Err(NorthupError::Invalid(ref why)) if why.contains("length mismatch")),
        "{:?}",
        run.map(|r| r.checksum)
    );
}

#[test]
fn spmv_computes_from_the_staged_x() {
    let input = SpmvInput::Matrix(gen::powerlaw(600, 600, 128, 0.9, 42));
    // Root allocations: row_ptr, col_id, data, x, y. A negated x negates
    // every product, so the checksum flips its sign and nothing else.
    let (clean, corrupt) = checksums(3, negate_f32s, |rt| spmv_northup_on(rt, &input));
    assert_eq!(
        corrupt.to_bits(),
        (-clean).to_bits(),
        "{clean} vs {corrupt}"
    );
}

#[test]
fn spmv_layout_computes_from_the_staged_payload() {
    let m = gen::powerlaw(600, 600, 128, 0.9, 42);
    // Root allocations: the shard payload, x, y. A payload that reads as
    // all ones has a `row_ptr` that spans no entries.
    for format in [SpmvFormat::Csr, SpmvFormat::EllOnMigrate] {
        let run = spmv_with_format(&runtime(Some((0, saturate))), &m, format);
        assert!(
            matches!(run, Err(NorthupError::Invalid(ref why)) if why.contains("length mismatch")),
            "{format:?}: {:?}",
            run.map(|r| r.checksum)
        );
    }
}

#[test]
fn spmv_layout_computes_from_the_staged_x() {
    let m = gen::powerlaw(600, 600, 128, 0.9, 42);
    // Root allocations: the shard payload, x, y. A negated x flips the
    // checksum's sign and nothing else.
    for format in [SpmvFormat::Csr, SpmvFormat::EllOnMigrate] {
        let (clean, corrupt) = checksums(1, negate_f32s, |rt| spmv_with_format(rt, &m, format));
        assert_eq!(
            corrupt.to_bits(),
            (-clean).to_bits(),
            "{format:?}: {clean} vs {corrupt}"
        );
    }
}
