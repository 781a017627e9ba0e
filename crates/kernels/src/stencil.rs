//! HotSpot-2D thermal stencil (paper §IV-B, Rodinia's hotspot).
//!
//! Each step updates every cell of a temperature grid from its four
//! neighbors and a per-cell power input:
//!
//! ```text
//! T'(x,y) = T + step/cap * ( P(x,y)
//!           + (T(x+1,y) + T(x-1,y) - 2T) / Rx
//!           + (T(x,y+1) + T(x,y-1) - 2T) / Ry
//!           + (Tamb - T) / Rz )
//! ```
//!
//! Grid edges clamp (a cell's missing neighbor is itself), as in Rodinia.
//!
//! Out-of-core execution processes the grid in blocks. Each block is
//! extracted *with a halo* of width `h` (the paper's packed border vectors,
//! Fig. 4, generalized to width > 1) and the kernel advances `steps <= h`
//! time steps locally, shrinking the valid region by one ring per step on
//! non-boundary sides — classic temporal blocking. This trades extra halo
//! bytes for `steps`-fold fewer passes over storage, which is exactly the
//! compute/IO ratio knob the paper's out-of-core HotSpot configuration
//! tunes with its blocking sizes.
//!
//! The same argument one level down splits a large block over the host's
//! cores: [`step_halo_block`] cuts its core into row bands of at least
//! `BAND_ROWS` rows, and each band takes its own `steps`-wide halo window
//! from the block and runs the serial trapezoid — a little redundant halo
//! work, no barrier between steps. [`step_halo_bytes`] is the same split
//! over a block given as the little-endian bytes a runtime lends from a
//! staged tile: each band decodes only its own window, once, into the
//! grid it steps, so a tile is copied once on its way to the kernel. The
//! full-grid reference splits the rows of each step's output instead.
//!
//! On x86-64 every row update runs through an AVX2 build of the same code
//! when the CPU has AVX2 (checked at run time), the baseline build
//! otherwise. AVX2 widens the vectors but never fuses a multiply and an
//! add, so every path evaluates the one update expression with its bits.

use crate::dense::DenseMatrix;
use crate::isa::Isa;
use northup_exec::{fan_out, workers};
use std::ops::Range;

/// Fewest rows in a band of a split stencil. A halo block is only split
/// when every band is at least `steps` rows tall, so each interior band
/// edge carries a full `steps`-wide halo.
const BAND_ROWS: usize = 128;

/// Physical constants of the HotSpot model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotSpotParams {
    /// Coefficient of the x-direction diffusion term (`step/(cap*Rx)`).
    pub cx: f32,
    /// Coefficient of the y-direction diffusion term.
    pub cy: f32,
    /// Coefficient of the vertical (ambient) leakage term.
    pub cz: f32,
    /// Coefficient applied to the power input (`step/cap`).
    pub cp: f32,
    /// Ambient temperature.
    pub t_amb: f32,
}

impl Default for HotSpotParams {
    /// Stable-diffusion defaults (coefficients sum below 1).
    fn default() -> Self {
        HotSpotParams {
            cx: 0.15,
            cy: 0.15,
            cz: 0.05,
            cp: 0.01,
            t_amb: 80.0,
        }
    }
}

/// The update of one cell from its centre, west, east, north and south
/// temperatures and its power input. Every path through this module
/// evaluates this one expression, so results agree bit for bit.
#[inline(always)]
fn update(c: f32, w: f32, e: f32, n: f32, s: f32, p: f32, prm: &HotSpotParams) -> f32 {
    c + prm.cp * p
        + prm.cx * (e + w - 2.0 * c)
        + prm.cy * (s + n - 2.0 * c)
        + prm.cz * (prm.t_amb - c)
}

/// One cell with every neighbor clamped per cell: the grid's west and east
/// edge columns, and the test oracle for [`step_region`].
#[inline]
fn update_cell(
    t: &[f32],
    p: &[f32],
    cols: usize,
    rows: usize,
    x: usize,
    y: usize,
    prm: &HotSpotParams,
) -> f32 {
    let idx = y * cols + x;
    let c = t[idx];
    // Clamped neighbors: a missing neighbor is the cell itself.
    let w = if x > 0 { t[idx - 1] } else { c };
    let e = if x + 1 < cols { t[idx + 1] } else { c };
    let n = if y > 0 { t[idx - cols] } else { c };
    let s = if y + 1 < rows { t[idx + cols] } else { c };
    update(c, w, e, n, s, p[idx], prm)
}

/// Update the cells `ys x xs` of a `cols`-wide grid from `cur` into `next`,
/// which holds rows `ys` of the grid (row `ys.start` first), a row at a
/// time. Columns with both horizontal neighbors run over plain west /
/// centre / east and north / south row slices with no branch in the loop
/// (on the grid's first and last row the clamped neighbor row is the
/// centre row itself); the grid's edge columns go through
/// [`update_cell`]. Inlined, with all it calls, into each build
/// [`run_region`] picks from.
#[inline(always)]
fn step_region(
    cur: &[f32],
    power: &[f32],
    next: &mut [f32],
    cols: usize,
    ys: Range<usize>,
    xs: Range<usize>,
    prm: &HotSpotParams,
) {
    let rows = cur.len() / cols.max(1);
    // Columns of the region that have both horizontal neighbors.
    let (xa, xb) = (xs.start.max(1), xs.end.min(cols.saturating_sub(1)));
    let west_edge = xs.contains(&0);
    let east_edge = cols > 1 && xs.contains(&(cols - 1));
    for y in ys.clone() {
        let row = y * cols;
        let out = (y - ys.start) * cols;
        if xa < xb {
            let len = xb - xa;
            let north = &cur[if y > 0 { row - cols } else { row } + xa..][..len];
            let south = &cur[if y + 1 < rows { row + cols } else { row } + xa..][..len];
            let west = &cur[row + xa - 1..][..len];
            let centre = &cur[row + xa..][..len];
            let east = &cur[row + xa + 1..][..len];
            let p = &power[row + xa..][..len];
            let dst = &mut next[out + xa..][..len];
            for (i, o) in dst.iter_mut().enumerate() {
                *o = update(centre[i], west[i], east[i], north[i], south[i], p[i], prm);
            }
        }
        if west_edge {
            next[out] = update_cell(cur, power, cols, rows, 0, y, prm);
        }
        if east_edge {
            next[out + cols - 1] = update_cell(cur, power, cols, rows, cols - 1, y, prm);
        }
    }
}

/// [`step_region`] through the `isa` build.
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)]
fn run_region(
    isa: Isa,
    cur: &[f32],
    power: &[f32],
    next: &mut [f32],
    cols: usize,
    ys: Range<usize>,
    xs: Range<usize>,
    prm: &HotSpotParams,
) {
    /// [`step_region`] compiled with AVX2; it inlines everything it calls,
    /// so each row's interior runs on 8-lane vectors.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn step_region_avx2(
        cur: &[f32],
        power: &[f32],
        next: &mut [f32],
        cols: usize,
        ys: Range<usize>,
        xs: Range<usize>,
        prm: &HotSpotParams,
    ) {
        step_region(cur, power, next, cols, ys, xs, prm);
    }

    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: `step_region_avx2` needs AVX2, which
            // `is_x86_feature_detected!("avx2")` has just found on this CPU.
            unsafe { step_region_avx2(cur, power, next, cols, ys, xs, prm) }
        }
        _ => step_region(cur, power, next, cols, ys, xs, prm),
    }
}

/// One step of the whole grid `cur` into `next`, the rows of `next` cut
/// into bands of `BAND_ROWS` run by the `isa` build and spread over at
/// most `workers` threads.
fn step_grid(
    isa: Isa,
    workers: usize,
    cur: &DenseMatrix,
    power: &DenseMatrix,
    next: &mut DenseMatrix,
    prm: &HotSpotParams,
) {
    assert_eq!((cur.rows, cur.cols), (power.rows, power.cols));
    let cols = cur.cols;
    if next.data.is_empty() {
        return;
    }
    let workers = if next.data.len() < crate::INLINE_BELOW {
        1
    } else {
        workers
    };
    let bands: Vec<_> = next.data.chunks_mut(BAND_ROWS * cols).enumerate().collect();
    fan_out(workers, bands, |(i, band)| {
        let y0 = i * BAND_ROWS;
        let ys = y0..y0 + band.len() / cols;
        run_region(isa, &cur.data, &power.data, band, cols, ys, 0..cols, prm);
    });
}

/// One full-grid step (the correctness oracle).
pub fn step_reference(temp: &DenseMatrix, power: &DenseMatrix, prm: &HotSpotParams) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(temp.rows, temp.cols);
    step_grid(Isa::host(), workers(), temp, power, &mut out, prm);
    out
}

/// `steps` full-grid steps, ping-ponging between two grids; each step's
/// rows are split over every core.
pub fn multi_step_reference(
    temp: &DenseMatrix,
    power: &DenseMatrix,
    steps: usize,
    prm: &HotSpotParams,
) -> DenseMatrix {
    multi_step_on(Isa::host(), workers(), temp, power, steps, prm)
}

/// [`multi_step_reference`] through the `isa` build on at most `workers`
/// threads.
fn multi_step_on(
    isa: Isa,
    workers: usize,
    temp: &DenseMatrix,
    power: &DenseMatrix,
    steps: usize,
    prm: &HotSpotParams,
) -> DenseMatrix {
    let mut cur = temp.clone();
    let mut next = DenseMatrix::zeros(temp.rows, temp.cols);
    for _ in 0..steps {
        step_grid(isa, workers, &cur, power, &mut next, prm);
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// A block of the grid extracted together with its halo.
#[derive(Debug, Clone)]
pub struct HaloBlock {
    /// Temperatures of the extracted region (core + halo), row-major.
    pub temp: DenseMatrix,
    /// Power of the extracted region.
    pub power: DenseMatrix,
    /// Halo actually present on each side: [north, south, west, east].
    /// A side whose halo is 0 coincides with the global grid boundary.
    pub halo: [usize; 4],
    /// Core block position in the global grid (top-left row, col).
    pub core_origin: (usize, usize),
    /// Core block size (rows, cols).
    pub core_size: (usize, usize),
}

/// Extract the block at (`r0`, `c0`) of `h x w` cells with halo width
/// `halo`, clipping the halo at the global grid boundary.
///
/// # Panics
/// Panics if the core block exceeds the grid.
pub fn extract_halo_block(
    temp: &DenseMatrix,
    power: &DenseMatrix,
    r0: usize,
    c0: usize,
    h: usize,
    w: usize,
    halo: usize,
) -> HaloBlock {
    assert!(
        r0 + h <= temp.rows && c0 + w <= temp.cols,
        "core out of bounds"
    );
    let north = halo.min(r0);
    let west = halo.min(c0);
    let south = halo.min(temp.rows - (r0 + h));
    let east = halo.min(temp.cols - (c0 + w));
    let rr0 = r0 - north;
    let cc0 = c0 - west;
    let hh = h + north + south;
    let ww = w + west + east;
    HaloBlock {
        temp: temp.extract_block(rr0, cc0, hh, ww),
        power: power.extract_block(rr0, cc0, hh, ww),
        halo: [north, south, west, east],
        core_origin: (r0, c0),
        core_size: (h, w),
    }
}

/// Advance a halo block `steps` time steps and return the *core* region at
/// time `t + steps`.
///
/// Exactness: each step shrinks the trusted region by one ring on sides
/// with halo; sides without halo are true global boundaries where the
/// clamped update *is* the correct boundary condition. Requires
/// `steps <= halo` on every non-boundary side (checked).
///
/// A core of at least two `BAND_ROWS` bands (each at least `steps` rows)
/// is split: every band copies its own `steps`-wide halo window out of
/// `block` and advances it alone, on the caller or a helper thread. A
/// band's core cells see the same inputs through the same updates, so the
/// result is bit-identical to one trapezoid over the whole block.
///
/// # Panics
/// Panics if a side's halo is short of `steps`, or if `block.temp` or
/// `block.power` is not the shape its halo and core make.
pub fn step_halo_block(block: &HaloBlock, steps: usize, prm: &HotSpotParams) -> DenseMatrix {
    let shape = Shape::checked(block.halo, block.core_size, steps);
    for (what, m) in [("temperature", &block.temp), ("power", &block.power)] {
        assert!(
            (m.rows, m.cols) == shape.dims(),
            "{what} is {}x{}, the halo block {:?}",
            m.rows,
            m.cols,
            shape.dims()
        );
    }
    let (temp, power) = (
        Cells::Floats(&block.temp.data),
        Cells::Floats(&block.power.data),
    );
    step_block_on(Isa::host(), workers(), temp, power, shape, steps, prm)
}

/// [`step_halo_block`] on a block given as the little-endian `f32` bytes of
/// its temperatures and power, row-major over the block — as a runtime
/// lends a staged tile. `halo` is the halo on each side ([north, south,
/// west, east]) around a core of `core_size` (rows, cols). Each band
/// decodes only its own window, once, into the grid it steps.
///
/// # Panics
/// Panics if a side's halo is short of `steps`, or if either slice holds
/// fewer bytes than the block's cells.
pub fn step_halo_bytes(
    temp: &[u8],
    power: &[u8],
    halo: [usize; 4],
    core_size: (usize, usize),
    steps: usize,
    prm: &HotSpotParams,
) -> DenseMatrix {
    let shape = Shape::checked(halo, core_size, steps);
    let (rows, cols) = shape.dims();
    for (what, bytes) in [("temperature", temp), ("power", power)] {
        assert!(
            bytes.len() >= rows * cols * 4,
            "{what} holds {} bytes, a {rows}x{cols} block needs {}",
            bytes.len(),
            rows * cols * 4
        );
    }
    let (temp, power) = (Cells::Bytes(temp), Cells::Bytes(power));
    step_block_on(Isa::host(), workers(), temp, power, shape, steps, prm)
}

/// The geometry of a halo block: the halo on each side ([north, south,
/// west, east]; 0 on a global boundary) around a `core` of (rows, cols).
#[derive(Clone, Copy, Debug)]
struct Shape {
    halo: [usize; 4],
    core: (usize, usize),
}

impl Shape {
    /// The shape, once every side with a halo has at least `steps` of it.
    fn checked(halo: [usize; 4], core: (usize, usize), steps: usize) -> Shape {
        for (side, &have) in ["north", "south", "west", "east"].iter().zip(&halo) {
            assert!(
                have == 0 || have >= steps,
                "{side} halo {have} < steps {steps}"
            );
        }
        Shape { halo, core }
    }

    /// Rows and columns of the whole block, halo included.
    fn dims(self) -> (usize, usize) {
        let [n, s, w, e] = self.halo;
        (self.core.0 + n + s, self.core.1 + w + e)
    }
}

/// A halo block's temperatures or power, row-major over the block: `f32`s,
/// or their little-endian bytes.
#[derive(Clone, Copy)]
enum Cells<'a> {
    Floats(&'a [f32]),
    Bytes(&'a [u8]),
}

impl Cells<'_> {
    /// The `rows x cols` window at (`r0`, `c0`) of these cells, laid out
    /// `stride` to a row, as `f32`s.
    fn window(self, stride: usize, r0: usize, c0: usize, rows: usize, cols: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(rows * cols);
        for r in r0..r0 + rows {
            let at = r * stride + c0;
            match self {
                Cells::Floats(v) => out.extend_from_slice(&v[at..at + cols]),
                Cells::Bytes(b) => out.extend(
                    b[4 * at..4 * (at + cols)]
                        .chunks_exact(4)
                        .map(|w| f32::from_le_bytes([w[0], w[1], w[2], w[3]])),
                ),
            }
        }
        out
    }
}

/// Advance the block `shape` whose cells are `temp` and `power` by `steps`
/// (halos already checked) and return its core. The core's rows are cut
/// into near-equal bands when there are at least two `BAND_ROWS` of them,
/// one band otherwise; each band takes a `steps`-wide halo window (none on
/// a global boundary) and runs [`trapezoid`] through the `isa` build, on
/// at most `workers` threads.
fn step_block_on(
    isa: Isa,
    workers: usize,
    temp: Cells,
    power: Cells,
    shape: Shape,
    steps: usize,
    prm: &HotSpotParams,
) -> DenseMatrix {
    let (h, w) = shape.core;
    let [north, south, west, east] = shape.halo;
    let stride = shape.dims().1;
    let split = h / BAND_ROWS;
    let bands = if split < 2 || steps > BAND_ROWS || h * w * steps < crate::INLINE_BELOW {
        1
    } else {
        split
    };
    let mut core = DenseMatrix::zeros(h, w);
    // Near-equal bands; a split band is at least BAND_ROWS (so at least
    // `steps`) rows.
    let mut rest = &mut core.data[..];
    let mut items = Vec::with_capacity(bands);
    for i in 0..bands {
        let ys = i * h / bands..(i + 1) * h / bands;
        let (band, tail) = std::mem::take(&mut rest).split_at_mut(ys.len() * w);
        items.push((ys, band));
        rest = tail;
    }
    fan_out(workers, items, |(ys, band)| {
        let sub = Shape {
            halo: [
                steps.min(north + ys.start),
                steps.min(south + (h - ys.end)),
                steps.min(west),
                steps.min(east),
            ],
            core: (ys.len(), w),
        };
        let (rows, cols) = sub.dims();
        let (r0, c0) = (north + ys.start - sub.halo[0], west - sub.halo[2]);
        let cur = temp.window(stride, r0, c0, rows, cols);
        let power = power.window(stride, r0, c0, rows, cols);
        trapezoid(isa, sub, cur, &power, steps, prm, band);
    });
    core
}

/// `steps` shrinking steps over the block `shape` on the calling thread,
/// stepping its temperatures `cur` (row-major over the block) under
/// `power`, through the `isa` build; writes the core into `core`.
fn trapezoid(
    isa: Isa,
    shape: Shape,
    mut cur: Vec<f32>,
    power: &[f32],
    steps: usize,
    prm: &HotSpotParams,
    core: &mut [f32],
) {
    let [n, s, w, e] = shape.halo;
    let (rows, cols) = shape.dims();
    let mut next = vec![0.0f32; cur.len()];
    for step in 0..steps {
        // Trusted region after this step (ring `step+1` consumed on halo sides).
        let y0 = if n == 0 { 0 } else { step + 1 }.min(rows);
        let y1 = if s == 0 {
            rows
        } else {
            rows - (step + 1).min(rows)
        };
        let x0 = if w == 0 { 0 } else { step + 1 }.min(cols);
        let x1 = if e == 0 {
            cols
        } else {
            cols - (step + 1).min(cols)
        };
        run_region(
            isa,
            &cur,
            power,
            &mut next[y0 * cols..y1 * cols],
            cols,
            y0..y1,
            x0..x1,
            prm,
        );
        std::mem::swap(&mut cur, &mut next);
    }
    let (h, width) = shape.core;
    if width > 0 {
        for (dst, r) in core.chunks_exact_mut(width).zip(n..n + h) {
            dst.copy_from_slice(&cur[r * cols + w..][..width]);
        }
    }
}

/// One out-of-core "pass": advance the whole grid `steps` time steps by
/// processing `block x block` tiles with halo `steps`. Sequential tile loop
/// (the Northup runtime drives tiles through the tree instead; this is the
/// in-memory equivalent used as oracle and baseline).
pub fn multi_step_blocked(
    temp: &DenseMatrix,
    power: &DenseMatrix,
    block: usize,
    steps: usize,
    prm: &HotSpotParams,
) -> DenseMatrix {
    assert!(block > 0);
    let mut out = DenseMatrix::zeros(temp.rows, temp.cols);
    for r0 in (0..temp.rows).step_by(block) {
        let h = block.min(temp.rows - r0);
        for c0 in (0..temp.cols).step_by(block) {
            let w = block.min(temp.cols - c0);
            let hb = extract_halo_block(temp, power, r0, c0, h, w, steps);
            let core = step_halo_block(&hb, steps, prm);
            out.insert_block(r0, c0, &core);
        }
    }
    out
}

/// FLOPs per cell per step of the update.
pub const FLOPS_PER_CELL: f64 = 12.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::f32s_to_bytes;
    use proptest::prelude::*;

    fn grids(rows: usize, cols: usize) -> (DenseMatrix, DenseMatrix, HotSpotParams) {
        let temp = DenseMatrix::from_fn(rows, cols, |r, c| 80.0 + ((r * 31 + c * 17) % 23) as f32);
        let power = DenseMatrix::from_fn(rows, cols, |r, c| ((r + c) % 5) as f32 * 0.2);
        // Distinct x and y coefficients, so a swapped axis changes bits.
        let prm = HotSpotParams {
            cx: 0.14,
            cy: 0.16,
            ..HotSpotParams::default()
        };
        (temp, power, prm)
    }

    fn bits(m: &DenseMatrix) -> Vec<u32> {
        m.data.iter().map(|v| v.to_bits()).collect()
    }

    /// The per-cell region update `step_region` replaced: the bit-level
    /// oracle. Cells outside the region keep what `next` held.
    fn region_per_cell(
        cur: &DenseMatrix,
        power: &DenseMatrix,
        next: &mut DenseMatrix,
        ys: Range<usize>,
        xs: Range<usize>,
        prm: &HotSpotParams,
    ) {
        for y in ys {
            for x in xs.clone() {
                *next.get_mut(y, x) =
                    update_cell(&cur.data, &power.data, cur.cols, cur.rows, x, y, prm);
            }
        }
    }

    /// `step_region` on `ys x xs` of a `rows x cols` grid against the
    /// per-cell oracle, including the cells it must leave alone.
    fn assert_region_bit_identical(rows: usize, cols: usize, ys: Range<usize>, xs: Range<usize>) {
        let (temp, power, prm) = grids(rows, cols);
        let got = DenseMatrix::from_fn(rows, cols, |r, c| -((r * cols + c) as f32));
        let mut want = got.clone();
        region_per_cell(&temp, &power, &mut want, ys.clone(), xs.clone(), &prm);
        for isa in crate::isa::every() {
            let mut got = got.clone();
            let (gy, gx) = (ys.clone(), xs.clone());
            let band = &mut got.data[ys.start * cols..ys.end * cols];
            run_region(isa, &temp.data, &power.data, band, cols, gy, gx, &prm);
            assert_eq!(
                bits(&got),
                bits(&want),
                "{rows}x{cols} {ys:?} x {xs:?} {isa:?}"
            );
        }
    }

    #[test]
    fn row_wise_update_is_bit_identical_to_per_cell() {
        for &(rows, cols) in &[
            (1usize, 1usize),
            (1, 9),
            (9, 1),
            (2, 2),
            (3, 63),
            (3, 64),
            (3, 65),
            (5, 129),
        ] {
            assert_region_bit_identical(rows, cols, 0..rows, 0..cols);
            // Interior-only, each edge column alone, and empty regions.
            assert_region_bit_identical(rows, cols, 0..rows, 1.min(cols)..cols.saturating_sub(1));
            assert_region_bit_identical(rows, cols, 0..rows, 0..1);
            assert_region_bit_identical(rows, cols, rows - 1..rows, cols - 1..cols);
            assert_region_bit_identical(rows, cols, 0..rows, cols..cols);
            assert_region_bit_identical(rows, cols, 0..0, 0..cols);
        }
    }

    proptest! {
        #[test]
        fn row_wise_update_matches_per_cell_on_random_regions(
            rows in 1usize..12,
            cols in 1usize..80,
            cut in (0usize..12, 0usize..12, 0usize..80, 0usize..80),
            steps in 0usize..4,
        ) {
            let (y0, x0) = (cut.0.min(rows), cut.2.min(cols));
            let (y1, x1) = (cut.1.min(rows).max(y0), cut.3.min(cols).max(x0));
            assert_region_bit_identical(rows, cols, y0..y1, x0..x1);
            // And the full-grid drivers on the same shape.
            let (temp, power, prm) = grids(rows, cols);
            let mut want = temp.clone();
            for _ in 0..steps {
                let mut next = DenseMatrix::zeros(rows, cols);
                region_per_cell(&want, &power, &mut next, 0..rows, 0..cols, &prm);
                want = next;
            }
            let got = multi_step_reference(&temp, &power, steps, &prm);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn halo_block_matches_reference_core_for_every_halo_combination() {
        // Every subset of sides with a halo (the others sit on the global
        // boundary), every step count the halo allows.
        let (h, w, halo, pad) = (5usize, 7usize, 3usize, 4usize);
        for sides in 0..16usize {
            let [north, south, west, east] = [0, 1, 2, 3].map(|s| sides >> s & 1 == 1);
            let margin = |present: bool| if present { pad } else { 0 };
            let (r0, c0) = (margin(north), margin(west));
            let (temp, power, prm) = grids(r0 + h + margin(south), c0 + w + margin(east));
            let hb = extract_halo_block(&temp, &power, r0, c0, h, w, halo);
            assert_eq!(
                hb.halo,
                [north, south, west, east].map(|p| margin(p).min(halo))
            );
            let (tb, pb) = (f32s_to_bytes(&hb.temp.data), f32s_to_bytes(&hb.power.data));
            for steps in 1..=halo {
                let core = step_halo_block(&hb, steps, &prm);
                let reference = multi_step_reference(&temp, &power, steps, &prm);
                assert_eq!(
                    bits(&core),
                    bits(&reference.extract_block(r0, c0, h, w)),
                    "halo {:?} steps {steps}",
                    hb.halo
                );
                let from_bytes = step_halo_bytes(&tb, &pb, hb.halo, hb.core_size, steps, &prm);
                assert_eq!(bits(&from_bytes), bits(&core), "bytes, halo {:?}", hb.halo);
            }
        }
    }

    /// Worker counts the split kernels are held to: one (bands run
    /// inline), two, and more workers than cores or bands.
    const WORKERS: [usize; 5] = [1, 2, 3, 4, 7];

    #[test]
    fn split_reference_is_bit_identical_at_any_worker_count() {
        // Nine bands of rows, the last one short.
        let (rows, cols, steps) = (1100usize, 1100usize, 8usize);
        let (temp, power, prm) = grids(rows, cols);
        let mut want = temp.clone();
        for _ in 0..steps {
            let mut next = DenseMatrix::zeros(rows, cols);
            step_region(
                &want.data,
                &power.data,
                &mut next.data,
                cols,
                0..rows,
                0..cols,
                &prm,
            );
            want = next;
        }
        for isa in crate::isa::every() {
            for workers in WORKERS {
                let got = multi_step_on(isa, workers, &temp, &power, steps, &prm);
                assert_eq!(bits(&got), bits(&want), "{isa:?}, {workers} workers");
            }
        }
    }

    #[test]
    fn split_halo_block_is_bit_identical_for_every_halo_combination() {
        // A 512-row core is four bands; every subset of sides has a halo,
        // and a halo wider than the steps taken is cut to `steps` per band.
        // Each build steps the block from its matrix and from its bytes.
        let (core, halo) = (512usize, 8usize);
        for sides in 0..16usize {
            let [north, south, west, east] = [0, 1, 2, 3].map(|s| sides >> s & 1 == 1);
            let margin = |present: bool| if present { halo } else { 0 };
            let (r0, c0) = (margin(north), margin(west));
            let (temp, power, prm) = grids(r0 + core + margin(south), c0 + core + margin(east));
            let hb = extract_halo_block(&temp, &power, r0, c0, core, core, halo);
            let shape = Shape::checked(hb.halo, hb.core_size, halo);
            let (tb, pb) = (f32s_to_bytes(&hb.temp.data), f32s_to_bytes(&hb.power.data));
            let sources = [
                (Cells::Floats(&hb.temp.data), Cells::Floats(&hb.power.data)),
                (Cells::Bytes(&tb), Cells::Bytes(&pb)),
            ];
            let step_counts: &[usize] = if sides == 15 { &[3, halo] } else { &[halo] };
            for &steps in step_counts {
                // One trapezoid over the whole block, on the portable build.
                let mut serial = DenseMatrix::zeros(core, core);
                let cur = hb.temp.data.clone();
                trapezoid(
                    Isa::Portable,
                    shape,
                    cur,
                    &hb.power.data,
                    steps,
                    &prm,
                    &mut serial.data,
                );
                let reference = multi_step_reference(&temp, &power, steps, &prm);
                let want = reference.extract_block(r0, c0, core, core);
                assert_eq!(bits(&serial), bits(&want), "halo {:?}", hb.halo);
                for isa in crate::isa::every() {
                    for workers in WORKERS {
                        for (source, (t, p)) in ["matrix", "bytes"].iter().zip(sources) {
                            let got = step_block_on(isa, workers, t, p, shape, steps, &prm);
                            assert_eq!(
                                bits(&got),
                                bits(&serial),
                                "halo {:?} steps {steps} {isa:?} {workers} workers, {source}",
                                hb.halo
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power holds 95 bytes, a 4x6 block needs 96")]
    fn a_short_byte_block_is_rejected() {
        let (temp, power, prm) = grids(4, 6);
        let (tb, pb) = (f32s_to_bytes(&temp.data), f32s_to_bytes(&power.data));
        step_halo_bytes(&tb, &pb[..95], [0, 0, 1, 1], (4, 4), 1, &prm);
    }

    #[test]
    fn uniform_grid_without_power_stays_at_equilibrium() {
        let temp = DenseMatrix::from_fn(6, 6, |_, _| 80.0);
        let power = DenseMatrix::zeros(6, 6);
        let prm = HotSpotParams::default();
        let out = step_reference(&temp, &power, &prm);
        // t_amb == 80, so every term of the update is exactly zero.
        assert_eq!(bits(&temp), bits(&out));
    }

    #[test]
    fn hot_cell_diffuses_to_neighbors() {
        let mut temp = DenseMatrix::from_fn(5, 5, |_, _| 80.0);
        *temp.get_mut(2, 2) = 100.0;
        let power = DenseMatrix::zeros(5, 5);
        let prm = HotSpotParams::default();
        let out = step_reference(&temp, &power, &prm);
        assert!(out.get(2, 2) < 100.0, "peak cools");
        assert!(out.get(2, 1) > 80.0, "neighbor warms");
        assert_eq!(out.get(0, 0), 80.0, "far cell untouched");
    }

    // Temporal blocking is exact by construction: a trusted cell sees the
    // same neighbor values and evaluates the same expression as the
    // full-grid reference, so the comparisons below are on bits.

    #[test]
    fn blocked_single_step_matches_reference() {
        let (temp, power, prm) = grids(17, 23);
        let reference = multi_step_reference(&temp, &power, 1, &prm);
        let blocked = multi_step_blocked(&temp, &power, 8, 1, &prm);
        assert_eq!(bits(&reference), bits(&blocked));
    }

    #[test]
    fn blocked_temporal_steps_match_reference() {
        let (temp, power, prm) = grids(24, 24);
        for steps in [2usize, 3, 4] {
            let reference = multi_step_reference(&temp, &power, steps, &prm);
            let blocked = multi_step_blocked(&temp, &power, 8, steps, &prm);
            assert_eq!(bits(&reference), bits(&blocked), "steps={steps}");
        }
    }

    #[test]
    fn blocked_handles_non_divisible_grids() {
        let (temp, power, prm) = grids(19, 13);
        let reference = multi_step_reference(&temp, &power, 3, &prm);
        let blocked = multi_step_blocked(&temp, &power, 7, 3, &prm);
        assert_eq!(bits(&reference), bits(&blocked));
    }

    #[test]
    fn halo_clips_at_global_boundary() {
        let (temp, power, _) = grids(10, 10);
        let hb = extract_halo_block(&temp, &power, 0, 4, 4, 4, 2);
        assert_eq!(hb.halo, [0, 2, 2, 2]);
        assert_eq!(hb.temp.rows, 6);
        assert_eq!(hb.temp.cols, 8);
        assert_eq!(hb.core_origin, (0, 4));
    }

    #[test]
    #[should_panic(expected = "halo 1 < steps 2")]
    fn insufficient_halo_is_rejected() {
        let (temp, power, prm) = grids(10, 10);
        let hb = extract_halo_block(&temp, &power, 4, 4, 4, 4, 1);
        step_halo_block(&hb, 2, &prm);
    }

    #[test]
    fn single_block_whole_grid_any_steps() {
        // The whole grid as one block has no halo anywhere; all sides are
        // global boundaries, so any step count is exact.
        let (temp, power, prm) = grids(9, 11);
        let hb = extract_halo_block(&temp, &power, 0, 0, 9, 11, 5);
        assert_eq!(hb.halo, [0, 0, 0, 0]);
        let out = step_halo_block(&hb, 6, &prm);
        let reference = multi_step_reference(&temp, &power, 6, &prm);
        assert_eq!(bits(&reference), bits(&out));
    }
}
