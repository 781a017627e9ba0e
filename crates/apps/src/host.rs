//! Host-side helpers shared by the application drivers and their callers.
//!
//! An out-of-core driver never holds its whole problem on the host: it
//! writes its inputs to storage a band of rows at a time, runs its
//! schedule, and folds the checksum of its result from storage a band at
//! a time, so host memory is set by the staging ring, not by the problem.
//! `write_rows` is the one input writer: it encodes each band's cells
//! straight into one reused byte buffer, its rows split over the pool.
//! [`read_matrix`] decodes a staged tile for GEMM's leaf and SpMV's
//! staged `x`; HotSpot's leaf steps its tiles straight from the lent bytes
//! instead.
//!
//! Checking a result against an oracle is the caller's work, not the
//! driver's: [`compare`] reads a run's [`AppRun::output`] band by band and
//! holds it to an oracle the caller computed, within a [`Tolerance`].
//!
//! [`AppRun::output`]: crate::AppRun::output

use northup::{BufferHandle, NorthupError, Result, Runtime};
use northup_exec::{fan_out, workers};
use northup_kernels::{bytes_to_f32s, DenseMatrix};

/// The most bytes a helper here moves between host and storage at once:
/// a band of whole rows (never less than one row, or one row of tiles).
const BAND_BYTES: usize = 4 << 20;

/// Read a row-major `rows x cols` f32 matrix out of buffer `h`, starting
/// at byte `off` (uncharged, like [`Runtime::read_slice`]): the buffer's
/// bytes are lent in place and converted once.
pub fn read_matrix(
    rt: &Runtime,
    h: BufferHandle,
    off: u64,
    rows: usize,
    cols: usize,
) -> Result<DenseMatrix> {
    let mut data = Vec::new();
    rt.with_bytes(&[(h, off, (rows * cols * 4) as u64)], |bytes| {
        data = bytes_to_f32s(bytes[0]);
    })?;
    Ok(DenseMatrix { rows, cols, data })
}

/// Write the row-major `rows x cols` f32 matrix whose element `(r, c)` is
/// `cell(r, c)` into `h` from byte 0, one band of whole rows after the
/// other (uncharged, like [`Runtime::write_slice`]). Every band is encoded
/// into one reused buffer of at most [`BAND_BYTES`], each cell's
/// little-endian bytes written in place, its rows cut into one near-equal
/// range per pool worker.
pub(crate) fn write_rows(
    rt: &Runtime,
    h: BufferHandle,
    rows: usize,
    cols: usize,
    cell: impl Fn(usize, usize) -> f32 + Sync,
) -> Result<()> {
    let row_bytes = 4 * cols;
    if row_bytes == 0 {
        return Ok(());
    }
    let step = (BAND_BYTES / row_bytes).max(1);
    let mut buf = vec![0u8; step.min(rows) * row_bytes];
    for r0 in (0..rows).step_by(step) {
        let n = step.min(rows - r0);
        let band = &mut buf[..n * row_bytes];
        let piece = n.div_ceil(workers());
        let pieces: Vec<_> = band.chunks_mut(piece * row_bytes).enumerate().collect();
        fan_out(workers(), pieces, |(i, bytes)| {
            for (j, row) in bytes.chunks_exact_mut(row_bytes).enumerate() {
                let r = r0 + i * piece + j;
                for (c, word) in row.chunks_exact_mut(4).enumerate() {
                    word.copy_from_slice(&cell(r, c).to_le_bytes());
                }
            }
        });
        rt.write_slice(h, (r0 * row_bytes) as u64, band)?;
    }
    Ok(())
}

/// Where a `rows x cols` f32 matrix lies in a buffer: row-major (a
/// vector is `len x 1`), or — GEMM's C — in `tile x tile` blocks stored
/// block-major, one row of blocks after the other.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    rows: usize,
    cols: usize,
    tile: usize,
}

impl Grid {
    /// A row-major `rows x cols` matrix.
    pub fn row_major(rows: usize, cols: usize) -> Grid {
        Grid {
            rows,
            cols,
            tile: cols,
        }
    }

    /// An `n x n` matrix in `block x block` tiles, tile `(r, c)` at tile
    /// offset `r * (n / block) + c`.
    pub fn block_major(n: usize, block: usize) -> Grid {
        Grid {
            rows: n,
            cols: n,
            tile: block,
        }
    }

    /// Visit the grid in `h` row by row, in order: `visit(r, row)`. Rows
    /// are read a band at a time — one row of tiles, or (row-major) at
    /// most [`BAND_BYTES`] — and decoded one row at a time, so a band's
    /// bytes and one row are all the memory this takes.
    fn for_each_row(
        self,
        rt: &Runtime,
        h: BufferHandle,
        mut visit: impl FnMut(usize, &[f32]),
    ) -> Result<()> {
        let Grid { rows, cols, tile } = self;
        if tile == 0 || cols % tile != 0 || (tile < cols && rows % tile != 0) {
            return Err(NorthupError::Invalid(format!(
                "{tile}-wide tiles do not tile a {rows}x{cols} grid"
            )));
        }
        let step = if tile == cols {
            (BAND_BYTES / (4 * cols)).max(1)
        } else {
            tile
        };
        let mut row = Vec::with_capacity(cols);
        for r0 in (0..rows).step_by(step) {
            let height = step.min(rows - r0);
            let range = (h, (r0 * cols * 4) as u64, (height * cols * 4) as u64);
            rt.with_bytes(&[range], |parts| {
                let [bytes] = parts else { return };
                // Row `i` of the band is row `i` of each of its tiles in
                // turn; tile `t` holds its `height x tile` block row-major.
                for i in 0..height {
                    row.clear();
                    for t in 0..cols / tile {
                        let at = (t * height + i) * tile * 4;
                        let words = bytes[at..at + tile * 4].chunks_exact(4);
                        row.extend(words.map(|w| f32::from_le_bytes([w[0], w[1], w[2], w[3]])));
                    }
                    visit(r0 + i, &row);
                }
            })?;
        }
        Ok(())
    }
}

/// The checksum of the `grid` in `h`: every element as `f64`, summed in
/// row order into one accumulator — [`DenseMatrix::checksum`]'s order,
/// and so its bits — reading one band at a time.
pub(crate) fn checksum(rt: &Runtime, h: BufferHandle, grid: Grid) -> Result<f64> {
    let mut sum = 0.0f64;
    grid.for_each_row(rt, h, |_, row| {
        sum = row.iter().fold(sum, |s, &v| s + v as f64);
    })?;
    Ok(sum)
}

/// How far [`compare`] lets a result stray from its oracle.
#[derive(Debug, Clone, Copy)]
pub enum Tolerance {
    /// The largest elementwise distance is under this bound.
    Abs(f32),
    /// The largest elementwise distance is under this share of the
    /// oracle's largest magnitude ([`northup_kernels::rel_error`]).
    Rel(f32),
}

/// Hold the `grid` in `h` to `oracle` (row-major, `rows * cols` long)
/// within `tol`, reading one band at a time. A mismatch — a NaN
/// included — is [`NorthupError::Invalid`] naming the worst element.
pub fn compare(
    rt: &Runtime,
    h: BufferHandle,
    grid: Grid,
    oracle: &[f32],
    tol: Tolerance,
) -> Result<()> {
    if oracle.len() != grid.rows * grid.cols {
        return Err(NorthupError::Invalid(format!(
            "a {}x{} result against an oracle of {} elements",
            grid.rows,
            grid.cols,
            oracle.len()
        )));
    }
    // (index, result, oracle, distance) of the worst element so far.
    let mut worst = (0, 0.0f32, 0.0f32, 0.0f32);
    grid.for_each_row(rt, h, |r, row| {
        let at = r * grid.cols;
        for (i, (&got, &want)) in row.iter().zip(&oracle[at..]).enumerate() {
            // A NaN on either side is as far off as can be.
            let d = (got - want).abs();
            let d = if d.is_nan() { f32::INFINITY } else { d };
            if d > worst.3 {
                worst = (at + i, got, want, d);
            }
        }
    })?;
    let (at, got, want, d) = worst;
    let (measure, bound) = match tol {
        Tolerance::Abs(bound) => (d, bound),
        Tolerance::Rel(bound) => {
            let scale = oracle.iter().map(|v| v.abs()).fold(0.0f32, f32::max);
            (d / scale.max(1e-20), bound)
        }
    };
    if measure < bound {
        return Ok(());
    }
    Err(NorthupError::Invalid(format!(
        "result ({}, {}) is {got}, the oracle's {want}: off by {measure} ({tol:?})",
        at / grid.cols,
        at % grid.cols
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use northup::{presets, ExecMode};
    use northup_hw::catalog;
    use northup_kernels::f32s_to_bytes;

    /// A Real runtime and a root buffer holding `data`.
    fn stored(data: &[f32]) -> (Runtime, BufferHandle) {
        let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
        let rt = Runtime::new(tree, ExecMode::Real).unwrap();
        let h = rt.alloc(data.len() as u64 * 4, rt.tree().root()).unwrap();
        rt.write_slice(h, 0, &f32s_to_bytes(data)).unwrap();
        (rt, h)
    }

    #[test]
    fn a_block_major_grid_reads_back_in_row_order() {
        // A 4x4 matrix m[r][c] = 4r + c in 2x2 tiles, block-major.
        let m = DenseMatrix::from_fn(4, 4, |r, c| (4 * r + c) as f32);
        let mut stored_order = Vec::new();
        for (r, c) in [(0, 0), (0, 2), (2, 0), (2, 2)] {
            stored_order.extend(m.extract_block(r, c, 2, 2).data);
        }
        let (rt, h) = stored(&stored_order);
        let grid = Grid::block_major(4, 2);
        compare(&rt, h, grid, &m.data, Tolerance::Abs(0.0)).unwrap_err();
        compare(&rt, h, grid, &m.data, Tolerance::Abs(f32::MIN_POSITIVE)).unwrap();
        let sum = checksum(&rt, h, grid).unwrap();
        assert_eq!(sum.to_bits(), m.checksum().to_bits());
    }

    #[test]
    fn a_row_major_checksum_folds_bands_in_order() {
        // Two and a bit bands of 1 Mi elements: one accumulator across
        // the bands gives `DenseMatrix::checksum`'s bits.
        let n = (2 * BAND_BYTES / 4) + 3;
        let v: Vec<f32> = (0..n).map(|i| 1.0 / (1 + i % 977) as f32).collect();
        let (rt, h) = stored(&v);
        let want = DenseMatrix {
            rows: n,
            cols: 1,
            data: v,
        }
        .checksum();
        let sum = checksum(&rt, h, Grid::row_major(n, 1)).unwrap();
        assert_eq!(sum.to_bits(), want.to_bits());
    }

    #[test]
    fn a_mismatch_names_the_worst_element() {
        let want = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut got = want;
        got[4] = 5.5;
        got[1] = 2.1;
        let (rt, h) = stored(&got);
        let grid = Grid::row_major(2, 3);
        let err = compare(&rt, h, grid, &want, Tolerance::Abs(0.4)).unwrap_err();
        assert!(err.to_string().contains("result (1, 1) is 5.5"), "{err}");
        compare(&rt, h, grid, &want, Tolerance::Abs(0.6)).unwrap();
        // 0.5 / 6 is over 5 % and under 10 %.
        compare(&rt, h, grid, &want, Tolerance::Rel(0.05)).unwrap_err();
        compare(&rt, h, grid, &want, Tolerance::Rel(0.1)).unwrap();
    }

    #[test]
    fn a_nan_never_compares_equal() {
        let (rt, h) = stored(&[1.0, f32::NAN]);
        let err = compare(
            &rt,
            h,
            Grid::row_major(2, 1),
            &[1.0, 1.0],
            Tolerance::Rel(1e9),
        );
        assert!(err.unwrap_err().to_string().contains("result (1, 0)"));
    }

    #[test]
    fn a_shape_that_does_not_fit_is_an_error() {
        let (rt, h) = stored(&[0.0; 6]);
        let grid = Grid::row_major(2, 3);
        assert!(compare(&rt, h, grid, &[0.0; 5], Tolerance::Abs(1.0)).is_err());
        assert!(checksum(&rt, h, Grid::block_major(3, 2)).is_err());
        assert!(checksum(&rt, h, Grid::row_major(4, 3)).is_err());
    }
}
