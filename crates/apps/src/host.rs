//! Host-side helpers shared by the application drivers.
//!
//! Every out-of-core driver runs the same virtual-time bookkeeping in
//! both [`ExecMode`]s, but only materializes host oracles and real bytes
//! under [`ExecMode::Real`]. [`when_real`] captures that guard once so
//! the drivers read as a single code path instead of repeating the
//! `if mode == ExecMode::Real { … Some } else { None }` block;
//! [`read_matrix`] and [`verify_gemm`] are the Real-mode tails every
//! dense driver ends a tile or a run with.

use northup::{BufferHandle, ExecMode, Result, Runtime};
use northup_kernels::{bytes_to_f32s, matmul_naive, DenseMatrix};

/// Run `init` only in [`ExecMode::Real`], passing its value through as
/// `Some`; in `Modeled` mode the initializer never runs and the result
/// is `None`.
///
/// Pair with [`Option::unzip`] when the initializer produces an input
/// pair (the A/B matrices, the temperature/power grids).
pub fn when_real<T>(mode: ExecMode, init: impl FnOnce() -> Result<T>) -> Result<Option<T>> {
    if mode == ExecMode::Real {
        init().map(Some)
    } else {
        Ok(None)
    }
}

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

/// The `(checksum, verified)` pair of a square GEMM run: `c`'s checksum
/// always, and up to 256 x 256 its agreement with the naive `a x b` oracle.
pub fn verify_gemm(
    a: &DenseMatrix,
    b: &DenseMatrix,
    c: &DenseMatrix,
) -> (Option<f64>, Option<bool>) {
    let n = a.rows;
    let verified = (n <= 256).then(|| {
        let mut oracle = DenseMatrix::zeros(n, n);
        matmul_naive(a, b, &mut oracle);
        oracle.max_abs_diff(c) < 1e-3 * n as f32
    });
    (Some(c.checksum()), verified)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_mode_skips_the_initializer() {
        let mut ran = false;
        let out = when_real(ExecMode::Modeled, || {
            ran = true;
            Ok(7)
        })
        .unwrap();
        assert_eq!(out, None);
        assert!(!ran);
    }

    #[test]
    fn real_mode_runs_it_and_propagates_errors() {
        let out = when_real(ExecMode::Real, || Ok((1, 2))).unwrap();
        assert_eq!(out.unzip(), (Some(1), Some(2)));
        let err: Result<Option<u32>> = when_real(ExecMode::Real, || {
            Err(northup::NorthupError::NoProcessor(northup::NodeId(0)))
        });
        assert!(err.is_err());
    }
}
