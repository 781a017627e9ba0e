//! Layout-transforming data movement (paper §VI "Data Layout").
//!
//! "One can imagine when data migrates across memory levels, chunks can be
//! transformed and stored in different formats ... Northup can be easily
//! extended to support this with a special version of `move_data()`."
//!
//! [`Runtime::move_data_transform`] is that special version: it moves a
//! buffer between (adjacent) nodes while re-laying it out. The transform
//! work is charged to a processor on the destination side (or its nearest
//! ancestor with a CPU) on top of the transfer itself.

use crate::data::BufferHandle;
use crate::error::{NorthupError, Result};
use crate::runtime::Runtime;
use crate::topology::{NodeId, ProcKind};
use northup_sim::{Served, SimDur};

/// Supported layout transformations. An array of `records` structures of
/// `fields` fields each is a `records x fields` matrix, so its AoS→SoA
/// conversion is `RowToCol { rows: records, cols: fields, .. }` and the way
/// back is the [`inverse`](Self::inverse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform {
    /// Transpose a row-major `rows x cols` matrix of `elem`-byte elements
    /// into column-major (i.e. a `cols x rows` row-major matrix).
    RowToCol {
        /// Rows of the source matrix.
        rows: usize,
        /// Columns of the source matrix.
        cols: usize,
        /// Element size in bytes.
        elem: usize,
    },
}

impl Transform {
    /// Total bytes a buffer under this transform must hold.
    pub fn bytes(&self) -> u64 {
        let Transform::RowToCol { rows, cols, elem } = *self;
        (rows * cols * elem) as u64
    }

    /// Apply to a byte buffer (pure function; used in Real mode).
    pub fn apply(&self, src: &[u8]) -> Vec<u8> {
        // analyze:allow(panic-paths): the product's one caller, move_data_transform, returns BadRange before a mismatched buffer reaches here
        assert_eq!(src.len() as u64, self.bytes(), "transform size mismatch");
        let Transform::RowToCol { rows, cols, elem } = *self;
        let mut out = vec![0u8; src.len()];
        for r in 0..rows {
            for c in 0..cols {
                let s = (r * cols + c) * elem;
                let d = (c * rows + r) * elem;
                out[d..d + elem].copy_from_slice(&src[s..s + elem]);
            }
        }
        out
    }

    /// The inverse transform.
    pub fn inverse(&self) -> Transform {
        let Transform::RowToCol { rows, cols, elem } = *self;
        Transform::RowToCol {
            rows: cols,
            cols: rows,
            elem,
        }
    }
}

/// Effective throughput of the layout-transform pass (strided gather +
/// sequential scatter on a CPU), bytes/s.
pub const TRANSFORM_BW: f64 = 4e9;

impl Runtime {
    /// Move a whole buffer between nodes while re-laying it out — the §VI
    /// extension of `move_data`. Sizes of both buffers must equal the
    /// transform footprint.
    pub fn move_data_transform(
        &self,
        dst: BufferHandle,
        src: BufferHandle,
        transform: Transform,
    ) -> Result<Served> {
        let bytes = transform.bytes();
        let src_size = self.buffer_size(src)?;
        let dst_size = self.buffer_size(dst)?;
        if src_size != bytes || dst_size != bytes {
            return Err(NorthupError::BadRange {
                buffer: if src_size != bytes { src } else { dst },
                offset: 0,
                len: bytes,
                size: if src_size != bytes {
                    src_size
                } else {
                    dst_size
                },
            });
        }

        // Real path: read, permute, write (bypassing move_data's byte copy).
        if self.is_real() && bytes > 0 {
            let mut tmp = vec![0u8; bytes as usize];
            self.read_slice(src, 0, &mut tmp)?;
            let transformed = transform.apply(&tmp);
            // The plain move below would overwrite dst with the *raw* bytes,
            // so perform the transfer accounting first, then inject.
            let served = self.move_data(dst, 0, src, 0, bytes)?;
            self.write_slice(dst, 0, &transformed)?;
            self.charge_transform_cost(dst, bytes)?;
            return Ok(served);
        }

        let served = self.move_data(dst, 0, src, 0, bytes)?;
        self.charge_transform_cost(dst, bytes)?;
        Ok(served)
    }

    /// Charge the permute pass to a CPU at/above the destination node.
    fn charge_transform_cost(&self, dst: BufferHandle, bytes: u64) -> Result<()> {
        let node = self.buffer_node(dst)?;
        let cpu_node = self.nearest_cpu(node);
        let dur = SimDur::from_secs_f64(bytes as f64 / TRANSFORM_BW);
        if let Some(n) = cpu_node {
            self.charge_compute(n, ProcKind::Cpu, dur, &[dst], &[dst], "layout transform")?;
        }
        Ok(())
    }

    /// Walk toward the root looking for a CPU.
    fn nearest_cpu(&self, mut node: NodeId) -> Option<NodeId> {
        loop {
            if self
                .tree()
                .node(node)
                .procs
                .iter()
                .any(|p| p.kind == ProcKind::Cpu)
            {
                return Some(node);
            }
            node = self.tree().parent(node)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::runtime::ExecMode;
    use northup_hw::catalog;
    use northup_sim::Category;

    #[test]
    fn transpose_bytes() {
        // 2x3 matrix of u16 elements.
        let src: Vec<u8> = vec![1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0];
        let t = Transform::RowToCol {
            rows: 2,
            cols: 3,
            elem: 2,
        };
        let out = t.apply(&src);
        // Column-major of [[1,2,3],[4,5,6]] => 1,4,2,5,3,6.
        assert_eq!(out, vec![1, 0, 4, 0, 2, 0, 5, 0, 3, 0, 6, 0]);
    }

    #[test]
    fn transforms_invert() {
        let data: Vec<u8> = (0..60).collect();
        for t in [
            Transform::RowToCol {
                rows: 3,
                cols: 5,
                elem: 4,
            },
            Transform::RowToCol {
                rows: 5,
                cols: 3,
                elem: 4,
            },
        ] {
            let back = t.inverse().apply(&t.apply(&data));
            assert_eq!(back, data, "{t:?} roundtrip");
        }
    }

    #[test]
    fn move_with_transform_delivers_transformed_bytes() {
        let rt = Runtime::new(
            presets::apu_two_level(catalog::ssd_hyperx_predator()),
            ExecMode::Real,
        )
        .unwrap();
        // Four records of two one-byte fields, AoS to SoA.
        let t = Transform::RowToCol {
            rows: 4,
            cols: 2,
            elem: 1,
        };
        let src = rt.alloc(8, rt.tree().root()).unwrap();
        let dst = rt.alloc(8, crate::topology::NodeId(1)).unwrap();
        rt.write_slice(src, 0, &[0, 1, 10, 11, 20, 21, 30, 31])
            .unwrap();
        rt.move_data_transform(dst, src, t).unwrap();
        let mut out = [0u8; 8];
        rt.read_slice(dst, 0, &mut out).unwrap();
        assert_eq!(out, [0, 10, 20, 30, 1, 11, 21, 31]);
        // The permute pass was charged to the CPU.
        let rep = rt.report();
        assert!(rep.breakdown.get(Category::CpuCompute) > northup_sim::SimDur::ZERO);
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let rt = Runtime::new(
            presets::apu_two_level(catalog::ssd_hyperx_predator()),
            ExecMode::Real,
        )
        .unwrap();
        let t = Transform::RowToCol {
            rows: 4,
            cols: 4,
            elem: 4,
        };
        let src = rt.alloc(64, rt.tree().root()).unwrap();
        let dst = rt.alloc(32, crate::topology::NodeId(1)).unwrap();
        assert!(rt.move_data_transform(dst, src, t).is_err());
    }
}
