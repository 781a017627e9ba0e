//! Out-of-core map and reduce — a fourth application family, built entirely
//! on the generic [`ChunkPipeline`].
//!
//! [`ChunkPipeline`]: northup::ChunkPipeline
//!
//! The paper claims the framework "is generic to a variety of problems"
//! (§IV); these two primitives demonstrate it: a new out-of-core operator
//! needs only a load closure and a work closure — pipelining, prefetch
//! ordering, ring hazards, breakdown profiling and I/O accounting all come
//! from the runtime.
//!
//! * [`reduce_northup`] — global sum/min/max of an array larger than
//!   memory (pure streaming, the §VI low-reuse case).
//! * [`map_northup`] — elementwise `y = a*x + b` written back to storage
//!   (stream in, stream out).

use crate::calibration::model_for;
use crate::host::{write_rows, Grid};
use crate::report::AppRun;
use northup::{BufferHandle, ChunkPipeline, ExecMode, ProcKind, Result, Runtime, Tree};
use northup_kernels::{bytes_to_f32s, f32s_to_bytes};
use std::ops::Range;

/// Configuration of a streaming map/reduce scenario.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of f32 elements in the array on storage.
    pub elements: u64,
    /// Elements per staged chunk.
    pub chunk: u64,
    /// Staging ring depth.
    pub ring: usize,
    /// Input seed (Real mode).
    pub seed: u64,
}

impl StreamConfig {
    /// Laptop-scale config for Real-mode verification.
    pub fn small() -> Self {
        StreamConfig {
            elements: 10_000,
            chunk: 1_024,
            ring: 2,
            seed: 5,
        }
    }

    /// Paper-scale streaming config: a 4 Gi-element (16 GiB) array through
    /// the 2 GB staging buffer.
    pub fn paper() -> Self {
        StreamConfig {
            elements: 4 << 30,
            chunk: 64 << 20,
            ring: 2,
            seed: 5,
        }
    }

    fn chunks(&self) -> Vec<(u64, u64)> {
        // (element offset, element count) per chunk.
        let mut out = Vec::new();
        let mut at = 0;
        while at < self.elements {
            let n = self.chunk.min(self.elements - at);
            out.push((at, n));
            at += n;
        }
        out
    }

    /// Elements `range` of the input array, each a function of its index
    /// and the seed alone, so a band is generated on its own.
    pub fn input(&self, range: Range<u64>) -> Vec<f32> {
        range.map(|i| self.input_at(i)).collect()
    }

    /// Element `i` of the input array.
    fn input_at(&self, i: u64) -> f32 {
        let v = (i.wrapping_mul(0x9E37_79B9).wrapping_add(self.seed) % 1000) as f32;
        v / 500.0 - 1.0
    }

    /// Write the input array into `file`, a band at a time.
    fn write_input(&self, rt: &Runtime, file: BufferHandle) -> Result<()> {
        let elements = self.elements as usize;
        write_rows(rt, file, elements, 1, |i, _| self.input_at(i as u64))
    }
}

/// The reduction performed at the leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Global sum.
    Sum,
    /// Global maximum.
    Max,
}

/// Streaming out-of-core reduction over a chain tree. Returns the reduced
/// value (Real mode; 0 in Modeled mode), for the caller to hold to its
/// oracle, and the run.
pub fn reduce_northup(
    cfg: &StreamConfig,
    op: ReduceOp,
    tree: Tree,
    mode: ExecMode,
) -> Result<(f64, AppRun)> {
    let rt = Runtime::new(tree, mode)?;
    let root = rt.tree().root();
    let bytes = cfg.elements * 4;
    let file = rt.alloc(bytes, root)?;
    if mode == ExecMode::Real {
        cfg.write_input(&rt, file)?;
    }

    let stage = rt.tree().staging_level()?;
    let gpu_model = model_for(&rt.proc_at(stage, ProcKind::Gpu)?.name)?;

    let pipe = ChunkPipeline::new(&rt, stage, cfg.ring, &[cfg.chunk * 4])?;
    let acc = std::cell::Cell::new(match op {
        ReduceOp::Sum => 0.0f64,
        ReduceOp::Max => f64::NEG_INFINITY,
    });
    pipe.run(
        &cfg.chunks(),
        |&(off, n), bufs| {
            rt.move_data(bufs[0], 0, file, off * 4, n * 4)?;
            Ok(())
        },
        |&(_, n), bufs| {
            // One streaming pass over the chunk: memory-bound.
            let dur = gpu_model.roofline(n as f64, n as f64 * 4.0);
            rt.charge_compute(stage, ProcKind::Gpu, dur, &[bufs[0]], &[], "reduce chunk")?;
            if mode == ExecMode::Real {
                let mut raw = vec![0u8; (n * 4) as usize];
                rt.read_slice(bufs[0], 0, &mut raw)?;
                let vals = bytes_to_f32s(&raw);
                match op {
                    ReduceOp::Sum => {
                        acc.set(acc.get() + vals.iter().map(|&v| v as f64).sum::<f64>())
                    }
                    ReduceOp::Max => {
                        acc.set(vals.iter().map(|&v| v as f64).fold(acc.get(), f64::max))
                    }
                }
            }
            Ok(())
        },
    )?;
    pipe.release()?;

    let value = acc.get();
    Ok((
        value,
        AppRun {
            name: format!("reduce/{op:?}"),
            report: rt.report(),
            checksum: Some(value),
            output: None,
        },
    ))
}

/// Streaming out-of-core `y = a*x + b` written back to a second file, on a
/// caller's runtime; `y` is the run's output.
pub fn map_northup(rt: &Runtime, cfg: &StreamConfig, a: f32, b: f32) -> Result<AppRun> {
    let mode = rt.mode();
    let root = rt.tree().root();
    let bytes = cfg.elements * 4;
    let x_file = rt.alloc(bytes, root)?;
    let y_file = rt.alloc(bytes, root)?;
    if mode == ExecMode::Real {
        cfg.write_input(rt, x_file)?;
    }

    let stage = rt.tree().staging_level()?;
    let gpu_model = model_for(&rt.proc_at(stage, ProcKind::Gpu)?.name)?;

    let pipe = ChunkPipeline::new(rt, stage, cfg.ring, &[cfg.chunk * 4, cfg.chunk * 4])?;
    pipe.run(
        &cfg.chunks(),
        |&(off, n), bufs| {
            rt.move_data(bufs[0], 0, x_file, off * 4, n * 4)?;
            Ok(())
        },
        |&(off, n), bufs| {
            let dur = gpu_model.roofline(2.0 * n as f64, n as f64 * 8.0);
            rt.charge_compute(
                stage,
                ProcKind::Gpu,
                dur,
                &[bufs[0]],
                &[bufs[1]],
                "axpb chunk",
            )?;
            if mode == ExecMode::Real {
                let mut raw = vec![0u8; (n * 4) as usize];
                rt.read_slice(bufs[0], 0, &mut raw)?;
                let out: Vec<f32> = bytes_to_f32s(&raw).iter().map(|&v| a * v + b).collect();
                rt.write_slice(bufs[1], 0, &f32s_to_bytes(&out))?;
            }
            rt.move_data(y_file, off * 4, bufs[1], 0, n * 4)?;
            Ok(())
        },
    )?;
    pipe.release()?;
    AppRun::of(
        rt,
        "map/axpb",
        y_file,
        Grid::row_major(cfg.elements as usize, 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{compare, Tolerance};
    use northup_hw::catalog;
    use northup_sim::Category;

    fn apu() -> Tree {
        northup::presets::apu_two_level(catalog::ssd_hyperx_predator())
    }

    /// A Real reduction of `cfg`'s input by `op`, held to the host's
    /// reduction of the same array to within 1e-9 (relative, at least 1).
    fn assert_reduces_like_the_host(cfg: &StreamConfig, op: ReduceOp) -> f64 {
        let (value, _) = reduce_northup(cfg, op, apu(), ExecMode::Real).unwrap();
        let host = cfg.input(0..cfg.elements).into_iter().map(f64::from);
        let oracle = match op {
            ReduceOp::Sum => host.sum::<f64>(),
            ReduceOp::Max => host.fold(f64::NEG_INFINITY, f64::max),
        };
        assert!(
            (value - oracle).abs() <= 1e-9 * oracle.abs().max(1.0),
            "{op:?}: {value} vs {oracle}"
        );
        value
    }

    #[test]
    fn sum_and_max_verify() {
        let cfg = StreamConfig::small();
        assert_reduces_like_the_host(&cfg, ReduceOp::Sum);
        let m = assert_reduces_like_the_host(&cfg, ReduceOp::Max);
        assert!(m <= 1.0 && m > 0.9, "values live in [-1, 1): {m}");
    }

    #[test]
    fn map_verifies_and_writes_back() {
        let cfg = StreamConfig::small();
        let (a, b) = (2.5, -0.5);
        let rt = Runtime::new(apu(), ExecMode::Real).unwrap();
        let run = map_northup(&rt, &cfg, a, b).unwrap();
        let oracle: Vec<f32> = cfg
            .input(0..cfg.elements)
            .iter()
            .map(|&x| a * x + b)
            .collect();
        let grid = Grid::row_major(cfg.elements as usize, 1);
        compare(
            &rt,
            run.output.unwrap(),
            grid,
            &oracle,
            Tolerance::Abs(1e-5),
        )
        .unwrap();
        // One read + one write per chunk, plus setup.
        let io = run
            .report
            .io
            .iter()
            .find(|(n, _)| n == "hyperx-predator")
            .map(|(_, t)| *t)
            .unwrap();
        assert_eq!(io.bytes_read, cfg.elements * 4);
        assert_eq!(io.bytes_written, cfg.elements * 4);
    }

    #[test]
    fn the_input_file_is_the_generated_array_byte_for_byte() {
        // One band, and a band and a half of 1 Mi elements: the pooled
        // writer lands what `input` generates.
        for elements in [10_000u64, (3 << 20) / 2 + 3] {
            let cfg = StreamConfig {
                elements,
                ..StreamConfig::small()
            };
            let rt = Runtime::new(apu(), ExecMode::Real).unwrap();
            let file = rt.alloc(elements * 4, rt.tree().root()).unwrap();
            cfg.write_input(&rt, file).unwrap();
            let mut got = vec![0u8; elements as usize * 4];
            rt.read_slice(file, 0, &mut got).unwrap();
            assert!(got == f32s_to_bytes(&cfg.input(0..elements)), "{elements}");
        }
    }

    #[test]
    fn ragged_final_chunk_is_handled() {
        let cfg = StreamConfig {
            elements: 1_000, // not a multiple of 256
            chunk: 256,
            ring: 2,
            seed: 9,
        };
        assert_reduces_like_the_host(&cfg, ReduceOp::Sum);
    }

    #[test]
    fn paper_scale_reduction_is_io_bound() {
        // A pure stream can't hide its I/O: makespan ~ read time.
        let cfg = StreamConfig::paper();
        let (_, run) = reduce_northup(&cfg, ReduceOp::Sum, apu(), ExecMode::Modeled).unwrap();
        let read_time = (cfg.elements * 4) as f64 / 1.4e9;
        let makespan = run.makespan().as_secs_f64();
        assert!(
            (read_time * 0.95..read_time * 1.3).contains(&makespan),
            "makespan {makespan:.2} vs pure read {read_time:.2}"
        );
        assert!(run.report.breakdown.get(Category::FileIo).as_secs_f64() > 0.9 * read_time);
    }

    #[test]
    fn single_chunk_stream_works() {
        let cfg = StreamConfig {
            elements: 100,
            chunk: 1_000,
            ring: 2,
            seed: 1,
        };
        assert_reduces_like_the_host(&cfg, ReduceOp::Max);
    }
}
