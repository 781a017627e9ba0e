//! Distributed out-of-core GEMM across a cluster (paper §VII future work:
//! "extending the model to support distributed systems").
//!
//! The cluster is just a bigger Northup tree ([`northup::presets::cluster`]):
//! a parallel file system at the root, compute nodes as subtrees behind
//! InfiniBand links, each node an NVM → DRAM → GPU chain. The same
//! divide-and-conquer schedule then *is* the distributed algorithm:
//!
//! * row strips of `A` (and their `C` strips) are owned round-robin by the
//!   nodes;
//! * every node streams the column shards of `B` from the PFS (replicated
//!   reads — the PFS is a shared FIFO resource, so its bandwidth is the
//!   scaling ceiling, exactly like a real cluster);
//! * each node's chain pipelines independently of the others, so node
//!   parallelism emerges from the resource model rather than being coded.

use crate::host::Grid;
use crate::matmul::{gemm_tile, write_inputs};
use crate::report::AppRun;
use northup::{BufferHandle, ChainBufs, ExecMode, NorthupError, Result, Runtime};

/// Configuration of a distributed GEMM run.
#[derive(Debug, Clone)]
pub struct DistGemmConfig {
    /// Matrix dimension (square).
    pub n: usize,
    /// Row-strip / column-shard blocking.
    pub block: usize,
    /// Input seed (Real mode).
    pub seed: u64,
}

impl DistGemmConfig {
    /// Paper-scale input.
    pub fn paper() -> Self {
        DistGemmConfig {
            n: crate::calibration::paper::GEMM_N,
            block: crate::calibration::paper::GEMM_BLOCK,
            seed: 1,
        }
    }

    /// Laptop-scale input for Real-mode runs.
    pub fn small() -> Self {
        DistGemmConfig {
            n: 64,
            block: 16,
            seed: 7,
        }
    }

    fn nb(&self) -> Result<usize> {
        if self.block == 0 || !self.n.is_multiple_of(self.block) {
            return Err(NorthupError::Invalid(format!(
                "block {} must divide n {}",
                self.block, self.n
            )));
        }
        Ok(self.n / self.block)
    }
}

/// One compute node's chain below the PFS root (nvm -> dram -> gpu).
struct NodeChain<'rt> {
    /// Staged buffers at the first level (A strip kept + B ring).
    a_stage: BufferHandle,
    b_ring: [BufferHandle; 2],
    /// Resident C strip at the first level (written back once per strip).
    c_strip: BufferHandle,
    /// Whole-shard `[a, b, c]` buffers at each deeper level.
    deep: ChainBufs<'rt>,
}

/// Run the distributed GEMM on a caller's runtime over a cluster tree
/// ([`northup::presets::cluster`]): every child of the root is a compute
/// node. C is row-major. Every buffer but C goes back to `rt` once the
/// report is taken.
pub fn gemm_cluster(rt: &Runtime, cfg: &DistGemmConfig) -> Result<AppRun> {
    let n = cfg.n as u64;
    let block = cfg.block as u64;
    let nb = cfg.nb()? as u64;
    let strip_a = block * n * 4; // A row strip / C row strip
    let shard_b = n * block * 4; // B column shard

    let root = rt.tree().root();
    let a_file = rt.alloc(n * n * 4, root)?;
    let b_file = rt.alloc(n * n * 4, root)?;
    let c_file = rt.alloc(n * n * 4, root)?;
    if rt.is_real() {
        write_inputs(rt, cfg.seed, (cfg.n, cfg.block), a_file, b_file)?;
    }

    // Build each node's chain and buffers.
    let mut chains: Vec<NodeChain> = Vec::new();
    for &stage in rt.tree().children(root) {
        chains.push(NodeChain {
            deep: ChainBufs::new(rt, stage, &[strip_a, shard_b, block * block * 4])?,
            a_stage: rt.alloc(strip_a, stage)?,
            b_ring: [rt.alloc(shard_b, stage)?, rt.alloc(shard_b, stage)?],
            c_strip: rt.alloc(strip_a, stage)?,
        });
    }
    if chains.is_empty() {
        return Err(NorthupError::Invalid("cluster has no compute nodes".into()));
    }

    // Row strips owned round-robin; every node streams all B shards.
    // Tiles are ISSUED round-robin across the nodes working in a round:
    // issuing one node's whole strip first would head-of-line-block the
    // other nodes' loads behind its ring-gated requests in the PFS FIFO.
    let k = chains.len() as u64;
    let rounds = nb.div_ceil(k);
    for round in 0..rounds {
        let active: Vec<u64> = (0..k).map(|c| round * k + c).filter(|&i| i < nb).collect();
        // A strips for this round's strips, one per node.
        for &i in &active {
            let chain = &chains[(i % k) as usize];
            rt.move_data(chain.a_stage, 0, a_file, i * strip_a, strip_a)?;
        }
        for j in 0..nb {
            for &i in &active {
                let chain = &chains[(i % k) as usize];
                let b_buf = chain.b_ring[(j % 2) as usize];
                rt.move_data(b_buf, 0, b_file, j * shard_b, shard_b)?;

                // The same tile as the single-node schedule (A strip kept
                // across j), then back up the chain into column j of the
                // resident C strip.
                let staged = [chain.a_stage, b_buf, chain.c_strip];
                let label = format!("node gemm ({i},{j})");
                let dims = (cfg.block, cfg.n);
                if let Some(top) = gemm_tile(rt, &chain.deep, &staged, j == 0, dims, &label)? {
                    let row = block * 4;
                    rt.move_data_strided(chain.c_strip, j * row, n * 4, top, 0, row, row, block)?;
                }
            }
        }
        // Strip write-backs for the round.
        for &i in &active {
            let chain = &chains[(i % k) as usize];
            rt.move_data(c_file, i * strip_a, chain.c_strip, 0, strip_a)?;
        }
    }

    let name = format!("gemm-cluster/{k}nodes");
    let run = AppRun::of(rt, name, c_file, Grid::row_major(cfg.n, cfg.n))?;
    for chain in chains {
        chain.deep.release()?;
        for h in [
            chain.a_stage,
            chain.b_ring[0],
            chain.b_ring[1],
            chain.c_strip,
        ] {
            rt.release(h)?;
        }
    }
    rt.release(a_file)?;
    rt.release(b_file)?;
    Ok(run)
}

/// Strong-scaling curve: makespan per node count for a fixed problem.
pub fn scaling_curve(n: usize, block: usize, node_counts: &[usize]) -> Result<Vec<(usize, f64)>> {
    node_counts
        .iter()
        .map(|&k| {
            let cfg = DistGemmConfig { n, block, seed: 1 };
            let rt = Runtime::new(northup::presets::cluster(k, 0), ExecMode::Modeled)?;
            let run = gemm_cluster(&rt, &cfg)?;
            Ok((k, run.makespan().as_secs_f64()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{compare, Tolerance};
    use northup_kernels::{matmul_naive, DenseMatrix};

    /// A runtime over a cluster of `nodes` GPU nodes.
    fn cluster(nodes: usize, mode: ExecMode) -> Runtime {
        Runtime::new(northup::presets::cluster(nodes, 0), mode).unwrap()
    }

    #[test]
    fn distributed_gemm_verifies_on_small_inputs() {
        let cfg = DistGemmConfig::small();
        let a = DenseMatrix::random(cfg.n, cfg.n, cfg.seed);
        let b = DenseMatrix::random(cfg.n, cfg.n, cfg.seed + 1);
        let mut oracle = DenseMatrix::zeros(cfg.n, cfg.n);
        matmul_naive(&a, &b, &mut oracle);
        for nodes in [1usize, 2, 3] {
            let rt = cluster(nodes, ExecMode::Real);
            let run = gemm_cluster(&rt, &cfg).unwrap();
            let grid = Grid::row_major(cfg.n, cfg.n);
            let tol = Tolerance::Abs(1e-3 * cfg.n as f32);
            let checked = compare(&rt, run.output.unwrap(), grid, &oracle.data, tol);
            assert!(checked.is_ok(), "{nodes} nodes: {checked:?}");
        }
    }

    #[test]
    fn checksum_is_node_count_invariant() {
        let cfg = DistGemmConfig::small();
        let one = gemm_cluster(&cluster(1, ExecMode::Real), &cfg).unwrap();
        let three = gemm_cluster(&cluster(3, ExecMode::Real), &cfg).unwrap();
        let (a, b) = (one.checksum.unwrap(), three.checksum.unwrap());
        assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0));
    }

    #[test]
    fn strong_scaling_is_real_but_sublinear() {
        // Paper-scale 16k GEMM on 1/2/4 nodes: W9100-class nodes are fast,
        // so the shared PFS (B replicated to every node) caps the speedup.
        let curve = scaling_curve(16 * 1024, 4 * 1024, &[1, 2, 4]).unwrap();
        let t1 = curve[0].1;
        let t2 = curve[1].1;
        let t4 = curve[2].1;
        assert!(t2 < t1 * 0.75, "2 nodes help: {t1:.2} -> {t2:.2}");
        assert!(t4 < t2, "4 nodes help more: {t2:.2} -> {t4:.2}");
        let speedup4 = t1 / t4;
        assert!(
            (1.5..4.0).contains(&speedup4),
            "sublinear but real: {speedup4:.2}"
        );
    }

    #[test]
    fn timing_is_mode_independent() {
        let cfg = DistGemmConfig::small();
        let real = gemm_cluster(&cluster(2, ExecMode::Real), &cfg).unwrap();
        let modeled = gemm_cluster(&cluster(2, ExecMode::Modeled), &cfg).unwrap();
        assert_eq!(real.report.breakdown, modeled.report.breakdown);
    }
}
