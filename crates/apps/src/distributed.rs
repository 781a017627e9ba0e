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

use crate::host::{read_matrix, verify_gemm, when_real};
use crate::matmul::gemm_tile;
use crate::report::AppRun;
use northup::{BufferHandle, ChainBufs, ExecMode, NorthupError, Result, Runtime};
use northup_kernels::{f32s_to_bytes, DenseMatrix};

/// Configuration of a distributed GEMM run.
#[derive(Debug, Clone)]
pub struct DistGemmConfig {
    /// Matrix dimension (square).
    pub n: usize,
    /// Row-strip / column-shard blocking.
    pub block: usize,
    /// Number of GPU compute nodes in the cluster.
    pub nodes: usize,
    /// Input seed (Real mode).
    pub seed: u64,
}

impl DistGemmConfig {
    /// Paper-scale input on a small cluster.
    pub fn paper(nodes: usize) -> Self {
        DistGemmConfig {
            n: crate::calibration::paper::GEMM_N,
            block: crate::calibration::paper::GEMM_BLOCK,
            nodes,
            seed: 1,
        }
    }

    /// Laptop-scale verified input.
    pub fn small(nodes: usize) -> Self {
        DistGemmConfig {
            n: 64,
            block: 16,
            nodes,
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

/// Run the distributed GEMM; Real mode verifies against the naive oracle.
pub fn gemm_cluster(cfg: &DistGemmConfig, mode: ExecMode) -> Result<AppRun> {
    let tree = northup::presets::cluster(cfg.nodes, 0);
    let rt = Runtime::new(tree, mode)?;
    let n = cfg.n as u64;
    let block = cfg.block as u64;
    let nb = cfg.nb()? as u64;
    let strip_a = block * n * 4; // A row strip / C row strip
    let shard_b = n * block * 4; // B column shard

    let root = rt.tree().root();
    let a_file = rt.alloc(n * n * 4, root)?;
    let b_file = rt.alloc(n * n * 4, root)?;
    let c_file = rt.alloc(n * n * 4, root)?;

    let (a_mat, b_mat) = when_real(mode, || {
        let am = DenseMatrix::random(cfg.n, cfg.n, cfg.seed);
        let bm = DenseMatrix::random(cfg.n, cfg.n, cfg.seed + 1);
        rt.write_slice(a_file, 0, &f32s_to_bytes(&am.data))?;
        for j in 0..nb {
            let shard = bm.extract_block(0, (j * block) as usize, cfg.n, cfg.block);
            rt.write_slice(b_file, j * shard_b, &f32s_to_bytes(&shard.data))?;
        }
        Ok((am, bm))
    })?
    .unzip();

    // Build each node's chain and buffers.
    let mut chains: Vec<NodeChain> = Vec::new();
    for &stage in rt.tree().children(root) {
        chains.push(NodeChain {
            deep: ChainBufs::new(&rt, stage, &[strip_a, shard_b, block * block * 4])?,
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
                if let Some(top) = gemm_tile(&rt, &chain.deep, &staged, j == 0, dims, &label)? {
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

    let mut checksum = None;
    let mut verified = None;
    if let (Some(am), Some(bm)) = (&a_mat, &b_mat) {
        let cm = read_matrix(&rt, c_file, 0, cfg.n, cfg.n)?;
        (checksum, verified) = verify_gemm(am, bm, &cm);
    }

    Ok(AppRun {
        name: format!("gemm-cluster/{}nodes", cfg.nodes),
        report: rt.report(),
        verified,
        checksum,
    })
}

/// Strong-scaling curve: makespan per node count for a fixed problem.
pub fn scaling_curve(n: usize, block: usize, node_counts: &[usize]) -> Result<Vec<(usize, f64)>> {
    node_counts
        .iter()
        .map(|&k| {
            let cfg = DistGemmConfig {
                n,
                block,
                nodes: k,
                seed: 1,
            };
            let run = gemm_cluster(&cfg, ExecMode::Modeled)?;
            Ok((k, run.makespan().as_secs_f64()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_gemm_verifies_on_small_inputs() {
        for nodes in [1usize, 2, 3] {
            let run = gemm_cluster(&DistGemmConfig::small(nodes), ExecMode::Real).unwrap();
            assert_eq!(run.verified, Some(true), "{nodes} nodes");
        }
    }

    #[test]
    fn checksum_is_node_count_invariant() {
        let one = gemm_cluster(&DistGemmConfig::small(1), ExecMode::Real).unwrap();
        let three = gemm_cluster(&DistGemmConfig::small(3), ExecMode::Real).unwrap();
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
        let cfg = DistGemmConfig::small(2);
        let real = gemm_cluster(&cfg, ExecMode::Real).unwrap();
        let modeled = gemm_cluster(&cfg, ExecMode::Modeled).unwrap();
        assert_eq!(real.report.breakdown, modeled.report.breakdown);
    }
}
