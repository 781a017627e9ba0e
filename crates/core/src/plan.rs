//! Automatic blocking-size selection (paper §III-B / §VI).
//!
//! The paper chooses its blocking sizes "manually ... through
//! experimentation" (§IV-A) but points at the mechanism for doing better:
//! "by examining the capacity and usage, a program can decide the blocking
//! size" (§III-B), and the §VI discussion expects a higher-level layer to
//! derive the decomposition. This module is that layer: given the tree and
//! a per-level working-set model, it picks the largest candidate block per
//! level that fits the level's capacity with headroom.
//!
//! The planner reproduces the paper's manual choices: on the 2 GB staging
//! DRAM it selects exactly the 4k x 4k GEMM blocking and the 8k x 8k
//! HotSpot blocking the authors tuned by hand (asserted in the tests).

use crate::error::{NorthupError, Result};
use crate::topology::Tree;

/// A chosen block dimension per level below the root, outermost first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPlan {
    /// Block dimension per chain level below the root.
    pub per_level: Vec<usize>,
}

impl BlockPlan {
    /// The outermost (staging-level) block dimension.
    pub fn staging_block(&self) -> usize {
        self.per_level[0]
    }
}

/// Fraction of a node's capacity the planner is willing to commit
/// (leaves room for runtime metadata and alignment, like a human tuner).
pub const DEFAULT_HEADROOM: f64 = 0.9;

/// Plan block sizes down the chain below the root.
///
/// ```
/// use northup::{plan_blocks, pow2_candidates, presets, DEFAULT_HEADROOM};
/// use northup_hw::catalog;
///
/// // The paper's machine and GEMM working-set model: the planner derives
/// // the authors' hand-tuned 4k x 4k blocking.
/// let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
/// let n = 16 * 1024u64;
/// let plan = plan_blocks(&tree, &pow2_candidates(512, 16 * 1024), DEFAULT_HEADROOM,
///     |level, b| {
///         let b = b as u64;
///         if level == 0 { 2 * b * n * 4 + 2 * (n * b + b * b) * 4 }
///         else { (2 * n * b + b * b) * 4 }
///     }).unwrap();
/// assert_eq!(plan.staging_block(), 4 * 1024);
/// ```
///
/// * `candidates` — allowed block dimensions, ascending (e.g. powers of
///   two). The planner picks, per level, the largest candidate whose
///   `footprint(level, block)` fits within `headroom` of the level's
///   capacity; deeper levels additionally never exceed their parent's
///   chosen block.
/// * `footprint(level, block)` — bytes the application needs resident on
///   that level when using `block` (staging rings, kept shards, halos...).
///
/// Errors with [`NorthupError::Invalid`] on an empty or unsorted
/// candidate list or a headroom outside `[0, 1]`, with a topology error
/// on a tree with no level below the root, and with an out-of-capacity
/// error if even the smallest candidate does not fit somewhere.
pub fn plan_blocks(
    tree: &Tree,
    candidates: &[usize],
    headroom: f64,
    footprint: impl Fn(usize, usize) -> u64,
) -> Result<BlockPlan> {
    let invalid = |why: &str| Err(NorthupError::Invalid(why.into()));
    if candidates.is_empty() {
        return invalid("plan_blocks needs at least one candidate block");
    }
    if !candidates.windows(2).all(|w| w[0] < w[1]) {
        return invalid("plan_blocks candidates must be ascending");
    }
    if !(0.0..=1.0).contains(&headroom) {
        return invalid("plan_blocks headroom must lie in [0, 1]");
    }

    let chain = tree.chain_below(tree.root());
    if chain.is_empty() {
        return Err(NorthupError::Topology(
            crate::topology::TopologyError::Empty,
        ));
    }

    let mut per_level = Vec::with_capacity(chain.len());
    let mut ceiling = usize::MAX;
    for (level, &node) in chain.iter().enumerate() {
        let budget = (tree.node(node).mem.capacity as f64 * headroom) as u64;
        let chosen = candidates
            .iter()
            .rev()
            .copied()
            .find(|&b| b <= ceiling && footprint(level, b) <= budget);
        match chosen {
            Some(b) => {
                per_level.push(b);
                ceiling = b;
            }
            None => {
                return Err(NorthupError::Hw(northup_hw::HwError::OutOfCapacity {
                    device: tree.node(node).mem.name.clone(),
                    requested: footprint(level, candidates[0]),
                    available: budget,
                }))
            }
        }
    }
    Ok(BlockPlan { per_level })
}

/// Standard power-of-two candidate dims from `min` to `max` inclusive.
pub fn pow2_candidates(min: usize, max: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut b = min.next_power_of_two().max(1);
    while b <= max {
        out.push(b);
        b *= 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::topology::NodeId;
    use northup_hw::catalog;

    /// The GEMM staging working set of `crates/apps/src/matmul.rs`: the
    /// resident A row shard + `ring` (B shard, C tile) pairs + the second
    /// A ring slot used for row-shard prefetch.
    fn gemm_footprint(n: usize, ring: usize) -> impl Fn(usize, usize) -> u64 {
        move |level, b| {
            let (b, n, ring) = (b as u64, n as u64, ring as u64);
            if level == 0 {
                2 * b * n * 4 + ring * (n * b + b * b) * 4
            } else {
                // Deeper levels hold one (A, B, C) shard set.
                (b * n + n * b + b * b) * 4
            }
        }
    }

    /// The HotSpot staging working set: `ring` (input+power) halo regions
    /// plus `ring` output cores.
    fn hotspot_footprint(halo: usize, ring: usize) -> impl Fn(usize, usize) -> u64 {
        move |_level, b| {
            let region = ((b + 2 * halo) * (b + 2 * halo) * 4) as u64;
            let core = (b * b * 4) as u64;
            ring as u64 * (2 * region + core)
        }
    }

    #[test]
    fn planner_derives_the_papers_gemm_blocking() {
        // 16k matrices on the 2 GB staging DRAM: the paper hand-picked 4k.
        let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
        let plan = plan_blocks(
            &tree,
            &pow2_candidates(512, 16 * 1024),
            DEFAULT_HEADROOM,
            gemm_footprint(16 * 1024, 2),
        )
        .unwrap();
        assert_eq!(plan.staging_block(), 4 * 1024, "{plan:?}");
    }

    #[test]
    fn planner_derives_the_papers_hotspot_blocking() {
        // 16k grid, 64-deep halo, double buffering: the paper hand-picked 8k.
        let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
        let plan = plan_blocks(
            &tree,
            &pow2_candidates(512, 16 * 1024),
            DEFAULT_HEADROOM,
            hotspot_footprint(64, 2),
        )
        .unwrap();
        assert_eq!(plan.staging_block(), 8 * 1024, "{plan:?}");
    }

    #[test]
    fn deeper_levels_never_exceed_their_parent() {
        let tree = presets::exascale_node();
        let plan = plan_blocks(
            &tree,
            &pow2_candidates(256, 32 * 1024),
            DEFAULT_HEADROOM,
            gemm_footprint(32 * 1024, 2),
        )
        .unwrap();
        assert_eq!(plan.per_level.len(), 3, "DRAM, HBM, GPU memory");
        for w in plan.per_level.windows(2) {
            assert!(w[1] <= w[0], "{plan:?}");
        }
    }

    #[test]
    fn impossible_fits_are_reported_not_panicked() {
        let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
        // Demand an absurd working set per block.
        let err = plan_blocks(&tree, &[1024], DEFAULT_HEADROOM, |_, _| u64::MAX).unwrap_err();
        assert!(matches!(err, NorthupError::Hw(_)), "{err}");
    }

    #[test]
    fn bigger_memory_allows_bigger_blocks() {
        let small = presets::apu_two_level(catalog::ssd_hyperx_predator());
        let mut b = crate::topology::TreeBuilder::new(catalog::ssd_hyperx_predator());
        let dram = b.add_child(NodeId(0), catalog::dram_16gb(), catalog::dram_dma_link());
        b.attach_processor(
            dram,
            crate::topology::ProcessorDesc::new(crate::topology::ProcKind::Gpu, "apu-gpu"),
        );
        let big = b.build();

        let cands = pow2_candidates(512, 16 * 1024);
        let f = gemm_footprint(16 * 1024, 2);
        let p_small = plan_blocks(&small, &cands, DEFAULT_HEADROOM, &f).unwrap();
        let p_big = plan_blocks(&big, &cands, DEFAULT_HEADROOM, &f).unwrap();
        assert!(p_big.staging_block() > p_small.staging_block());
    }

    #[test]
    fn pow2_candidates_are_well_formed() {
        assert_eq!(pow2_candidates(512, 4096), vec![512, 1024, 2048, 4096]);
        assert_eq!(pow2_candidates(1000, 4096), vec![1024, 2048, 4096]);
        assert!(pow2_candidates(8192, 4096).is_empty());
    }
}
