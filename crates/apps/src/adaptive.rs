//! Profile-guided task-to-processor mapping (paper §III-E).
//!
//! "By profiling the execution of earlier scheduled chunks, the system can
//! provide useful information to subsequent scheduling and task-processor
//! mapping." At an APU leaf both a CPU and a GPU are attached; which wins
//! depends on the chunk shape (the GPU's launch overhead dominates tiny
//! blocks; its throughput dominates large ones). The [`AdaptiveMapper`]
//! probes each processor on the first chunks, then routes the rest to the
//! device with the best observed throughput — re-probing periodically so
//! a phase change is noticed.

use crate::report::AppRun;
use northup::{ExecMode, NorthupError, ProcKind, Result, Runtime};
use northup_kernels::ProcModel;
use northup_sim::SimDur;
use std::collections::HashMap;

/// Online processor chooser based on observed chunk throughput.
#[derive(Debug, Clone)]
pub struct AdaptiveMapper {
    /// (work units done, busy time) per processor.
    stats: HashMap<ProcKind, (f64, SimDur)>,
    /// Remaining forced probes per processor.
    probes_left: Vec<(ProcKind, usize)>,
    /// Chunks between periodic re-probes of the losing device.
    reprobe_every: usize,
    since_reprobe: usize,
}

impl AdaptiveMapper {
    /// A mapper over `kinds`, probing each `probes` times up front and
    /// re-probing the slower device every `reprobe_every` chunks.
    pub fn new(kinds: &[ProcKind], probes: usize, reprobe_every: usize) -> Self {
        AdaptiveMapper {
            stats: kinds.iter().map(|&k| (k, (0.0, SimDur::ZERO))).collect(),
            probes_left: kinds.iter().map(|&k| (k, probes)).collect(),
            reprobe_every: reprobe_every.max(1),
            since_reprobe: 0,
        }
    }

    /// Observed throughput (work/s) of a processor, if it has run anything.
    pub fn rate(&self, kind: ProcKind) -> Option<f64> {
        let (work, busy) = self.stats.get(&kind)?;
        if busy.is_zero() {
            None
        } else {
            Some(work / busy.as_secs_f64())
        }
    }

    /// Pick the processor for the next chunk: `None` only for a mapper
    /// over no processors. Until some device has a measured rate, the
    /// first one runs.
    pub fn choose(&mut self) -> Option<ProcKind> {
        // Outstanding probes first (deterministic order).
        if let Some(slot) = self.probes_left.iter_mut().find(|(_, n)| *n > 0) {
            slot.1 -= 1;
            return Some(slot.0);
        }
        // Periodic re-probe of the currently losing device.
        self.since_reprobe += 1;
        let best = self.best();
        if self.since_reprobe >= self.reprobe_every {
            self.since_reprobe = 0;
            if let Some(&(loser, _)) = self.probes_left.iter().find(|(k, _)| Some(*k) != best) {
                return Some(loser);
            }
        }
        best.or_else(|| self.probes_left.first().map(|&(k, _)| k))
    }

    /// The device with the best observed rate.
    pub fn best(&self) -> Option<ProcKind> {
        self.stats
            .iter()
            .filter_map(|(&k, _)| self.rate(k).map(|r| (k, r)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(k, _)| k)
    }

    /// Record a finished chunk.
    pub fn observe(&mut self, kind: ProcKind, work: f64, dur: SimDur) {
        let e = self.stats.entry(kind).or_insert((0.0, SimDur::ZERO));
        e.0 += work;
        e.1 += dur;
    }
}

/// Outcome of one adaptive stencil run.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// The run itself.
    pub run: AppRun,
    /// Chunks executed per processor.
    pub per_device: Vec<(ProcKind, usize)>,
    /// The device the mapper settled on (`None` when no chunk ran).
    pub settled: Option<ProcKind>,
}

/// Scenario: a stream of equal stencil chunks at an APU leaf; choose the
/// processor per chunk. `block` controls who should win — the GPU's launch
/// overhead dominates tiny blocks, its bandwidth dominates large ones.
pub fn adaptive_stencil_stream(
    chunks: usize,
    block: usize,
    steps: u64,
    policy: Policy,
) -> Result<AdaptiveOutcome> {
    let tree = northup::presets::apu_two_level(northup_hw::catalog::ssd_hyperx_predator());
    let rt = Runtime::new(tree, ExecMode::Modeled)?;
    let stage = northup::NodeId(1);
    let bytes = (block * block * 4) as u64;
    let cells = (block * block) as u64;
    let work = cells as f64 * steps as f64;

    let gpu_model = ProcModel::apu_gpu();
    let cpu_model = ProcModel::apu_cpu();
    let time_on = |m: &ProcModel| m.stencil_time(cells, steps);

    let file = rt.alloc(bytes * chunks as u64, rt.tree().root())?;
    let mut mapper = AdaptiveMapper::new(&[ProcKind::Gpu, ProcKind::Cpu], 1, 16);
    let mut counts: HashMap<ProcKind, usize> = HashMap::new();
    for c in 0..chunks as u64 {
        let stage_buf = rt.alloc(bytes, stage)?;
        rt.move_data(stage_buf, 0, file, c * bytes, bytes)?;
        let kind = match policy {
            Policy::Adaptive => mapper.choose().ok_or(NorthupError::NoProcessor(stage))?,
            Policy::Static(k) => k,
        };
        let dur = match kind {
            ProcKind::Gpu => time_on(&gpu_model),
            _ => time_on(&cpu_model),
        };
        rt.charge_compute(stage, kind, dur, &[stage_buf], &[stage_buf], "chunk")?;
        mapper.observe(kind, work, dur);
        *counts.entry(kind).or_insert(0) += 1;
        rt.release(stage_buf)?;
    }

    let settled = mapper.best();
    let mut per_device: Vec<(ProcKind, usize)> = counts.into_iter().collect();
    per_device.sort_by_key(|(k, _)| format!("{k}"));
    Ok(AdaptiveOutcome {
        run: AppRun {
            name: format!("adaptive-stencil/{policy:?}"),
            report: rt.report(),
            checksum: None,
            output: None,
        },
        per_device,
        settled,
    })
}

/// Mapping policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Profile-guided (§III-E).
    Adaptive,
    /// Always the given device.
    Static(ProcKind),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapper_probes_then_settles() {
        let mut m = AdaptiveMapper::new(&[ProcKind::Gpu, ProcKind::Cpu], 2, 1000);
        // Four probes (two per device) come first.
        let mut probes = Vec::new();
        for _ in 0..4 {
            let k = m.choose().unwrap();
            // GPU is 4x faster in this synthetic feed.
            let dur = if k == ProcKind::Gpu {
                SimDur::from_millis(10)
            } else {
                SimDur::from_millis(40)
            };
            m.observe(k, 1.0, dur);
            probes.push(k);
        }
        assert_eq!(probes.iter().filter(|&&k| k == ProcKind::Gpu).count(), 2);
        // Then it settles on the GPU.
        for _ in 0..10 {
            let k = m.choose().unwrap();
            m.observe(
                k,
                1.0,
                SimDur::from_millis(if k == ProcKind::Gpu { 10 } else { 40 }),
            );
        }
        assert_eq!(m.best(), Some(ProcKind::Gpu));
        assert!(m.rate(ProcKind::Gpu).unwrap() > m.rate(ProcKind::Cpu).unwrap());
    }

    #[test]
    fn reprobe_notices_a_phase_change() {
        let mut m = AdaptiveMapper::new(&[ProcKind::Gpu, ProcKind::Cpu], 1, 5);
        // Initially GPU wins.
        for _ in 0..8 {
            let k = m.choose().unwrap();
            m.observe(
                k,
                1.0,
                SimDur::from_millis(if k == ProcKind::Gpu { 5 } else { 20 }),
            );
        }
        assert_eq!(m.best(), Some(ProcKind::Gpu));
        // Phase change: GPU becomes terrible. Re-probes must flip the choice.
        for _ in 0..200 {
            let k = m.choose().unwrap();
            m.observe(
                k,
                1.0,
                SimDur::from_millis(if k == ProcKind::Gpu { 500 } else { 20 }),
            );
        }
        assert_eq!(m.best(), Some(ProcKind::Cpu), "phase change detected");
    }

    #[test]
    fn large_blocks_settle_on_the_gpu() {
        let out = adaptive_stencil_stream(32, 1024, 8, Policy::Adaptive).unwrap();
        assert_eq!(out.settled, Some(ProcKind::Gpu));
        let gpu_chunks = out
            .per_device
            .iter()
            .find(|(k, _)| *k == ProcKind::Gpu)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert!(gpu_chunks >= 28, "{:?}", out.per_device);
    }

    #[test]
    fn tiny_blocks_settle_on_the_cpu() {
        // 8x8 chunks: the GPU's 15us launch overhead dwarfs the work.
        let out = adaptive_stencil_stream(32, 8, 1, Policy::Adaptive).unwrap();
        assert_eq!(out.settled, Some(ProcKind::Cpu), "{:?}", out.per_device);
    }

    #[test]
    fn an_empty_stream_settles_nowhere() {
        let out = adaptive_stencil_stream(0, 8, 1, Policy::Adaptive).unwrap();
        assert_eq!(out.settled, None);
        assert!(out.per_device.is_empty());
        assert_eq!(AdaptiveMapper::new(&[], 1, 1).choose(), None);
    }

    #[test]
    fn adaptive_is_close_to_the_best_static_choice() {
        for block in [8usize, 1024] {
            let adaptive = adaptive_stencil_stream(64, block, 4, Policy::Adaptive).unwrap();
            let gpu = adaptive_stencil_stream(64, block, 4, Policy::Static(ProcKind::Gpu)).unwrap();
            let cpu = adaptive_stencil_stream(64, block, 4, Policy::Static(ProcKind::Cpu)).unwrap();
            let best = gpu
                .run
                .makespan()
                .as_secs_f64()
                .min(cpu.run.makespan().as_secs_f64());
            let got = adaptive.run.makespan().as_secs_f64();
            assert!(
                got <= best * 1.25,
                "block {block}: adaptive {got} vs best static {best}"
            );
        }
    }
}
