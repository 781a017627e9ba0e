//! Fleet driver: replay a mixed-application arrival trace across a
//! federated fleet of Northup shard trees (DESIGN.md §11).
//!
//! This is the multi-shard sibling of [`crate::service`]: the same
//! §IV application shapes ([`job_profile`]) and seeded trace
//! generation, but each job also carries a **data home** — the shard
//! whose root storage holds its input — and placement is delegated to
//! the `northup-fleet` router instead of a single scheduler. Tenants
//! anchor their data sets on a shard (`tenant mod shards`), and most of
//! a tenant's jobs arrive homed there ([`AFFINITY_PCT`]), so the trace
//! exercises the router's data-gravity term the way a real multi-tenant
//! federation would: hot tenants spill off their data shard only when
//! load or fault pressure outweighs the modeled transfer cost.

use crate::service::{job_profile, ServiceJobKind, TraceConfig, SERVICE_TENANTS};
use northup_fleet::{FleetConfig, FleetJob};
use northup_sched::{Priority, TenantId};
use northup_sim::SimTime;
use rand::{Rng, SeedableRng, StdRng};

/// Percentage of a tenant's jobs homed on its data shard; the rest draw
/// a uniform home (cross-tenant reads, shared inputs).
pub const AFFINITY_PCT: u32 = 75;

/// Generate a deterministic fleet arrival trace over `cfg.shards`
/// shards: kinds cycle Gemm → Hotspot → SpMV and tenants cycle
/// `0..SERVICE_TENANTS` (both index-derived, exactly as
/// [`crate::service::synthetic_trace`] does), priorities, inter-arrival
/// gaps, and the affinity draw come from the seeded RNG, and each job's
/// home shard follows its tenant's data anchor with probability
/// [`AFFINITY_PCT`].
pub fn fleet_trace(cfg: &FleetConfig, tc: &TraceConfig) -> Vec<FleetJob> {
    let mut rng = StdRng::seed_from_u64(tc.seed);
    let shards = cfg.shards.max(1) as u32;
    let mut at_us: u64 = 0;
    let mut trace = Vec::with_capacity(tc.jobs);
    for i in 0..tc.jobs {
        let kind = ServiceJobKind::ALL[i % ServiceJobKind::ALL.len()];
        let spec = job_profile(kind, &cfg.tree, tc.scale);
        let tenant = TenantId(i as u32 % SERVICE_TENANTS);
        let priority = match rng.gen_range(0..6u32) {
            0 => Priority::Interactive,
            1 | 2 => Priority::Batch,
            _ => Priority::Normal,
        };
        let anchor = tenant.0 % shards;
        let home = if rng.gen_range(0..100u32) < AFFINITY_PCT {
            anchor
        } else {
            rng.gen_range(0..shards)
        };
        at_us += rng.gen_range(0..tc.mean_gap_us.max(1) * 2);
        trace.push(
            FleetJob::new(format!("{}-{i}", kind.label()), spec.reservation, spec.work)
                .tenant(tenant)
                .priority(priority)
                .arrival(SimTime::from_secs_f64(at_us as f64 * 1e-6))
                .home(home),
        );
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use northup_fleet::{Fleet, FleetReport};
    use northup_sched::JobState;

    /// Replay a synthetic fleet trace through [`FleetConfig::preset`].
    fn replay(shards: usize, seed: u64, tc: &TraceConfig) -> FleetReport {
        let cfg = FleetConfig::preset(shards, seed);
        let trace = fleet_trace(&cfg, tc);
        let mut fleet = Fleet::new(cfg).unwrap();
        for job in trace {
            fleet.submit(job);
        }
        fleet.run().unwrap()
    }

    fn light() -> TraceConfig {
        TraceConfig {
            jobs: 48,
            seed: 11,
            mean_gap_us: 4_000,
            scale: 32,
        }
    }

    #[test]
    fn run_fleet_settles_every_job_and_replays_bit_identically() {
        let report = replay(4, 7, &light());
        assert_eq!(report.outcomes.len(), 48);
        let done = report.count(JobState::Done);
        assert!(done > 40, "most jobs complete: {done}");
        assert!(report.capacity_ok, "fleet capacity invariant");
        assert!(report.exactly_once(), "no chunk ran twice or was skipped");
        let again = replay(4, 7, &light());
        assert_eq!(report.to_json(), again.to_json(), "bit-identical replay");
        // Empty and single-job traces settle too.
        for jobs in [0, 1] {
            let tc = TraceConfig {
                jobs,
                ..TraceConfig::default()
            };
            let fleet = replay(2, 7, &tc);
            assert_eq!(fleet.outcomes.len(), jobs);
            assert_eq!(fleet.count(JobState::Done), jobs);
            assert!(fleet.capacity_ok && fleet.exactly_once());
        }
    }

    #[test]
    fn data_affinity_anchors_tenants_to_their_home_shards() {
        let cfg = FleetConfig::preset(4, 7);
        let trace = fleet_trace(&cfg, &light());
        let anchored = trace
            .iter()
            .enumerate()
            .filter(|(i, j)| j.home == (*i as u32 % SERVICE_TENANTS) % 4)
            .count();
        // 75% by the affinity draw, plus uniform draws that happen to
        // land on the anchor.
        assert!(anchored * 2 > trace.len(), "anchored {anchored}/48");

        // Over the IB-class link, moving a few-MB input costs well under
        // one job's service time, so load balancing wins and most jobs
        // spill off their data shard.
        let report = replay(4, 7, &light());
        let at_home = report
            .outcomes
            .iter()
            .zip(&trace)
            .filter(|(o, j)| o.shard == j.home)
            .count();
        assert!(at_home * 2 < trace.len(), "spilled: {at_home}");
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let cfg = FleetConfig::preset(4, 7);
        let a = fleet_trace(&cfg, &light());
        let b = fleet_trace(
            &cfg,
            &TraceConfig {
                seed: 12,
                ..light()
            },
        );
        let homes_a: Vec<_> = a.iter().map(|j| j.home).collect();
        let homes_b: Vec<_> = b.iter().map(|j| j.home).collect();
        let arrivals_differ = a.iter().zip(&b).any(|(x, y)| x.arrival != y.arrival);
        assert!(homes_a != homes_b || arrivals_differ);
    }
}
