//! End-to-end capacity-lease enforcement: an admitted job's reservation,
//! installed on a `northup::Runtime`, bounds what `Ctx::alloc` may draw
//! on each node — and releases credit the lease back.

use northup::{presets, ExecMode, NodeId, NorthupError, Runtime};
use northup_hw::catalog;
use northup_sched::{JobScheduler, JobSpec, JobState, JobWork, Reservation, SchedulerConfig};

#[test]
fn admitted_lease_bounds_ctx_alloc() {
    let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
    let dram = tree.children(tree.root())[0];

    // Admit a job reserving 64 MiB of DRAM staging and take its lease.
    let mut sched = JobScheduler::new(tree.clone(), SchedulerConfig::default());
    let id = sched.submit(JobSpec::new(
        "svc",
        Reservation::new().with(dram, 64 << 20),
        JobWork::new(1).read(1 << 20).xfer(1 << 20),
    ));
    let report = sched.run().unwrap();
    assert_eq!(report.job(id).state, JobState::Done);
    let lease = report.job(id).lease().expect("admitted job has a lease");

    let rt = Runtime::new(tree, ExecMode::Real).unwrap();
    rt.install_lease(lease.clone());
    let ctx = rt.ctx_at(dram);

    let a = ctx
        .alloc(48 << 20)
        .expect("within the admitted reservation");
    assert_eq!(lease.used(dram), 48 << 20);

    // 48 + 32 > 64 MiB: the lease, not the device, rejects this.
    match ctx.alloc(32 << 20) {
        Err(NorthupError::LeaseExceeded {
            node,
            requested,
            remaining,
        }) => {
            assert_eq!(node, dram);
            assert_eq!(requested, 32 << 20);
            assert_eq!(remaining, 16 << 20);
        }
        other => panic!("expected LeaseExceeded, got {other:?}"),
    }

    // Releasing credits the lease; the same allocation now succeeds.
    rt.release(a).unwrap();
    assert_eq!(lease.used(dram), 0);
    let b = ctx.alloc(32 << 20).expect("fits after release");
    rt.release(b).unwrap();

    // Nodes outside the reservation stay unconstrained.
    let root_buf = rt.ctx_at(NodeId(0)).alloc(1 << 20);
    assert!(root_buf.is_ok());
}

#[test]
fn unadmitted_jobs_have_no_lease() {
    let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
    let dram = tree.children(tree.root())[0];
    let too_big = tree.node(dram).mem.capacity + 1;
    let mut sched = JobScheduler::new(tree, SchedulerConfig::default());
    let id = sched.submit(JobSpec::new(
        "whale",
        Reservation::new().with(dram, too_big),
        JobWork::new(1),
    ));
    let report = sched.run().unwrap();
    assert_eq!(report.job(id).state, JobState::Rejected);
    assert!(report.job(id).lease().is_none());
}
