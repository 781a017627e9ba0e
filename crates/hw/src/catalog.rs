//! Catalog of device models used by the paper's evaluation (§V-A) plus the
//! emerging-memory devices its discussion motivates (stacked DRAM, NVM).
//!
//! Bandwidths are the figures the paper quotes (SSD 1400/600 MB/s read/write)
//! or first-order public specs for the named parts. Capacities matter only
//! for admission control (how many chunks fit in a staging level), so they
//! are the configured values from §V-A (e.g. the 2 GB DRAM staging buffer).

use crate::spec::{gb_s, gib, mb_s, DeviceKind, DeviceSpec, LinkSpec, StorageClass};
use northup_sim::SimDur;

/// The paper's SATA hard drive (WD5000AAKX, ~125 MB/s sequential, ~8 ms seek).
pub fn hdd_wd5000() -> DeviceSpec {
    DeviceSpec::new(
        "wd5000aakx",
        DeviceKind::Hdd,
        gib(500),
        mb_s(125),
        mb_s(120),
    )
    .with_latency(SimDur::from_millis(8), SimDur::from_millis(8))
}

/// The paper's entry-level PCIe SSD (HyperX Predator: 1400/600 MB/s).
pub fn ssd_hyperx_predator() -> DeviceSpec {
    DeviceSpec::new(
        "hyperx-predator",
        DeviceKind::Ssd,
        gib(480),
        mb_s(1400),
        mb_s(600),
    )
    .with_latency(SimDur::from_micros(60), SimDur::from_micros(30))
}

/// A parametric PCIe SSD with the given (read, write) MB/s — the §V-D
/// projection sweeps these from (1400, 600) to (3500, 2100).
pub fn ssd_with_bandwidth(read_mb_s: u64, write_mb_s: u64) -> DeviceSpec {
    DeviceSpec::new(
        format!("ssd-{read_mb_s}-{write_mb_s}"),
        DeviceKind::Ssd,
        gib(960),
        mb_s(read_mb_s),
        mb_s(write_mb_s),
    )
    .with_latency(SimDur::from_micros(60), SimDur::from_micros(30))
}

/// Optane-class byte-addressable NVM, default-mapped as fast storage.
pub fn nvm_optane_like() -> DeviceSpec {
    DeviceSpec::new("nvm", DeviceKind::Nvm, gib(512), mb_s(2500), mb_s(2000))
        .with_latency(SimDur::from_micros(10), SimDur::from_micros(10))
}

/// The same NVM part remapped into the physical address space (paper §II:
/// "a design can treat the NVM as part of physical address space ... or as
/// fast storage").
pub fn nvm_as_memory() -> DeviceSpec {
    nvm_optane_like().with_class(StorageClass::Memory)
}

/// Host DRAM as configured for out-of-core runs: the 2 GB staging buffer of
/// §V-A, at APU-class shared bandwidth.
pub fn dram_staging_2gb() -> DeviceSpec {
    DeviceSpec::new("dram-staging", DeviceKind::Dram, gib(2), gb_s(20), gb_s(20))
}

/// Host DRAM as configured for in-memory baselines (16 GB, §V-A).
pub fn dram_16gb() -> DeviceSpec {
    DeviceSpec::new("dram", DeviceKind::Dram, gib(16), gb_s(20), gb_s(20))
}

/// Die-stacked DRAM / HBM level for the exascale-node preset (§V-D
/// discussion: stacked memory fills the SRAM-DRAM gap).
pub fn stacked_dram_4gb() -> DeviceSpec {
    DeviceSpec::new("hbm", DeviceKind::StackedDram, gib(4), gb_s(256), gb_s(256))
}

/// FirePro W9100-class device memory (16 GB GDDR5, ~260 GB/s effective).
pub fn gpu_devmem_w9100() -> DeviceSpec {
    DeviceSpec::new(
        "w9100-mem",
        DeviceKind::GpuDevice,
        gib(16),
        gb_s(260),
        gb_s(260),
    )
}

/// A smaller discrete-GPU memory for tighter chunking scenarios.
pub fn gpu_devmem_4gb() -> DeviceSpec {
    DeviceSpec::new(
        "gpu-mem-4g",
        DeviceKind::GpuDevice,
        gib(4),
        gb_s(224),
        gb_s(224),
    )
}

/// PCIe 3.0 x16-class host<->device link (~12 GB/s effective).
pub fn pcie3_x16() -> LinkSpec {
    LinkSpec::new("pcie3-x16", gb_s(12), SimDur::from_micros(20))
}

/// A generic DMA link between two host-memory levels.
pub fn dram_dma_link() -> LinkSpec {
    LinkSpec::new("dram-dma", gb_s(18), SimDur::from_micros(5))
}

/// EDR InfiniBand-class network link between cluster nodes (~12.5 GB/s,
/// microsecond latency) — the point-to-point bandwidth §VI compares NVMs
/// against ("bandwidth of these devices is already beginning to eclipse
/// available point-to-point network bandwidth").
pub fn infiniband_edr() -> LinkSpec {
    LinkSpec::new("ib-edr", mb_s(12_500), SimDur::from_micros(2))
}

/// A parallel-file-system volume shared by a cluster (Lustre-class
/// aggregate streaming bandwidth).
pub fn parallel_fs() -> DeviceSpec {
    DeviceSpec::new("pfs", DeviceKind::Hdd, gib(100_000), gb_s(20), gb_s(15))
        .with_latency(SimDur::from_millis(1), SimDur::from_millis(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ssd_matches_quoted_numbers() {
        let ssd = ssd_hyperx_predator();
        assert_eq!(ssd.read_bw, 1.4e9);
        assert_eq!(ssd.write_bw, 6.0e8);
        assert_eq!(ssd.class, StorageClass::File);
    }

    #[test]
    fn hdd_is_much_slower_than_ssd() {
        assert!(hdd_wd5000().read_bw * 8.0 < ssd_hyperx_predator().read_bw);
    }

    #[test]
    fn projection_sweep_endpoints() {
        let slow = ssd_with_bandwidth(1400, 600);
        let fast = ssd_with_bandwidth(3500, 2100);
        assert_eq!(slow.read_bw, 1.4e9);
        assert_eq!(fast.read_bw, 3.5e9);
        assert_eq!(fast.write_bw, 2.1e9);
    }

    #[test]
    fn nvm_remap_changes_only_class() {
        let s = nvm_optane_like();
        let m = nvm_as_memory();
        assert_eq!(s.kind, m.kind);
        assert_eq!(s.read_bw, m.read_bw);
        assert_ne!(s.class, m.class);
    }

    #[test]
    fn staging_buffer_is_2gb() {
        assert_eq!(dram_staging_2gb().capacity, 2 * 1024 * 1024 * 1024);
    }

    #[test]
    fn memory_hierarchy_orders_by_bandwidth() {
        // hdd < ssd < nvm < dram < hbm/gpu — the spectrum §V-D argues fills in.
        let bws = [
            hdd_wd5000().read_bw,
            ssd_hyperx_predator().read_bw,
            nvm_optane_like().read_bw,
            dram_16gb().read_bw,
            stacked_dram_4gb().read_bw,
        ];
        for w in bws.windows(2) {
            assert!(w[0] < w[1], "{w:?}");
        }
    }
}
