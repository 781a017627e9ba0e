//! Device and link specifications.
//!
//! A [`DeviceSpec`] is the static description of one memory or storage node
//! in the Northup tree: what kind of device it is, how it is reached
//! (file-I/O syscalls vs. load/store vs. device DMA — the paper's
//! `storage_type` in Listing 1), its capacity, and its first-order
//! performance parameters (read/write bandwidth and per-operation latency).

use northup_sim::{transfer_time, SimDur};
use std::fmt;

/// Physical technology of a memory/storage node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Rotating SATA disk (the paper's WD5000AAKX).
    Hdd,
    /// Flash SSD (the paper's HyperX Predator PCIe SSD).
    Ssd,
    /// Byte-addressable non-volatile memory (Optane-class).
    Nvm,
    /// Commodity DRAM.
    Dram,
    /// Die-stacked / high-bandwidth memory (HBM).
    StackedDram,
    /// Discrete-GPU device memory (GDDR/HBM behind PCIe).
    GpuDevice,
}

impl DeviceKind {
    /// The default software interface class for this technology.
    ///
    /// NVM is deliberately ambiguous: the paper (§II, §III-B) stresses that
    /// the *same* physical device can be mapped either as fast storage or as
    /// part of the physical address space, and that Northup's
    /// virtual-to-physical mapping can be reconfigured per use case. Use
    /// [`DeviceSpec::with_class`] to override.
    pub fn default_class(self) -> StorageClass {
        match self {
            DeviceKind::Hdd | DeviceKind::Ssd => StorageClass::File,
            DeviceKind::Nvm => StorageClass::File,
            DeviceKind::Dram | DeviceKind::StackedDram => StorageClass::Memory,
            DeviceKind::GpuDevice => StorageClass::Device,
        }
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceKind::Hdd => "hdd",
            DeviceKind::Ssd => "ssd",
            DeviceKind::Nvm => "nvm",
            DeviceKind::Dram => "dram",
            DeviceKind::StackedDram => "hbm",
            DeviceKind::GpuDevice => "gpumem",
        };
        f.write_str(s)
    }
}

/// How software reaches a node — the dispatch key of the unified data API
/// (paper Listing 4 switches on `FILE_TYPE` vs `MEM_TYPE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageClass {
    /// Reached through file I/O (open/seek/read/write on descriptors).
    File,
    /// Reached through plain loads/stores (malloc'd host memory).
    Memory,
    /// Reached through a device runtime (OpenCL buffers + DMA in the paper).
    Device,
}

impl fmt::Display for StorageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StorageClass::File => "file",
            StorageClass::Memory => "memory",
            StorageClass::Device => "device",
        })
    }
}

/// Static description of one memory/storage device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable name ("hyperx-predator").
    pub name: String,
    /// Technology.
    pub kind: DeviceKind,
    /// Software interface class (dispatch key for data movement).
    pub class: StorageClass,
    /// Usable capacity in bytes.
    pub capacity: u64,
    /// Sequential read bandwidth, bytes/s.
    pub read_bw: f64,
    /// Sequential write bandwidth, bytes/s.
    pub write_bw: f64,
    /// Per-operation read latency (seek/command overhead).
    pub read_latency: SimDur,
    /// Per-operation write latency.
    pub write_latency: SimDur,
}

impl DeviceSpec {
    /// Construct a spec with zero per-op latency.
    pub fn new(
        name: impl Into<String>,
        kind: DeviceKind,
        capacity: u64,
        read_bw: f64,
        write_bw: f64,
    ) -> Self {
        DeviceSpec {
            name: name.into(),
            kind,
            class: kind.default_class(),
            capacity,
            read_bw,
            write_bw,
            read_latency: SimDur::ZERO,
            write_latency: SimDur::ZERO,
        }
    }

    /// Override the storage class (e.g. map NVM as load/store memory instead
    /// of fast storage — the paper's reconfigurable virtual-to-physical
    /// mapping).
    pub fn with_class(mut self, class: StorageClass) -> Self {
        self.class = class;
        self
    }

    /// Set per-operation latencies.
    pub fn with_latency(mut self, read: SimDur, write: SimDur) -> Self {
        self.read_latency = read;
        self.write_latency = write;
        self
    }

    /// Time to read `len` bytes: the read latency plus `len` ÷ `read_bw`.
    /// The one read price of the model: `Runtime`'s file reads, a chain's
    /// root `Read` stage and [`CachedDevice`](crate::CachedDevice) call it.
    pub fn read_time(&self, len: u64) -> SimDur {
        transfer_time(len, self.read_bw, self.read_latency)
    }

    /// Time to write `len` bytes: the write latency plus `len` ÷
    /// `write_bw` (`Runtime`'s file writes and `CachedDevice`).
    pub fn write_time(&self, len: u64) -> SimDur {
        transfer_time(len, self.write_bw, self.write_latency)
    }

    /// Scale both bandwidths by `factor` (used for the variable-buffer-size
    /// effective-bandwidth degradation of CSR-Adaptive I/O, paper §V-B).
    pub fn scaled_bandwidth(mut self, factor: f64) -> Self {
        self.read_bw *= factor;
        self.write_bw *= factor;
        self
    }
}

/// Static description of a link between two levels (PCIe, on-chip bus, DMA).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Human-readable name ("pcie3-x16").
    pub name: String,
    /// Bandwidth in bytes/s (symmetric).
    pub bandwidth: f64,
    /// Per-transfer latency (submission + DMA setup).
    pub latency: SimDur,
}

impl LinkSpec {
    /// Construct a link spec.
    pub fn new(name: impl Into<String>, bandwidth: f64, latency: SimDur) -> Self {
        LinkSpec {
            name: name.into(),
            bandwidth,
            latency,
        }
    }

    /// Time to move `len` bytes over the link: its latency plus `len` ÷
    /// `bandwidth`, in either direction. `Runtime`'s link moves and a
    /// chain's `LinkDown` / `LinkUp` stages call it.
    pub fn hop_time(&self, len: u64) -> SimDur {
        transfer_time(len, self.bandwidth, self.latency)
    }
}

/// Convenience: megabytes/s to bytes/s (the unit the paper quotes SSD specs in).
pub const fn mb_s(mb: u64) -> f64 {
    (mb * 1_000_000) as f64
}

/// Convenience: gigabytes/s to bytes/s.
pub const fn gb_s(gb: u64) -> f64 {
    (gb * 1_000_000_000) as f64
}

/// Convenience: gibibytes to bytes.
pub const fn gib(n: u64) -> u64 {
    n * 1024 * 1024 * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_classes_match_paper_usage() {
        assert_eq!(DeviceKind::Hdd.default_class(), StorageClass::File);
        assert_eq!(DeviceKind::Ssd.default_class(), StorageClass::File);
        assert_eq!(DeviceKind::Dram.default_class(), StorageClass::Memory);
        assert_eq!(DeviceKind::GpuDevice.default_class(), StorageClass::Device);
    }

    #[test]
    fn nvm_can_be_remapped_as_memory() {
        let as_storage = DeviceSpec::new("optane", DeviceKind::Nvm, gib(512), gb_s(2), gb_s(1));
        assert_eq!(as_storage.class, StorageClass::File);
        let as_memory = as_storage.with_class(StorageClass::Memory);
        assert_eq!(as_memory.class, StorageClass::Memory);
        assert_eq!(as_memory.kind, DeviceKind::Nvm);
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(mb_s(1400), 1.4e9);
        assert_eq!(gb_s(12), 1.2e10);
        assert_eq!(gib(2), 2_147_483_648);
    }

    #[test]
    fn bandwidth_scaling() {
        let d =
            DeviceSpec::new("ssd", DeviceKind::Ssd, gib(1), 1000.0, 500.0).scaled_bandwidth(0.5);
        assert_eq!(d.read_bw, 500.0);
        assert_eq!(d.write_bw, 250.0);
    }
}
