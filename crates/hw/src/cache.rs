//! Transparent block caching — the alternative Northup argues against.
//!
//! Paper §VI ("Northup for HPC"): "NVMs (e.g., SSDs) are usually treated as
//! a general-purpose caching layer or burst buffer between compute nodes
//! and storages. However, this may only be efficient for a subset of
//! workloads with a high degree of reuse."
//!
//! [`CachedDevice`] models that baseline: a fast device (SSD) acting as an
//! LRU block cache in front of a slow one (HDD), with write-through
//! semantics. Reads hit (fast read) or miss (slow read + fast fill + fast
//! read). The comparison scenarios in `northup-bench` pit it against
//! Northup's explicitly managed two-level hierarchy: streaming workloads
//! thrash the cache and pay the fill overhead for nothing; high-reuse
//! working sets that fit the cache approach pure-SSD speed.

use crate::spec::DeviceSpec;
use northup_sim::{Resource, Served, SimTime};
use std::collections::{BTreeMap, HashMap};

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Block accesses served from the cache.
    pub hits: u64,
    /// Block accesses that went to the slow device.
    pub misses: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; zero when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An LRU set of cached block indices.
#[derive(Debug, Default)]
struct Lru {
    /// block index -> recency stamp
    map: HashMap<u64, u64>,
    /// recency stamp -> block index (oldest first)
    order: BTreeMap<u64, u64>,
    next_stamp: u64,
}

impl Lru {
    fn touch(&mut self, block: u64) -> bool {
        let present = if let Some(&old) = self.map.get(&block) {
            self.order.remove(&old);
            true
        } else {
            false
        };
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.map.insert(block, stamp);
        self.order.insert(stamp, block);
        present
    }

    fn evict_oldest(&mut self) -> Option<u64> {
        let (&stamp, &block) = self.order.iter().next()?;
        self.order.remove(&stamp);
        self.map.remove(&block);
        Some(block)
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// A slow device fronted by a transparent fast LRU block cache.
pub struct CachedDevice {
    fast: DeviceSpec,
    slow: DeviceSpec,
    fast_res: Resource,
    slow_res: Resource,
    block: u64,
    capacity_blocks: usize,
    lru: Lru,
    stats: CacheStats,
}

impl CachedDevice {
    /// Build a cache of `cache_bytes` in `block`-sized units of `fast` in
    /// front of `slow`.
    pub fn new(fast: DeviceSpec, slow: DeviceSpec, block: u64, cache_bytes: u64) -> Self {
        assert!(block > 0);
        let capacity_blocks = (cache_bytes / block).max(1) as usize;
        CachedDevice {
            fast_res: Resource::new_compute(),
            slow_res: Resource::new_compute(),
            fast,
            slow,
            block,
            capacity_blocks,
            lru: Lru::default(),
            stats: CacheStats::default(),
        }
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Read `[offset, offset + len)`; returns the service interval.
    pub fn read(&mut self, ready: SimTime, offset: u64, len: u64) -> Served {
        let start_blk = offset / self.block;
        let end_blk = (offset + len).div_ceil(self.block).max(start_blk + 1);
        let mut t = ready;
        let first_start = None::<SimTime>;
        let mut first = first_start;
        for blk in start_blk..end_blk {
            let served = if self.lru.touch(blk) {
                self.stats.hits += 1;
                // Hit: fast read of one block.
                self.fast_res.serve_for(t, self.fast.read_time(self.block))
            } else {
                self.stats.misses += 1;
                if self.lru.len() > self.capacity_blocks {
                    self.lru.evict_oldest();
                    self.stats.evictions += 1;
                }
                // Miss: slow read, then fill + read on the fast device.
                let s = self.slow_res.serve_for(t, self.slow.read_time(self.block));
                let fill = self.fast.write_time(self.block) + self.fast.read_time(self.block);
                self.fast_res.serve_for(s.end, fill)
            };
            first = first.or(Some(served.start));
            t = served.end;
        }
        Served {
            start: first.unwrap_or(ready),
            end: t,
        }
    }

    /// Write-through write of `[offset, offset + len)`.
    pub fn write(&mut self, ready: SimTime, offset: u64, len: u64) -> Served {
        let start_blk = offset / self.block;
        let end_blk = (offset + len).div_ceil(self.block).max(start_blk + 1);
        let mut t = ready;
        let mut first = None::<SimTime>;
        for blk in start_blk..end_blk {
            if self.lru.touch(blk) {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
                if self.lru.len() > self.capacity_blocks {
                    self.lru.evict_oldest();
                    self.stats.evictions += 1;
                }
            }
            let fast = self.fast_res.serve_for(t, self.fast.write_time(self.block));
            let slow = self
                .slow_res
                .serve_for(fast.end, self.slow.write_time(self.block));
            first = first.or(Some(fast.start));
            t = slow.end;
        }
        Served {
            start: first.unwrap_or(ready),
            end: t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn dev(cache_mb: u64) -> CachedDevice {
        CachedDevice::new(
            catalog::ssd_hyperx_predator(),
            catalog::hdd_wd5000(),
            1 << 20, // 1 MiB blocks
            cache_mb << 20,
        )
    }

    #[test]
    fn repeated_reads_hit() {
        let mut d = dev(64);
        d.read(SimTime::ZERO, 0, 8 << 20);
        assert_eq!(d.stats().misses, 8);
        let t0 = d.read(SimTime::ZERO, 0, 8 << 20);
        assert_eq!(d.stats().hits, 8);
        // Second pass is fast: pure SSD reads.
        let ssd_time = 8.0 * ((1 << 20) as f64 / 1.4e9 + 60e-6);
        assert!((t0.duration().as_secs_f64() - ssd_time).abs() < 1e-4);
    }

    #[test]
    fn streaming_beyond_capacity_thrashes() {
        let mut d = dev(16); // 16 MiB cache
                             // Two passes over a 64 MiB stream: everything evicted before reuse.
        for _ in 0..2 {
            for mb in 0..64u64 {
                d.read(SimTime::ZERO, mb << 20, 1 << 20);
            }
        }
        let s = d.stats();
        assert_eq!(s.hits, 0, "{s:?}");
        assert_eq!(s.misses, 128);
        assert!(s.evictions > 90);
    }

    #[test]
    fn working_set_within_capacity_converges_to_all_hits() {
        let mut d = dev(64);
        for pass in 0..4 {
            for mb in 0..32u64 {
                d.read(SimTime::ZERO, mb << 20, 1 << 20);
            }
            if pass == 0 {
                assert_eq!(d.stats().misses, 32);
            }
        }
        let s = d.stats();
        assert_eq!(s.misses, 32, "only the cold pass misses");
        assert_eq!(s.hits, 96);
        assert!(s.hit_rate() > 0.74);
    }

    #[test]
    fn lru_evicts_the_oldest_block() {
        let mut d = CachedDevice::new(
            catalog::ssd_hyperx_predator(),
            catalog::hdd_wd5000(),
            1 << 20,
            2 << 20, // 2 blocks
        );
        d.read(SimTime::ZERO, 0 << 20, 1 << 20); // block 0
        d.read(SimTime::ZERO, 1 << 20, 1 << 20); // block 1
        d.read(SimTime::ZERO, 0, 1 << 20); // touch 0 (hit)
        d.read(SimTime::ZERO, 2 << 20, 1 << 20); // block 2: evicts 1
        d.read(SimTime::ZERO, 0, 1 << 20); // 0 still cached
        let s = d.stats();
        assert_eq!(s.hits, 2, "{s:?}");
        d.read(SimTime::ZERO, 1 << 20, 1 << 20); // 1 was evicted: miss
        assert_eq!(d.stats().misses, 4);
    }

    #[test]
    fn miss_costs_more_than_hit() {
        let mut d = dev(64);
        let miss = d.read(SimTime::ZERO, 0, 1 << 20);
        let hit = d.read(miss.end, 0, 1 << 20);
        assert!(miss.duration().as_secs_f64() > 3.0 * hit.duration().as_secs_f64());
    }

    #[test]
    fn writes_are_write_through() {
        let mut d = dev(64);
        let w = d.write(SimTime::ZERO, 0, 1 << 20);
        // Write-through pays the slow device's write bandwidth.
        assert!(w.duration().as_secs_f64() > (1 << 20) as f64 / 125e6 * 0.9);
        // But the block is now cached for reads.
        d.read(w.end, 0, 1 << 20);
        assert_eq!(d.stats().hits, 1);
    }

    #[test]
    fn unaligned_reads_touch_all_spanned_blocks() {
        let mut d = dev(64);
        // 1.5 MiB starting mid-block spans 3 blocks.
        d.read(SimTime::ZERO, 512 << 10, 3 << 19);
        assert_eq!(d.stats().misses, 2);
    }
}
