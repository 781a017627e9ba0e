//! The unified data-management interface (paper Table I, Listing 4).
//!
//! All buffers, regardless of which device holds them, are referred to by
//! the same opaque [`BufferHandle`] — the Rust-safe counterpart of the
//! paper's `void *` ("the key is that all buffers are associated with the
//! same opaque type for portability"). `alloc` on a file-type node creates
//! a real file; on memory/device nodes it takes heap storage. `move_data`
//! examines the storage classes of the two tree nodes involved and
//! internally dispatches to the right mechanism — file I/O, DMA memcpy, or
//! a device transfer over the connecting link — exactly Listing 4's switch
//! on `fetch_node_type`.
//!
//! Every operation is also scheduled in virtual time with dataflow
//! dependencies:
//!
//! * a buffer's `ready_at` is when its current content exists;
//! * its `last_read_end` is when its last consumer finishes (WAR hazard);
//! * an operation starts at the max of its dependencies and is served FIFO
//!   by the hardware resource it uses.
//!
//! Reusing a small ring of staging buffers therefore produces exactly the
//! bounded-capacity pipelining of the paper's multi-stage task queues:
//! chunk `i+1`'s load overlaps chunk `i`'s compute, but only as far as
//! staging capacity allows.

use crate::error::{NorthupError, Result};
use crate::runtime::{ExecMode, RtInner, Runtime};
use crate::topology::{NodeId, ProcKind};
use northup_hw::{BlockId, Dir, StorageClass};
use northup_sim::{transfer_time, Category, Served, SimDur, SimTime};

/// Opaque reference to an allocation on some tree node (the paper's
/// `void *` made type- and lifetime-safe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferHandle(pub(crate) u64);

/// Runtime-internal buffer bookkeeping.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BufInfo {
    pub node: NodeId,
    pub block: BlockId,
    pub size: u64,
    /// Virtual time at which the buffer's current content is fully written.
    pub ready_at: SimTime,
    /// Virtual time at which the last read of this buffer completes.
    pub last_read_end: SimTime,
}

fn check_range(h: BufferHandle, info: &BufInfo, offset: u64, len: u64) -> Result<()> {
    if offset.checked_add(len).is_none_or(|end| end > info.size) {
        return Err(NorthupError::BadRange {
            buffer: h,
            offset,
            len,
            size: info.size,
        });
    }
    Ok(())
}

impl RtInner {
    fn info(&self, h: BufferHandle) -> Result<BufInfo> {
        self.buffers
            .get(&h.0)
            .copied()
            .ok_or(NorthupError::UnknownBuffer(h))
    }
}

impl Runtime {
    /// Table I: `alloc(size, tree_node)` — allocate space on a memory or
    /// storage node. On file-class nodes this creates a real scratch file;
    /// fresh allocations read as zeros everywhere.
    pub fn alloc(&self, size: u64, node: NodeId) -> Result<BufferHandle> {
        self.tree().try_node(node)?;
        let class = self.tree().storage_class(node);
        let cost = self.setup_costs().alloc(class);
        let mut g = self.inner.lock();
        let lease = g.lease.clone();
        if let Some(lease) = &lease {
            lease
                .try_charge(node, size)
                .map_err(|remaining| NorthupError::LeaseExceeded {
                    node,
                    requested: size,
                    remaining,
                })?;
        }
        let block = match g.backends[node.0].alloc(size) {
            Ok(block) => block,
            Err(e) => {
                if let Some(lease) = &lease {
                    lease.credit(node, size);
                }
                return Err(NorthupError::Hw(e));
            }
        };
        let served = g.node_res[node.0].serve_for(SimTime::ZERO, cost);
        g.timeline.record(
            served.start,
            served.end,
            Category::BufferSetup,
            format!("alloc {size}B @{node}"),
        );
        let h = BufferHandle(g.next_handle);
        g.next_handle += 1;
        g.buffers.insert(
            h.0,
            BufInfo {
                node,
                block,
                size,
                ready_at: served.end,
                last_read_end: served.end,
            },
        );
        if let Some(lease) = lease {
            g.charged.insert(h.0, lease);
        }
        g.dag_record(
            &format!("alloc {size}B @{node}"),
            Category::BufferSetup,
            served.duration(),
            &[],
            &[h],
        );
        Ok(h)
    }

    /// Table I: `release(ptr)` — free the storage behind a handle. Waits (in
    /// virtual time) for the buffer's outstanding uses.
    pub fn release(&self, h: BufferHandle) -> Result<()> {
        let mut g = self.inner.lock();
        let info = g.info(h)?;
        let class = self.tree().storage_class(info.node);
        let cost = self.setup_costs().release(class);
        let ready = info.ready_at.max(info.last_read_end);
        let served = g.node_res[info.node.0].serve_for(ready, cost);
        g.timeline.record(
            served.start,
            served.end,
            Category::BufferSetup,
            format!("release @{}", info.node),
        );
        g.dag_record(
            &format!("release @{}", info.node),
            Category::BufferSetup,
            served.duration(),
            &[h],
            &[],
        );
        g.backends[info.node.0].release(info.block)?;
        g.buffers.remove(&h.0);
        if let Some(lease) = g.charged.remove(&h.0) {
            lease.credit(info.node, info.size);
        }
        Ok(())
    }

    /// The tree node a buffer lives on.
    pub fn buffer_node(&self, h: BufferHandle) -> Result<NodeId> {
        Ok(self.inner.lock().info(h)?.node)
    }

    /// A buffer's size in bytes.
    pub fn buffer_size(&self, h: BufferHandle) -> Result<u64> {
        Ok(self.inner.lock().info(h)?.size)
    }

    /// Table I: `move_data(dst, src, size, offset, dst_tree_node,
    /// src_tree_node)` — move `len` bytes between two buffers on the same
    /// node or on adjacent tree nodes. The dispatch on storage classes
    /// (file I/O vs memcpy vs device transfer) is internal.
    pub fn move_data(
        &self,
        dst: BufferHandle,
        dst_off: u64,
        src: BufferHandle,
        src_off: u64,
        len: u64,
    ) -> Result<Served> {
        let mut g = self.inner.lock();
        let si = g.info(src)?;
        let di = g.info(dst)?;
        check_range(src, &si, src_off, len)?;
        check_range(dst, &di, dst_off, len)?;

        if si.node != di.node && !self.tree().adjacent(si.node, di.node) {
            return Err(NorthupError::NotAdjacent(si.node, di.node));
        }

        let ready = si.ready_at.max(di.ready_at).max(di.last_read_end);
        let served = self.schedule_transfer(&mut g, si.node, di.node, len, ready)?;

        // Real byte movement (skipped in Modeled mode).
        if self.mode() == ExecMode::Real && len > 0 {
            let mut tmp = vec![0u8; len as usize];
            g.backends[si.node.0].read(si.block, src_off, &mut tmp)?;
            g.backends[di.node.0].write(di.block, dst_off, &tmp)?;
        }

        let s = g
            .buffers
            .get_mut(&src.0)
            .ok_or(NorthupError::UnknownBuffer(src))?;
        s.last_read_end = s.last_read_end.max(served.end);
        let d = g
            .buffers
            .get_mut(&dst.0)
            .ok_or(NorthupError::UnknownBuffer(dst))?;
        d.ready_at = served.end;
        d.last_read_end = d.last_read_end.max(served.end);
        g.dag_record(
            &format!("move {len}B {}->{}", si.node, di.node),
            Category::MemCopy,
            served.duration(),
            &[src],
            &[dst],
        );
        Ok(served)
    }

    /// Table I: `move_data_down(dst, src, size, offset, i)` — `src` must
    /// live on `parent`, `dst` on one of its children.
    pub fn move_data_down(
        &self,
        parent: NodeId,
        dst: BufferHandle,
        dst_off: u64,
        src: BufferHandle,
        src_off: u64,
        len: u64,
    ) -> Result<Served> {
        let sn = self.buffer_node(src)?;
        let dn = self.buffer_node(dst)?;
        if sn != parent {
            return Err(NorthupError::WrongNode {
                actual: sn,
                expected: parent,
            });
        }
        if self.tree().parent(dn) != Some(parent) {
            return Err(NorthupError::NotAdjacent(parent, dn));
        }
        self.move_data(dst, dst_off, src, src_off, len)
    }

    /// Table I: `move_data_up(dst, src, size, offset)` — `src` must live on
    /// a child of the node holding `dst`.
    pub fn move_data_up(
        &self,
        child: NodeId,
        dst: BufferHandle,
        dst_off: u64,
        src: BufferHandle,
        src_off: u64,
        len: u64,
    ) -> Result<Served> {
        let sn = self.buffer_node(src)?;
        let dn = self.buffer_node(dst)?;
        if sn != child {
            return Err(NorthupError::WrongNode {
                actual: sn,
                expected: child,
            });
        }
        if self.tree().parent(child) != Some(dn) {
            return Err(NorthupError::NotAdjacent(child, dn));
        }
        self.move_data(dst, dst_off, src, src_off, len)
    }

    /// Strided variant of [`move_data`](Self::move_data): move `rows` runs
    /// of `row_len` bytes, advancing the source offset by `src_stride` and
    /// the destination offset by `dst_stride` per run. Used for rectangular
    /// sub-blocks of row-major matrices (HotSpot halo regions, GEMM column
    /// shards). Charged as one transfer of `rows * row_len` bytes — the
    /// paper's border *packing* keeps the device-visible I/O contiguous.
    #[allow(clippy::too_many_arguments)]
    pub fn move_data_strided(
        &self,
        dst: BufferHandle,
        dst_off: u64,
        dst_stride: u64,
        src: BufferHandle,
        src_off: u64,
        src_stride: u64,
        row_len: u64,
        rows: u64,
    ) -> Result<Served> {
        let mut g = self.inner.lock();
        let si = g.info(src)?;
        let di = g.info(dst)?;
        if rows > 0 {
            let src_span = src_stride
                .checked_mul(rows - 1)
                .and_then(|v| v.checked_add(row_len))
                .ok_or(NorthupError::BadRange {
                    buffer: src,
                    offset: src_off,
                    len: u64::MAX,
                    size: si.size,
                })?;
            let dst_span = dst_stride
                .checked_mul(rows - 1)
                .and_then(|v| v.checked_add(row_len))
                .ok_or(NorthupError::BadRange {
                    buffer: dst,
                    offset: dst_off,
                    len: u64::MAX,
                    size: di.size,
                })?;
            check_range(src, &si, src_off, src_span)?;
            check_range(dst, &di, dst_off, dst_span)?;
        }

        if si.node != di.node && !self.tree().adjacent(si.node, di.node) {
            return Err(NorthupError::NotAdjacent(si.node, di.node));
        }

        // A zero stride lets any `rows` pass the span checks above.
        let total = row_len.checked_mul(rows).ok_or(NorthupError::BadRange {
            buffer: dst,
            offset: dst_off,
            len: u64::MAX,
            size: di.size,
        })?;
        let ready = si.ready_at.max(di.ready_at).max(di.last_read_end);
        let served = self.schedule_transfer(&mut g, si.node, di.node, total, ready)?;

        if self.mode() == ExecMode::Real && total > 0 {
            let mut tmp = vec![0u8; row_len as usize];
            for r in 0..rows {
                g.backends[si.node.0].read(si.block, src_off + r * src_stride, &mut tmp)?;
                g.backends[di.node.0].write(di.block, dst_off + r * dst_stride, &tmp)?;
            }
        }

        let s = g
            .buffers
            .get_mut(&src.0)
            .ok_or(NorthupError::UnknownBuffer(src))?;
        s.last_read_end = s.last_read_end.max(served.end);
        let d = g
            .buffers
            .get_mut(&dst.0)
            .ok_or(NorthupError::UnknownBuffer(dst))?;
        d.ready_at = served.end;
        d.last_read_end = d.last_read_end.max(served.end);
        g.dag_record(
            &format!("move-strided {}B {}->{}", total, si.node, di.node),
            Category::MemCopy,
            served.duration(),
            &[src],
            &[dst],
        );
        Ok(served)
    }

    /// Schedule the virtual-time service of a transfer and record it. The
    /// dispatch table of Listing 4:
    ///
    /// | src, dst classes        | mechanism / resource         | category |
    /// |-------------------------|------------------------------|----------|
    /// | file -> X               | read on the file device      | FileIo   |
    /// | X -> file               | write on the file device     | FileIo   |
    /// | device on either side   | DMA over the connecting link | DeviceTransfer |
    /// | memory <-> memory       | memcpy/DMA (link or device)  | MemCopy  |
    fn schedule_transfer(
        &self,
        g: &mut RtInner,
        src_node: NodeId,
        dst_node: NodeId,
        len: u64,
        ready: SimTime,
    ) -> Result<Served> {
        let tree = self.tree();
        let sc = tree.storage_class(src_node);
        let dc = tree.storage_class(dst_node);
        let label = format!("{src_node}->{dst_node} {len}B");

        // File endpoints dominate the dispatch: the storage device is the
        // bottleneck and the I/O tracker must see the bytes.
        let mut served: Option<Served> = None;
        let mut category = Category::MemCopy;

        if sc == StorageClass::File {
            let spec = &tree.node(src_node).mem;
            let dur = transfer_time(len, spec.read_bw, spec.read_latency);
            let s = g.node_res[src_node.0].serve_for(ready, dur);
            g.io.record(&spec.name, Dir::Read, len);
            category = Category::FileIo;
            served = Some(s);
        }
        if dc == StorageClass::File {
            let spec = &tree.node(dst_node).mem;
            let dur = transfer_time(len, spec.write_bw, spec.write_latency);
            let start_ready = served.map(|s| s.end).unwrap_or(ready);
            let s = g.node_res[dst_node.0].serve_for(start_ready, dur);
            g.io.record(&spec.name, Dir::Write, len);
            category = Category::FileIo;
            served = Some(match served {
                Some(first) => Served {
                    start: first.start,
                    end: s.end,
                },
                None => s,
            });
        }

        let served = match served {
            Some(s) => s,
            None => {
                // No file endpoint: link transfer (or intra-node copy).
                if src_node == dst_node {
                    let spec = &tree.node(src_node).mem;
                    // Read + write pass over the same device.
                    let dur = transfer_time(2 * len, spec.read_bw, SimDur::ZERO);
                    category = match sc {
                        StorageClass::Device => Category::DeviceTransfer,
                        _ => Category::MemCopy,
                    };
                    g.node_res[src_node.0].serve_for(ready, dur)
                } else {
                    let link = g.link_res[src_node.0]
                        .is_some()
                        .then_some(src_node)
                        .filter(|&n| tree.parent(n) == Some(dst_node))
                        .or_else(|| (tree.parent(dst_node) == Some(src_node)).then_some(dst_node))
                        .ok_or(NorthupError::NotAdjacent(src_node, dst_node))?;
                    category = if sc == StorageClass::Device || dc == StorageClass::Device {
                        Category::DeviceTransfer
                    } else {
                        Category::MemCopy
                    };
                    let res = g.link_res[link.0]
                        .as_mut()
                        .ok_or(NorthupError::NotAdjacent(src_node, dst_node))?;
                    res.serve_bytes(ready, len)
                }
            }
        };

        g.timeline.record(served.start, served.end, category, label);
        Ok(served)
    }

    /// Inject host data into a buffer (preprocessing — not charged to the
    /// measured run, like the paper's one-time input reorganization, §V-B).
    pub fn write_slice(&self, h: BufferHandle, offset: u64, data: &[u8]) -> Result<()> {
        let mut g = self.inner.lock();
        let info = g.info(h)?;
        check_range(h, &info, offset, data.len() as u64)?;
        g.backends[info.node.0].write(info.block, offset, data)?;
        Ok(())
    }

    /// Extract buffer contents to the host (verification — not charged).
    pub fn read_slice(&self, h: BufferHandle, offset: u64, out: &mut [u8]) -> Result<()> {
        let mut g = self.inner.lock();
        let info = g.info(h)?;
        check_range(h, &info, offset, out.len() as u64)?;
        g.backends[info.node.0].read(info.block, offset, out)?;
        Ok(())
    }

    /// Charge a leaf computation of duration `dur` on the processor of
    /// `kind` attached to `node`, reading `reads` and producing `writes`.
    /// Returns the scheduled interval.
    pub fn charge_compute(
        &self,
        node: NodeId,
        kind: ProcKind,
        dur: SimDur,
        reads: &[BufferHandle],
        writes: &[BufferHandle],
        label: &str,
    ) -> Result<Served> {
        let pi = self.proc_index(node, kind)?;
        let mut g = self.inner.lock();
        let mut ready = SimTime::ZERO;
        for &h in reads {
            ready = ready.max(g.info(h)?.ready_at);
        }
        for &h in writes {
            let info = g.info(h)?;
            ready = ready.max(info.ready_at).max(info.last_read_end);
        }
        let served = g.proc_res[node.0][pi].serve_for(ready, dur);
        let category = match kind {
            ProcKind::Cpu => Category::CpuCompute,
            ProcKind::Gpu | ProcKind::Fpga => Category::GpuCompute,
        };
        g.timeline.record(served.start, served.end, category, label);
        for &h in reads {
            let b = g
                .buffers
                .get_mut(&h.0)
                .ok_or(NorthupError::UnknownBuffer(h))?;
            b.last_read_end = b.last_read_end.max(served.end);
        }
        for &h in writes {
            let b = g
                .buffers
                .get_mut(&h.0)
                .ok_or(NorthupError::UnknownBuffer(h))?;
            b.ready_at = served.end;
            b.last_read_end = b.last_read_end.max(served.end);
        }
        g.dag_record(label, category, served.duration(), reads, writes);
        Ok(served)
    }

    /// Available capacity on a node — the quantity blocking-size decisions
    /// read ("by examining the capacity and usage, a program can decide the
    /// blocking size", §III-B).
    pub fn available(&self, node: NodeId) -> u64 {
        self.inner.lock().backends[node.0].available()
    }

    /// Used bytes on a node.
    pub fn used(&self, node: NodeId) -> u64 {
        self.inner.lock().backends[node.0].used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use northup_hw::catalog;
    use northup_sim::Category;

    fn rt() -> Runtime {
        Runtime::new(
            presets::apu_two_level(catalog::ssd_hyperx_predator()),
            ExecMode::Real,
        )
        .unwrap()
    }

    #[test]
    fn alloc_move_release_roundtrip() {
        let rt = rt();
        let root = rt.tree().root(); // SSD (file)
        let dram = NodeId(1);
        let a = rt.alloc(64, root).unwrap();
        let b = rt.alloc(64, dram).unwrap();
        rt.write_slice(a, 0, &[7u8; 64]).unwrap();
        rt.move_data(b, 0, a, 0, 64).unwrap();
        let mut out = [0u8; 64];
        rt.read_slice(b, 0, &mut out).unwrap();
        assert_eq!(out, [7u8; 64]);
        rt.release(a).unwrap();
        rt.release(b).unwrap();
        assert_eq!(rt.used(root), 0);
        assert_eq!(rt.used(dram), 0);
    }

    #[test]
    fn file_moves_are_charged_as_io_and_tracked() {
        let rt = rt();
        let a = rt.alloc(1_000_000, rt.tree().root()).unwrap();
        let b = rt.alloc(1_000_000, NodeId(1)).unwrap();
        rt.move_data(b, 0, a, 0, 1_000_000).unwrap(); // storage -> DRAM: read
        rt.move_data(a, 0, b, 0, 1_000_000).unwrap(); // DRAM -> storage: write
        let report = rt.report();
        assert!(report.breakdown.get(Category::FileIo) > SimDur::ZERO);
        let io = rt.io_totals("hyperx-predator");
        assert_eq!(io.bytes_read, 1_000_000);
        assert_eq!(io.bytes_written, 1_000_000);
        // Read at 1400 MB/s is faster than write at 600 MB/s.
        let t_read = 1e6 / 1.4e9;
        let t_write = 1e6 / 0.6e9;
        let io_busy = report.breakdown.get(Category::FileIo).as_secs_f64();
        let expect = t_read
            + t_write
            + catalog::ssd_hyperx_predator().read_latency.as_secs_f64()
            + catalog::ssd_hyperx_predator().write_latency.as_secs_f64();
        assert!((io_busy - expect).abs() < 1e-6, "{io_busy} vs {expect}");
    }

    #[test]
    fn non_adjacent_moves_are_rejected() {
        let tree = presets::discrete_gpu_three_level(catalog::ssd_hyperx_predator());
        let rt = Runtime::new(tree, ExecMode::Real).unwrap();
        let a = rt.alloc(16, NodeId(0)).unwrap();
        let c = rt.alloc(16, NodeId(2)).unwrap();
        match rt.move_data(c, 0, a, 0, 16) {
            Err(NorthupError::NotAdjacent(x, y)) => {
                assert_eq!((x, y), (NodeId(0), NodeId(2)));
            }
            other => panic!("expected NotAdjacent, got {other:?}"),
        }
    }

    #[test]
    fn device_transfers_use_the_link_and_category() {
        let tree = presets::discrete_gpu_three_level(catalog::hdd_wd5000());
        let rt = Runtime::new(tree, ExecMode::Real).unwrap();
        let dram = rt.alloc(1 << 20, NodeId(1)).unwrap();
        let dev = rt.alloc(1 << 20, NodeId(2)).unwrap();
        rt.move_data(dev, 0, dram, 0, 1 << 20).unwrap();
        let report = rt.report();
        assert!(report.breakdown.get(Category::DeviceTransfer) > SimDur::ZERO);
        assert_eq!(report.breakdown.get(Category::FileIo), SimDur::ZERO);
    }

    #[test]
    fn pipelining_overlaps_io_and_compute() {
        // Two staging buffers: load(1) || compute(0) must overlap, so the
        // makespan is less than the serial sum.
        let rt = rt();
        let root = rt.tree().root();
        let dram = NodeId(1);
        let size = 100_000_000u64; // 100 MB => ~71 ms read
        let src = rt.alloc(2 * size, root).unwrap();
        let s0 = rt.alloc(size, dram).unwrap();
        let s1 = rt.alloc(size, dram).unwrap();
        let compute = SimDur::from_millis(70);

        rt.move_data(s0, 0, src, 0, size).unwrap();
        rt.charge_compute(dram, ProcKind::Gpu, compute, &[s0], &[s0], "k0")
            .unwrap();
        rt.move_data(s1, 0, src, size, size).unwrap();
        let done = rt
            .charge_compute(dram, ProcKind::Gpu, compute, &[s1], &[s1], "k1")
            .unwrap();

        let serial = 2.0 * (size as f64 / 1.4e9) + 2.0 * compute.as_secs_f64();
        let got = done.end.as_secs_f64();
        assert!(
            got < serial - 0.05,
            "pipelined {got:.3}s should beat serial {serial:.3}s"
        );
    }

    #[test]
    fn war_hazard_serializes_buffer_reuse() {
        // One staging buffer: the second load must wait for the first
        // compute to finish reading it.
        let rt = rt();
        let root = rt.tree().root();
        let dram = NodeId(1);
        let size = 10_000_000u64;
        let src = rt.alloc(2 * size, root).unwrap();
        let s = rt.alloc(size, dram).unwrap();
        let compute = SimDur::from_millis(50);

        rt.move_data(s, 0, src, 0, size).unwrap();
        let k0 = rt
            .charge_compute(dram, ProcKind::Gpu, compute, &[s], &[], "k0")
            .unwrap();
        let load2 = rt.move_data(s, 0, src, size, size).unwrap();
        assert!(
            load2.start >= k0.end,
            "overwrite at {} must wait for reader until {}",
            load2.start,
            k0.end
        );
    }

    #[test]
    fn modeled_mode_moves_no_bytes_but_charges_time() {
        let rt = Runtime::new(
            presets::apu_two_level(catalog::ssd_hyperx_predator()),
            ExecMode::Modeled,
        )
        .unwrap();
        // 4 GiB "allocation" is fine in modeled mode.
        let a = rt.alloc(4 << 30, rt.tree().root()).unwrap();
        let b = rt.alloc(1 << 30, NodeId(1)).unwrap();
        rt.move_data(b, 0, a, 0, 1 << 30).unwrap();
        let t = rt.report().breakdown.get(Category::FileIo).as_secs_f64();
        assert!((t - (1u64 << 30) as f64 / 1.4e9).abs() < 1e-3, "{t}");
    }

    #[test]
    fn bad_ranges_and_unknown_buffers_error() {
        let rt = rt();
        let a = rt.alloc(10, rt.tree().root()).unwrap();
        let b = rt.alloc(10, NodeId(1)).unwrap();
        assert!(matches!(
            rt.move_data(b, 8, a, 0, 4),
            Err(NorthupError::BadRange { .. })
        ));
        rt.release(a).unwrap();
        assert!(matches!(
            rt.move_data(b, 0, a, 0, 1),
            Err(NorthupError::UnknownBuffer(_))
        ));
    }

    #[test]
    fn move_down_and_up_validate_direction() {
        let rt = rt();
        let root = rt.tree().root();
        let dram = NodeId(1);
        let top = rt.alloc(32, root).unwrap();
        let bot = rt.alloc(32, dram).unwrap();
        rt.move_data_down(root, bot, 0, top, 0, 32).unwrap();
        rt.move_data_up(dram, top, 0, bot, 0, 32).unwrap();
        // Wrong direction: src not on the stated parent.
        assert!(matches!(
            rt.move_data_down(dram, bot, 0, top, 0, 32),
            Err(NorthupError::WrongNode { .. })
        ));
    }

    #[test]
    fn strided_move_extracts_a_sub_block() {
        let rt = rt();
        let root = rt.tree().root();
        let dram = NodeId(1);
        // A 4x4 byte matrix on storage; pull the center 2x2.
        let src = rt.alloc(16, root).unwrap();
        let grid: Vec<u8> = (0..16).collect();
        rt.write_slice(src, 0, &grid).unwrap();
        let dst = rt.alloc(4, dram).unwrap();
        rt.move_data_strided(dst, 0, 2, src, 5, 4, 2, 2).unwrap();
        let mut out = [0u8; 4];
        rt.read_slice(dst, 0, &mut out).unwrap();
        assert_eq!(out, [5, 6, 9, 10]);
        // Charged as one 4-byte file read.
        assert_eq!(rt.io_totals("hyperx-predator").read_ops, 1);
        assert_eq!(rt.io_totals("hyperx-predator").bytes_read, 4);
    }

    #[test]
    fn strided_move_rejects_overrun() {
        let rt = rt();
        let src = rt.alloc(16, rt.tree().root()).unwrap();
        let dst = rt.alloc(4, NodeId(1)).unwrap();
        // Last run would read bytes 13..17.
        assert!(matches!(
            rt.move_data_strided(dst, 0, 2, src, 5, 4, 2, 3),
            Err(NorthupError::BadRange { .. })
        ));
        // Zero strides keep both spans in range; the byte total wraps u64.
        let rt = Runtime::new(
            presets::apu_two_level(catalog::ssd_hyperx_predator()),
            ExecMode::Modeled,
        )
        .unwrap();
        let src = rt.alloc(1 << 33, rt.tree().root()).unwrap();
        let dst = rt.alloc(1 << 33, rt.tree().root()).unwrap();
        assert!(matches!(
            rt.move_data_strided(dst, 0, 0, src, 0, 0, 1 << 33, 1 << 33),
            Err(NorthupError::BadRange { .. })
        ));
    }

    #[test]
    fn capacity_accounting_via_available() {
        let rt = rt();
        let dram = NodeId(1);
        let before = rt.available(dram);
        let h = rt.alloc(1 << 20, dram).unwrap();
        assert_eq!(rt.available(dram), before - (1 << 20));
        rt.release(h).unwrap();
        assert_eq!(rt.available(dram), before);
    }

    #[test]
    fn compute_requires_matching_processor() {
        let tree = presets::discrete_gpu_three_level(catalog::hdd_wd5000());
        let rt = Runtime::new(tree, ExecMode::Real).unwrap();
        // GPU is on node 2, not node 1.
        assert!(matches!(
            rt.charge_compute(
                NodeId(1),
                ProcKind::Gpu,
                SimDur::from_millis(1),
                &[],
                &[],
                "x"
            ),
            Err(NorthupError::NoProcessor(_))
        ));
        rt.charge_compute(
            NodeId(1),
            ProcKind::Cpu,
            SimDur::from_millis(1),
            &[],
            &[],
            "x",
        )
        .unwrap();
    }
}
