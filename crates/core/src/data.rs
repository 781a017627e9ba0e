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
use northup_hw::{gather, BlockId, Dir, HwResult, StorageBackend, StorageClass};
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

/// Two distinct elements of one slice, both mutable.
fn pair_mut<T>(v: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// Where one side of a byte move starts and how far it advances per row.
#[derive(Clone, Copy)]
struct RowCursor {
    info: BufInfo,
    offset: u64,
    stride: u64,
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
            format_args!("alloc {size}B @{node}"),
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
            format_args!("release @{}", info.node),
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
    ///
    /// Bytes go from the source backend straight into the destination's
    /// storage, so a move that fails part-way (a device fault on either
    /// side) leaves the destination range **unspecified**. Its
    /// virtual-time charge stands and the buffers' dataflow state is
    /// untouched; a caller that retries must rewrite the whole range.
    pub fn move_data(
        &self,
        dst: BufferHandle,
        dst_off: u64,
        src: BufferHandle,
        src_off: u64,
        len: u64,
    ) -> Result<Served> {
        self.move_runs("move", dst, dst_off, 0, src, src_off, 0, len, 1)
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
    /// Real mode moves each run with one backend read and one write; a
    /// file backend holds runs shorter than a page and lands each
    /// contiguous stretch as one write, so core rows written back tile by
    /// tile reach the device as bands.
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
        self.move_runs(
            "move-strided",
            dst,
            dst_off,
            dst_stride,
            src,
            src_off,
            src_stride,
            row_len,
            rows,
        )
    }

    /// The one body of [`move_data`](Self::move_data) (one run, stride 0)
    /// and [`move_data_strided`](Self::move_data_strided): range checks,
    /// adjacency, the virtual-time charge, the real bytes, the buffers'
    /// dataflow state and the DAG record, labelled `kind`.
    #[allow(clippy::too_many_arguments)]
    fn move_runs(
        &self,
        kind: &str,
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
            let from = RowCursor {
                info: si,
                offset: src_off,
                stride: src_stride,
            };
            let to = RowCursor {
                info: di,
                offset: dst_off,
                stride: dst_stride,
            };
            self.move_rows(&mut g, from, to, row_len, rows)?;
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
            format_args!("{kind} {total}B {}->{}", si.node, di.node),
            Category::MemCopy,
            served.duration(),
            &[src],
            &[dst],
        );
        Ok(served)
    }

    /// The real byte movement of a (strided) move: per row, one read on the
    /// source backend and one write on the destination backend, with no
    /// staging copy in between. A file source reads straight into the
    /// bytes the destination lends out; any other source lends its own
    /// bytes to the destination's write.
    fn move_rows(
        &self,
        g: &mut RtInner,
        src: RowCursor,
        dst: RowCursor,
        row_len: u64,
        rows: u64,
    ) -> HwResult<()> {
        let (sb, db) = (src.info.block, dst.info.block);
        let (sn, dn) = (src.info.node.0, dst.info.node.0);
        if sn == dn {
            // One backend cannot lend and be filled at once.
            let backend = &mut g.backends[sn];
            let mut tmp = vec![0u8; row_len as usize];
            for r in 0..rows {
                backend.read(sb, src.offset + r * src.stride, &mut tmp)?;
                backend.write(db, dst.offset + r * dst.stride, &tmp)?;
            }
            return Ok(());
        }
        let src_is_file = self.tree().storage_class(src.info.node) == StorageClass::File;
        let (s, d): (&mut Box<dyn StorageBackend>, _) = pair_mut(&mut g.backends, sn, dn);
        for r in 0..rows {
            let (so, doff) = (src.offset + r * src.stride, dst.offset + r * dst.stride);
            if src_is_file {
                d.fill(db, doff, row_len, &mut |buf| s.read(sb, so, buf))?;
            } else {
                s.lend(&[(sb, so, row_len)], &mut |bytes| {
                    d.write(db, doff, bytes[0])
                })?;
            }
        }
        Ok(())
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
            let s = g.node_res[src_node.0].serve_for(ready, spec.read_time(len));
            g.io.record(&spec.name, Dir::Read, len);
            category = Category::FileIo;
            served = Some(s);
        }
        if dc == StorageClass::File {
            let spec = &tree.node(dst_node).mem;
            let start_ready = served.map(|s| s.end).unwrap_or(ready);
            let s = g.node_res[dst_node.0].serve_for(start_ready, spec.write_time(len));
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
                    // The edge's child end owns the link that is crossed.
                    let hop = if tree.parent(src_node) == Some(dst_node) {
                        src_node
                    } else {
                        dst_node
                    };
                    let spec = tree.node(hop).link.as_ref();
                    let spec = spec.filter(|_| tree.adjacent(src_node, dst_node));
                    let (Some(spec), Some(res)) = (spec, g.link_res[hop.0].as_mut()) else {
                        return Err(NorthupError::NotAdjacent(src_node, dst_node));
                    };
                    category = if sc == StorageClass::Device || dc == StorageClass::Device {
                        Category::DeviceTransfer
                    } else {
                        Category::MemCopy
                    };
                    res.serve_for(ready, spec.hop_time(len))
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

    /// Run `f` over several `(handle, offset, len)` byte ranges at once,
    /// in order, in place where their node holds them in memory
    /// (verification and leaf kernels — not charged; one backend read per
    /// range, like [`read_slice`](Self::read_slice)). Every range must lie
    /// on one node and is checked before any byte is lent. `f` runs under
    /// the runtime lock and must not call into this runtime.
    pub fn with_bytes(
        &self,
        ranges: &[(BufferHandle, u64, u64)],
        mut f: impl FnMut(&[&[u8]]),
    ) -> Result<()> {
        let mut g = self.inner.lock();
        let mut node = None;
        for &(h, offset, len) in ranges {
            let info = g.info(h)?;
            check_range(h, &info, offset, len)?;
            let expected = *node.get_or_insert(info.node);
            if info.node != expected {
                return Err(NorthupError::WrongNode {
                    actual: info.node,
                    expected,
                });
            }
        }
        let Some(node) = node else {
            f(&[]);
            return Ok(());
        };
        let inner = &mut *g;
        let blocks = ranges.iter().map(|&(h, offset, len)| {
            let info = inner
                .buffers
                .get(&h.0)
                .ok_or(NorthupError::UnknownBuffer(h))?;
            Ok((info.block, offset, len))
        });
        gather((BlockId(0), 0, 0), blocks, |blocks| {
            inner.backends[node.0].lend(blocks, &mut |parts| {
                f(parts);
                Ok(())
            })?;
            Ok(())
        })
    }

    /// Let `f` write the `len` bytes of `h` from `offset`, in place where
    /// its node holds them in memory — the write twin of
    /// [`with_bytes`](Self::with_bytes): host data into a buffer with no
    /// byte image beside it (not charged, like
    /// [`write_slice`](Self::write_slice); one backend `fill`, which on a
    /// file node is one write). The range is checked before `f` runs; `f`
    /// runs under the runtime lock and must not call into this runtime.
    pub fn fill(
        &self,
        h: BufferHandle,
        offset: u64,
        len: u64,
        mut f: impl FnMut(&mut [u8]),
    ) -> Result<()> {
        let mut g = self.inner.lock();
        let info = g.info(h)?;
        check_range(h, &info, offset, len)?;
        g.backends[info.node.0].fill(info.block, offset, len, &mut |bytes| {
            f(bytes);
            Ok(())
        })?;
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
    use northup_hw::{catalog, FaultOps, FaultyBackend, FileBackend, HeapBackend};
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
        let io = report
            .io
            .iter()
            .find(|(n, _)| n == "hyperx-predator")
            .unwrap()
            .1;
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
        let report = rt.report();
        let io = report
            .io
            .iter()
            .find(|(n, _)| n == "hyperx-predator")
            .unwrap()
            .1;
        assert_eq!((io.read_ops, io.bytes_read), (1, 4));
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

    /// Forwards the required methods only, so `lend`/`fill` are the trait
    /// defaults — the path an out-of-tree backend takes.
    struct DefaultsOnly(Box<dyn StorageBackend>);

    impl StorageBackend for DefaultsOnly {
        fn alloc(&mut self, size: u64) -> HwResult<BlockId> {
            self.0.alloc(size)
        }
        fn release(&mut self, block: BlockId) -> HwResult<()> {
            self.0.release(block)
        }
        fn read(&mut self, block: BlockId, offset: u64, dst: &mut [u8]) -> HwResult<()> {
            self.0.read(block, offset, dst)
        }
        fn write(&mut self, block: BlockId, offset: u64, src: &[u8]) -> HwResult<()> {
            self.0.write(block, offset, src)
        }
        fn size_of(&self, block: BlockId) -> HwResult<u64> {
            self.0.size_of(block)
        }
        fn used(&self) -> u64 {
            self.0.used()
        }
        fn capacity(&self) -> u64 {
            self.0.capacity()
        }
    }

    fn plain_backend(node: &crate::topology::Node) -> Box<dyn StorageBackend> {
        match node.mem.class {
            StorageClass::File => {
                Box::new(FileBackend::new(&node.mem.name, node.mem.capacity).unwrap())
            }
            _ => Box::new(HeapBackend::new(&node.mem.name, node.mem.capacity)),
        }
    }

    /// A root of one storage class with one child of another: the two
    /// nodes are adjacent, so every ordered class pair is a legal move.
    fn two_node_tree(root: StorageClass, child: StorageClass) -> crate::topology::Tree {
        let spec = |class, name: &str| {
            let mut s = match class {
                StorageClass::File => catalog::ssd_hyperx_predator(),
                StorageClass::Memory => catalog::dram_staging_2gb(),
                StorageClass::Device => catalog::gpu_devmem_4gb(),
            };
            s.name = name.into();
            s
        };
        let mut b = crate::topology::TreeBuilder::new(spec(root, "root"));
        b.add_child(NodeId(0), spec(child, "child"), catalog::dram_dma_link());
        b.build()
    }

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(13).wrapping_add(salt))
            .collect()
    }

    fn contents(rt: &Runtime, h: BufferHandle, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        rt.read_slice(h, 0, &mut out).unwrap();
        out
    }

    /// `move_data`, `move_data_strided` and `with_bytes` against a plain
    /// `Vec<u8>` model, over every source × destination storage-class
    /// pair (adjacent nodes and same-node), with the built-in backends
    /// and with backends that only have the trait's default `lend`/`fill`.
    #[test]
    fn moves_agree_with_a_vec_model_for_every_class_pair() {
        use StorageClass::{Device, File, Memory};
        const SIZE: usize = 512;
        // (src offset, dst offset, length): whole buffer, interior,
        // single byte at the end, zero-length inside and at the end.
        let spans = [
            (0, 0, SIZE),
            (31, 200, 77),
            (511, 0, 1),
            (9, 9, 0),
            (512, 512, 0),
        ];
        // (src offset, src stride, dst offset, dst stride, row length, rows):
        // gather, scatter, overlapping-free repack, zero rows, zero-length rows.
        let grids = [
            (5, 32, 0, 8, 8, 16),
            (0, 4, 3, 50, 4, 10),
            (100, 10, 100, 10, 10, 20),
            (0, 7, 0, 7, 3, 0),
            (0, 7, 0, 7, 0, 5),
        ];
        for root in [File, Memory, Device] {
            for child in [File, Memory, Device] {
                for defaults_only in [false, true] {
                    let factory = |node: &crate::topology::Node| {
                        defaults_only.then(|| {
                            Box::new(DefaultsOnly(plain_backend(node))) as Box<dyn StorageBackend>
                        })
                    };
                    let rt = Runtime::with_custom_backends(
                        two_node_tree(root, child),
                        ExecMode::Real,
                        crate::runtime::SetupCosts::default(),
                        &factory,
                    )
                    .unwrap();
                    // Down, up, and on each node alone.
                    for (sn, dn) in [(0, 1), (1, 0), (0, 0), (1, 1)] {
                        let case =
                            format!("{root:?}/{child:?} n{sn}->n{dn} defaults={defaults_only}");
                        let src = rt.alloc(SIZE as u64, NodeId(sn)).unwrap();
                        let dst = rt.alloc(SIZE as u64, NodeId(dn)).unwrap();
                        let src_model = pattern(SIZE, 1);
                        let mut dst_model = pattern(SIZE, 99);
                        rt.write_slice(src, 0, &src_model).unwrap();
                        rt.write_slice(dst, 0, &dst_model).unwrap();

                        for &(so, doff, len) in &spans {
                            rt.move_data(dst, doff as u64, src, so as u64, len as u64)
                                .unwrap_or_else(|e| panic!("{case}: {e}"));
                            dst_model[doff..doff + len].copy_from_slice(&src_model[so..so + len]);
                            assert_eq!(
                                contents(&rt, dst, SIZE),
                                dst_model,
                                "{case} {so},{doff},{len}"
                            );
                        }
                        for &(so, ss, doff, ds, row, rows) in &grids {
                            rt.move_data_strided(
                                dst,
                                doff as u64,
                                ds as u64,
                                src,
                                so as u64,
                                ss as u64,
                                row as u64,
                                rows as u64,
                            )
                            .unwrap_or_else(|e| panic!("{case}: {e}"));
                            for r in 0..rows {
                                let (s, d) = (so + r * ss, doff + r * ds);
                                dst_model[d..d + row].copy_from_slice(&src_model[s..s + row]);
                            }
                            assert_eq!(
                                contents(&rt, dst, SIZE),
                                dst_model,
                                "{case} strided {row}x{rows}"
                            );
                        }
                        assert_eq!(contents(&rt, src, SIZE), src_model, "{case}: source intact");

                        for &(so, _, len) in &spans {
                            let mut seen = None;
                            rt.with_bytes(&[(dst, so as u64, len as u64)], |b| {
                                seen = Some(b.concat())
                            })
                            .unwrap();
                            assert_eq!(seen.as_deref(), Some(&dst_model[so..so + len]), "{case}");
                        }
                        // One loan of several ranges: two overlapping ranges
                        // of one buffer, an empty one, and where both buffers
                        // share a node, the source too (five ranges, more
                        // than are gathered on the stack).
                        let mut ranges =
                            vec![(dst, 31, 77), (dst, 0, 512), (dst, 40, 0), (dst, 60, 9)];
                        let mut want = vec![
                            &dst_model[31..108],
                            &dst_model[..],
                            &dst_model[40..40],
                            &dst_model[60..69],
                        ];
                        if sn == dn {
                            ranges.push((src, 5, 100));
                            want.push(&src_model[5..105]);
                        }
                        let mut seen = Vec::new();
                        rt.with_bytes(&ranges, |parts| {
                            seen = parts.iter().map(|p| p.to_vec()).collect()
                        })
                        .unwrap();
                        assert_eq!(seen, want, "{case}");
                        rt.release(src).unwrap();
                        rt.release(dst).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn with_bytes_rejects_bad_ranges_and_dead_handles_before_lending() {
        let rt = rt();
        for node in [rt.tree().root(), NodeId(1)] {
            let h = rt.alloc(10, node).unwrap();
            let other = rt.alloc(10, node).unwrap();
            let mut called = false;
            assert!(matches!(
                rt.with_bytes(&[(h, 8, 4)], |_| called = true),
                Err(NorthupError::BadRange {
                    offset: 8,
                    len: 4,
                    size: 10,
                    ..
                })
            ));
            assert!(matches!(
                rt.with_bytes(&[(h, u64::MAX, 2)], |_| called = true),
                Err(NorthupError::BadRange { .. })
            ));
            // A bad range anywhere in the list refuses the whole loan.
            assert!(matches!(
                rt.with_bytes(&[(other, 0, 10), (h, 0, 4), (h, 9, 2)], |_| called = true),
                Err(NorthupError::BadRange { offset: 9, .. })
            ));
            rt.release(h).unwrap();
            assert!(matches!(
                rt.with_bytes(&[(h, 0, 1)], |_| called = true),
                Err(NorthupError::UnknownBuffer(_))
            ));
            assert!(matches!(
                rt.with_bytes(&[(other, 0, 1), (h, 0, 1)], |_| called = true),
                Err(NorthupError::UnknownBuffer(_))
            ));
            assert!(!called);
            rt.release(other).unwrap();
        }
        // Every range of one loan lives on one node.
        let (file, mem) = (
            rt.alloc(8, rt.tree().root()).unwrap(),
            rt.alloc(8, NodeId(1)).unwrap(),
        );
        let mut called = false;
        assert!(matches!(
            rt.with_bytes(&[(file, 0, 8), (mem, 0, 8)], |_| called = true),
            Err(NorthupError::WrongNode {
                actual: NodeId(1),
                expected: NodeId(0),
            })
        ));
        assert!(!called);
        // No range at all lends nothing, once.
        let mut calls = Vec::new();
        rt.with_bytes(&[], |parts| calls.push(parts.len())).unwrap();
        assert_eq!(calls, [0]);
    }

    #[test]
    fn a_fill_lands_in_place_on_a_heap_node() {
        let rt = rt();
        let h = rt.alloc(16, NodeId(1)).unwrap();
        rt.write_slice(h, 0, &[1u8; 16]).unwrap();
        rt.fill(h, 4, 8, |bytes| {
            assert_eq!(bytes, [1u8; 8], "the node's own bytes are lent");
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = 10 + i as u8;
            }
        })
        .unwrap();
        let mut out = [0u8; 16];
        rt.read_slice(h, 0, &mut out).unwrap();
        assert_eq!(
            out,
            [1, 1, 1, 1, 10, 11, 12, 13, 14, 15, 16, 17, 1, 1, 1, 1]
        );
    }

    #[test]
    fn a_fill_on_a_file_node_is_visible_to_read_slice() {
        let rt = rt();
        // A sub-page fill is one write `FileBackend` holds; a whole page
        // goes straight to the file. Both read back.
        for len in [100u64, 8 << 10] {
            let h = rt.alloc(len + 8, rt.tree().root()).unwrap();
            rt.fill(h, 8, len, |bytes| {
                for (i, b) in bytes.iter_mut().enumerate() {
                    *b = (i % 251) as u8;
                }
            })
            .unwrap();
            let mut out = vec![0xffu8; (len + 8) as usize];
            rt.read_slice(h, 0, &mut out).unwrap();
            assert_eq!(out[..8], [0u8; 8], "{len}");
            assert!(out[8..]
                .iter()
                .enumerate()
                .all(|(i, &b)| b == (i % 251) as u8));
            rt.release(h).unwrap();
        }
    }

    #[test]
    fn a_fill_rejects_bad_ranges_and_dead_handles_before_writing() {
        let rt = rt();
        for node in [rt.tree().root(), NodeId(1)] {
            let h = rt.alloc(10, node).unwrap();
            let mut called = false;
            assert!(matches!(
                rt.fill(h, 8, 4, |_| called = true),
                Err(NorthupError::BadRange {
                    offset: 8,
                    len: 4,
                    size: 10,
                    ..
                })
            ));
            assert!(matches!(
                rt.fill(h, u64::MAX, 2, |_| called = true),
                Err(NorthupError::BadRange { .. })
            ));
            rt.release(h).unwrap();
            assert!(matches!(
                rt.fill(h, 0, 1, |_| called = true),
                Err(NorthupError::UnknownBuffer(_))
            ));
            assert!(!called);
        }
    }

    #[test]
    fn a_zero_length_fill_changes_nothing() {
        let rt = rt();
        for node in [rt.tree().root(), NodeId(1)] {
            let h = rt.alloc(8, node).unwrap();
            rt.write_slice(h, 0, &[3u8; 8]).unwrap();
            for offset in [0, 5, 8] {
                rt.fill(h, offset, 0, |bytes| assert!(bytes.is_empty()))
                    .unwrap();
            }
            let mut out = [0u8; 8];
            rt.read_slice(h, 0, &mut out).unwrap();
            assert_eq!(out, [3u8; 8]);
            rt.release(h).unwrap();
        }
    }

    /// Both nodes of the APU tree behind fault injectors: `root_ops` on
    /// the file root, `dram_ops` on the staging node, each failing every
    /// `every`-th matching operation.
    fn faulty_rt(root_ops: FaultOps, dram_ops: FaultOps, every: u64) -> Runtime {
        let factory = move |node: &crate::topology::Node| -> Option<Box<dyn StorageBackend>> {
            let (name, cap) = (&node.mem.name, node.mem.capacity);
            Some(if node.id == NodeId(0) {
                let file = FileBackend::new(name, cap).unwrap();
                Box::new(FaultyBackend::new(file, root_ops, every))
            } else {
                Box::new(FaultyBackend::new(
                    HeapBackend::new(name, cap),
                    dram_ops,
                    every,
                ))
            })
        };
        Runtime::with_custom_backends(
            presets::apu_two_level(catalog::ssd_hyperx_predator()),
            ExecMode::Real,
            crate::runtime::SetupCosts::default(),
            &factory,
        )
        .unwrap()
    }

    #[test]
    fn one_move_is_one_source_read_and_one_destination_write() {
        use FaultOps::{Reads, Writes};
        let failures = |rt: &Runtime, down: bool, strided: bool| -> Vec<bool> {
            let file = rt.alloc(64, NodeId(0)).unwrap();
            let mem = rt.alloc(64, NodeId(1)).unwrap();
            let (dst, src) = if down { (mem, file) } else { (file, mem) };
            (0..6)
                .map(|_| {
                    if strided {
                        rt.move_data_strided(dst, 0, 16, src, 0, 16, 8, 2).is_err()
                    } else {
                        rt.move_data(dst, 0, src, 0, 64).is_err()
                    }
                })
                .collect()
        };
        let third = [false, false, true, false, false, true];
        // Two rows are two operations a side; a tripped row ends the move,
        // so moves 2, 4, 6 hold operations 3, 6, 9.
        let strided_third = [false, true, false, true, false, true];
        let never = [false; 6];
        for down in [true, false] {
            // Injectors on both nodes, so whichever is the source counts
            // reads and whichever is the destination counts writes.
            assert_eq!(failures(&faulty_rt(Reads, Reads, 3), down, false), third);
            assert_eq!(failures(&faulty_rt(Writes, Writes, 3), down, false), third);
            assert_eq!(
                failures(&faulty_rt(Reads, Reads, 3), down, true),
                strided_third
            );
            assert_eq!(
                failures(&faulty_rt(Writes, Writes, 3), down, true),
                strided_third
            );
        }
        // A move never writes its source or reads its destination.
        assert_eq!(failures(&faulty_rt(Writes, Reads, 1), true, false), never);
        assert_eq!(failures(&faulty_rt(Reads, Writes, 1), false, false), never);
        // `with_bytes` is one read per range.
        let rt = faulty_rt(Reads, Reads, 2);
        let h = rt.alloc(8, NodeId(1)).unwrap();
        let seen: Vec<bool> = (0..4)
            .map(|_| rt.with_bytes(&[(h, 0, 8)], |_| {}).is_err())
            .collect();
        assert_eq!(seen, [false, true, false, true]);
        let rt = faulty_rt(Reads, Reads, 3);
        let h = rt.alloc(8, NodeId(1)).unwrap();
        let seen: Vec<bool> = (0..4)
            .map(|_| rt.with_bytes(&[(h, 0, 4), (h, 4, 4)], |_| {}).is_err())
            .collect();
        // Ordinals 1-2, 3 (tripped), 4-5, 6 (tripped).
        assert_eq!(seen, [false, true, false, true]);
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
