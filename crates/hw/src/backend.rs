//! Storage backends holding the actual bytes behind each tree node.
//!
//! The paper's unified interface hides *how* a node is reached: `alloc()` on
//! a file-type node opens a file and later reads/writes go through
//! seek+read/write syscalls, while memory-type nodes are plain heap buffers
//! and device-type nodes are runtime-managed buffers (Listing 4). We keep
//! that structure:
//!
//! * [`HeapBackend`] — heap `Vec<u8>` blocks (DRAM, HBM, and simulated GPU
//!   device memory all hold real bytes here).
//! * [`FileBackend`] — one *real* file per allocation in a managed scratch
//!   directory, accessed with positioned read/write exactly like the paper's
//!   `file_write(fd, buf, count, offset)` wrapper.
//! * [`PhantomBackend`] — capacity accounting only, for paper-scale modeled
//!   runs (a 32k x 32k float matrix is 4 GiB; we simulate its timing without
//!   materializing it).
//!
//! Every backend enforces its device capacity, which is what drives the
//! runtime's chunk-size decisions ("by examining the capacity and usage, a
//! program can decide the blocking size", §III-B).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors from storage backends.
#[derive(Debug)]
pub enum HwError {
    /// Allocation would exceed the device capacity.
    OutOfCapacity {
        /// Device name.
        device: String,
        /// Bytes requested.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
    /// The block id is unknown (never allocated or already released).
    InvalidBlock(BlockId),
    /// An access runs past the end of the block.
    OutOfBounds {
        /// Block accessed.
        block: BlockId,
        /// Offset of the access.
        offset: u64,
        /// Length of the access.
        len: u64,
        /// Size of the block.
        size: u64,
    },
    /// Underlying OS I/O failure (file backends).
    Io(io::Error),
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::OutOfCapacity {
                device,
                requested,
                available,
            } => write!(
                f,
                "device '{device}' out of capacity: requested {requested} B, available {available} B"
            ),
            HwError::InvalidBlock(b) => write!(f, "invalid block {b:?}"),
            HwError::OutOfBounds {
                block,
                offset,
                len,
                size,
            } => write!(
                f,
                "access [{offset}, {offset}+{len}) out of bounds for block {block:?} of size {size}"
            ),
            HwError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for HwError {}

impl From<io::Error> for HwError {
    fn from(e: io::Error) -> Self {
        HwError::Io(e)
    }
}

/// Result alias for backend operations.
pub type HwResult<T> = Result<T, HwError>;

/// Opaque identifier of one allocation within a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(pub u64);

/// Common interface of all storage backends.
pub trait StorageBackend: Send {
    /// Allocate `size` bytes; contents read as zero until written.
    fn alloc(&mut self, size: u64) -> HwResult<BlockId>;
    /// Release an allocation.
    fn release(&mut self, block: BlockId) -> HwResult<()>;
    /// Read `dst.len()` bytes starting at `offset`.
    fn read(&mut self, block: BlockId, offset: u64, dst: &mut [u8]) -> HwResult<()>;
    /// Write `src` starting at `offset`. The bytes are visible to every
    /// later read; a backend may hold them and land them later, and the
    /// I/O error of a held write surfaces at the call that lands it.
    fn write(&mut self, block: BlockId, offset: u64, src: &[u8]) -> HwResult<()>;
    /// Size of a block.
    fn size_of(&self, block: BlockId) -> HwResult<u64>;
    /// Bytes currently allocated.
    fn used(&self) -> u64;
    /// Total capacity in bytes.
    fn capacity(&self) -> u64;
    /// Bytes still available.
    fn available(&self) -> u64 {
        self.capacity().saturating_sub(self.used())
    }
    /// Lend each `(block, offset, len)` of `ranges` to one call of `f`,
    /// in order: one read per range. A backend that holds its blocks in
    /// memory passes slices of the blocks themselves; the default reads
    /// the ranges into one temporary. Every range is checked before any
    /// byte is lent.
    fn lend(
        &mut self,
        ranges: &[(BlockId, u64, u64)],
        f: &mut dyn FnMut(&[&[u8]]) -> HwResult<()>,
    ) -> HwResult<()> {
        let mut total = 0u64;
        for &(block, offset, len) in ranges {
            let size = self.size_of(block)?;
            check_bounds(block, offset, len, size)?;
            total = total.checked_add(len).ok_or(HwError::OutOfBounds {
                block,
                offset,
                len,
                size,
            })?;
        }
        let mut tmp = vec![0u8; total as usize];
        let mut rest = &mut tmp[..];
        for &(block, offset, len) in ranges {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(len as usize);
            self.read(block, offset, head)?;
            rest = tail;
        }
        let mut rest = &tmp[..];
        let parts = ranges.iter().map(|&(_, _, len)| {
            let (head, tail) = rest.split_at(len as usize);
            rest = tail;
            Ok(head)
        });
        gather(&[][..], parts, f)
    }
    /// Let `f` fill `len` bytes of `block` starting at `offset`: one
    /// write. A backend that holds its blocks in memory passes a slice of
    /// the block itself, so an `f` that fails part-way leaves that range
    /// unspecified; the default fills a temporary and writes it only when
    /// `f` succeeded.
    fn fill(
        &mut self,
        block: BlockId,
        offset: u64,
        len: u64,
        f: &mut dyn FnMut(&mut [u8]) -> HwResult<()>,
    ) -> HwResult<()> {
        check_bounds(block, offset, len, self.size_of(block)?)?;
        let mut tmp = vec![0u8; len as usize];
        f(&mut tmp)?;
        self.write(block, offset, &tmp)
    }
}

/// Calls `f` once with the items of `items` as one slice, gathered on the
/// stack when there are at most four (so a one-range loan allocates
/// nothing); `blank` fills the unused stack slots. The first error ends
/// the gather, and `f` is then not called.
pub fn gather<T: Copy, R, E>(
    blank: T,
    items: impl ExactSizeIterator<Item = Result<T, E>>,
    f: impl FnOnce(&[T]) -> Result<R, E>,
) -> Result<R, E> {
    const INLINE: usize = 4;
    if items.len() > INLINE {
        let all = items.collect::<Result<Vec<T>, E>>()?;
        return f(&all);
    }
    let mut inline = [blank; INLINE];
    let mut n = 0;
    for (slot, item) in inline.iter_mut().zip(items) {
        *slot = item?;
        n += 1;
    }
    f(&inline[..n])
}

fn check_bounds(block: BlockId, offset: u64, len: u64, size: u64) -> HwResult<()> {
    if offset.checked_add(len).is_none_or(|end| end > size) {
        return Err(HwError::OutOfBounds {
            block,
            offset,
            len,
            size,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Heap backend
// ---------------------------------------------------------------------------

/// Heap-buffer backend for memory- and device-class nodes.
pub struct HeapBackend {
    name: String,
    capacity: u64,
    used: u64,
    next: u64,
    blocks: HashMap<u64, Vec<u8>>,
}

impl HeapBackend {
    /// Create a heap backend with the given capacity.
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        HeapBackend {
            name: name.into(),
            capacity,
            used: 0,
            next: 0,
            blocks: HashMap::new(),
        }
    }

    /// `len` bytes of `block` from `offset`, where they lie.
    fn slice(&self, block: BlockId, offset: u64, len: u64) -> HwResult<&[u8]> {
        let buf = self
            .blocks
            .get(&block.0)
            .ok_or(HwError::InvalidBlock(block))?;
        check_bounds(block, offset, len, buf.len() as u64)?;
        let o = offset as usize;
        Ok(&buf[o..o + len as usize])
    }
}

impl StorageBackend for HeapBackend {
    fn alloc(&mut self, size: u64) -> HwResult<BlockId> {
        if size > self.available() {
            return Err(HwError::OutOfCapacity {
                device: self.name.clone(),
                requested: size,
                available: self.available(),
            });
        }
        let id = self.next;
        self.next += 1;
        self.blocks.insert(id, vec![0u8; size as usize]);
        self.used += size;
        Ok(BlockId(id))
    }

    fn release(&mut self, block: BlockId) -> HwResult<()> {
        let buf = self
            .blocks
            .remove(&block.0)
            .ok_or(HwError::InvalidBlock(block))?;
        self.used -= buf.len() as u64;
        Ok(())
    }

    fn read(&mut self, block: BlockId, offset: u64, dst: &mut [u8]) -> HwResult<()> {
        dst.copy_from_slice(self.slice(block, offset, dst.len() as u64)?);
        Ok(())
    }

    fn write(&mut self, block: BlockId, offset: u64, src: &[u8]) -> HwResult<()> {
        self.fill(block, offset, src.len() as u64, &mut |bytes| {
            bytes.copy_from_slice(src);
            Ok(())
        })
    }

    fn lend(
        &mut self,
        ranges: &[(BlockId, u64, u64)],
        f: &mut dyn FnMut(&[&[u8]]) -> HwResult<()>,
    ) -> HwResult<()> {
        let parts = ranges
            .iter()
            .map(|&(block, offset, len)| self.slice(block, offset, len));
        gather(&[][..], parts, f)
    }

    fn fill(
        &mut self,
        block: BlockId,
        offset: u64,
        len: u64,
        f: &mut dyn FnMut(&mut [u8]) -> HwResult<()>,
    ) -> HwResult<()> {
        let buf = self
            .blocks
            .get_mut(&block.0)
            .ok_or(HwError::InvalidBlock(block))?;
        check_bounds(block, offset, len, buf.len() as u64)?;
        let o = offset as usize;
        f(&mut buf[o..o + len as usize])
    }

    fn size_of(&self, block: BlockId) -> HwResult<u64> {
        self.blocks
            .get(&block.0)
            .map(|b| b.len() as u64)
            .ok_or(HwError::InvalidBlock(block))
    }

    fn used(&self) -> u64 {
        self.used
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }
}

// ---------------------------------------------------------------------------
// File backend
// ---------------------------------------------------------------------------

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// File backend for storage-class nodes: one real file per allocation in a
/// private scratch directory (removed on drop). Mirrors the paper's resource
/// management: "Alloc() allocates space on the disk drive by generating a
/// file ... we maintain a list of file names" (§III-D).
///
/// A write shorter than a page is held back: the held writes of one
/// block merge into runs in file-offset order, and each contiguous run
/// lands as one positioned write — so a strided move's rows reach the
/// device as the band they tile, the contiguous I/O the paper's border
/// packing keeps (§IV-B). Held writes land before a read of their block,
/// a write to another block or over a held range, and before they would
/// pass a fixed bound; `release` drops them. Writes of a page or more go
/// straight to the file.
pub struct FileBackend {
    name: String,
    dir: PathBuf,
    capacity: u64,
    used: u64,
    next: u64,
    files: HashMap<u64, (File, u64)>,
    held: Option<Held>,
}

/// Writes shorter than this (a page) are held.
const HOLD_BELOW: usize = 4 << 10;
/// Held bytes never pass this bound.
const HOLD_MAX: usize = 4 << 20;

/// The held writes of one block: disjoint, non-adjacent runs keyed by
/// their file offset.
struct Held {
    block: u64,
    runs: BTreeMap<u64, Vec<u8>>,
    bytes: usize,
}

impl Held {
    /// Whether a held run overlaps `[offset, end)`. Runs are disjoint, so
    /// only the last one starting before `end` can.
    fn overlaps(&self, offset: u64, end: u64) -> bool {
        let last = self.runs.range(..end).next_back();
        last.is_some_and(|(&at, run)| at + run.len() as u64 > offset)
    }

    /// Hold `src` at `offset` (overlapping nothing held), merged with the
    /// runs it touches.
    fn hold(&mut self, offset: u64, src: &[u8]) {
        let next = self.runs.remove(&(offset + src.len() as u64));
        let next = next.as_deref().unwrap_or_default();
        self.bytes += src.len();
        match self.runs.range_mut(..offset).next_back() {
            Some((&at, run)) if at + run.len() as u64 == offset => {
                run.extend_from_slice(src);
                run.extend_from_slice(next);
            }
            _ => {
                self.runs.insert(offset, [src, next].concat());
            }
        }
    }
}

impl FileBackend {
    /// Create a file backend with a fresh scratch directory under the OS
    /// temp dir.
    pub fn new(name: impl Into<String>, capacity: u64) -> HwResult<Self> {
        let name = name.into();
        let id = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "northup-{}-{}-{}",
            std::process::id(),
            name.replace(['/', ' '], "_"),
            id
        ));
        fs::create_dir_all(&dir)?;
        Ok(FileBackend {
            name,
            dir,
            capacity,
            used: 0,
            next: 0,
            files: HashMap::new(),
            held: None,
        })
    }

    fn file(&self, block: BlockId) -> HwResult<&File> {
        self.files
            .get(&block.0)
            .map(|(file, _)| file)
            .ok_or(HwError::InvalidBlock(block))
    }

    fn holds(&self, block: BlockId) -> bool {
        self.held.as_ref().is_some_and(|h| h.block == block.0)
    }

    /// Land the held writes, one positioned write per run. Nothing stays
    /// held, even when one fails.
    fn land(&mut self) -> HwResult<()> {
        let Some(held) = self.held.take() else {
            return Ok(());
        };
        let file = self.file(BlockId(held.block))?;
        for (&offset, run) in &held.runs {
            write_at(file, offset, run)?;
        }
        Ok(())
    }
}

impl Drop for FileBackend {
    fn drop(&mut self) {
        self.files.clear(); // close handles before removing
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[cfg(unix)]
fn read_at(f: &File, offset: u64, dst: &mut [u8]) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    f.read_exact_at(dst, offset)
}

#[cfg(unix)]
fn write_at(f: &File, offset: u64, src: &[u8]) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    f.write_all_at(src, offset)
}

#[cfg(not(unix))]
fn read_at(mut f: &File, offset: u64, dst: &mut [u8]) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(dst)
}

#[cfg(not(unix))]
fn write_at(mut f: &File, offset: u64, src: &[u8]) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(src)
}

impl StorageBackend for FileBackend {
    fn alloc(&mut self, size: u64) -> HwResult<BlockId> {
        if size > self.available() {
            return Err(HwError::OutOfCapacity {
                device: self.name.clone(),
                requested: size,
                available: self.available(),
            });
        }
        let id = self.next;
        self.next += 1;
        let path = self.dir.join(format!("blk-{id}.bin"));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        file.set_len(size)?; // sparse: reads back as zeros
        self.files.insert(id, (file, size));
        self.used += size;
        Ok(BlockId(id))
    }

    fn release(&mut self, block: BlockId) -> HwResult<()> {
        let (_, size) = self
            .files
            .remove(&block.0)
            .ok_or(HwError::InvalidBlock(block))?;
        self.used -= size;
        if self.holds(block) {
            self.held = None;
        }
        let _ = fs::remove_file(self.dir.join(format!("blk-{}.bin", block.0)));
        Ok(())
    }

    fn read(&mut self, block: BlockId, offset: u64, dst: &mut [u8]) -> HwResult<()> {
        check_bounds(block, offset, dst.len() as u64, self.size_of(block)?)?;
        if self.holds(block) {
            self.land()?;
        }
        read_at(self.file(block)?, offset, dst)?;
        Ok(())
    }

    fn write(&mut self, block: BlockId, offset: u64, src: &[u8]) -> HwResult<()> {
        check_bounds(block, offset, src.len() as u64, self.size_of(block)?)?;
        let (len, end) = (src.len(), offset + src.len() as u64);
        let hold = (1..HOLD_BELOW).contains(&len);
        if self.held.as_ref().is_some_and(|h| {
            h.block != block.0 || h.overlaps(offset, end) || (hold && h.bytes + len > HOLD_MAX)
        }) {
            self.land()?;
        }
        if hold {
            let held = self.held.get_or_insert_with(|| Held {
                block: block.0,
                runs: BTreeMap::new(),
                bytes: 0,
            });
            held.hold(offset, src);
        } else {
            write_at(self.file(block)?, offset, src)?;
        }
        Ok(())
    }

    fn size_of(&self, block: BlockId) -> HwResult<u64> {
        self.files
            .get(&block.0)
            .map(|(_, s)| *s)
            .ok_or(HwError::InvalidBlock(block))
    }

    fn used(&self) -> u64 {
        self.used
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }
}

// ---------------------------------------------------------------------------
// Phantom backend
// ---------------------------------------------------------------------------

/// Capacity-accounting-only backend for modeled (paper-scale) runs.
///
/// Reads fill the destination with zeros so modeled runs stay deterministic;
/// writes validate bounds and are otherwise dropped.
pub struct PhantomBackend {
    name: String,
    capacity: u64,
    used: u64,
    next: u64,
    sizes: HashMap<u64, u64>,
}

impl PhantomBackend {
    /// Create a phantom backend with the given capacity.
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        PhantomBackend {
            name: name.into(),
            capacity,
            used: 0,
            next: 0,
            sizes: HashMap::new(),
        }
    }
}

impl StorageBackend for PhantomBackend {
    fn alloc(&mut self, size: u64) -> HwResult<BlockId> {
        if size > self.available() {
            return Err(HwError::OutOfCapacity {
                device: self.name.clone(),
                requested: size,
                available: self.available(),
            });
        }
        let id = self.next;
        self.next += 1;
        self.sizes.insert(id, size);
        self.used += size;
        Ok(BlockId(id))
    }

    fn release(&mut self, block: BlockId) -> HwResult<()> {
        let size = self
            .sizes
            .remove(&block.0)
            .ok_or(HwError::InvalidBlock(block))?;
        self.used -= size;
        Ok(())
    }

    fn read(&mut self, block: BlockId, offset: u64, dst: &mut [u8]) -> HwResult<()> {
        let size = *self
            .sizes
            .get(&block.0)
            .ok_or(HwError::InvalidBlock(block))?;
        check_bounds(block, offset, dst.len() as u64, size)?;
        dst.fill(0);
        Ok(())
    }

    fn write(&mut self, block: BlockId, offset: u64, src: &[u8]) -> HwResult<()> {
        let size = *self
            .sizes
            .get(&block.0)
            .ok_or(HwError::InvalidBlock(block))?;
        check_bounds(block, offset, src.len() as u64, size)
    }

    fn size_of(&self, block: BlockId) -> HwResult<u64> {
        self.sizes
            .get(&block.0)
            .copied()
            .ok_or(HwError::InvalidBlock(block))
    }

    fn used(&self) -> u64 {
        self.used
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultOps, FaultyBackend};

    fn roundtrip(b: &mut dyn StorageBackend) {
        let before = b.used();
        let blk = b.alloc(64).unwrap();
        assert_eq!(b.size_of(blk).unwrap(), 64);
        assert_eq!(b.used(), before + 64);
        b.write(blk, 8, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        b.read(blk, 8, &mut out).unwrap();
        // Phantom backends drop writes; heap/file must round-trip.
        b.release(blk).unwrap();
        assert_eq!(b.used(), before);
    }

    #[test]
    fn heap_roundtrip_and_zero_init() {
        let mut b = HeapBackend::new("dram", 1024);
        let blk = b.alloc(16).unwrap();
        let mut out = [9u8; 16];
        b.read(blk, 0, &mut out).unwrap();
        assert_eq!(out, [0u8; 16], "fresh allocation reads as zeros");
        b.write(blk, 4, &[7, 7]).unwrap();
        b.read(blk, 0, &mut out).unwrap();
        assert_eq!(&out[4..6], &[7, 7]);
        roundtrip(&mut b);
    }

    #[test]
    fn file_backend_uses_real_files() {
        let mut b = FileBackend::new("ssd", 4096).unwrap();
        let blk = b.alloc(128).unwrap();
        let path = b.dir.join("blk-0.bin");
        assert!(path.exists(), "allocation creates a real file");
        b.write(blk, 100, &[0xAB; 28]).unwrap();
        let mut out = [0u8; 28];
        b.read(blk, 100, &mut out).unwrap();
        assert_eq!(out, [0xAB; 28]);
        // Sparse region reads back zeros.
        let mut head = [1u8; 10];
        b.read(blk, 0, &mut head).unwrap();
        assert_eq!(head, [0u8; 10]);
    }

    #[test]
    fn file_backend_scratch_removed_on_drop() {
        let dir;
        {
            let mut b = FileBackend::new("ssd", 4096).unwrap();
            b.alloc(16).unwrap();
            dir = b.dir.clone();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "scratch dir cleaned up");
    }

    #[test]
    fn capacity_enforced() {
        let mut b = HeapBackend::new("small", 100);
        let a = b.alloc(60).unwrap();
        match b.alloc(60) {
            Err(HwError::OutOfCapacity {
                requested,
                available,
                ..
            }) => {
                assert_eq!(requested, 60);
                assert_eq!(available, 40);
            }
            other => panic!("expected OutOfCapacity, got {other:?}"),
        }
        b.release(a).unwrap();
        b.alloc(100).unwrap();
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut b = HeapBackend::new("x", 1024);
        let blk = b.alloc(10).unwrap();
        let mut buf = [0u8; 4];
        assert!(matches!(
            b.read(blk, 8, &mut buf),
            Err(HwError::OutOfBounds { .. })
        ));
        assert!(matches!(
            b.write(blk, u64::MAX, &buf),
            Err(HwError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn invalid_block_rejected() {
        let mut b = HeapBackend::new("x", 1024);
        let blk = b.alloc(10).unwrap();
        b.release(blk).unwrap();
        assert!(matches!(b.release(blk), Err(HwError::InvalidBlock(_))));
        let mut buf = [0u8; 1];
        assert!(matches!(
            b.read(blk, 0, &mut buf),
            Err(HwError::InvalidBlock(_))
        ));
    }

    #[test]
    fn phantom_tracks_capacity_without_bytes() {
        let mut b = PhantomBackend::new("huge", 1 << 40); // 1 TiB "allocated"
        let blk = b.alloc(4 << 30).unwrap(); // 4 GiB costs no real memory
        assert_eq!(b.used(), 4 << 30);
        let mut buf = [5u8; 8];
        b.read(blk, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8], "phantom reads are deterministic zeros");
        roundtrip(&mut b);
    }

    /// Forwards the required methods only, so `lend`/`fill` are the trait
    /// defaults — what a backend written before they existed gets.
    struct DefaultsOnly<B>(B);

    impl<B: StorageBackend> StorageBackend for DefaultsOnly<B> {
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

    /// One of each way a backend can implement `lend`/`fill`: slices of
    /// the block (heap), the defaults over a file, the defaults over a heap.
    fn byte_backends() -> Vec<(&'static str, Box<dyn StorageBackend>)> {
        vec![
            ("heap", Box::new(HeapBackend::new("h", 1 << 16))),
            ("file", Box::new(FileBackend::new("f", 1 << 16).unwrap())),
            (
                "defaults",
                Box::new(DefaultsOnly(HeapBackend::new("d", 1 << 16))),
            ),
        ]
    }

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(13).wrapping_add(salt))
            .collect()
    }

    fn contents(b: &mut dyn StorageBackend, block: BlockId, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        b.read(block, 0, &mut out).unwrap();
        out
    }

    #[test]
    fn lend_and_fill_agree_with_a_vec_model_between_every_backend_pair() {
        const SIZE: usize = 300;
        // (source ranges as (block, offset, length), destination offset):
        // zero-length ranges, no range at all, two overlapping ranges of
        // one block, both blocks, and more ranges than fit on the stack.
        type Loan = &'static [(usize, usize, usize)];
        let cases: [(Loan, usize); 9] = [
            (&[(0, 0, SIZE)], 0),
            (&[(0, 17, 100)], 40),
            (&[(0, 299, 1)], 0),
            (&[(0, 5, 0)], 5),
            (&[(0, 300, 0)], 300),
            (&[], 7),
            (&[(0, 10, 20), (0, 15, 30)], 3),
            (&[(1, 0, 50), (0, 250, 50), (1, 299, 1)], 100),
            (
                &[
                    (0, 0, 10),
                    (1, 5, 10),
                    (0, 20, 0),
                    (1, 280, 20),
                    (0, 100, 40),
                    (1, 0, 60),
                ],
                150,
            ),
        ];
        let kinds = byte_backends().len();
        for si in 0..kinds {
            for di in 0..kinds {
                for &(ranges, doff) in &cases {
                    for lend_side in [true, false] {
                        let (sname, mut src) = byte_backends().swap_remove(si);
                        let (dname, mut dst) = byte_backends().swap_remove(di);
                        let case = format!("{sname}->{dname} {ranges:?}->{doff} lend={lend_side}");
                        let sb = [
                            src.alloc(SIZE as u64).unwrap(),
                            src.alloc(SIZE as u64).unwrap(),
                        ];
                        let db = dst.alloc(SIZE as u64).unwrap();
                        let src_model = [pattern(SIZE, 1), pattern(SIZE, 2)];
                        let mut dst_model = pattern(SIZE, 99);
                        for (&blk, model) in sb.iter().zip(&src_model) {
                            src.write(blk, 0, model).unwrap();
                        }
                        dst.write(db, 0, &dst_model).unwrap();

                        let spans: Vec<(BlockId, u64, u64)> = ranges
                            .iter()
                            .map(|&(b, o, l)| (sb[b], o as u64, l as u64))
                            .collect();
                        let total: u64 = spans.iter().map(|s| s.2).sum();
                        if lend_side {
                            src.lend(&spans, &mut |parts| {
                                assert_eq!(parts.len(), spans.len(), "{case}");
                                let mut at = doff as u64;
                                for part in parts {
                                    dst.write(db, at, part)?;
                                    at += part.len() as u64;
                                }
                                Ok(())
                            })
                        } else {
                            dst.fill(db, doff as u64, total, &mut |buf| {
                                let mut rest = buf;
                                for &(blk, o, l) in &spans {
                                    let (head, tail) =
                                        std::mem::take(&mut rest).split_at_mut(l as usize);
                                    src.read(blk, o, head)?;
                                    rest = tail;
                                }
                                Ok(())
                            })
                        }
                        .unwrap_or_else(|e| panic!("{case}: {e}"));
                        let mut at = doff;
                        for &(b, o, l) in ranges {
                            dst_model[at..at + l].copy_from_slice(&src_model[b][o..o + l]);
                            at += l;
                        }

                        assert_eq!(contents(dst.as_mut(), db, SIZE), dst_model, "{case}");
                        for (&blk, model) in sb.iter().zip(&src_model) {
                            assert_eq!(&contents(src.as_mut(), blk, SIZE), model, "{case}");
                        }
                    }
                }
            }
        }

        // A fault injector counts one read per range: a loan of `k` ranges
        // fails where the first failing one of `k` plain reads would, lends
        // nothing then, and leaves the next ordinals where the reads would.
        for skew in 0..3 {
            for k in 0..=6 {
                let faulty = || FaultyBackend::new(HeapBackend::new("x", 64), FaultOps::Reads, 3);
                let (mut lender, mut reader) = (faulty(), faulty());
                let (lb, rb) = (lender.alloc(8).unwrap(), reader.alloc(8).unwrap());
                let mut buf = [0u8; 8];
                for _ in 0..skew {
                    let _ = lender.read(lb, 0, &mut buf);
                    let _ = reader.read(rb, 0, &mut buf);
                }
                let mut lent = false;
                let lend_failed = lender
                    .lend(&vec![(lb, 0, 8); k], &mut |_| {
                        lent = true;
                        Ok(())
                    })
                    .is_err();
                let read_failed = (0..k).any(|_| reader.read(rb, 0, &mut buf).is_err());
                assert_eq!(lend_failed, read_failed, "skew {skew}, {k} ranges");
                assert_eq!(lent, !lend_failed, "skew {skew}, {k} ranges");
                for _ in 0..3 {
                    assert_eq!(
                        lender.read(lb, 0, &mut buf).is_err(),
                        reader.read(rb, 0, &mut buf).is_err(),
                        "skew {skew}, {k} ranges"
                    );
                }
                assert_eq!(lender.injected(), reader.injected());
            }
        }
    }

    #[test]
    fn lend_and_fill_report_the_typed_errors_of_read_and_write() {
        for (name, mut b) in byte_backends() {
            let blk = b.alloc(10).unwrap();
            let mut called = false;
            assert!(
                matches!(
                    b.lend(&[(blk, 8, 4)], &mut |_| {
                        called = true;
                        Ok(())
                    }),
                    Err(HwError::OutOfBounds {
                        offset: 8,
                        len: 4,
                        size: 10,
                        ..
                    })
                ),
                "{name}"
            );
            assert!(
                matches!(
                    b.fill(blk, u64::MAX, 1, &mut |_| {
                        called = true;
                        Ok(())
                    }),
                    Err(HwError::OutOfBounds { .. })
                ),
                "{name}"
            );
            // A length that would not even fit in memory is refused
            // before anything is allocated for it.
            assert!(
                matches!(
                    b.lend(&[(blk, 0, u64::MAX)], &mut |_| Ok(())),
                    Err(HwError::OutOfBounds { .. })
                ),
                "{name}"
            );
            // A loan is refused whole when any of its ranges is bad.
            let other = b.alloc(10).unwrap();
            assert!(
                matches!(
                    b.lend(&[(other, 0, 10), (blk, 4, 7)], &mut |_| {
                        called = true;
                        Ok(())
                    }),
                    Err(HwError::OutOfBounds {
                        offset: 4,
                        len: 7,
                        ..
                    })
                ),
                "{name}"
            );
            b.release(blk).unwrap();
            assert!(
                matches!(
                    b.lend(&[(blk, 0, 1)], &mut |_| Ok(())),
                    Err(HwError::InvalidBlock(id)) if id == blk
                ),
                "{name}"
            );
            assert!(
                matches!(
                    b.fill(blk, 0, 1, &mut |_| Ok(())),
                    Err(HwError::InvalidBlock(id)) if id == blk
                ),
                "{name}"
            );
            assert!(!called, "{name}: no bytes are lent on an error");
        }
    }

    #[test]
    fn a_failing_closure_surfaces_its_error() {
        for (name, mut b) in byte_backends() {
            let blk = b.alloc(8).unwrap();
            let fail = || HwError::Io(io::Error::other("closure failed"));
            assert!(
                matches!(
                    b.lend(&[(blk, 0, 8)], &mut |_| Err(fail())),
                    Err(HwError::Io(_))
                ),
                "{name}"
            );
            assert!(
                matches!(b.fill(blk, 0, 8, &mut |_| Err(fail())), Err(HwError::Io(_))),
                "{name}"
            );
        }
    }

    #[test]
    fn zero_size_alloc_is_fine() {
        let mut b = HeapBackend::new("x", 10);
        let blk = b.alloc(0).unwrap();
        assert_eq!(b.size_of(blk).unwrap(), 0);
        b.read(blk, 0, &mut []).unwrap();
    }

    /// Random sequences on a file backend, bare and under fault
    /// injectors, with every read compared against a `Vec<u8>` per block:
    /// held and landed bytes must be indistinguishable. Offsets snap to a
    /// 256 B grid so that sub-page writes often touch or overlap.
    #[test]
    fn held_writes_agree_with_a_vec_model() {
        use rand::{Rng, SeedableRng, StdRng};
        const SIZE: usize = 48 << 10;
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let file = FileBackend::new("f", 1 << 20).unwrap();
            let mut b: Box<dyn StorageBackend> = match seed % 3 {
                0 => Box::new(file),
                1 => Box::new(FaultyBackend::new(file, FaultOps::Writes, 5)),
                _ => Box::new(FaultyBackend::new(file, FaultOps::ReadsAndWrites, 7)),
            };
            let mut blocks: Vec<(BlockId, Vec<u8>)> = (0..2)
                .map(|_| (b.alloc(SIZE as u64).unwrap(), vec![0u8; SIZE]))
                .collect();
            let span = |rng: &mut StdRng, lens: std::ops::Range<usize>| {
                let len = rng.gen_range(lens);
                let at = if rng.gen_bool(0.7) {
                    256 * rng.gen_range(0..=(SIZE - len) / 256)
                } else {
                    rng.gen_range(0..=SIZE - len)
                };
                (at, len)
            };
            // Ok, or a fault the injector made; any other error fails.
            let passed = |r: HwResult<()>, case: &str| match r {
                Ok(()) => true,
                Err(HwError::Io(e)) if e.to_string() == "injected device fault" => false,
                Err(e) => panic!("{case}: {e}"),
            };
            for step in 0..600 {
                let case = format!("seed {seed} step {step}");
                let i = rng.gen_range(0..2);
                let salt = step as u8;
                match rng.gen_range(0..16) {
                    // Sub-page writes: rows, overlapping and touching.
                    0..=7 => {
                        let (at, len) = span(&mut rng, 1..HOLD_BELOW);
                        let (blk, model) = &mut blocks[i];
                        let src = pattern(len, salt);
                        if passed(b.write(*blk, at as u64, &src), &case) {
                            model[at..at + len].copy_from_slice(&src);
                        } else if rng.gen_bool(0.5) {
                            // An injected fault leaves nothing of the write.
                            let mut got = vec![0u8; SIZE];
                            if passed(b.read(*blk, 0, &mut got), &case) {
                                assert!(got == *model, "{case}: after a write fault");
                            }
                        }
                    }
                    // A write of a page or more, over held bytes or not.
                    8 => {
                        let (at, len) = span(&mut rng, HOLD_BELOW..3 * HOLD_BELOW);
                        let (blk, model) = &mut blocks[i];
                        let src = pattern(len, salt);
                        if passed(b.write(*blk, at as u64, &src), &case) {
                            model[at..at + len].copy_from_slice(&src);
                        }
                    }
                    // Reads straddling held and landed bytes.
                    9..=11 => {
                        let (at, len) = span(&mut rng, 0..3 * HOLD_BELOW);
                        let (blk, model) = &blocks[i];
                        let mut got = vec![0u8; len];
                        if passed(b.read(*blk, at as u64, &mut got), &case) {
                            assert!(got[..] == model[at..at + len], "{case}: read");
                        }
                    }
                    // A loan of two ranges, one from each block.
                    12 => {
                        let (a, la) = span(&mut rng, 0..2 * HOLD_BELOW);
                        let (c, lc) = span(&mut rng, 0..2 * HOLD_BELOW);
                        let ranges = [
                            (blocks[i].0, a as u64, la as u64),
                            (blocks[1 - i].0, c as u64, lc as u64),
                        ];
                        let lent = b.lend(&ranges, &mut |parts| {
                            assert!(parts[0] == &blocks[i].1[a..a + la], "{case}: lend");
                            assert!(parts[1] == &blocks[1 - i].1[c..c + lc], "{case}: lend");
                            Ok(())
                        });
                        passed(lent, &case);
                    }
                    // A fill, sub-page or not, whose closure may fail.
                    13 | 14 => {
                        let (at, len) = span(&mut rng, 1..2 * HOLD_BELOW);
                        let fails = rng.gen_bool(0.2);
                        let (blk, model) = &mut blocks[i];
                        let src = pattern(len, salt);
                        let filled = b.fill(*blk, at as u64, len as u64, &mut |dst| {
                            dst.copy_from_slice(&src);
                            if fails {
                                return Err(HwError::Io(io::Error::other("closure failed")));
                            }
                            Ok(())
                        });
                        if fails {
                            assert!(filled.is_err(), "{case}: a failed fill");
                        } else if passed(filled, &case) {
                            model[at..at + len].copy_from_slice(&src);
                        }
                    }
                    // Release, then a fresh block in its place.
                    _ => {
                        b.release(blocks[i].0).unwrap();
                        blocks[i] = (b.alloc(SIZE as u64).unwrap(), vec![0u8; SIZE]);
                    }
                }
            }
            for (blk, model) in &blocks {
                let mut got = vec![0u8; SIZE];
                while !passed(b.read(*blk, 0, &mut got), "final") {}
                assert!(got == *model, "seed {seed}: final contents");
            }
        }
    }

    /// Rows written in strided order land as one write per contiguous run
    /// and never hold more than the bound; a failed landing reports its
    /// error at the call that lands it and leaves nothing held.
    #[test]
    fn held_rows_land_as_runs_within_the_bound() {
        const ROW: usize = 2 << 10;
        const SIZE: usize = HOLD_MAX + 4 * ROW;
        let mut b = FileBackend::new("f", 1 << 24).unwrap();
        let blk = b.alloc(SIZE as u64).unwrap();
        let mut model = vec![0u8; SIZE];
        // Four columns of rows, one column after another: each row only
        // touches its neighbours once the column to its left is in.
        for col in 0..4 {
            for row in 0..SIZE / (4 * ROW) {
                let at = (row * 4 + col) * ROW;
                let src = pattern(ROW, (row + col) as u8);
                b.write(blk, at as u64, &src).unwrap();
                model[at..at + ROW].copy_from_slice(&src);
                let held = b.held.as_ref().unwrap();
                assert!(held.bytes <= HOLD_MAX);
                assert_eq!(held.bytes, held.runs.values().map(Vec::len).sum::<usize>());
            }
        }
        // The bound landed the band above the last rows; what is left is
        // the last column's rows, each a run of its own.
        let runs = b.held.as_ref().unwrap().runs.len();
        assert_eq!(runs, 4);
        let before = syscw();
        assert_eq!(contents(&mut b, blk, SIZE), model);
        assert!(b.held.is_none(), "a read of the block lands what it held");
        if let (Some(before), Some(after)) = (before, syscw()) {
            assert_eq!(after - before, runs as u64, "one write per run");
        }

        b.write(blk, 0, &[7; 16]).unwrap();
        // A file that refuses writes: the landing fails, and the bytes it
        // held are gone, not retried.
        let (file, _) = b.files.get_mut(&blk.0).unwrap();
        *file = File::open(b.dir.join(format!("blk-{}.bin", blk.0))).unwrap();
        let mut out = [0u8; 16];
        assert!(matches!(b.read(blk, 0, &mut out), Err(HwError::Io(_))));
        assert!(b.held.is_none());
        b.read(blk, 0, &mut out).unwrap();
        assert_eq!(out[..], model[..16]);
    }

    /// Write syscalls this thread has made, where the OS counts them.
    fn syscw() -> Option<u64> {
        let io = fs::read_to_string("/proc/thread-self/io").ok()?;
        let line = io.lines().find_map(|l| l.strip_prefix("syscw:"))?;
        line.trim().parse().ok()
    }
}
