//! Registered windows — the `scif_register`/`scif_unregister` machinery.
//!
//! A window exposes a span of *pinned* local memory into the endpoint's
//! registered address space, addressed by peer RMA operations via offsets.
//! Pinning matters (paper §III): an unpinned page could be swapped out and
//! a remote read would fetch stale bytes with no fault to recover.  In the
//! simulation, pinning is ownership: a window holds a strong reference to
//! its backing (a shared user buffer or a GDDR region), so the bytes can
//! never disappear while registered.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use vphi_pcie::gather_copy;
use vphi_phi::{DeviceRegion, MemError};
use vphi_sim_core::cost::{HUGE_PAGE_SIZE, PAGE_SIZE};
use vphi_sync::LockClass;

use crate::error::{ScifError, ScifResult};
use crate::types::{PinnedBuf, Prot};

/// A closure run over a backing's bytes in place.
pub type RangeFn<'a> = &'a mut dyn FnMut(&[u8]) -> ScifResult<()>;
/// A closure run over a backing's bytes in place, mutably.
pub type RangeFnMut<'a> = &'a mut dyn FnMut(&mut [u8]) -> ScifResult<()>;

/// External byte storage registerable as a window — implemented by the
/// vPHI backend over *guest physical memory*, so that a window registered
/// from inside a VM aliases the guest's pinned pages (no copies, exactly
/// the paper's guest-memory-registration design).
pub trait WindowBytes: Send + Sync {
    /// Total backing length in bytes.
    fn len(&self) -> u64;
    /// Whether the backing is empty (never true for registered windows).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    fn read(&self, at: u64, out: &mut [u8]) -> ScifResult<()>;
    fn write(&self, at: u64, data: &[u8]) -> ScifResult<()>;
    /// The lock class guarding the bytes, or `None` when the backing
    /// stores none (a timed GDDR region: reads as zeros, drops writes).
    /// [`copy_bytes`] lets the side whose class is outer drive a copy.
    fn lock_class(&self) -> Option<LockClass>;
    /// Run `f` over bytes `[at, at + len)` in place, holding the backing's
    /// lock.  A backing that stores no bytes checks the range and never
    /// calls `f`.
    fn with_range(&self, at: u64, len: u64, f: RangeFn<'_>) -> ScifResult<()>;
    /// Mutable [`with_range`](WindowBytes::with_range).
    fn with_range_mut(&self, at: u64, len: u64, f: RangeFnMut<'_>) -> ScifResult<()>;
}

/// Most bytes one lock hold covers in [`copy_bytes`] (about 40 µs of
/// `memcpy` at 6.5 GB/s): guest memory's lock is VM-global, and the
/// backend decodes every request of the VM under it.
pub const COPY_GRANULE: u64 = 256 * 1024;

/// Move `len` bytes from `src` at `src_at` to `dst` at `dst_at`, touching
/// each byte once.
///
/// The side whose lock is outer in the DESIGN.md #12 hierarchy lends one
/// granule in place per lock hold and the other side copies inside that
/// hold: one `memcpy` per granule, no staging.  A backing without bytes
/// reads as zeros and drops writes.  Two backings of one lock layer may
/// not nest (they may even be the same lock), so they bounce through
/// [`gather_copy`].  Both ranges are checked before any byte moves.
pub fn copy_bytes(
    src: &dyn WindowBytes,
    src_at: u64,
    dst: &dyn WindowBytes,
    dst_at: u64,
    len: u64,
) -> ScifResult<()> {
    let fits = |b: &dyn WindowBytes, at: u64| at.checked_add(len).is_some_and(|e| e <= b.len());
    if !fits(src, src_at) || !fits(dst, dst_at) {
        return Err(ScifError::OutOfRange);
    }
    let (src_class, dst_class) = match (src.lock_class(), dst.lock_class()) {
        (_, None) => return Ok(()),
        (None, Some(_)) => {
            return for_granules(len, |off, n| {
                dst.with_range_mut(dst_at + off, n, &mut |d| {
                    d.fill(0);
                    Ok(())
                })
            })
        }
        (Some(s), Some(d)) => (s, d),
    };
    match src_class.layer().cmp(&dst_class.layer()) {
        Ordering::Less => for_granules(len, |off, n| {
            src.with_range(src_at + off, n, &mut |s| dst.write(dst_at + off, s))
        }),
        Ordering::Greater => for_granules(len, |off, n| {
            dst.with_range_mut(dst_at + off, n, &mut |d| src.read(src_at + off, d))
        }),
        Ordering::Equal => gather_copy(
            len,
            |off, buf| src.read(src_at + off, buf),
            |off, buf| dst.write(dst_at + off, buf),
        ),
    }
}

/// Call `f(offset, n)` over `[0, len)` in [`COPY_GRANULE`] steps.
fn for_granules(len: u64, mut f: impl FnMut(u64, u64) -> ScifResult<()>) -> ScifResult<()> {
    let mut off = 0;
    while off < len {
        let n = (len - off).min(COPY_GRANULE);
        f(off, n)?;
        off += n;
    }
    Ok(())
}

/// `[at, at + len)` as a slice range of a `size`-byte buffer, or
/// `OutOfRange` — overflow-safe, so a hostile offset cannot wrap past it.
fn span(at: u64, len: u64, size: usize) -> ScifResult<Range<usize>> {
    match at.checked_add(len) {
        Some(end) if end <= size as u64 => Ok(at as usize..end as usize),
        _ => Err(ScifError::OutOfRange),
    }
}

/// A device-region access result in SCIF terms; a timed region's
/// `Unbacked` is the documented no-bytes success.
fn device_result(r: Result<ScifResult<()>, MemError>) -> ScifResult<()> {
    match r {
        Ok(res) => res,
        Err(MemError::Unbacked) => Ok(()),
        Err(_) => Err(ScifError::OutOfRange),
    }
}

/// What a window's bytes live in.
#[derive(Clone)]
pub enum WindowBacking {
    /// Pinned host (or guest) pages.
    Pinned(PinnedBuf),
    /// Xeon Phi GDDR (a device-side registration).
    Device(Arc<DeviceRegion>),
    /// Externally-owned pinned pages (e.g. guest physical memory behind
    /// the vPHI backend).
    External(Arc<dyn WindowBytes>),
}

impl std::fmt::Debug for WindowBacking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowBacking::Pinned(_) => write!(f, "WindowBacking::Pinned"),
            WindowBacking::Device(r) => write!(f, "WindowBacking::Device({:#x})", r.offset()),
            WindowBacking::External(_) => write!(f, "WindowBacking::External"),
        }
    }
}

impl WindowBacking {
    pub fn len(&self) -> u64 {
        match self {
            WindowBacking::Pinned(b) => b.lock().len() as u64,
            WindowBacking::Device(r) => r.len(),
            WindowBacking::External(e) => e.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy `out.len()` bytes from backing offset `at`.
    pub fn read(&self, at: u64, out: &mut [u8]) -> ScifResult<()> {
        match self {
            WindowBacking::Pinned(b) => {
                let data = b.lock();
                out.copy_from_slice(&data[span(at, out.len() as u64, data.len())?]);
                Ok(())
            }
            WindowBacking::Device(r) => r.read(at, out).map_err(|_| ScifError::OutOfRange),
            WindowBacking::External(e) => e.read(at, out),
        }
    }

    /// Copy `data` into backing offset `at`.
    pub fn write(&self, at: u64, data: &[u8]) -> ScifResult<()> {
        match self {
            WindowBacking::Pinned(b) => {
                let mut buf = b.lock();
                let range = span(at, data.len() as u64, buf.len())?;
                buf[range].copy_from_slice(data);
                Ok(())
            }
            WindowBacking::Device(r) => r.write(at, data).map_err(|_| ScifError::OutOfRange),
            WindowBacking::External(e) => e.write(at, data),
        }
    }

    /// Device page-frame number of byte 0, when GDDR-backed (used by
    /// `scif_mmap` → `VM_PFNPHI`).
    pub fn device_base_pfn(&self) -> Option<u64> {
        match self {
            WindowBacking::Pinned(_) | WindowBacking::External(_) => None,
            WindowBacking::Device(r) => Some(r.offset() / PAGE_SIZE),
        }
    }
}

/// A backing *is* external byte storage — lets a cloned-out backing be
/// handed to the zero-copy RMA entry points (`vreadfrom_window` /
/// `vwriteto_window`) as the local side of a transfer.
impl WindowBytes for WindowBacking {
    fn len(&self) -> u64 {
        WindowBacking::len(self)
    }
    fn read(&self, at: u64, out: &mut [u8]) -> ScifResult<()> {
        WindowBacking::read(self, at, out)
    }
    fn write(&self, at: u64, data: &[u8]) -> ScifResult<()> {
        WindowBacking::write(self, at, data)
    }
    fn lock_class(&self) -> Option<LockClass> {
        match self {
            WindowBacking::Pinned(b) => Some(b.class()),
            WindowBacking::Device(r) => r.lock_class(),
            WindowBacking::External(e) => e.lock_class(),
        }
    }
    fn with_range(&self, at: u64, len: u64, f: RangeFn<'_>) -> ScifResult<()> {
        match self {
            WindowBacking::Pinned(b) => {
                let data = b.lock();
                f(&data[span(at, len, data.len())?])
            }
            WindowBacking::Device(r) => device_result(r.with_range(at, len, f)),
            WindowBacking::External(e) => e.with_range(at, len, f),
        }
    }
    fn with_range_mut(&self, at: u64, len: u64, f: RangeFnMut<'_>) -> ScifResult<()> {
        match self {
            WindowBacking::Pinned(b) => {
                let mut data = b.lock();
                let range = span(at, len, data.len())?;
                f(&mut data[range])
            }
            WindowBacking::Device(r) => device_result(r.with_range_mut(at, len, f)),
            WindowBacking::External(e) => e.with_range_mut(at, len, f),
        }
    }
}

/// One registered window.
#[derive(Debug, Clone)]
pub struct Window {
    pub offset: u64,
    pub len: u64,
    pub prot: Prot,
    pub backing: WindowBacking,
}

impl Window {
    pub fn pages(&self) -> u64 {
        self.len / PAGE_SIZE
    }
}

/// The registered address space of one endpoint.
#[derive(Debug, Default)]
pub struct WindowTable {
    windows: BTreeMap<u64, Window>,
    next_auto_offset: u64,
}

impl WindowTable {
    pub fn new() -> Self {
        WindowTable { windows: BTreeMap::new(), next_auto_offset: 0x1000_0000 }
    }

    /// Register a window.  `fixed_offset = None` lets SCIF pick
    /// (`SCIF_MAP_FIXED` absent).  Lengths are page-granular; the backing
    /// must be at least `len` long.
    pub fn register(
        &mut self,
        fixed_offset: Option<u64>,
        len: u64,
        prot: Prot,
        backing: WindowBacking,
    ) -> ScifResult<u64> {
        if len == 0 || !len.is_multiple_of(PAGE_SIZE) {
            return Err(ScifError::Inval);
        }
        if backing.len() < len {
            return Err(ScifError::Inval);
        }
        let offset = match fixed_offset {
            Some(off) => {
                if off % PAGE_SIZE != 0 {
                    return Err(ScifError::Inval);
                }
                off
            }
            None => {
                // Large windows get huge-page-aligned offsets so the
                // zero-copy path can pin and aperture-map them at
                // huge-page granularity (DESIGN.md #19).  Small windows
                // keep the dense page-granular layout.
                let off = if len >= HUGE_PAGE_SIZE {
                    self.next_auto_offset.next_multiple_of(HUGE_PAGE_SIZE)
                } else {
                    self.next_auto_offset
                };
                let granule = if len >= HUGE_PAGE_SIZE { HUGE_PAGE_SIZE } else { PAGE_SIZE };
                self.next_auto_offset = off + len.next_multiple_of(granule);
                off
            }
        };
        if self.overlaps(offset, len) {
            return Err(ScifError::AddrInUse);
        }
        self.windows.insert(offset, Window { offset, len, prot, backing });
        Ok(offset)
    }

    fn overlaps(&self, offset: u64, len: u64) -> bool {
        let end = offset + len;
        // Window starting at or after `offset` that begins before `end`…
        if self.windows.range(offset..end).next().is_some() {
            return true;
        }
        // …or a window starting before `offset` that extends into it.
        if let Some((_, w)) = self.windows.range(..offset).next_back() {
            if w.offset + w.len > offset {
                return true;
            }
        }
        false
    }

    /// Unregister the window that starts exactly at `offset` with length
    /// `len` (SCIF requires exact spans).
    pub fn unregister(&mut self, offset: u64, len: u64) -> ScifResult<()> {
        match self.windows.get(&offset) {
            Some(w) if w.len == len => {
                self.windows.remove(&offset);
                Ok(())
            }
            Some(_) => Err(ScifError::Inval),
            None => Err(ScifError::OutOfRange),
        }
    }

    /// Find the window covering `[offset, offset+len)` entirely.  SCIF RMA
    /// must not straddle windows.
    pub fn lookup(&self, offset: u64, len: u64) -> ScifResult<&Window> {
        let (_, w) = self.windows.range(..=offset).next_back().ok_or(ScifError::OutOfRange)?;
        let end = offset.checked_add(len).ok_or(ScifError::Inval)?;
        if offset >= w.offset && end <= w.offset + w.len {
            Ok(w)
        } else {
            Err(ScifError::OutOfRange)
        }
    }

    /// Drop every window — endpoint teardown.  `scif_close` releases all
    /// of an endpoint's registrations the way the driver unpins pages when
    /// the fd closes; returns how many windows were released.
    pub fn release_all(&mut self) -> usize {
        let n = self.windows.len();
        self.windows.clear();
        n
    }

    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    pub fn total_registered(&self) -> u64 {
        self.windows.values().map(|w| w.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::pinned_buf;
    use vphi_sim_core::units::MIB;

    fn backing(pages: u64) -> WindowBacking {
        WindowBacking::Pinned(pinned_buf((pages * PAGE_SIZE) as usize))
    }

    #[test]
    fn auto_offsets_do_not_collide() {
        let mut t = WindowTable::new();
        let a = t.register(None, PAGE_SIZE, Prot::READ_WRITE, backing(1)).unwrap();
        let b = t.register(None, 4 * PAGE_SIZE, Prot::READ_WRITE, backing(4)).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.window_count(), 2);
        assert_eq!(t.total_registered(), 5 * PAGE_SIZE);
    }

    #[test]
    fn large_auto_offsets_are_huge_page_aligned() {
        let mut t = WindowTable::new();
        // A small window first, to knock the cursor off huge alignment.
        let small = t.register(None, PAGE_SIZE, Prot::READ_WRITE, backing(1)).unwrap();
        assert!(small.is_multiple_of(PAGE_SIZE));
        let pages = HUGE_PAGE_SIZE / PAGE_SIZE + 1; // 2 MiB + 4 KiB
        let big = t.register(None, pages * PAGE_SIZE, Prot::READ_WRITE, backing(pages)).unwrap();
        assert!(big.is_multiple_of(HUGE_PAGE_SIZE), "large window base {big:#x} not huge-aligned");
        // The next large window lands on the following huge boundary (the
        // cursor advanced by the huge-rounded length).
        let big2 = t
            .register(None, HUGE_PAGE_SIZE, Prot::READ_WRITE, backing(HUGE_PAGE_SIZE / PAGE_SIZE))
            .unwrap();
        assert_eq!(big2, big + 2 * HUGE_PAGE_SIZE);
        // Small windows after a large one still work and don't collide.
        let small2 = t.register(None, PAGE_SIZE, Prot::READ_WRITE, backing(1)).unwrap();
        assert!(t.lookup(small2, PAGE_SIZE).is_ok());
        assert_eq!(t.window_count(), 4);
    }

    #[test]
    fn fixed_offset_honored_and_overlap_rejected() {
        let mut t = WindowTable::new();
        let off = t.register(Some(8 * PAGE_SIZE), 2 * PAGE_SIZE, Prot::READ, backing(2)).unwrap();
        assert_eq!(off, 8 * PAGE_SIZE);
        // Exact overlap.
        assert_eq!(
            t.register(Some(8 * PAGE_SIZE), PAGE_SIZE, Prot::READ, backing(1)),
            Err(ScifError::AddrInUse)
        );
        // Partial overlap from below.
        assert_eq!(
            t.register(Some(7 * PAGE_SIZE), 2 * PAGE_SIZE, Prot::READ, backing(2)),
            Err(ScifError::AddrInUse)
        );
        // Partial overlap from above.
        assert_eq!(
            t.register(Some(9 * PAGE_SIZE), 2 * PAGE_SIZE, Prot::READ, backing(2)),
            Err(ScifError::AddrInUse)
        );
        // Adjacent is fine.
        assert!(t.register(Some(10 * PAGE_SIZE), PAGE_SIZE, Prot::READ, backing(1)).is_ok());
    }

    #[test]
    fn invalid_registrations() {
        let mut t = WindowTable::new();
        assert_eq!(t.register(None, 0, Prot::READ, backing(1)), Err(ScifError::Inval));
        assert_eq!(t.register(None, 100, Prot::READ, backing(1)), Err(ScifError::Inval));
        assert_eq!(t.register(Some(3), PAGE_SIZE, Prot::READ, backing(1)), Err(ScifError::Inval));
        // Backing shorter than window.
        assert_eq!(t.register(None, 2 * PAGE_SIZE, Prot::READ, backing(1)), Err(ScifError::Inval));
    }

    #[test]
    fn lookup_requires_full_containment() {
        let mut t = WindowTable::new();
        let off = t.register(Some(0), 2 * PAGE_SIZE, Prot::READ_WRITE, backing(2)).unwrap();
        assert!(t.lookup(off, 2 * PAGE_SIZE).is_ok());
        assert!(t.lookup(off + 100, 200).is_ok());
        assert_eq!(t.lookup(off + PAGE_SIZE, 2 * PAGE_SIZE).err(), Some(ScifError::OutOfRange));
        assert_eq!(t.lookup(5 * PAGE_SIZE, 1).err(), Some(ScifError::OutOfRange));
    }

    #[test]
    fn unregister_exact_span_only() {
        let mut t = WindowTable::new();
        let off = t.register(None, 2 * PAGE_SIZE, Prot::READ, backing(2)).unwrap();
        assert_eq!(t.unregister(off, PAGE_SIZE), Err(ScifError::Inval));
        assert_eq!(t.unregister(off + 1, PAGE_SIZE), Err(ScifError::OutOfRange));
        assert!(t.unregister(off, 2 * PAGE_SIZE).is_ok());
        assert_eq!(t.window_count(), 0);
        // Space can be reused.
        assert!(t.register(Some(off), PAGE_SIZE, Prot::READ, backing(1)).is_ok());
    }

    #[test]
    fn backing_read_write_and_bounds() {
        let b = backing(1);
        b.write(10, &[1, 2, 3]).unwrap();
        let mut out = [0u8; 3];
        b.read(10, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
        assert_eq!(b.read(PAGE_SIZE - 1, &mut out).err(), Some(ScifError::OutOfRange));
        assert_eq!(b.write(PAGE_SIZE, &[0]).err(), Some(ScifError::OutOfRange));
        assert!(b.device_base_pfn().is_none());
    }

    #[test]
    fn pinned_bounds_are_overflow_safe() {
        let b = backing(1);
        let mut out = [0u8; 3];
        assert_eq!(b.read(u64::MAX - 1, &mut out), Err(ScifError::OutOfRange));
        assert_eq!(b.write(u64::MAX - 1, &[1, 2, 3]), Err(ScifError::OutOfRange));
        assert_eq!(b.with_range(u64::MAX - 1, 3, &mut |_| Ok(())), Err(ScifError::OutOfRange));
        assert_eq!(copy_bytes(&b, u64::MAX - 1, &backing(1), 0, 3), Err(ScifError::OutOfRange));
    }

    /// `len` bytes of a seeded pattern, so a misplaced granule shows.
    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8 ^ seed).collect()
    }

    fn device(pages: u64) -> (vphi_phi::DeviceMemory, WindowBacking) {
        let mem = vphi_phi::DeviceMemory::new(64 * MIB);
        let region = mem.alloc(pages * PAGE_SIZE).unwrap();
        (mem, WindowBacking::Device(region))
    }

    fn contents(b: &WindowBacking, at: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        b.read(at, &mut out).unwrap();
        out
    }

    #[test]
    fn single_copy_is_byte_exact_across_granules_at_unaligned_offsets() {
        // Pinned (layer 80) is outer to GDDR (82): the pinned side drives
        // in both directions, the device copies inside its hold.
        let len = 2 * COPY_GRANULE + 777;
        let pages = (len + 2 * PAGE_SIZE).div_ceil(PAGE_SIZE);
        let data = pattern(len as usize, 0x5A);
        let (_mem, dev) = device(pages);
        let pinned = backing(pages);
        pinned.write(13, &data).unwrap();
        copy_bytes(&pinned, 13, &dev, 4099, len).unwrap();
        assert_eq!(contents(&dev, 4099, len as usize), data);
        assert_eq!(contents(&dev, 4098, 1), [0], "byte before the span untouched");
        assert_eq!(contents(&dev, 4099 + len, 1), [0], "byte after the span untouched");
        copy_bytes(&dev, 4099, &pinned, 1, len).unwrap();
        assert_eq!(contents(&pinned, 1, len as usize), data);
    }

    #[test]
    fn same_class_pairs_bounce() {
        // Two pinned buffers, and two GDDR windows on one card: nesting
        // same-class locks is forbidden, so these go through gather_copy.
        let len = COPY_GRANULE + 5;
        let data = pattern(len as usize, 7);
        let pages = (len + PAGE_SIZE).div_ceil(PAGE_SIZE);
        let (a, b) = (backing(pages), backing(pages));
        a.write(3, &data).unwrap();
        copy_bytes(&a, 3, &b, 11, len).unwrap();
        assert_eq!(contents(&b, 11, len as usize), data);
        let mem = vphi_phi::DeviceMemory::new(64 * MIB);
        let d1 = WindowBacking::Device(mem.alloc(pages * PAGE_SIZE).unwrap());
        let d2 = WindowBacking::Device(mem.alloc(pages * PAGE_SIZE).unwrap());
        copy_bytes(&b, 11, &d1, 0, len).unwrap();
        copy_bytes(&d1, 0, &d2, 9, len).unwrap();
        assert_eq!(contents(&d2, 9, len as usize), data);
        // A window copied onto itself, overlapping, through the bounce.
        copy_bytes(&d2, 9, &d2, 10, 1).unwrap();
        assert_eq!(contents(&d2, 10, 1), [data[0]]);
    }

    #[test]
    fn unbacked_region_reads_zeros_and_drops_writes() {
        let mem = vphi_phi::DeviceMemory::new(64 * MIB);
        let timed = WindowBacking::Device(mem.alloc_timed(130 * PAGE_SIZE).unwrap());
        assert_eq!(timed.lock_class(), None);
        let len = 2 * COPY_GRANULE + 1;
        let pinned = backing(130);
        pinned.write(0, &vec![0xFF; (130 * PAGE_SIZE) as usize]).unwrap();
        copy_bytes(&timed, 5, &pinned, 7, len).unwrap();
        assert!(contents(&pinned, 7, len as usize).iter().all(|&b| b == 0));
        assert_eq!(contents(&pinned, 6, 1), [0xFF]);
        assert_eq!(contents(&pinned, 7 + len, 1), [0xFF]);
        // Writes into it succeed and vanish; its range is still checked.
        copy_bytes(&pinned, 0, &timed, 0, len).unwrap();
        assert_eq!(contents(&timed, 0, 4), [0; 4]);
        assert_eq!(
            copy_bytes(&pinned, 0, &timed, 130 * PAGE_SIZE - 1, 2),
            Err(ScifError::OutOfRange)
        );
    }

    #[test]
    fn short_backing_is_out_of_range_before_any_byte_moves() {
        let (_mem, dev) = device(4);
        let short = backing(1);
        assert_eq!(copy_bytes(&dev, 0, &short, 0, PAGE_SIZE + 1), Err(ScifError::OutOfRange));
        assert_eq!(copy_bytes(&short, 1, &dev, 0, PAGE_SIZE), Err(ScifError::OutOfRange));
        dev.write(0, &[9; 8]).unwrap();
        assert_eq!(copy_bytes(&dev, 0, &short, PAGE_SIZE - 4, 8), Err(ScifError::OutOfRange));
        assert_eq!(contents(&short, PAGE_SIZE - 4, 4), [0; 4], "nothing copied");
    }

    #[test]
    fn device_backed_window_reports_pfn() {
        use vphi_phi::DeviceMemory;
        let mem = DeviceMemory::new(64 * PAGE_SIZE);
        let region = mem.alloc(4 * PAGE_SIZE).unwrap();
        let expected_pfn = region.offset() / PAGE_SIZE;
        let b = WindowBacking::Device(region);
        assert_eq!(b.device_base_pfn(), Some(expected_pfn));
        b.write(0, &[42]).unwrap();
        let mut out = [0u8];
        b.read(0, &mut out).unwrap();
        assert_eq!(out[0], 42);
    }
}
