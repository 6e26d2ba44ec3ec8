//! The flat simulated memory: rodata / data / heap / stack segments.
//!
//! Loads and stores are bounds-checked against *segments*, never against
//! individual objects — a store that runs past the end of a buffer but
//! stays inside the stack segment silently corrupts whatever is adjacent,
//! exactly like native code. That property is what makes the DOP attacks
//! in `smokestack-attacks` (and their defeat by Smokestack) meaningful.

use std::cell::OnceCell;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Address-space map. Segments are widely separated so that overflows
/// within a segment behave natively while wild pointers fault.
pub mod layout {
    /// "Addresses" of functions, for indirect calls: `CODE_BASE + 16*id`.
    pub const CODE_BASE: u64 = 0x0000_1000;
    /// Read-only globals (string literals, the P-BOX).
    pub const RODATA_BASE: u64 = 0x0010_0000;
    /// Writable globals. The first 8 bytes are the memory-resident state
    /// of the insecure "pseudo" PRNG (see `smokestack-srng`).
    pub const DATA_BASE: u64 = 0x0100_0000;
    /// Heap allocations.
    pub const HEAP_BASE: u64 = 0x1000_0000;
    /// The stack grows *down* from this address.
    pub const STACK_TOP: u64 = 0x8000_0000;
    /// Gap between `STACK_TOP` and the first frame (the analog of the
    /// argv/env area a real process keeps above `main`), so that linear
    /// overflows out of shallow frames corrupt memory instead of
    /// instantly faulting at the segment edge.
    pub const STACK_START_GAP: u64 = 4096;
}

/// Floor on the size of a [`Memory`]'s one allocation: glibc's
/// `DEFAULT_MMAP_THRESHOLD_MAX` on 64-bit. Each time glibc frees a
/// mapped block it raises its mmap threshold to that block's size (up
/// to this cap), so a smaller request can be carved out of reused heap
/// memory that `calloc` must zero in full. A request at least this
/// large always gets a fresh anonymous mapping, which `calloc` hands
/// back without a memset and whose pages the kernel faults in zeroed
/// only when first touched. A fresh VM therefore costs the pages its
/// run touches, not the 14–80 MiB it maps.
const MIN_ALLOC_BYTES: usize = 32 << 20;

/// A contiguous memory region: a named window onto its [`Memory`]'s
/// shared byte buffer.
#[derive(Debug)]
pub struct Segment {
    name: &'static str,
    base: u64,
    /// Offset of the segment's first byte in the shared buffer.
    off: usize,
    len: usize,
    writable: bool,
    /// Dirty-range watermarks (offsets into the shared buffer): every
    /// write widens `dirty_lo..dirty_hi`, and [`Segment::wipe`] zeroes
    /// only that span. `dirty_lo > dirty_hi` means the segment is
    /// clean, so resetting an untouched multi-megabyte segment costs
    /// nothing. [`Memory::reset`] wipes only the writable segments
    /// (rodata is the shared image, which no program can write), which
    /// is what makes a resident serve session's per-request respawn
    /// proportional to the bytes a request can dirty, not the bytes
    /// mapped or the P-BOX's size.
    dirty_lo: usize,
    dirty_hi: usize,
}

impl Segment {
    /// Describe a clean `size`-byte segment at guest address `base`,
    /// held at byte `off` of its memory's shared buffer. Allocates
    /// nothing: [`Memory::new`] maps one zeroed buffer for all four
    /// segments.
    pub fn new(name: &'static str, base: u64, off: usize, size: usize, writable: bool) -> Segment {
        Segment {
            name,
            base,
            off,
            len: size,
            writable,
            dirty_lo: usize::MAX,
            dirty_hi: 0,
        }
    }

    /// Lowest valid address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the highest valid address.
    pub fn end(&self) -> u64 {
        self.base + self.len as u64
    }

    /// Whether `addr..addr+len` lies inside this segment.
    pub fn contains(&self, addr: u64, len: u64) -> bool {
        addr >= self.base && addr.checked_add(len).is_some_and(|e| e <= self.end())
    }

    /// One past the segment's last byte in the shared buffer.
    fn buf_end(&self) -> usize {
        self.off + self.len
    }

    /// Buffer range holding `addr..addr+len` (which the caller has
    /// checked with [`Segment::contains`]).
    fn range(&self, addr: u64, len: u64) -> Range<usize> {
        let start = self.off + (addr - self.base) as usize;
        start..start + len as usize
    }

    /// [`Segment::range`] for a write: marks the range dirty.
    fn range_mut(&mut self, addr: u64, len: u64) -> Range<usize> {
        let r = self.range(addr, len);
        self.dirty_lo = self.dirty_lo.min(r.start);
        self.dirty_hi = self.dirty_hi.max(r.end);
        r
    }

    /// Zero every byte of `buf` written through this segment since
    /// construction (or the last wipe). Cost is proportional to the
    /// dirty span, not the segment size.
    fn wipe(&mut self, buf: &mut [u8]) {
        if self.dirty_lo < self.dirty_hi {
            buf[self.dirty_lo..self.dirty_hi].fill(0);
        }
        self.dirty_lo = usize::MAX;
        self.dirty_hi = 0;
    }
}

/// Where a faulting address sits relative to the segment map — the
/// context that makes a fault message readable without a debugger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLocus {
    /// The address is inside `segment` at `offset` bytes from its base;
    /// the access still faulted (read-only segment, or a range that
    /// straddles the segment's end).
    Within {
        /// Segment name.
        segment: &'static str,
        /// Byte offset of the faulting address from the segment base.
        offset: u64,
    },
    /// The address is unmapped, `by` bytes past the end of `segment`
    /// (the nearest segment below it).
    PastEnd {
        /// Nearest segment name.
        segment: &'static str,
        /// Distance past the segment's end in bytes.
        by: u64,
    },
    /// The address is unmapped, `by` bytes below the base of `segment`
    /// (the nearest segment above it).
    Below {
        /// Nearest segment name.
        segment: &'static str,
        /// Distance below the segment's base in bytes.
        by: u64,
    },
}

impl fmt::Display for FaultLocus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultLocus::Within { segment, offset } => {
                write!(f, "{segment}+{offset:#x}")
            }
            FaultLocus::PastEnd { segment, by } => {
                write!(f, "{by:#x} bytes past end of {segment}")
            }
            FaultLocus::Below { segment, by } => {
                write!(f, "{by:#x} bytes below {segment}")
            }
        }
    }
}

/// A memory access fault (the simulated SIGSEGV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting address.
    pub addr: u64,
    /// Access size in bytes.
    pub len: u64,
    /// Whether the access was a write.
    pub write: bool,
    /// Segment context of the faulting address.
    pub locus: FaultLocus,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault at {:#x} ({} bytes; {})",
            if self.write { "write" } else { "read" },
            self.addr,
            self.len,
            self.locus
        )
    }
}

impl std::error::Error for MemFault {}

/// The whole simulated address space.
///
/// Data, heap and stack are private to each `Memory`. Rodata is not:
/// the loader maps the compiled module's rodata image (string literals,
/// the P-BOX) with `Memory::map_rodata`, and every VM spawned from
/// that module reads the same shared, immutable buffer, as processes
/// share a library's `.rodata` pages. Nothing is copied per VM.
#[derive(Debug)]
pub struct Memory {
    /// One zeroed allocation of at least [`MIN_ALLOC_BYTES`] holding
    /// rodata, data, heap and stack back to back; the segments are
    /// offset ranges into it. Its rodata range serves only the bytes
    /// past `rodata_image`, which the loader may write only while no
    /// image is mapped.
    bytes: Box<[u8]>,
    /// The mapped rodata image: the segment's first `len()` bytes.
    /// While it is non-empty, the rodata range of `bytes` is all zero.
    rodata_image: Arc<Vec<u8>>,
    /// The whole rodata segment as one private buffer (the image, then
    /// zeros), built on the first read that straddles the image's end
    /// and so needs both in one slice. Empty until then.
    rodata_flat: OnceCell<Box<[u8]>>,
    rodata: Segment,
    data: Segment,
    heap: Segment,
    stack: Segment,
    /// Lowest stack address ever touched (for peak-RSS accounting).
    stack_low_water: u64,
    /// Highest heap offset ever handed out.
    heap_high_water: u64,
    /// Rodata bytes actually occupied by the loaded image.
    rodata_used: u64,
    /// Data bytes actually occupied by the loaded image.
    data_used: u64,
}

/// Sizes for the writable segments.
#[derive(Debug, Clone, Copy)]
pub struct MemConfig {
    /// Rodata capacity in bytes.
    pub rodata_size: usize,
    /// Data capacity in bytes.
    pub data_size: usize,
    /// Heap capacity in bytes.
    pub heap_size: usize,
    /// Stack capacity in bytes.
    pub stack_size: usize,
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig {
            rodata_size: 4 << 20,
            data_size: 4 << 20,
            heap_size: 64 << 20,
            stack_size: 8 << 20,
        }
    }
}

impl Memory {
    /// Allocate the address space: one zeroed buffer for all four
    /// segments, padded to [`MIN_ALLOC_BYTES`] so that it is always
    /// freshly mapped and its untouched pages cost nothing.
    pub fn new(cfg: MemConfig) -> Memory {
        let rodata = Segment::new("rodata", layout::RODATA_BASE, 0, cfg.rodata_size, false);
        let data = Segment::new(
            "data",
            layout::DATA_BASE,
            rodata.buf_end(),
            cfg.data_size,
            true,
        );
        let heap = Segment::new(
            "heap",
            layout::HEAP_BASE,
            data.buf_end(),
            cfg.heap_size,
            true,
        );
        let stack_base = layout::STACK_TOP - cfg.stack_size as u64;
        let stack = Segment::new("stack", stack_base, heap.buf_end(), cfg.stack_size, true);
        Memory {
            bytes: vec![0; stack.buf_end().max(MIN_ALLOC_BYTES)].into_boxed_slice(),
            rodata_image: Arc::default(),
            rodata_flat: OnceCell::new(),
            rodata,
            data,
            heap,
            stack,
            stack_low_water: layout::STACK_TOP,
            heap_high_water: 0,
            rodata_used: 0,
            data_used: 0,
        }
    }

    fn segments(&self) -> [&Segment; 4] {
        [&self.rodata, &self.data, &self.heap, &self.stack]
    }

    /// Classify `addr` against the segment map for fault reporting.
    pub fn locate(&self, addr: u64) -> FaultLocus {
        if let Some(s) = self.segments().into_iter().find(|s| s.contains(addr, 1)) {
            return FaultLocus::Within {
                segment: s.name,
                offset: addr - s.base,
            };
        }
        // Unmapped: report the nearest segment edge.
        self.segments()
            .into_iter()
            .map(|s| {
                if addr < s.base {
                    (
                        s.base - addr,
                        FaultLocus::Below {
                            segment: s.name,
                            by: s.base - addr,
                        },
                    )
                } else {
                    (
                        addr - s.end(),
                        FaultLocus::PastEnd {
                            segment: s.name,
                            by: addr - s.end(),
                        },
                    )
                }
            })
            .min_by_key(|(d, _)| *d)
            .map(|(_, locus)| locus)
            // Invariant: `Memory::new` always maps all four segments.
            .expect("segment map is non-empty")
    }

    /// Build a [`MemFault`] for `addr..addr+len` with segment context.
    fn fault(&self, addr: u64, len: u64, write: bool) -> MemFault {
        MemFault {
            addr,
            len,
            write,
            locus: self.locate(addr),
        }
    }

    fn segment_for_mut(&mut self, addr: u64, len: u64) -> Option<&mut Segment> {
        if self.rodata.contains(addr, len) {
            Some(&mut self.rodata)
        } else if self.data.contains(addr, len) {
            Some(&mut self.data)
        } else if self.heap.contains(addr, len) {
            Some(&mut self.heap)
        } else if self.stack.contains(addr, len) {
            Some(&mut self.stack)
        } else {
            None
        }
    }

    /// Read `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Faults if the range is not fully inside one segment.
    pub fn read(&self, addr: u64, len: u64) -> Result<&[u8], MemFault> {
        if self.rodata.contains(addr, len) {
            return Ok(self.read_rodata(addr, len));
        }
        match [&self.data, &self.heap, &self.stack]
            .into_iter()
            .find(|s| s.contains(addr, len))
        {
            Some(s) => Ok(&self.bytes[s.range(addr, len)]),
            None => Err(self.fault(addr, len, false)),
        }
    }

    /// Read `addr..addr+len`, which lies inside rodata: from the shared
    /// image below its end, from the (zero) buffer range past it, and
    /// from the lazily built flat copy when the range straddles both.
    fn read_rodata(&self, addr: u64, len: u64) -> &[u8] {
        let start = (addr - self.rodata.base) as usize;
        let end = start + len as usize;
        let image = self.rodata_image.as_slice();
        if end <= image.len() {
            &image[start..end]
        } else if start >= image.len() {
            &self.bytes[self.rodata.range(addr, len)]
        } else {
            let flat = self.rodata_flat.get_or_init(|| {
                let mut flat = vec![0u8; self.rodata.len];
                flat[..image.len()].copy_from_slice(image);
                flat.into_boxed_slice()
            });
            &flat[start..end]
        }
    }

    /// Loader: map `image` as the first `image.len()` bytes of rodata,
    /// replacing whatever the segment held (the rest reads as zeros).
    /// The image is shared, never copied: VMs spawned from one compiled
    /// module all hold the same buffer.
    ///
    /// # Panics
    ///
    /// Panics if the image is larger than the rodata segment.
    pub(crate) fn map_rodata(&mut self, image: Arc<Vec<u8>>) {
        assert!(image.len() <= self.rodata.len, "global fits segment");
        self.rodata.wipe(&mut self.bytes);
        self.rodata_image = image;
        self.rodata_flat = OnceCell::new();
    }

    /// The mapped rodata image.
    #[cfg(test)]
    pub(crate) fn rodata_image(&self) -> &Arc<Vec<u8>> {
        &self.rodata_image
    }

    /// Write bytes at `addr` (program access: respects read-only).
    ///
    /// # Errors
    ///
    /// Faults if the range is outside all segments or the segment is
    /// read-only.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let len = bytes.len() as u64;
        if self.stack.contains(addr, len) {
            self.stack_low_water = self.stack_low_water.min(addr);
        }
        match self.segment_for_mut(addr, len) {
            Some(s) if s.writable => {
                let r = s.range_mut(addr, len);
                self.bytes[r].copy_from_slice(bytes);
                Ok(())
            }
            _ => Err(self.fault(addr, len, true)),
        }
    }

    /// Loader-only write that may target read-only segments (used to
    /// install the data globals and the pseudo-PRNG slot). The VM
    /// loader maps rodata with [`Memory::map_rodata`] instead, and a
    /// write into rodata once an image is mapped is a loader bug.
    ///
    /// Crate-private on purpose: [`Memory::reset`] keeps rodata in place
    /// across respawns, which is sound only because nothing but the VM
    /// loader ever writes it — programs and attackers go through
    /// [`Memory::write`], which refuses read-only segments.
    ///
    /// # Errors
    ///
    /// Faults if the range is outside all segments.
    ///
    /// # Panics
    ///
    /// Panics on a write into rodata after [`Memory::map_rodata`].
    pub(crate) fn write_init(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let len = bytes.len() as u64;
        assert!(
            !self.rodata.contains(addr, len) || self.rodata_image.is_empty(),
            "loader write into a mapped rodata image"
        );
        match self.segment_for_mut(addr, len) {
            Some(s) => {
                let r = s.range_mut(addr, len);
                self.bytes[r].copy_from_slice(bytes);
                Ok(())
            }
            None => Err(self.fault(addr, len, true)),
        }
    }

    /// Read an unsigned little-endian integer of `len` bytes (1/2/4/8).
    ///
    /// # Errors
    ///
    /// Faults like [`Memory::read`].
    pub fn read_uint(&self, addr: u64, len: u64) -> Result<u64, MemFault> {
        let b = self.read(addr, len)?;
        let mut v = 0u64;
        for (i, byte) in b.iter().enumerate() {
            v |= (*byte as u64) << (8 * i);
        }
        Ok(v)
    }

    /// Write the low `len` bytes of `v` little-endian at `addr`.
    ///
    /// # Errors
    ///
    /// Faults like [`Memory::write`].
    pub fn write_uint(&mut self, addr: u64, v: u64, len: u64) -> Result<(), MemFault> {
        let bytes = v.to_le_bytes();
        self.write(addr, &bytes[..len as usize])
    }

    /// Length of the NUL-terminated string at `addr`.
    ///
    /// # Errors
    ///
    /// Faults if the scan runs off the end of the segment before a NUL.
    pub fn strlen(&self, addr: u64) -> Result<u64, MemFault> {
        let mut n = 0u64;
        loop {
            let b = self.read(addr + n, 1)?[0];
            if b == 0 {
                return Ok(n);
            }
            n += 1;
        }
    }

    /// Record that the stack pointer reached `sp` (peak-RSS accounting).
    pub fn note_stack_pointer(&mut self, sp: u64) {
        self.stack_low_water = self.stack_low_water.min(sp);
    }

    /// Record a heap high-water offset (bytes from heap base).
    pub fn note_heap_used(&mut self, used: u64) {
        self.heap_high_water = self.heap_high_water.max(used);
    }

    /// Peak resident footprint in bytes: static segments plus the peak
    /// dynamic stack and heap usage. The analog of `ru_maxrss` used for
    /// the paper's Figure 4.
    pub fn peak_rss(&self) -> u64 {
        let stack_used = layout::STACK_TOP - self.stack_low_water;
        self.rodata_used() + self.data_used() + self.heap_high_water + stack_used
    }

    /// Bytes of rodata capacity counted as resident, as recorded by the
    /// loader.
    pub fn rodata_used(&self) -> u64 {
        self.rodata_used
    }

    /// Bytes of data counted as resident.
    pub fn data_used(&self) -> u64 {
        self.data_used
    }

    /// Loader: record how many rodata bytes are actually occupied
    /// (kept across [`Memory::reset`], like the rodata bytes).
    pub(crate) fn set_rodata_used(&mut self, n: u64) {
        self.rodata_used = n;
    }

    /// Loader: record how many data bytes are actually occupied.
    pub fn set_data_used(&mut self, n: u64) {
        self.data_used = n;
    }

    /// Base of the stack segment (lowest valid stack address).
    pub fn stack_base(&self) -> u64 {
        self.stack.base()
    }

    /// Capacity of the heap segment in bytes.
    pub fn heap_capacity(&self) -> u64 {
        self.heap.len as u64
    }

    /// Return data, heap and stack to their freshly-allocated state:
    /// zeroed (only dirty spans are touched), with their high-water
    /// accounting cleared. Rodata (the mapped image) and `rodata_used`
    /// stay as the loader left them: only the loader can write rodata,
    /// so no run can have changed it. The data image is *not*
    /// reinstalled — callers re-blit the data globals afterwards.
    /// This is the backbone of cheap session respawns: a resident
    /// tenant that touched 40 KB of an 8 MB stack pays for 40 KB, and
    /// never for its read-only P-BOX.
    pub fn reset(&mut self) {
        self.data.wipe(&mut self.bytes);
        self.heap.wipe(&mut self.bytes);
        self.stack.wipe(&mut self.bytes);
        self.stack_low_water = layout::STACK_TOP;
        self.heap_high_water = 0;
        self.data_used = 0;
    }

    /// Whether `addr..addr+len` is in a *writable* segment — the memory
    /// an attacker with full data-memory control may corrupt (§III-B).
    pub fn attacker_writable(&self, addr: u64, len: u64) -> bool {
        self.data.contains(addr, len)
            || self.heap.contains(addr, len)
            || self.stack.contains(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(MemConfig::default())
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = mem();
        let addr = layout::DATA_BASE + 100;
        m.write_uint(addr, 0xdead_beef_cafe, 8).unwrap();
        assert_eq!(m.read_uint(addr, 8).unwrap(), 0xdead_beef_cafe);
        assert_eq!(m.read_uint(addr, 4).unwrap(), 0xbeef_cafe);
    }

    #[test]
    fn rodata_rejects_program_writes() {
        let mut m = mem();
        let addr = layout::RODATA_BASE + 8;
        assert!(m.write(addr, &[1]).is_err());
        // But the loader can initialize it.
        m.write_init(addr, &[7]).unwrap();
        assert_eq!(m.read(addr, 1).unwrap()[0], 7);
    }

    #[test]
    fn out_of_segment_faults() {
        let m = mem();
        let gap = layout::RODATA_BASE - 100;
        let err = m.read(gap, 4).unwrap_err();
        assert_eq!(err.addr, gap);
        assert!(!err.write);
    }

    #[test]
    fn cross_segment_boundary_faults() {
        let mut m = mem();
        // A write straddling the end of the data segment must fault even
        // though it starts inside.
        let end = layout::DATA_BASE + MemConfig::default().data_size as u64;
        assert!(m.write(end - 4, &[0u8; 8]).is_err());
    }

    #[test]
    fn stack_overflow_within_segment_allowed() {
        // The crucial property: stores past an object's end but inside
        // the stack segment succeed (silent corruption, not a fault).
        let mut m = mem();
        let sp = layout::STACK_TOP - 0x1000;
        m.write(sp, &[0xaa; 128]).unwrap();
        assert_eq!(m.read(sp + 64, 1).unwrap()[0], 0xaa);
    }

    #[test]
    fn peak_rss_tracks_stack_low_water() {
        let mut m = mem();
        m.set_rodata_used(0);
        m.set_data_used(0);
        assert_eq!(m.peak_rss(), 0);
        m.note_stack_pointer(layout::STACK_TOP - 4096);
        assert_eq!(m.peak_rss(), 4096);
        m.note_heap_used(100);
        assert_eq!(m.peak_rss(), 4196);
    }

    #[test]
    fn strlen_scans_to_nul() {
        let mut m = mem();
        let a = layout::DATA_BASE + 50;
        m.write(a, b"hello\0").unwrap();
        assert_eq!(m.strlen(a).unwrap(), 5);
    }

    #[test]
    fn fault_locus_names_containing_segment() {
        let mut m = mem();
        // Write to rodata: inside the segment, still a fault.
        let err = m.write(layout::RODATA_BASE + 0x40, &[1]).unwrap_err();
        assert_eq!(
            err.locus,
            FaultLocus::Within {
                segment: "rodata",
                offset: 0x40
            }
        );
        assert!(err.to_string().contains("rodata+0x40"), "{err}");
    }

    #[test]
    fn fault_locus_names_nearest_segment_for_unmapped() {
        let m = mem();
        // Just past the end of the data segment.
        let data_end = layout::DATA_BASE + MemConfig::default().data_size as u64;
        let err = m.read(data_end + 0x10, 4).unwrap_err();
        assert_eq!(
            err.locus,
            FaultLocus::PastEnd {
                segment: "data",
                by: 0x10
            }
        );
        assert!(err.to_string().contains("past end of data"), "{err}");
        // Just below the rodata base.
        let err = m.read(layout::RODATA_BASE - 8, 4).unwrap_err();
        assert_eq!(
            err.locus,
            FaultLocus::Below {
                segment: "rodata",
                by: 8
            }
        );
        assert!(err.to_string().contains("below rodata"), "{err}");
    }

    #[test]
    fn fault_locus_straddling_range_reports_start_segment() {
        let mut m = mem();
        let end = layout::DATA_BASE + MemConfig::default().data_size as u64;
        let err = m.write(end - 4, &[0u8; 8]).unwrap_err();
        assert!(
            matches!(
                err.locus,
                FaultLocus::Within {
                    segment: "data",
                    ..
                }
            ),
            "{:?}",
            err.locus
        );
    }

    #[test]
    fn reset_zeroes_writable_bytes_and_keeps_rodata() {
        let mut m = mem();
        m.write(layout::DATA_BASE + 64, &[0xaa; 32]).unwrap();
        m.write(layout::HEAP_BASE + 8, &[0xdd; 16]).unwrap();
        m.write(layout::STACK_TOP - 512, &[0xbb; 128]).unwrap();
        m.write_init(layout::RODATA_BASE + 16, &[0xcc; 8]).unwrap();
        m.set_rodata_used(24);
        m.set_data_used(96);
        m.note_heap_used(1000);
        m.note_stack_pointer(layout::STACK_TOP - 512);
        assert_eq!(m.peak_rss(), 24 + 96 + 1000 + 512);
        m.reset();
        assert_eq!(m.read_uint(layout::DATA_BASE + 64, 8).unwrap(), 0);
        assert_eq!(m.read_uint(layout::HEAP_BASE + 8, 8).unwrap(), 0);
        assert_eq!(m.read_uint(layout::STACK_TOP - 512, 8).unwrap(), 0);
        // The loader image and its accounting survive: only the loader
        // writes rodata, so a reset never has anything there to undo.
        assert_eq!(m.read(layout::RODATA_BASE + 16, 8).unwrap(), &[0xcc; 8]);
        assert_eq!(m.rodata_used(), 24);
        assert_eq!(m.data_used(), 0);
        assert_eq!(m.peak_rss(), 24);
    }

    #[test]
    fn reset_matches_fresh_memory() {
        let mut used = mem();
        used.write(layout::HEAP_BASE + 8, &[0x11; 64]).unwrap();
        used.write(layout::STACK_TOP - 4096, &[0x22; 256]).unwrap();
        used.reset();
        let fresh = mem();
        for s in [
            layout::RODATA_BASE,
            layout::DATA_BASE,
            layout::HEAP_BASE,
            layout::STACK_TOP - 4096,
        ] {
            assert_eq!(used.read(s, 64).unwrap(), fresh.read(s, 64).unwrap());
        }
        assert_eq!(used.peak_rss(), fresh.peak_rss());
    }

    /// Write the last byte of every segment, then check that one byte
    /// past its end faults for reads, program writes, loader writes
    /// and straddling accesses, and that nothing lands in the next
    /// range of the shared buffer or in another segment.
    fn check_segment_edges(m: &mut Memory) {
        let edges = m
            .segments()
            .map(|s| (s.name, s.end(), s.buf_end(), s.writable));
        for (name, end, buf_end, writable) in edges {
            let last = end - 1;
            if writable {
                m.write(last, &[0x5a]).unwrap();
            } else {
                assert!(m.write(last, &[0x5a]).is_err(), "{name}");
                m.write_init(last, &[0x5a]).unwrap();
            }
            assert_eq!(m.read(last, 1).unwrap(), &[0x5a], "{name}");
            assert!(m.read(end, 1).is_err(), "{name}");
            assert!(m.read(last, 2).is_err(), "{name}");
            assert!(m.write(end, &[0xa5]).is_err(), "{name}");
            assert!(m.write_init(end, &[0xa5]).is_err(), "{name}");
            assert!(m.write(last, &[0xa5; 2]).is_err(), "{name}");
            assert!(m.write_init(last, &[0xa5; 2]).is_err(), "{name}");
            assert_eq!(m.bytes[buf_end - 1], 0x5a, "{name}");
            assert_eq!(m.bytes.get(buf_end).copied().unwrap_or(0), 0, "{name}");
        }
        // No last-byte write reached the start of another segment.
        for s in m.segments() {
            assert_eq!(m.read(s.base, 1).unwrap(), &[0], "{}", s.name);
        }
    }

    #[test]
    fn segment_edges_fault_without_touching_neighbours() {
        let tiny = MemConfig {
            rodata_size: 4096,
            data_size: 8192,
            heap_size: 4096,
            stack_size: 16384,
        };
        for cfg in [MemConfig::default(), tiny] {
            let mut m = Memory::new(cfg);
            assert!(m.bytes.len() >= MIN_ALLOC_BYTES);
            check_segment_edges(&mut m);
            m.reset();
            // The reset zeroed the writable last bytes and kept the
            // loader's rodata byte; the edges hold as before.
            for s in m.segments() {
                let kept = if s.writable { 0 } else { 0x5a };
                assert_eq!(m.read(s.end() - 1, 1).unwrap(), &[kept], "{}", s.name);
            }
            check_segment_edges(&mut m);
        }
    }

    /// A memory with `image` mapped as rodata and counted as its
    /// `rodata_used`, as the VM loader leaves it.
    fn mapped(image: &[u8]) -> Memory {
        let mut m = mem();
        m.map_rodata(Arc::new(image.to_vec()));
        m.set_rodata_used(image.len() as u64);
        m
    }

    #[test]
    fn read_straddling_rodata_used_returns_image_then_zeros() {
        let m = mapped(&[1, 2, 3, 4, 5, 6]);
        let base = layout::RODATA_BASE;
        assert_eq!(m.read(base + 2, 4).unwrap(), &[3, 4, 5, 6]);
        assert_eq!(m.read(base + 4, 6).unwrap(), &[5, 6, 0, 0, 0, 0]);
        assert_eq!(m.read_uint(base, 8).unwrap(), 0x0605_0403_0201);
        // A straddling read up to the segment's end.
        let cap = MemConfig::default().rodata_size as u64;
        let all = m.read(base, cap).unwrap();
        assert_eq!(&all[..6], &[1, 2, 3, 4, 5, 6]);
        assert!(all[6..].iter().all(|&b| b == 0));
        assert_eq!(m.peak_rss(), 6);
    }

    #[test]
    fn read_past_rodata_used_within_segment_is_zero() {
        let m = mapped(&[0xff; 24]);
        let base = layout::RODATA_BASE;
        let cap = MemConfig::default().rodata_size as u64;
        assert_eq!(m.read(base + 24, 16).unwrap(), &[0; 16]);
        assert_eq!(m.read(base + cap - 8, 8).unwrap(), &[0; 8]);
        assert!(m.read(base + cap - 4, 8).is_err());
    }

    #[test]
    fn program_write_to_mapped_rodata_faults_with_unchanged_locus() {
        let mut m = mapped(&[0xab; 64]);
        let base = layout::RODATA_BASE;
        // Inside the image, across its end, and past it.
        for offset in [0x10, 0x3f, 0x100] {
            let err = m.write(base + offset, &[1, 2]).unwrap_err();
            assert!(err.write);
            assert_eq!(
                err.locus,
                FaultLocus::Within {
                    segment: "rodata",
                    offset
                }
            );
            assert!(m.write_uint(base + offset, 7, 8).is_err());
        }
        assert_eq!(m.read(base, 64).unwrap(), &[0xab; 64]);
        assert_eq!(m.read(base + 64, 2).unwrap(), &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "loader write into a mapped rodata image")]
    fn loader_write_past_a_mapped_image_panics() {
        let mut m = mapped(&[0xab; 16]);
        let _ = m.write_init(layout::RODATA_BASE + 32, &[1]);
    }

    #[test]
    fn vms_from_one_executor_share_one_rodata_image() {
        use smokestack_ir::{Builder, Function, Module, Type, Value};
        let mut module = Module::new();
        module.add_cstring("greeting", "hello");
        let mut f = Function::new("main", vec![], Type::I64);
        Builder::new(&mut f).ret(Some(Value::i64(0)));
        module.add_func(f);
        let exec = crate::Executor::for_module(module).build();
        let a = exec.vm_seeded(1);
        let mut b = exec.vm_seeded(2);
        assert!(Arc::ptr_eq(a.mem().rodata_image(), b.mem().rodata_image()));
        b.respawn(3);
        assert!(Arc::ptr_eq(a.mem().rodata_image(), b.mem().rodata_image()));
        let greeting = b.global_addr("greeting");
        assert_eq!(b.mem().read(greeting, 6).unwrap(), b"hello\0");
        assert_eq!(b.mem().rodata_used(), 6);
    }

    #[test]
    fn attacker_writable_excludes_rodata() {
        let m = mem();
        assert!(m.attacker_writable(layout::DATA_BASE, 8));
        assert!(m.attacker_writable(layout::STACK_TOP - 64, 8));
        assert!(m.attacker_writable(layout::HEAP_BASE, 8));
        assert!(!m.attacker_writable(layout::RODATA_BASE, 8));
    }
}
