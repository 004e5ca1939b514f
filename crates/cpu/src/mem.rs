//! Process address spaces with segment permissions.
//!
//! The threat model (§3.3) assumes DEP/NX and read-only code pages are in
//! force: code segments are non-writable, and only code segments are
//! executable. Attacks in this reproduction therefore have to be *code
//! reuse* attacks, exactly as in the paper.
//!
//! The same W^X rule lets the interpreter decode each executable segment
//! once, when it is mapped: no path writes an executable segment (image
//! code is mapped read-only, [`AddressSpace::map_anon`] maps only data, and
//! `mprotect` changes nothing), so a predecoded instruction, and the
//! straight-line run table derived from it, never go stale.
//!
//! The stack, the heap and anonymous mappings are zero pages on first
//! touch: such a segment maps its whole extent but materialises only a
//! window of it, grown with zeros when a write lands outside. Every byte
//! outside the window reads zero, so a process pays for the memory it
//! writes, not for the memory it maps.

use fg_isa::image::Image;
use fg_isa::insn::{DecodeInsnError, Insn, INSN_SIZE};
use std::cell::Cell;
use std::fmt;

/// Default stack top (grows downward).
pub const STACK_TOP: u64 = 0x7e10_0000;
/// Default stack size in bytes: the logical extent. Stack pages are
/// materialised on first write.
pub const STACK_SIZE: u64 = 0x10_0000;
/// Default heap base.
pub const HEAP_BASE: u64 = 0x6000_0000;
/// Default heap size in bytes: the logical extent. Heap pages are
/// materialised on first write.
pub const HEAP_SIZE: u64 = 0x40_0000;

/// The granularity of a lazy segment's window: it starts at one aligned
/// page and grows by whole pages.
const PAGE: u64 = 0x1000;

/// A memory access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFault {
    /// Address not mapped by any segment.
    Unmapped { va: u64 },
    /// Write to a read-only segment.
    ReadOnly { va: u64 },
    /// Instruction fetch from a non-executable segment (DEP/NX).
    NotExecutable { va: u64 },
}

impl MemFault {
    /// The faulting address.
    pub fn va(&self) -> u64 {
        match *self {
            MemFault::Unmapped { va }
            | MemFault::ReadOnly { va }
            | MemFault::NotExecutable { va } => va,
        }
    }
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::Unmapped { va } => write!(f, "unmapped address {va:#x}"),
            MemFault::ReadOnly { va } => write!(f, "write to read-only address {va:#x}"),
            MemFault::NotExecutable { va } => write!(f, "execute from NX address {va:#x} (DEP)"),
        }
    }
}

impl std::error::Error for MemFault {}

/// A rejected [`AddressSpace::map_anon`] request: the range wraps the
/// address space or overlaps an existing segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapError {
    /// Requested start address.
    pub va: u64,
    /// Requested length in bytes.
    pub len: usize,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot map {:#x} bytes at {:#x}: overlaps a segment or wraps", self.len, self.va)
    }
}

impl std::error::Error for MapError {}

#[derive(Debug, Clone)]
struct Segment {
    /// Start of the logical extent `[va, end)`: the addresses the segment
    /// maps, whatever is materialised.
    va: u64,
    end: u64,
    /// Start of the materialised window `[base, base + bytes.len())`, which
    /// lies inside the extent. Every byte of the extent outside the window
    /// reads zero.
    base: u64,
    bytes: Vec<u8>,
    writable: bool,
    executable: bool,
    /// The decoded instruction of every whole 8-byte word from `va` (`None`
    /// where the word does not decode); empty unless executable.
    code: Vec<Option<Insn>>,
    /// For each slot of `code`, how many consecutive straight-line
    /// instructions (decodable, not a block terminator) start there.
    runs: Vec<u32>,
}

impl Segment {
    /// A segment materialised whole at map time.
    fn new(va: u64, bytes: Vec<u8>, writable: bool, executable: bool) -> Segment {
        let code: Vec<Option<Insn>> = if executable {
            bytes
                .chunks_exact(INSN_SIZE as usize)
                .zip((va..).step_by(INSN_SIZE as usize))
                .map(|(word, pc)| Insn::decode(word.try_into().expect("8-byte word"), pc).ok())
                .collect()
        } else {
            Vec::new()
        };
        let mut runs = vec![0; code.len()];
        let mut len = 0;
        for (run, insn) in runs.iter_mut().zip(&code).rev() {
            len = if insn.as_ref().is_some_and(|i| !i.is_terminator()) { len + 1 } else { 0 };
            *run = len;
        }
        let end = va + bytes.len() as u64;
        Segment { va, end, base: va, bytes, writable, executable, code, runs }
    }

    /// A writable, non-executable, zeroed segment of extent `[va, end)`
    /// with nothing materialised.
    fn zeroed(va: u64, end: u64) -> Segment {
        Segment {
            va,
            end,
            base: va,
            bytes: Vec::new(),
            writable: true,
            executable: false,
            code: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// The materialised bytes `[va, va + n)`, when the window holds them
    /// all. An address below the window wraps to a huge offset and misses.
    #[inline]
    fn window(&self, va: u64, n: usize) -> Option<&[u8]> {
        let off = va.wrapping_sub(self.base) as usize;
        self.bytes.get(off..off.wrapping_add(n))
    }

    /// [`Segment::window`] for writing, materialising the access first
    /// when the window misses it.
    #[inline]
    fn window_mut(&mut self, va: u64, n: usize) -> Result<&mut [u8], MemFault> {
        let off = va.wrapping_sub(self.base) as usize;
        let end = off.wrapping_add(n);
        if off <= end && end <= self.bytes.len() {
            return Ok(&mut self.bytes[off..end]);
        }
        self.materialise(va, n)
    }

    /// Whether `[va, va + n)` lies inside the extent, given that `va` does.
    fn covers(&self, va: u64, n: usize) -> bool {
        n as u64 <= self.end - va
    }

    /// Reads `[va, va + out.len())` where the window misses it: materialised
    /// bytes where there are any, zeros elsewhere. Materialises nothing.
    #[cold]
    fn read_outside(&self, va: u64, out: &mut [u8]) -> Result<(), MemFault> {
        if !self.covers(va, out.len()) {
            return Err(MemFault::Unmapped { va });
        }
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.window(va + i as u64, 1).map_or(0, |w| w[0]);
        }
        Ok(())
    }

    /// Grows the window with zeros to cover `[va, va + n)` and returns that
    /// range. The window at least doubles, toward the access, in whole
    /// pages, clamped to the extent.
    #[cold]
    fn materialise(&mut self, va: u64, n: usize) -> Result<&mut [u8], MemFault> {
        if !self.covers(va, n) {
            return Err(MemFault::Unmapped { va });
        }
        if n == 0 {
            return Ok(&mut []);
        }
        let (lo, hi) = (va, va + n as u64);
        let (base, top) = (self.base, self.base + self.bytes.len() as u64);
        let (mut new_lo, mut new_hi) =
            if self.bytes.is_empty() { (lo, hi) } else { (lo.min(base), hi.max(top)) };
        new_lo &= !(PAGE - 1);
        new_hi = new_hi.checked_next_multiple_of(PAGE).unwrap_or(u64::MAX);
        let doubled = 2 * (top - base);
        if lo < base {
            new_lo = new_lo.min(new_hi.saturating_sub(doubled));
        } else {
            new_hi = new_hi.max(new_lo.saturating_add(doubled));
        }
        let (new_lo, new_hi) = (new_lo.max(self.va), new_hi.min(self.end));
        let mut bytes = vec![0; (new_hi - new_lo) as usize];
        if !self.bytes.is_empty() {
            let at = (base - new_lo) as usize;
            bytes[at..at + self.bytes.len()].copy_from_slice(&self.bytes);
        }
        self.base = new_lo;
        self.bytes = bytes;
        let off = (va - new_lo) as usize;
        Ok(&mut self.bytes[off..off + n])
    }
}

/// A process address space: image segments plus stack and heap.
///
/// Segments never overlap (the linker keeps modules clear of the stack and
/// heap, and [`AddressSpace::map_anon`] refuses overlaps), so at most one
/// holds a given address. Lookups try the segment the previous fetch (or
/// data access) hit, then scan a compact `(start, end)` index of logical
/// extents.
///
/// Image segments are materialised when mapped. The stack, the heap and
/// anonymous mappings are materialised on first write: a read of memory
/// never written returns 0, and faults depend on the extent alone.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    segs: Vec<Segment>,
    /// `(start, end)` of each segment, in `segs` order.
    index: Vec<(u64, u64)>,
    fetch_hint: Cell<usize>,
    data_hint: Cell<usize>,
}

impl AddressSpace {
    /// Builds an address space from a linked image, adding a stack segment
    /// below [`STACK_TOP`] and a heap at [`HEAP_BASE`]. Neither has a byte
    /// materialised until it is written.
    pub fn from_image(image: &Image) -> AddressSpace {
        let mut segs: Vec<Segment> = image
            .segments()
            .iter()
            .map(|s| Segment::new(s.va, s.bytes.to_vec(), s.writable, !s.writable))
            .collect();
        segs.push(Segment::zeroed(STACK_TOP - STACK_SIZE, STACK_TOP));
        segs.push(Segment::zeroed(HEAP_BASE, HEAP_BASE + HEAP_SIZE));
        let index = segs.iter().map(|s| (s.va, s.end)).collect();
        AddressSpace { segs, index, fetch_hint: Cell::new(0), data_hint: Cell::new(0) }
    }

    /// Maps an additional writable, non-executable, zeroed segment. Like
    /// the stack and the heap, it costs nothing until written: its pages
    /// are materialised on first write.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`], mapping nothing, if the range wraps the address
    /// space or overlaps an existing segment.
    pub fn map_anon(&mut self, va: u64, len: usize) -> Result<(), MapError> {
        let err = MapError { va, len };
        let end = va.checked_add(len as u64).ok_or(err)?;
        if self.index.iter().any(|&(s, e)| va < e && end > s) {
            return Err(err);
        }
        self.segs.push(Segment::zeroed(va, end));
        self.index.push((va, end));
        Ok(())
    }

    /// The index of the segment holding `va`: `hint` if it does, else the
    /// scan's hit, which becomes the new hint.
    #[inline]
    fn find(&self, va: u64, hint: &Cell<usize>) -> Option<usize> {
        let h = hint.get();
        if self.index.get(h).is_some_and(|&(s, e)| va >= s && va < e) {
            return Some(h);
        }
        let i = self.index.iter().position(|&(s, e)| va >= s && va < e)?;
        hint.set(i);
        Some(i)
    }

    #[inline]
    fn seg(&self, va: u64) -> Result<&Segment, MemFault> {
        match self.find(va, &self.data_hint) {
            Some(i) => Ok(&self.segs[i]),
            None => Err(MemFault::Unmapped { va }),
        }
    }

    #[inline]
    fn seg_mut(&mut self, va: u64) -> Result<&mut Segment, MemFault> {
        match self.find(va, &self.data_hint) {
            Some(i) => Ok(&mut self.segs[i]),
            None => Err(MemFault::Unmapped { va }),
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::Unmapped`] for unmapped addresses.
    pub fn read_u8(&self, va: u64) -> Result<u8, MemFault> {
        let s = self.seg(va)?;
        Ok(s.bytes.get(va.wrapping_sub(s.base) as usize).copied().unwrap_or(0))
    }

    /// Reads a little-endian 64-bit word (may not straddle segments).
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::Unmapped`] if any byte is unmapped.
    pub fn read_u64(&self, va: u64) -> Result<u64, MemFault> {
        let s = self.seg(va)?;
        let mut word = [0; 8];
        match s.window(va, 8) {
            Some(w) => word = w.try_into().expect("8-byte slice"),
            None => s.read_outside(va, &mut word)?,
        }
        Ok(u64::from_le_bytes(word))
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::ReadOnly`] for code segments, [`MemFault::Unmapped`]
    /// otherwise.
    pub fn write_u8(&mut self, va: u64, v: u8) -> Result<(), MemFault> {
        let s = self.seg_mut(va)?;
        if !s.writable {
            return Err(MemFault::ReadOnly { va });
        }
        s.window_mut(va, 1)?[0] = v;
        Ok(())
    }

    /// Writes a little-endian 64-bit word (may not straddle segments).
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::ReadOnly`] or [`MemFault::Unmapped`].
    pub fn write_u64(&mut self, va: u64, v: u64) -> Result<(), MemFault> {
        let s = self.seg_mut(va)?;
        if !s.writable {
            return Err(MemFault::ReadOnly { va });
        }
        s.window_mut(va, 8)?.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Copies bytes out of memory.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::Unmapped`] if the range is not fully mapped in one
    /// segment.
    pub fn read_bytes(&self, va: u64, len: usize) -> Result<Vec<u8>, MemFault> {
        let s = self.seg(va)?;
        if let Some(w) = s.window(va, len) {
            return Ok(w.to_vec());
        }
        if !s.covers(va, len) {
            return Err(MemFault::Unmapped { va });
        }
        let mut out = vec![0; len];
        s.read_outside(va, &mut out)?;
        Ok(out)
    }

    /// Copies bytes into memory.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::ReadOnly`] or [`MemFault::Unmapped`].
    pub fn write_bytes(&mut self, va: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let s = self.seg_mut(va)?;
        if !s.writable {
            return Err(MemFault::ReadOnly { va });
        }
        s.window_mut(va, bytes.len())?.copy_from_slice(bytes);
        Ok(())
    }

    /// Fetches an 8-byte instruction word, enforcing NX.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::NotExecutable`] when fetching from a data/stack
    /// segment (DEP), [`MemFault::Unmapped`] otherwise.
    pub fn fetch(&self, pc: u64) -> Result<[u8; 8], MemFault> {
        let Some(i) = self.find(pc, &self.fetch_hint) else {
            return Err(MemFault::Unmapped { va: pc });
        };
        let s = &self.segs[i];
        if !s.executable {
            return Err(MemFault::NotExecutable { va: pc });
        }
        // Executable segments are materialised whole: a miss is unmapped.
        let word = s.window(pc, 8).ok_or(MemFault::Unmapped { va: pc })?;
        Ok(word.try_into().expect("8-byte slice"))
    }

    /// The instruction at `pc`: what [`AddressSpace::fetch`] then
    /// [`Insn::decode`] return, read from the segment's predecoded slot when
    /// `pc` starts a whole, decodable word of an executable segment.
    ///
    /// # Errors
    ///
    /// The outer error is the fetch fault, the inner one the decode error of
    /// an undecodable word.
    #[inline]
    pub fn fetch_insn(&self, pc: u64) -> Result<Result<Insn, DecodeInsnError>, MemFault> {
        match self.code_slot(pc).and_then(|(seg, slot, _)| self.slot_insn(seg, slot)) {
            Some(insn) => Ok(Ok(insn)),
            None => Ok(Insn::decode(self.fetch(pc)?, pc)),
        }
    }

    /// The predecoded slot `pc` starts, when it starts a decodable word of an
    /// executable segment: the segment's index, the slot's, and how many
    /// straight-line instructions start there.
    #[inline]
    pub(crate) fn code_slot(&self, pc: u64) -> Option<(usize, usize, u64)> {
        let i = self.find(pc, &self.fetch_hint)?;
        let s = &self.segs[i];
        let off = pc - s.va;
        let slot = (off / INSN_SIZE) as usize;
        let decodable = off.is_multiple_of(INSN_SIZE) && matches!(s.code.get(slot), Some(Some(_)));
        decodable.then(|| (i, slot, u64::from(s.runs[slot])))
    }

    /// The instruction in a predecoded slot, if it decodes.
    #[inline]
    pub(crate) fn slot_insn(&self, seg: usize, slot: usize) -> Option<Insn> {
        self.segs[seg].code.get(slot).copied().flatten()
    }

    /// Total mapped bytes: the segments' logical extents.
    pub fn mapped_bytes(&self) -> usize {
        self.segs.iter().map(|s| (s.end - s.va) as usize).sum()
    }

    /// Total materialised bytes: every image segment, plus the windows of
    /// the stack, the heap and anonymous mappings that writes have grown.
    pub fn materialised_bytes(&self) -> usize {
        self.segs.iter().map(|s| s.bytes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_isa::asm::Asm;
    use fg_isa::image::Linker;

    fn space() -> AddressSpace {
        let mut a = Asm::new("app");
        a.export("main");
        a.label("main");
        a.halt();
        a.data_bytes("buf", &[1, 2, 3, 4, 5, 6, 7, 8]);
        let img = Linker::new(a.finish().unwrap()).link().unwrap();
        AddressSpace::from_image(&img)
    }

    #[test]
    fn stack_and_heap_are_mapped_writable() {
        let mut m = space();
        m.write_u64(STACK_TOP - 8, 0xdead).unwrap();
        assert_eq!(m.read_u64(STACK_TOP - 8).unwrap(), 0xdead);
        m.write_u8(HEAP_BASE, 7).unwrap();
        assert_eq!(m.read_u8(HEAP_BASE).unwrap(), 7);
    }

    #[test]
    fn a_fresh_space_materialises_no_stack_or_heap() {
        let mut m = space();
        let image_bytes = m.mapped_bytes() - (STACK_SIZE + HEAP_SIZE) as usize;
        assert_eq!(m.materialised_bytes(), image_bytes);
        assert_eq!(m.read_u64(STACK_TOP - 8), Ok(0));
        assert_eq!(m.read_bytes(HEAP_BASE, 64), Ok(vec![0; 64]));
        assert_eq!(m.materialised_bytes(), image_bytes, "reads materialise nothing");
        m.write_u64(STACK_TOP - 4104, 1).unwrap();
        assert_eq!(m.materialised_bytes(), image_bytes + PAGE as usize, "a write, one page");
    }

    #[test]
    fn code_is_read_only_and_executable() {
        let mut m = space();
        let code = fg_isa::image::EXEC_BASE;
        assert!(m.fetch(code).is_ok());
        assert_eq!(m.write_u8(code, 0).unwrap_err(), MemFault::ReadOnly { va: code });
    }

    #[test]
    fn nx_prevents_stack_execution() {
        let m = space();
        let sp = STACK_TOP - 64;
        assert_eq!(m.fetch(sp).unwrap_err(), MemFault::NotExecutable { va: sp });
    }

    #[test]
    fn data_section_is_writable_not_executable() {
        let mut m = space();
        // Data starts after code+GOT; locate via image bytes: buf holds 1..8.
        let mut data_va = None;
        for va in fg_isa::image::EXEC_BASE..fg_isa::image::EXEC_BASE + 0x100 {
            if m.read_u8(va) == Ok(1) && m.read_u8(va + 1) == Ok(2) {
                data_va = Some(va);
                break;
            }
        }
        let va = data_va.expect("data found");
        m.write_u8(va, 9).unwrap();
        assert_eq!(m.read_u8(va).unwrap(), 9);
        assert!(matches!(m.fetch(va), Err(MemFault::NotExecutable { .. })));
    }

    #[test]
    fn unmapped_access_faults() {
        let m = space();
        assert_eq!(m.read_u8(0x10).unwrap_err(), MemFault::Unmapped { va: 0x10 });
        assert_eq!(m.read_u64(0x10).unwrap_err(), MemFault::Unmapped { va: 0x10 });
    }

    #[test]
    fn bulk_read_write_roundtrip() {
        let mut m = space();
        m.write_bytes(HEAP_BASE + 16, b"hello").unwrap();
        assert_eq!(m.read_bytes(HEAP_BASE + 16, 5).unwrap(), b"hello");
    }

    #[test]
    fn map_anon_extends_space() {
        let mut m = space();
        m.map_anon(0x5000_0000, 4096).unwrap();
        m.write_u64(0x5000_0000, 1).unwrap();
        assert_eq!(m.read_u64(0x5000_0000).unwrap(), 1);
        assert!(matches!(m.fetch(0x5000_0000), Err(MemFault::NotExecutable { .. })));
    }

    #[test]
    fn map_anon_rejects_overlap_and_wrap() {
        let mut m = space();
        let before = m.mapped_bytes();
        assert_eq!(m.map_anon(HEAP_BASE, 16), Err(MapError { va: HEAP_BASE, len: 16 }));
        assert!(m.map_anon(HEAP_BASE - 8, 16).is_err(), "straddles the heap start");
        assert!(m.map_anon(u64::MAX - 8, 16).is_err(), "wraps the address space");
        assert_eq!(m.mapped_bytes(), before, "a refused mapping maps nothing");
        assert_eq!(m.read_u8(u64::MAX - 1).unwrap_err(), MemFault::Unmapped { va: u64::MAX - 1 });
    }

    #[test]
    fn run_table_counts_straight_line_words() {
        // Each slot's run is the number of words from it, within its
        // segment, that fetch and decode to a non-terminator; a damaged
        // word (opcode 0xff) ends a run as a branch or `halt` does.
        let mut a = Asm::new("app");
        a.export("main");
        a.label("main");
        a.nop();
        a.movi(fg_isa::insn::regs::R1, 1);
        a.jmp("main");
        a.nop();
        a.nop();
        a.ret();
        a.nop();
        a.halt();
        let img = Linker::new(a.finish().unwrap()).link().unwrap();
        let mut m = AddressSpace::from_image(&img);
        let i = m.segs.iter().position(|s| s.executable).expect("a code segment");
        let s = &m.segs[i];
        let mut bytes = s.bytes.clone();
        bytes[(img.entry() - s.va + 3 * INSN_SIZE) as usize] = 0xff;
        m.segs[i] = Segment::new(s.va, bytes, false, true);
        for (i, s) in m.segs.iter().enumerate().filter(|(_, s)| s.executable) {
            let straight = |pc: u64| {
                pc + INSN_SIZE <= s.end
                    && m.fetch(pc)
                        .is_ok_and(|w| Insn::decode(w, pc).is_ok_and(|i| !i.is_terminator()))
            };
            for (slot, &run) in s.runs.iter().enumerate() {
                let pc = s.va + slot as u64 * INSN_SIZE;
                let run = u64::from(run);
                assert!((0..run).all(|k| straight(pc + k * INSN_SIZE)), "slot at {pc:#x}");
                assert!(!straight(pc + run * INSN_SIZE), "slot at {pc:#x}");
                let decodes = m.fetch(pc).is_ok_and(|w| Insn::decode(w, pc).is_ok());
                assert_eq!(m.code_slot(pc), decodes.then_some((i, slot, run)), "slot at {pc:#x}");
            }
        }
        let main = img.entry();
        let runs: Vec<u64> =
            (0..8).map(|k| m.code_slot(main + k * INSN_SIZE).map_or(0, |c| c.2)).collect();
        assert_eq!(runs, [2, 1, 0, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn fault_display_and_va() {
        let f = MemFault::NotExecutable { va: 0x123 };
        assert!(f.to_string().contains("DEP"));
        assert_eq!(f.va(), 0x123);
    }
}
