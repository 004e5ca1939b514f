//! Table of Physical Addresses (ToPA) output scheme.
//!
//! IPT writes trace output either to a single contiguous region or to a
//! collection of variable-sized regions linked by ToPA tables. FlowGuard
//! "opts for the latter one … and stores the trace output into one ToPA with
//! two regions" (§5.1). This module models the ToPA mechanics the paper
//! relies on:
//!
//! * variable-sized regions (power-of-two, ≥4 KiB) in table order;
//! * the `INT` flag raising a performance-monitoring interrupt (PMI) when a
//!   region fills — the paper's fallback trigger ("periodic performance
//!   monitoring interrupts generated when the trace buffer is full", §7.1.2);
//! * the `STOP` flag halting trace generation;
//! * the `END` entry linking back to the start, making the buffer circular,
//!   so old packets are overwritten and a cold decoder must re-sync via PSB.

use crate::encode::TraceSink;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Flags on a ToPA entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TopaFlags {
    /// Raise a PMI when this region fills.
    pub int: bool,
    /// Stop tracing when this region fills.
    pub stop: bool,
}

/// One ToPA entry: a trace output region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopaRegion {
    size: usize,
    flags: TopaFlags,
    buf: Vec<u8>,
}

impl TopaRegion {
    /// Creates a region of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two or is smaller than 4 KiB
    /// (hardware constraint on ToPA region sizes).
    pub fn new(size: usize, flags: TopaFlags) -> TopaRegion {
        assert!(size.is_power_of_two() && size >= 4096, "ToPA regions are power-of-two ≥ 4 KiB");
        TopaRegion { size, flags, buf: Vec::with_capacity(size) }
    }

    /// Region capacity in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Flags of the region.
    pub fn flags(&self) -> TopaFlags {
        self.flags
    }

    /// Bytes currently held.
    pub fn contents(&self) -> &[u8] {
        &self.buf
    }
}

/// Errors constructing a ToPA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopaError {
    /// No regions configured.
    Empty,
}

impl fmt::Display for TopaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopaError::Empty => write!(f, "ToPA must contain at least one region"),
        }
    }
}

impl std::error::Error for TopaError {}

/// A circular ToPA output buffer implementing [`TraceSink`].
///
/// # Examples
///
/// ```
/// use fg_ipt::topa::Topa;
/// use fg_ipt::encode::{PacketEncoder, TraceSink};
///
/// // FlowGuard's default configuration: one ToPA, two regions, ~16 KiB.
/// let topa = Topa::two_regions(8192).unwrap();
/// let mut enc = PacketEncoder::new(topa);
/// enc.tip(0x40_0000);
/// assert!(enc.into_sink().total_written() > 0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topa {
    regions: Vec<TopaRegion>,
    cur: usize,
    total_written: u64,
    wrapped: bool,
    pmi_pending: bool,
    stopped: bool,
}

impl Topa {
    /// Builds a ToPA from regions.
    ///
    /// # Errors
    ///
    /// Returns [`TopaError::Empty`] when `regions` is empty.
    pub fn new(regions: Vec<TopaRegion>) -> Result<Topa, TopaError> {
        if regions.is_empty() {
            return Err(TopaError::Empty);
        }
        Ok(Topa {
            regions,
            cur: 0,
            total_written: 0,
            wrapped: false,
            pmi_pending: false,
            stopped: false,
        })
    }

    /// The paper's default: two equally sized regions, the first flagged
    /// `INT` so a PMI fires at half-capacity.
    ///
    /// # Errors
    ///
    /// Propagates [`TopaError`] (never for valid power-of-two sizes).
    pub fn two_regions(region_size: usize) -> Result<Topa, TopaError> {
        Topa::new(vec![
            TopaRegion::new(region_size, TopaFlags { int: true, stop: false }),
            TopaRegion::new(region_size, TopaFlags::default()),
        ])
    }

    /// Total capacity across regions.
    pub fn capacity(&self) -> usize {
        self.regions.iter().map(|r| r.size).sum()
    }

    /// Monotone count of bytes ever written (including overwritten ones).
    pub fn total_written(&self) -> u64 {
        self.total_written
    }

    /// Whether the buffer has wrapped at least once.
    pub fn has_wrapped(&self) -> bool {
        self.wrapped
    }

    /// Whether a PMI is pending; clears the flag (interrupt acknowledge).
    pub fn take_pmi(&mut self) -> bool {
        std::mem::take(&mut self.pmi_pending)
    }

    /// Whether a PMI is pending, without acknowledging it.
    pub fn pmi_pending(&self) -> bool {
        self.pmi_pending
    }

    /// Whether a STOP region filled and tracing halted.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// The configured regions.
    pub fn regions(&self) -> &[TopaRegion] {
        &self.regions
    }

    /// The retained trace as a chronological sequence of borrowed region
    /// slices — the zero-copy view of [`Topa::chronological`]. After a
    /// wrap, the oldest surviving bytes come from the regions ahead of the
    /// write cursor; a packet may straddle two slices (a region seam),
    /// which is why consumers carry a partial-packet fragment across
    /// segments (exactly as with the real hardware).
    ///
    /// The view is an iterator over the regions themselves: building it
    /// allocates nothing and copies no trace byte.
    pub fn segments(&self) -> Segments<'_> {
        Segments {
            regions: &self.regions,
            next: (self.cur + 1) % self.regions.len(),
            left: self.regions.len(),
        }
    }

    /// Bytes currently retained across all regions (the total length of
    /// [`Topa::segments`]); at most [`Topa::capacity`].
    pub fn retained_len(&self) -> usize {
        self.regions.iter().map(|r| r.buf.len()).sum()
    }

    /// The trace bytes in chronological order, linearised into one owned
    /// buffer. Prefer [`Topa::segments`] on hot paths — this copies every
    /// retained byte and exists for cold consumers (slow-path escalation,
    /// flight records, tests).
    pub fn chronological(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.capacity());
        self.chronological_into(&mut out);
        out
    }

    /// [`Topa::chronological`] into a caller-reused buffer (cleared first),
    /// so repeat linearisations don't reallocate.
    pub fn chronological_into(&self, out: &mut Vec<u8>) {
        out.clear();
        for p in self.segments() {
            out.extend_from_slice(p);
        }
    }

    /// Copies the most recent `n` chronological bytes into `out` (clearing
    /// it first) — the tail of [`Topa::chronological`] without copying the
    /// whole buffer. Retained for bounded cold windows; the streaming
    /// residue read is zero-copy via [`Topa::segments`] instead.
    pub fn tail_into(&self, n: usize, out: &mut Vec<u8>) {
        out.clear();
        let mut skip = self.retained_len().saturating_sub(n);
        for seg in self.segments() {
            let from = skip.min(seg.len());
            skip -= from;
            out.extend_from_slice(&seg[from..]);
        }
    }

    fn advance_region(&mut self) {
        let flags = self.regions[self.cur].flags;
        if flags.int {
            self.pmi_pending = true;
        }
        if flags.stop {
            self.stopped = true;
            return;
        }
        self.cur += 1;
        if self.cur == self.regions.len() {
            // END entry: wrap to the first region.
            self.cur = 0;
            self.wrapped = true;
        }
        self.regions[self.cur].buf.clear();
    }
}

impl TraceSink for Topa {
    fn write_packet(&mut self, bytes: &[u8]) {
        if self.stopped {
            return;
        }
        let mut rest = bytes;
        while !rest.is_empty() {
            let region = &mut self.regions[self.cur];
            let space = region.size - region.buf.len();
            if space == 0 {
                self.advance_region();
                if self.stopped {
                    return;
                }
                continue;
            }
            let n = space.min(rest.len());
            self.regions[self.cur].buf.extend_from_slice(&rest[..n]);
            self.total_written += n as u64;
            rest = &rest[n..];
        }
    }

    fn is_stopped(&self) -> bool {
        self.stopped
    }
}

/// Chronological region slices of a [`Topa`] ([`Topa::segments`]): the
/// regions after the write cursor (empty until the buffer first wraps),
/// then the ones before it, then the cursor's region.
#[derive(Debug, Clone)]
pub struct Segments<'a> {
    regions: &'a [TopaRegion],
    next: usize,
    left: usize,
}

impl<'a> Iterator for Segments<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        self.left = self.left.checked_sub(1)?;
        let region = &self.regions[self.next];
        self.next = (self.next + 1) % self.regions.len();
        Some(&region.buf)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Segments<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_topa_rejected() {
        assert_eq!(Topa::new(vec![]).unwrap_err(), TopaError::Empty);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bad_region_size_panics() {
        let _ = TopaRegion::new(5000, TopaFlags::default());
    }

    #[test]
    fn writes_accumulate_in_order() {
        let mut t = Topa::two_regions(4096).unwrap();
        t.write_packet(&[1, 2, 3]);
        t.write_packet(&[4]);
        assert_eq!(t.chronological(), vec![1, 2, 3, 4]);
        assert_eq!(t.total_written(), 4);
        assert!(!t.has_wrapped());
    }

    #[test]
    fn pmi_raised_when_int_region_fills() {
        let mut t = Topa::two_regions(4096).unwrap();
        t.write_packet(&vec![0xaa; 4096]);
        assert!(!t.pmi_pending(), "PMI fires on crossing, not on exact fill");
        t.write_packet(&[1]);
        assert!(t.pmi_pending());
        assert!(t.take_pmi());
        assert!(!t.pmi_pending(), "acknowledged");
    }

    #[test]
    fn wraps_circularly_and_keeps_recent_data() {
        let mut t = Topa::two_regions(4096).unwrap();
        // Fill both regions, then one more byte → wrap to region 0.
        t.write_packet(&vec![0x11; 4096]);
        t.write_packet(&vec![0x22; 4096]);
        t.write_packet(&[0x33]);
        assert!(t.has_wrapped());
        let bytes = t.chronological();
        // Region 1 (old 0x22 data) then the fresh 0x33 byte.
        assert_eq!(bytes.len(), 4097);
        assert_eq!(bytes[0], 0x22);
        assert_eq!(*bytes.last().unwrap(), 0x33);
    }

    #[test]
    fn stop_region_halts_tracing() {
        let t =
            Topa::new(vec![TopaRegion::new(4096, TopaFlags { int: false, stop: true })]).unwrap();
        let mut t = t;
        t.write_packet(&vec![0; 4096]);
        t.write_packet(&[1, 2, 3]);
        assert!(t.stopped());
        assert_eq!(t.total_written(), 4096, "post-stop writes dropped");
    }

    #[test]
    fn capacity_reports_sum() {
        let t = Topa::two_regions(8192).unwrap();
        assert_eq!(t.capacity(), 16384, "paper's ~16 KiB default");
    }

    #[test]
    fn segments_concatenation_is_chronological() {
        let mut t = Topa::two_regions(4096).unwrap();
        t.write_packet(&vec![0x11; 4096]);
        t.write_packet(&vec![0x22; 4096]);
        // Unwrapped: two segments, concatenation == chronological.
        let flat: Vec<u8> = t.segments().collect::<Vec<_>>().concat();
        assert_eq!(flat, t.chronological());
        assert_eq!(t.retained_len(), 8192);
        // Wrap: the view stays consistent with the linearised buffer.
        t.write_packet(&[0x33, 0x34]);
        assert!(t.has_wrapped());
        let flat: Vec<u8> = t.segments().collect::<Vec<_>>().concat();
        assert_eq!(flat, t.chronological());
        assert_eq!(t.retained_len(), flat.len());
        // The slices borrow the regions directly — no bytes were copied.
        let segs: Vec<&[u8]> = t.segments().collect();
        assert_eq!(segs.len(), 2);
        assert!(std::ptr::eq(segs[1].as_ptr(), t.regions()[0].contents().as_ptr()));
    }

    #[test]
    fn chronological_into_reuses_capacity() {
        let mut t = Topa::two_regions(4096).unwrap();
        t.write_packet(&[7; 100]);
        let mut buf = Vec::new();
        t.chronological_into(&mut buf);
        assert_eq!(buf, t.chronological());
        t.write_packet(&[8]);
        t.chronological_into(&mut buf);
        let cap = buf.capacity();
        t.chronological_into(&mut buf);
        assert_eq!(buf.capacity(), cap, "repeat linearisation must not reallocate");
        assert_eq!(*buf.last().unwrap(), 8);
    }

    #[test]
    fn packet_split_across_regions() {
        let mut t = Topa::two_regions(4096).unwrap();
        t.write_packet(&vec![9; 4095]);
        t.write_packet(&[1, 2, 3]); // spans the region boundary
        let bytes = t.chronological();
        assert_eq!(&bytes[4094..], &[9, 1, 2, 3]);
    }
}
