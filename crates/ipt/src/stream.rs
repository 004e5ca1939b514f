//! Streaming ToPA consumption — the engine's one trace consumer.
//!
//! FlowGuard's premise is that PT-based CFI stays cheap only when trace
//! consumption keeps up with the hardware. [`StreamConsumer`] tracks a
//! **frontier** (the monotone stream position, in the ToPA's
//! `total_written` coordinates, up to which packets have been decoded) and
//! drains the **residue** — the bytes the producer has written past the
//! frontier — straight out of the ToPA's region slices.
//!
//! The engine drives it from two points: every check drains the residue,
//! but never more than the check window ([`StreamConsumer::drain_window`]);
//! with streaming on, trace-poll slots and region-fill PMIs drain in the
//! background as well, so a check finds only a few residue bytes. Wrap and
//! OVF handling reuse [`IncrementalScanner`]'s checkpoint seams: a wrap
//! past the frontier triggers one cold PSB re-synchronisation and is
//! reported as a cold restart in [`DrainStats`].

use crate::decode::PacketError;
use crate::fast::{FastScan, IP_PAYLOAD_LEN};
use crate::incremental::{AppendInfo, IncrementalScanner};
use crate::packet::wire;
use fg_trace::{PhaseSpan, SpanProfiler};
use std::sync::Arc;

/// What the header bytes at the front of `buf` say about the packet there.
pub(crate) enum PacketNeed {
    /// The packet occupies this many bytes in total.
    Known(usize),
    /// Not enough header bytes yet to tell (an `EXT` opcode cut before its
    /// subtype byte).
    MoreHeader,
    /// The header does not decode — genuine damage, not a cut packet.
    Undecodable,
}

/// Header-length walk for the packet starting at `buf[0]` (no payload
/// decode). The longest packet is the 16-byte PSB ([`wire::PSB_LEN`]), so a
/// partial packet is always at most `PSB_LEN - 1` bytes — the bound on
/// every seam carry.
pub(crate) fn packet_need(buf: &[u8]) -> PacketNeed {
    let Some(&b0) = buf.first() else { return PacketNeed::MoreHeader };
    if b0 & 1 == 0 {
        if b0 == wire::EXT {
            let Some(&b1) = buf.get(1) else { return PacketNeed::MoreHeader };
            match b1 {
                wire::EXT_PSB => PacketNeed::Known(wire::PSB_LEN),
                wire::EXT_PSBEND | wire::EXT_OVF => PacketNeed::Known(2),
                wire::EXT_CBR => PacketNeed::Known(4),
                wire::EXT_PIP | wire::EXT_LONG_TNT => PacketNeed::Known(8),
                _ => PacketNeed::Undecodable,
            }
        } else {
            PacketNeed::Known(1) // PAD or short TNT
        }
    } else if b0 == wire::MODE {
        PacketNeed::Known(2)
    } else if matches!(b0 & 0x1f, wire::TIP_OP | wire::TIP_PGE_OP | wire::TIP_PGD_OP | wire::FUP_OP)
    {
        match IP_PAYLOAD_LEN[(b0 >> 5) as usize] {
            n if n >= 0 => PacketNeed::Known(1 + n as usize),
            _ => PacketNeed::Undecodable,
        }
    } else {
        PacketNeed::Undecodable
    }
}

/// Accumulates per-piece advance results into one logical drain's
/// [`AppendInfo`].
fn absorb(acc: &mut AppendInfo, info: AppendInfo) {
    acc.new_bytes += info.new_bytes;
    acc.new_tips += info.new_tips;
    acc.cold_restart |= info.cold_restart;
}

/// Calls `f` on each chronological piece of `segs` after the first `skip`
/// bytes, stopping at the first error.
fn for_each_piece<'s>(
    segs: impl Iterator<Item = &'s [u8]>,
    mut skip: usize,
    mut f: impl FnMut(&[u8]) -> Result<(), PacketError>,
) -> Result<(), PacketError> {
    for seg in segs {
        if skip >= seg.len() {
            skip -= seg.len();
            continue;
        }
        f(&seg[skip..])?;
        skip = 0;
    }
    Ok(())
}

/// Cumulative accounting of a [`StreamConsumer`]'s drains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Drain calls that consumed at least one byte.
    pub drains: u64,
    /// Total bytes drained.
    pub drained_bytes: u64,
    /// Wraps past the frontier (cold PSB re-synchronisations).
    pub cold_restarts: u64,
    /// Bytes physically copied while draining: seam/frontier partial-packet
    /// carries (≤ 15 bytes each) plus the window a drain restarts in when
    /// the residue outgrew its budget or the buffer wrapped past the
    /// frontier. Everything else is scanned in place from borrowed region
    /// slices — this is the numerator of the copied-bytes-per-drained-KiB
    /// gate.
    pub copied_bytes: u64,
    /// Partial packets carried across a segment seam or the frontier.
    pub seam_carries: u64,
}

impl DrainStats {
    /// Bytes copied per KiB drained — ≈ 0 for the zero-copy drain path
    /// (only seam carries and rare restart windows copy).
    pub fn copied_per_drained_kib(&self) -> f64 {
        if self.drained_bytes == 0 {
            return 0.0;
        }
        self.copied_bytes as f64 * 1024.0 / self.drained_bytes as f64
    }
}

/// A continuous ToPA consumer over a checkpointed [`IncrementalScanner`].
#[derive(Debug, Clone, Default)]
pub struct StreamConsumer {
    scanner: IncrementalScanner,
    /// Bytes of a packet cut by the frontier or a region seam: accepted
    /// from the producer (part of the frontier) but withheld from the
    /// scanner until the rest of the packet arrives. At most
    /// `PSB_LEN - 1` bytes; the buffer's capacity is reused across drains
    /// (no steady-state allocation).
    pending: Vec<u8>,
    /// Reused buffer holding the newest bytes a drain restarts in (the
    /// residue outgrew the drain's budget, or the buffer wrapped past the
    /// frontier) — the one drain that is not zero-copy; its copies are
    /// counted in [`DrainStats::copied_bytes`].
    window: Vec<u8>,
    stats: DrainStats,
    /// Cycle-attribution profiler plus the modeled per-byte scan cost;
    /// wired by the engine so drains show up as spans.
    profiler: Option<(Arc<SpanProfiler>, f64)>,
}

impl StreamConsumer {
    /// A fresh consumer with an empty accumulated scan.
    pub fn new() -> StreamConsumer {
        let mut c = StreamConsumer::default();
        // One max-sized packet (the 16-byte PSB) bounds every carry: sizing
        // the buffer up front makes steady-state drains allocation-free.
        c.pending.reserve(wire::PSB_LEN);
        c
    }

    /// The frontier: stream position (monotone `total_written` coordinates)
    /// consumed so far, including a withheld partial trailing packet.
    pub fn frontier(&self) -> u64 {
        self.scanner.stream_pos() + self.pending.len() as u64
    }

    /// The residue: bytes written past the frontier and not yet drained.
    pub fn residue(&self, total_written: u64) -> u64 {
        total_written.saturating_sub(self.frontier())
    }

    /// The frontier compare — the whole fast-path cost when the consumer
    /// has kept up.
    pub fn is_drained(&self, total_written: u64) -> bool {
        self.residue(total_written) == 0
    }

    /// Drains the residue from `chronological` (the most recent bytes of
    /// the stream; the last `residue` bytes suffice) up to `total_written`.
    ///
    /// The frontier may split a packet (`total_written` need not be a
    /// packet boundary): the cut packet's head is withheld and completed by
    /// a later drain. A wrap past the frontier performs one cold PSB
    /// re-synchronisation over the retained window.
    ///
    /// # Errors
    ///
    /// Returns a [`PacketError`] when a PSB+ bundle itself is corrupt;
    /// callers typically [`StreamConsumer::skip_to`] past the damage.
    pub fn drain(
        &mut self,
        chronological: &[u8],
        total_written: u64,
    ) -> Result<AppendInfo, PacketError> {
        self.drain_segments(&[chronological], total_written)
    }

    /// [`StreamConsumer::drain`] over a chronological slice-of-slices view
    /// (for example [`Topa::segments`](crate::topa::Topa::segments)) — the
    /// zero-copy drain path. The residue is scanned **in place** from the
    /// borrowed slices; the only bytes copied are the ≤ 15-byte fragments
    /// of a packet straddling a segment seam (or cut by the frontier),
    /// carried in a small reused buffer, plus the retained window on a
    /// wrap past the frontier. Both are counted in
    /// [`DrainStats::copied_bytes`].
    ///
    /// Bit-identical to draining the linearised concatenation of `segs`.
    ///
    /// # Errors
    ///
    /// Returns a [`PacketError`] when a PSB+ bundle itself is corrupt;
    /// callers typically [`StreamConsumer::skip_to`] past the damage.
    pub fn drain_segments(
        &mut self,
        segs: &[&[u8]],
        total_written: u64,
    ) -> Result<AppendInfo, PacketError> {
        self.drain_bounded(segs.iter().copied(), total_written, usize::MAX, false)
    }

    /// The engine's drain: the residue up to `total_written`, read in place
    /// from the chronological `segs` (for example
    /// [`Topa::segments`](crate::topa::Topa::segments)), but never more
    /// than `budget` bytes of it.
    ///
    /// * When the residue exceeds `budget` and those bytes are still
    ///   retained, the excess is skipped: the drain resumes at
    ///   `total_written - budget`, and the pair across the skip seam
    ///   becomes unjudgeable (a [`Boundary::Resync`]).
    /// * When the buffer has wrapped past the frontier, the drain
    ///   cold-restarts on a PSB inside the newest `budget` bytes and counts
    ///   a cold restart.
    ///
    /// Both restarts scan the newest `min(budget, retained)` bytes, copied
    /// into a reused window buffer and counted in
    /// [`DrainStats::copied_bytes`]. A drain with no cap passes
    /// `usize::MAX`.
    ///
    /// The engine drains at checks, poll slots and PMIs — between
    /// instructions, when the producer has written whole packets — so
    /// `total_written` is a packet boundary here: a fragment left cut at
    /// the frontier is damage and is scanned as such, never withheld.
    ///
    /// [`Boundary::Resync`]: crate::fast::Boundary::Resync
    ///
    /// # Errors
    ///
    /// Returns a [`PacketError`] when a PSB+ bundle itself is corrupt;
    /// callers typically [`StreamConsumer::skip_to`] past the damage.
    pub fn drain_window<'s>(
        &mut self,
        segs: impl Iterator<Item = &'s [u8]> + Clone,
        total_written: u64,
        budget: usize,
    ) -> Result<AppendInfo, PacketError> {
        self.drain_bounded(segs, total_written, budget, true)
    }

    /// [`StreamConsumer::drain_window`] plus span attribution: the drained
    /// bytes are recorded as one `phase` span, charged at the wired
    /// profiler's per-byte cost. A failed drain still records its (empty)
    /// span. Without a wired profiler this is exactly `drain_window`.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamConsumer::drain_window`]'s [`PacketError`].
    pub fn drain_window_profiled<'s>(
        &mut self,
        segs: impl Iterator<Item = &'s [u8]> + Clone,
        total_written: u64,
        budget: usize,
        phase: PhaseSpan,
    ) -> Result<AppendInfo, PacketError> {
        let res = self.drain_window(segs, total_written, budget);
        if let Some((prof, cycles_per_byte)) = &self.profiler {
            let bytes = res.as_ref().map_or(0, |info| info.new_bytes);
            prof.record(phase, bytes as f64 * cycles_per_byte, bytes);
        }
        res
    }

    fn drain_bounded<'s>(
        &mut self,
        segs: impl Iterator<Item = &'s [u8]> + Clone,
        total_written: u64,
        budget: usize,
        whole_packets: bool,
    ) -> Result<AppendInfo, PacketError> {
        let delta = self.residue(total_written);
        if delta == 0 {
            // The frontier compare: a withheld partial packet cannot
            // complete without new bytes either.
            return Ok(AppendInfo::default());
        }
        let retained: usize = segs.clone().map(<[u8]>::len).sum();
        if delta > retained as u64 || delta > budget as u64 {
            if delta <= retained as u64 {
                // More residue than one window: skip the excess.
                self.skip_to(total_written - budget as u64);
            }
            // Restart inside the newest `budget` bytes, read out of the
            // regions: the PSB search must cross region seams.
            self.pending.clear();
            self.window.clear();
            let window = &mut self.window;
            for_each_piece(segs, retained - budget.min(retained), |piece| {
                window.extend_from_slice(piece);
                Ok(())
            })?;
            self.stats.copied_bytes += self.window.len() as u64;
            let info = self.scanner.advance(&self.window, total_written, budget)?;
            self.record(&info);
            return Ok(info);
        }
        // Feed each in-place piece after the frontier through the
        // packet-boundary carve.
        let mut acc = AppendInfo::default();
        for_each_piece(segs, retained - delta as usize, |piece| self.feed_piece(piece, &mut acc))?;
        if whole_packets && !self.pending.is_empty() {
            // The frontier is a packet boundary, so a fragment cut there is
            // damage: scan it now instead of waiting for its missing bytes.
            let len = self.pending.len();
            let target = self.scanner.stream_pos() + len as u64;
            let info = self.scanner.advance(&self.pending, target, len)?;
            self.pending.clear();
            absorb(&mut acc, info);
        }
        self.record(&acc);
        Ok(acc)
    }

    /// Feeds one contiguous residue piece: completes a carried partial
    /// packet from the piece's head, scans the complete-packet body
    /// directly from the borrowed slice, and withholds a trailing partial
    /// packet (≤ 15 bytes) into the reused carry buffer.
    fn feed_piece(&mut self, piece: &[u8], acc: &mut AppendInfo) -> Result<(), PacketError> {
        let mut rest = piece;
        if !self.pending.is_empty() {
            if self.scanner.is_synced() {
                // Complete the carried packet from the head of this piece:
                // copy exactly the bytes its header says are missing.
                loop {
                    match packet_need(&self.pending) {
                        PacketNeed::MoreHeader => {
                            let Some((&b, tail)) = rest.split_first() else { return Ok(()) };
                            self.pending.push(b);
                            self.stats.copied_bytes += 1;
                            rest = tail;
                        }
                        PacketNeed::Known(l) if l > self.pending.len() => {
                            let need = l - self.pending.len();
                            let take = need.min(rest.len());
                            self.pending.extend_from_slice(&rest[..take]);
                            self.stats.copied_bytes += take as u64;
                            rest = &rest[take..];
                            if take < need {
                                return Ok(()); // piece exhausted mid-packet
                            }
                            break; // exactly one complete packet carried
                        }
                        // A complete or undecodable carry: feed it through —
                        // damage resyncs exactly as the cold scanner would.
                        PacketNeed::Known(_) | PacketNeed::Undecodable => break,
                    }
                }
            }
            // Feed the carry (one completed packet, or damage/seek bytes).
            let carry_len = self.pending.len();
            let target = self.scanner.stream_pos() + carry_len as u64;
            let info = self.scanner.advance(&self.pending, target, carry_len)?;
            self.pending.clear();
            absorb(acc, info);
        }
        if rest.is_empty() {
            return Ok(());
        }
        // Scan the piece in place. There is no framing pre-pass: the
        // scanner discovers a packet cut by the end of the piece while
        // decoding and leaves it unconsumed.
        let (consumed, info) = self.scanner.append_framed(rest)?;
        absorb(acc, info);
        if consumed < rest.len() {
            // Withhold the cut packet's fragment — the seam carry. Reuses
            // the buffer's capacity: no steady-state allocation.
            self.pending.extend_from_slice(&rest[consumed..]);
            self.stats.copied_bytes += (rest.len() - consumed) as u64;
            self.stats.seam_carries += 1;
        }
        Ok(())
    }

    /// Wires the cycle-attribution profiler: subsequent
    /// [`StreamConsumer::drain_window_profiled`] calls record their work as
    /// spans, charging `cycles_per_byte` (the cost model's per-byte scan
    /// cost) for every drained byte.
    pub fn set_profiler(&mut self, profiler: Arc<SpanProfiler>, cycles_per_byte: f64) {
        self.profiler = Some((profiler, cycles_per_byte));
    }

    fn record(&mut self, info: &AppendInfo) {
        if info.new_bytes > 0 || info.cold_restart {
            self.stats.drains += 1;
            self.stats.drained_bytes += info.new_bytes;
            self.stats.cold_restarts += u64::from(info.cold_restart);
        }
    }

    /// The accumulated scan (everything drained so far, minus compaction).
    pub fn scan(&self) -> &FastScan {
        self.scanner.scan()
    }

    /// Consumes the consumer, yielding the accumulated scan (cold one-shot
    /// scans over segmented input build on this).
    pub fn into_scan(self) -> FastScan {
        self.scanner.into_scan()
    }

    /// Cumulative drain accounting.
    pub fn stats(&self) -> DrainStats {
        self.stats
    }

    /// Whether the accumulated scan's first TIP has a window-truncated TNT
    /// run (the scan synchronised mid-stream).
    pub fn first_tip_truncated(&self) -> bool {
        self.scanner.first_tip_truncated()
    }

    /// Number of cold restarts (frontier lost to a wrap) so far.
    pub fn generation(&self) -> u64 {
        self.scanner.generation()
    }

    /// Abandons everything up to `total_written` without scanning
    /// (unparseable-buffer recovery), exactly like
    /// [`IncrementalScanner::skip_to`].
    pub fn skip_to(&mut self, total_written: u64) {
        self.pending.clear();
        self.scanner.skip_to(total_written);
    }

    /// Bounds the accumulated scan's memory: keep at most `keep_tips` TIPs.
    pub fn compact(&mut self, keep_tips: usize) {
        self.scanner.compact(keep_tips);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{PacketEncoder, TraceSink};
    use crate::fast;
    use crate::topa::Topa;

    #[test]
    fn framed_append_withholds_cut_tail_packets() {
        // Every split point of a well-formed stream: the consumer must
        // withhold exactly the cut packet's head and resume bit-identically
        // when the rest arrives.
        let stream = sample_stream();
        let cold = fast::scan(&stream).unwrap();
        for cut in 1..stream.len() {
            let mut c = StreamConsumer::new();
            c.drain(&stream[..cut], cut as u64).unwrap();
            assert_eq!(c.frontier(), cut as u64, "cut {cut}: frontier covers withheld bytes");
            c.drain(&stream, stream.len() as u64).unwrap();
            assert_eq!(c.scan().tip_events(), cold.tip_events(), "cut {cut}");
            assert_eq!(c.scan().boundaries, cold.boundaries, "cut {cut}");
            assert_eq!(c.scan().trailing_tnt(), cold.trailing_tnt(), "cut {cut}");
        }
    }

    fn sample_stream() -> Vec<u8> {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        enc.tnt_bit(true);
        enc.tip(0x50_0000);
        enc.tnt_bit(false);
        enc.tnt_bit(true);
        enc.tip(0x50_0100);
        enc.ovf();
        enc.psb_plus(Some(0x40_0000), None);
        enc.tip(0x50_0200);
        enc.tnt_bit(true);
        enc.into_sink()
    }

    #[test]
    fn frontier_tracks_drained_bytes() {
        let stream = sample_stream();
        let mut c = StreamConsumer::new();
        assert!(c.is_drained(0));
        let info = c.drain(&stream, stream.len() as u64).unwrap();
        assert_eq!(info.new_bytes, stream.len() as u64);
        assert_eq!(c.frontier(), stream.len() as u64);
        assert!(c.is_drained(stream.len() as u64));
        assert_eq!(c.residue(stream.len() as u64 + 7), 7);
        assert_eq!(c.stats().drains, 1);
        assert_eq!(c.stats().drained_bytes, stream.len() as u64);
    }

    #[test]
    fn drained_frontier_drain_is_free() {
        let stream = sample_stream();
        let mut c = StreamConsumer::new();
        c.drain(&stream, stream.len() as u64).unwrap();
        let info = c.drain(&stream, stream.len() as u64).unwrap();
        assert_eq!(info, AppendInfo::default());
        assert_eq!(c.stats().drains, 1, "frontier compare only, no drain accounted");
    }

    #[test]
    fn chunked_drain_equals_cold_scan() {
        let stream = sample_stream();
        let mut c = StreamConsumer::new();
        let mut end = 0usize;
        while end < stream.len() {
            end = (end + 5).min(stream.len());
            c.drain(&stream[..end], end as u64).unwrap();
        }
        let cold = fast::scan(&stream).unwrap();
        assert_eq!(c.scan().tip_events(), cold.tip_events());
        assert_eq!(c.scan().boundaries, cold.boundaries);
        assert_eq!(c.scan().trailing_tnt(), cold.trailing_tnt());
    }

    #[test]
    fn residue_tail_drain_from_topa() {
        // Drains driven from Topa::tail_into see exactly the residue bytes.
        let mut topa = Topa::two_regions(4096).unwrap();
        let mut c = StreamConsumer::new();
        let mut tail = Vec::new();
        let stream = sample_stream();
        let mut written = 0usize;
        for chunk in stream.chunks(3) {
            topa.write_packet(chunk);
            written += chunk.len();
            let total = topa.total_written();
            assert_eq!(total, written as u64);
            topa.tail_into(c.residue(total) as usize, &mut tail);
            c.drain(&tail, total).unwrap();
            assert!(c.is_drained(total));
        }
        let cold = fast::scan(&stream).unwrap();
        assert_eq!(c.scan().tip_events(), cold.tip_events());
    }

    #[test]
    fn profiled_drains_attribute_spans_by_phase() {
        let stream = sample_stream();
        let mut c = StreamConsumer::new();
        let prof = Arc::new(SpanProfiler::new(true));
        c.set_profiler(Arc::clone(&prof), 2.0);
        // Window drains end at packet boundaries, as the producer writes.
        let half = crate::decode::decode_all(&stream).unwrap()[4].offset;
        let whole = usize::MAX;
        // A background (poll/PMI) drain lands in StreamDrain…
        let one = |end: usize| std::iter::once(&stream[..end]);
        c.drain_window_profiled(one(half), half as u64, whole, PhaseSpan::StreamDrain).unwrap();
        // …and a check-time residue drain in ResidueScan.
        c.drain_window_profiled(
            one(stream.len()),
            stream.len() as u64,
            whole,
            PhaseSpan::ResidueScan,
        )
        .unwrap();
        assert_eq!(prof.phase_spans(PhaseSpan::StreamDrain), 1);
        assert_eq!(prof.phase_spans(PhaseSpan::ResidueScan), 1);
        let total =
            prof.phase_cycles(PhaseSpan::StreamDrain) + prof.phase_cycles(PhaseSpan::ResidueScan);
        assert!(
            (total - stream.len() as f64 * 2.0).abs() < 1e-9,
            "every drained byte is charged at cycles_per_byte"
        );
        // The profiled result is bit-identical to a plain drain.
        let mut plain = StreamConsumer::new();
        plain.drain(&stream, stream.len() as u64).unwrap();
        assert_eq!(c.scan().tip_events(), plain.scan().tip_events());
        // An unwired consumer drains all the same and records nothing.
        let mut bare = StreamConsumer::new();
        bare.drain_window_profiled(
            one(stream.len()),
            stream.len() as u64,
            whole,
            PhaseSpan::FastScan,
        )
        .unwrap();
        assert_eq!(bare.stats().drained_bytes, stream.len() as u64);
    }

    /// A long benign stream: a PSB+ every ~64 bytes, TIPs and TNT between.
    fn long_stream() -> Vec<u8> {
        let mut enc = PacketEncoder::new(Vec::new());
        for i in 0..96u64 {
            if i % 8 == 0 {
                enc.psb_plus(Some(0x40_0000), None);
            }
            enc.tnt_bit(i % 3 == 0);
            enc.tip(0x50_0000 + i * 8);
        }
        enc.into_sink()
    }

    #[test]
    fn window_drain_skips_residue_beyond_its_budget() {
        let stream = long_stream();
        let budget = 100;
        let mut c = StreamConsumer::new();
        let info =
            c.drain_window(std::iter::once(&stream[..]), stream.len() as u64, budget).unwrap();
        assert_eq!(info.new_bytes, budget as u64, "only the newest window is scanned");
        assert!(!info.cold_restart, "the skipped bytes were still retained");
        assert_eq!(c.frontier(), stream.len() as u64);
        // Same flow as a cold scan from the window's first sync point.
        let window = &stream[stream.len() - budget..];
        let psb = crate::decode::find_psb(window, 0).unwrap();
        let cold = fast::scan(&window[psb..]).unwrap();
        assert_eq!(c.scan().tip_events(), cold.tip_events());
        assert_eq!(c.stats().copied_bytes, budget as u64, "the restart window is copied");
    }

    #[test]
    fn window_drain_cold_restarts_inside_its_budget_after_a_wrap() {
        let stream = long_stream();
        let budget = 100;
        let mut c = StreamConsumer::new();
        c.drain_window(std::iter::once(&stream[..64]), 64, budget).unwrap();
        // Only the newest 300 bytes survive: the buffer wrapped past the
        // frontier, and the restart reads just the newest `budget` of them.
        let retained = &stream[stream.len() - 300..];
        let (a, b) = retained.split_at(150);
        let info = c.drain_window([a, b].into_iter(), stream.len() as u64, budget).unwrap();
        assert!(info.cold_restart);
        assert!(info.new_bytes <= budget as u64);
        assert_eq!(c.stats().cold_restarts, 1);
        assert_eq!(c.frontier(), stream.len() as u64);
    }

    #[test]
    fn window_drain_scans_a_cut_frontier_fragment_as_damage() {
        let stream = sample_stream();
        // End the drain inside the last multi-byte packet: a window drain
        // consumes through the frontier instead of withholding.
        let last =
            crate::decode::decode_all(&stream).unwrap().into_iter().rfind(|p| p.len > 1).unwrap();
        let cut = last.offset + 1;
        let mut c = StreamConsumer::new();
        let info = c.drain_window(std::iter::once(&stream[..cut]), cut as u64, usize::MAX).unwrap();
        assert_eq!(info.new_bytes, cut as u64);
        assert_eq!(c.frontier(), cut as u64);
        let mut withholding = StreamConsumer::new();
        withholding.drain(&stream[..cut], cut as u64).unwrap();
        assert!(
            withholding.stats().drained_bytes < cut as u64,
            "a plain drain withholds the cut packet"
        );
    }

    #[test]
    fn segmented_drain_matches_linearized() {
        let stream = sample_stream();
        // Cut the stream into "regions" at every plausible seam position —
        // including cuts inside multi-byte packets (the seam carry path).
        for cut in 1..stream.len() {
            let segs: Vec<&[u8]> = vec![&stream[..cut], &stream[cut..]];
            let mut seg = StreamConsumer::new();
            seg.drain_segments(&segs, stream.len() as u64).unwrap();
            let mut lin = StreamConsumer::new();
            lin.drain(&stream, stream.len() as u64).unwrap();
            assert_eq!(seg.scan().tip_events(), lin.scan().tip_events(), "cut at {cut}");
            assert_eq!(seg.scan().boundaries, lin.scan().boundaries, "cut at {cut}");
            assert_eq!(seg.scan().trailing_tnt(), lin.scan().trailing_tnt(), "cut at {cut}");
            assert_eq!(seg.frontier(), lin.frontier());
            assert_eq!(seg.stats().drained_bytes, lin.stats().drained_bytes);
            // Only a straddling packet's fragment is ever copied.
            assert!(
                seg.stats().copied_bytes <= 2 * (wire::PSB_LEN as u64 - 1),
                "cut at {cut}: copied {}",
                seg.stats().copied_bytes
            );
        }
    }

    #[test]
    fn segmented_residue_drain_from_topa_is_zero_copy() {
        // Drains driven from Topa::segments consume the residue in place:
        // bytes copied stay bounded by seam carries, not by drained volume.
        let mut topa = Topa::two_regions(4096).unwrap();
        let mut c = StreamConsumer::new();
        let stream = sample_stream();
        for p in crate::decode::decode_all(&stream).unwrap() {
            // The hardware emits whole packets, so drains at poll slots see
            // packet-aligned frontiers.
            topa.write_packet(&stream[p.offset..p.offset + p.len]);
            let total = topa.total_written();
            c.drain_segments(&topa.segments().collect::<Vec<_>>(), total).unwrap();
            assert!(c.is_drained(total));
        }
        let cold = fast::scan(&stream).unwrap();
        assert_eq!(c.scan().tip_events(), cold.tip_events());
        let st = c.stats();
        assert_eq!(st.drained_bytes, stream.len() as u64);
        // The whole stream fits one region: nothing straddles a seam, and
        // the producer writes whole packets, so nothing is copied at all.
        assert_eq!(st.copied_bytes, 0, "in-place drain copies nothing");
        assert_eq!(st.copied_per_drained_kib(), 0.0);
    }

    #[test]
    fn steady_state_drains_do_not_allocate() {
        // Satellite: the partial-packet carry reuses its buffer's capacity.
        // Drive many drains with frontier splits landing mid-packet; after
        // the first carry sized the buffer, its capacity must never change.
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        for i in 0..200u64 {
            enc.tnt_bit(i % 3 == 0);
            enc.tip(0x50_0000 + i * 8);
        }
        let stream = enc.into_sink();
        let mut c = StreamConsumer::new();
        let mut cap_after_warmup = None;
        let mut end = 0usize;
        let mut step = 0usize;
        while end < stream.len() {
            // Vary the chunk size so cuts land at every packet phase.
            step = step % 7 + 1;
            end = (end + step).min(stream.len());
            c.drain(&stream[..end], end as u64).unwrap();
            match cap_after_warmup {
                None => {
                    if c.pending.capacity() > 0 {
                        cap_after_warmup = Some(c.pending.capacity());
                    }
                }
                Some(cap) => assert_eq!(
                    c.pending.capacity(),
                    cap,
                    "steady-state drain reallocated the carry buffer"
                ),
            }
        }
        assert!(cap_after_warmup.is_some(), "mid-packet cuts exercised the carry");
        assert!(c.stats().seam_carries > 0);
        let cold = fast::scan(&stream).unwrap();
        assert_eq!(c.scan().tip_events(), cold.tip_events());
    }

    #[test]
    fn segmented_wrap_past_frontier_linearizes_and_counts() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        enc.tip(0x50_0000);
        let old = enc.into_sink();
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        enc.tip(0x50_0300);
        let fresh = enc.into_sink();

        let mut c = StreamConsumer::new();
        c.drain_segments(&[&old], old.len() as u64).unwrap();
        assert_eq!(c.stats().copied_bytes, 0);
        let total = (old.len() + 10 * fresh.len()) as u64;
        let half = fresh.len() / 2;
        let info = c.drain_segments(&[&fresh[..half], &fresh[half..]], total).unwrap();
        assert!(info.cold_restart);
        assert_eq!(c.stats().cold_restarts, 1);
        assert_eq!(c.frontier(), total);
        // The wrap path is the one that linearises — and says so.
        assert_eq!(c.stats().copied_bytes, fresh.len() as u64);
    }

    #[test]
    fn wrap_past_frontier_cold_restarts() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        enc.tip(0x50_0000);
        let old = enc.into_sink();
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        enc.tip(0x50_0300);
        let fresh = enc.into_sink();

        let mut c = StreamConsumer::new();
        c.drain(&old, old.len() as u64).unwrap();
        let total = (old.len() + 10 * fresh.len()) as u64;
        let info = c.drain(&fresh, total).unwrap();
        assert!(info.cold_restart);
        assert_eq!(c.stats().cold_restarts, 1);
        assert_eq!(c.generation(), 1);
        assert_eq!(c.frontier(), total);
    }
}
