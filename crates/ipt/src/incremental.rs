//! Checkpointed, resumable packet-level scanning — the incremental fast
//! path.
//!
//! FlowGuard checks the trace at *every* sensitive syscall (§5.2). Between
//! two consecutive checks only a handful of packets are appended to the
//! ToPA, yet a cold scanner has to re-parse an entire PSB-synchronised tail
//! window each time. [`IncrementalScanner`] instead checkpoints the parser
//! between checks — stream position, last-IP decompression register,
//! pending TNT run, PSB+ bracket — and on the next check consumes **only
//! the bytes appended since**, appending the extracted TIP/TNT flow onto an
//! accumulated [`FastScan`].
//!
//! The checkpoint lives in *stream* coordinates (the ToPA's monotone
//! `total_written` counter), so circular-buffer wraps are detected exactly:
//! when the buffer has wrapped past the checkpoint the scanner performs one
//! cold PSB re-synchronisation (bumping a generation counter and recording
//! a [`Boundary::Resync`]), and otherwise the resumed scan is bit-identical
//! to a cold scan of the whole stream — the equivalence the tests assert.

use crate::decode::{find_psb, PacketError, PacketParser};
use crate::fast::{consume_vectorized, Boundary, FastScan, ScanCore};
use crate::packet::wire;
use crate::stream::{packet_need, PacketNeed};

/// Whether the packet starting at `buf[pos..]` is cut by the end of `buf`
/// (its header asks for more bytes than remain) as opposed to undecodable
/// damage.
fn tail_cut(buf: &[u8], pos: usize) -> bool {
    match packet_need(&buf[pos..]) {
        PacketNeed::Known(n) => pos + n > buf.len(),
        PacketNeed::MoreHeader => true,
        PacketNeed::Undecodable => false,
    }
}

/// Why the scanner is searching for a PSB instead of parsing packets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Seek {
    /// Parsing normally from the checkpoint.
    #[default]
    Synced,
    /// The very first bytes ever seen did not parse (a pre-wrapped buffer):
    /// sync to the first PSB without recording a boundary, exactly like the
    /// cold scanner's head probe.
    Initial,
    /// Mid-stream damage: sync to the next PSB and record a
    /// [`Boundary::Resync`] when found.
    Damage,
}

/// What one [`IncrementalScanner::advance`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendInfo {
    /// Bytes consumed by this advance — the fast-decode cost driver. With a
    /// live checkpoint this is exactly the bytes appended since the last
    /// check, not the size of any re-scanned window.
    pub new_bytes: u64,
    /// TIP events appended.
    pub new_tips: usize,
    /// Whether the checkpoint was lost (buffer wrapped past it) and the
    /// scanner performed a cold PSB re-synchronisation.
    pub cold_restart: bool,
}

/// A resumable packet-level scanner with a persistent accumulated
/// [`FastScan`].
#[derive(Debug, Clone, Default)]
pub struct IncrementalScanner {
    acc: FastScan,
    /// Pending-TNT / PSB+ state carried between advances. `core.run_start`
    /// always equals `acc` trailing-run start between calls.
    core: ScanCore,
    /// Saved last-IP decompression register.
    last_ip: u64,
    /// Stream position (monotone `total_written` coordinates) consumed so
    /// far.
    stream_pos: u64,
    /// Incremented on every checkpoint loss (wrap past the checkpoint).
    generation: u64,
    /// Sync state.
    seek: Seek,
    /// Tail bytes retained while seeking, so a PSB pattern straddling two
    /// advances is still found (at most `PSB_LEN - 1` bytes).
    seek_carry: Vec<u8>,
    /// Whether the first packet ever seen has been probed.
    probed: bool,
    /// The accumulated scan began at a mid-stream sync point, so the very
    /// first TIP's TNT run is truncated at the window edge.
    first_tip_truncated: bool,
}

impl IncrementalScanner {
    /// A fresh scanner with an empty accumulated scan.
    pub fn new() -> IncrementalScanner {
        IncrementalScanner::default()
    }

    /// The accumulated scan (everything consumed so far, minus compaction).
    pub fn scan(&self) -> &FastScan {
        &self.acc
    }

    /// Consumes the scanner, yielding the accumulated scan.
    pub fn into_scan(self) -> FastScan {
        self.acc
    }

    /// Stream position consumed so far.
    pub fn stream_pos(&self) -> u64 {
        self.stream_pos
    }

    /// Number of checkpoint losses (cold restarts) so far.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the accumulated scan's first TIP has a window-truncated TNT
    /// run (the scan synchronised mid-stream).
    pub fn first_tip_truncated(&self) -> bool {
        self.first_tip_truncated
    }

    /// Whether the scanner is synchronised at a packet boundary (as opposed
    /// to seeking a PSB after a cold start or damage).
    pub(crate) fn is_synced(&self) -> bool {
        self.seek == Seek::Synced
    }

    /// Abandons everything up to stream position `total_written` without
    /// scanning (unparseable-buffer recovery). The next advance resumes as
    /// if freshly synchronised.
    pub fn skip_to(&mut self, total_written: u64) {
        self.stream_pos = self.stream_pos.max(total_written);
        self.seek = Seek::Damage;
        self.seek_carry.clear();
        self.core.in_psb_plus = false;
        self.acc.clear_pending();
        self.core.run_start = self.acc.trailing_start();
    }

    /// Drops the oldest TIPs so at most `keep_tips` remain, bounding the
    /// memory of a long-lived scan. Boundaries are rebased; the parser
    /// checkpoint is unaffected. The scan keeps room for as much flow again
    /// as it kept, so the appends between compactions stop reallocating
    /// once it has warmed up.
    pub fn compact(&mut self, keep_tips: usize) {
        let n = self.acc.tip_count();
        if n > keep_tips {
            self.acc.truncate_front(n - keep_tips);
            self.acc.reserve_headroom();
            self.core.run_start = self.acc.trailing_start();
            self.first_tip_truncated = false;
        }
    }

    /// Consumes the bytes appended to the trace since the last call.
    ///
    /// `chronological` is the ToPA's reconstructed buffer (most recent
    /// `chronological.len()` bytes of the stream) and `total_written` the
    /// monotone stream length. When the buffer has wrapped past the
    /// checkpoint, at most `cold_budget` tail bytes are re-scanned from a
    /// PSB sync point (the cold-restart path).
    ///
    /// # Errors
    ///
    /// Returns a [`PacketError`] when a PSB+ bundle itself is corrupt, as
    /// the cold scanner would; callers typically [`Self::skip_to`] past the
    /// damage.
    pub fn advance(
        &mut self,
        chronological: &[u8],
        total_written: u64,
        cold_budget: usize,
    ) -> Result<AppendInfo, PacketError> {
        let delta = total_written.saturating_sub(self.stream_pos);
        if delta == 0 {
            return Ok(AppendInfo::default());
        }
        if delta > chronological.len() as u64 {
            return self.cold_restart(chronological, total_written, cold_budget);
        }
        let chunk = &chronological[chronological.len() - delta as usize..];
        let tips_before = self.acc.tip_count();
        self.consume(chunk)?;
        self.stream_pos = total_written;
        self.acc.bytes_scanned += delta;
        Ok(AppendInfo {
            new_bytes: delta,
            new_tips: self.acc.tip_count() - tips_before,
            cold_restart: false,
        })
    }

    /// The checkpoint was overwritten: re-synchronise on a PSB inside the
    /// most recent `cold_budget` bytes, recording the discontinuity.
    fn cold_restart(
        &mut self,
        chronological: &[u8],
        total_written: u64,
        cold_budget: usize,
    ) -> Result<AppendInfo, PacketError> {
        self.generation += 1;
        // A wrap discarded the bytes between the checkpoint and the oldest
        // retained byte, so the pending run can never be completed and the
        // TIPs on either side of the gap are not consecutive.
        let had_flow = self.acc.tip_count() > 0
            || !self.acc.boundaries.is_empty()
            || !self.acc.trailing_tnt().is_empty();
        self.seek_carry.clear();
        self.core.in_psb_plus = false;
        self.acc.clear_pending();
        self.core.run_start = self.acc.trailing_start();
        self.probed = true;
        self.stream_pos = total_written;

        let start = chronological.len().saturating_sub(cold_budget.max(1));
        let mut p = PacketParser::at(chronological, start);
        let Some(off) = p.sync_forward() else {
            // No sync point in the window: stay unsynchronised; the next
            // append will keep looking.
            self.seek = Seek::Damage;
            return Ok(AppendInfo { new_bytes: 0, new_tips: 0, cold_restart: true });
        };
        if had_flow {
            self.acc.boundaries.push((self.acc.tip_count(), Boundary::Resync));
        } else {
            self.first_tip_truncated = true;
        }
        self.seek = Seek::Synced;
        self.last_ip = 0;
        let chunk = &chronological[off..];
        let tips_before = self.acc.tip_count();
        self.consume(chunk)?;
        self.acc.bytes_scanned += chunk.len() as u64;
        Ok(AppendInfo {
            new_bytes: chunk.len() as u64,
            new_tips: self.acc.tip_count() - tips_before,
            cold_restart: true,
        })
    }

    /// Appends `chunk` — the next bytes of the stream, which may end
    /// mid-packet: a packet cut by the end of the chunk is *withheld*
    /// rather than treated as damage, and the number of bytes actually
    /// consumed is returned alongside the append info. The stream position
    /// advances only past the consumed bytes; the caller re-presents the
    /// withheld tail (completed with its remaining bytes) in a later
    /// append.
    ///
    /// This is the zero-copy streaming entry: [`crate::StreamConsumer`]
    /// feeds borrowed ToPA region slices straight through it, with no
    /// framing pre-pass — the scanner discovers the cut while decoding —
    /// and only the ≤ 15-byte withheld fragments are ever copied.
    ///
    /// # Errors
    ///
    /// Returns a [`PacketError`] when a PSB+ bundle itself is corrupt, as
    /// [`IncrementalScanner::advance`] would.
    pub fn append_framed(&mut self, chunk: &[u8]) -> Result<(usize, AppendInfo), PacketError> {
        let tips_before = self.acc.tip_count();
        let consumed = self.consume_framed(chunk, true)?;
        self.stream_pos += consumed as u64;
        self.acc.bytes_scanned += consumed as u64;
        let info = AppendInfo {
            new_bytes: consumed as u64,
            new_tips: self.acc.tip_count() - tips_before,
            cold_restart: false,
        };
        Ok((consumed, info))
    }

    /// Parses one appended chunk, honouring the carried seek state.
    fn consume(&mut self, chunk: &[u8]) -> Result<(), PacketError> {
        self.consume_framed(chunk, false).map(|_| ())
    }

    /// [`IncrementalScanner::consume`], returning the bytes of `chunk`
    /// consumed. With `framed`, a packet cut by the end of the chunk is
    /// withheld (left unconsumed) instead of entering damage recovery;
    /// without it the whole chunk is always accounted as consumed.
    fn consume_framed(&mut self, chunk: &[u8], framed: bool) -> Result<usize, PacketError> {
        // While seeking, a PSB pattern may straddle the previous chunk's
        // tail: search over carry + chunk. The carry's bytes were accounted
        // by a previous append, so a withheld tail must start at or after
        // `carry_len` for the consumed count to translate back into `chunk`
        // coordinates — guaranteed, because any packet parsed after a
        // carry-straddling resync starts beyond the ≤ 15-byte carry (the
        // PSB found is 16 bytes long).
        let owned;
        let (buf, carry_len) = if self.seek != Seek::Synced && !self.seek_carry.is_empty() {
            let carry_len = self.seek_carry.len();
            let mut v = std::mem::take(&mut self.seek_carry);
            v.extend_from_slice(chunk);
            owned = v;
            (owned.as_slice(), carry_len)
        } else {
            (chunk, 0)
        };

        let mut pos = 0usize;
        if !self.probed {
            if framed && tail_cut(buf, 0) {
                // The stream's very first bytes end inside the first
                // packet: withhold it instead of probing a cut packet. The
                // probe runs when the packet completes.
                return Ok(0);
            }
            // Head probe, mirroring the cold scanner: if the very first
            // packet of the stream doesn't parse, sync forward silently.
            self.probed = true;
            if PacketParser::new(buf).next_packet().is_some_and(|r| r.is_err()) {
                self.seek = Seek::Initial;
            }
        }
        if self.seek != Seek::Synced {
            let mut p = PacketParser::at(buf, 0);
            match p.sync_forward() {
                Some(off) => {
                    if self.seek == Seek::Damage {
                        self.acc.boundaries.push((self.acc.tip_count(), Boundary::Resync));
                        self.core.run_start = self.acc.bits_len();
                    }
                    self.seek = Seek::Synced;
                    self.last_ip = 0;
                    pos = off;
                }
                None => {
                    // Still no PSB: keep a pattern-sized tail for the next
                    // chunk and drop the rest of the damaged bytes.
                    let keep = buf.len().min(wire::PSB_LEN - 1);
                    self.seek_carry = buf[buf.len() - keep..].to_vec();
                    return Ok(chunk.len());
                }
            }
        }

        // The vectorized packet loop (shared with `fast::scan_vectorized`);
        // error recovery here spills the seek into the next chunk instead of
        // truncating, because more bytes are still coming.
        let mut run = consume_vectorized(buf, pos, self.last_ip, &mut self.core, &mut self.acc);
        loop {
            match run.error {
                None => break,
                Some(e) => {
                    if framed && run.pos >= carry_len && tail_cut(buf, run.pos) {
                        // The chunk ends inside this packet — a frontier or
                        // region-seam cut, not damage. Stop at its start and
                        // let the caller withhold the fragment; the carried
                        // core state (possibly mid-PSB+) resumes when the
                        // packet's remaining bytes arrive.
                        self.last_ip = run.last_ip;
                        self.core.finish(&mut self.acc);
                        return Ok(run.pos - carry_len);
                    }
                    if self.core.in_psb_plus {
                        return Err(e);
                    }
                    match find_psb(buf, run.pos) {
                        Some(off) => {
                            // Damage mid-chunk with a PSB further on: resync.
                            self.acc.boundaries.push((self.acc.tip_count(), Boundary::Resync));
                            self.core.run_start = self.acc.bits_len();
                            run = consume_vectorized(buf, off, 0, &mut self.core, &mut self.acc);
                        }
                        None => {
                            self.seek = Seek::Damage;
                            let rest = buf.len() - run.pos;
                            let keep = rest.min(wire::PSB_LEN - 1);
                            self.seek_carry = buf[buf.len() - keep..].to_vec();
                            self.last_ip = run.last_ip;
                            self.core.finish(&mut self.acc);
                            return Ok(chunk.len());
                        }
                    }
                }
            }
        }
        self.last_ip = run.last_ip;
        self.core.finish(&mut self.acc);
        Ok(chunk.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_all;
    use crate::encode::PacketEncoder;
    use crate::fast;

    /// Compares the observable TIP/TNT/boundary stream (the checker's
    /// input), which is what incremental resumption must preserve exactly.
    fn assert_stream_eq(a: &FastScan, b: &FastScan) {
        assert_eq!(a.tip_events(), b.tip_events());
        assert_eq!(a.boundaries, b.boundaries);
        assert_eq!(a.trailing_tnt(), b.trailing_tnt());
    }

    fn busy_stream() -> Vec<u8> {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        enc.tnt_bit(true);
        enc.tnt_bit(false);
        enc.tip(0x50_0000);
        enc.fup(0x40_0010);
        enc.tip_pgd(None);
        enc.tip_pge(0x40_0018);
        enc.tnt_bit(true);
        enc.tnt_bit(true);
        enc.tip(0x50_0100);
        enc.ovf();
        enc.tnt_bit(false);
        enc.psb_plus(Some(0x40_0000), None);
        enc.tip(0x50_0200);
        enc.tnt_bit(true);
        enc.into_sink()
    }

    #[test]
    fn per_packet_resume_matches_cold_scan() {
        let stream = busy_stream();
        // Advance one packet at a time: the worst case for checkpointing.
        let cuts: Vec<usize> =
            decode_all(&stream).unwrap().iter().map(|p| p.offset + p.len).collect();
        let mut inc = IncrementalScanner::new();
        for &end in &cuts {
            let info = inc.advance(&stream[..end], end as u64, stream.len()).unwrap();
            assert!(!info.cold_restart);
            let cold = fast::scan(&stream[..end]).unwrap();
            assert_stream_eq(inc.scan(), &cold);
        }
        assert_eq!(inc.stream_pos(), stream.len() as u64);
        assert_eq!(inc.generation(), 0);
        // Total incremental work equals one cold scan's: no re-reading.
        assert_eq!(inc.scan().bytes_scanned, stream.len() as u64);
    }

    #[test]
    fn empty_advance_is_free() {
        let stream = busy_stream();
        let mut inc = IncrementalScanner::new();
        inc.advance(&stream, stream.len() as u64, stream.len()).unwrap();
        let info = inc.advance(&stream, stream.len() as u64, stream.len()).unwrap();
        assert_eq!(info, AppendInfo::default());
    }

    #[test]
    fn wrap_past_checkpoint_cold_restarts_with_resync() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        enc.tip(0x50_0000);
        let old = enc.into_sink();
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        enc.tip(0x50_0300);
        enc.tnt_bit(true);
        let fresh = enc.into_sink();

        let mut inc = IncrementalScanner::new();
        inc.advance(&old, old.len() as u64, old.len()).unwrap();
        assert_eq!(inc.scan().tip_count(), 1);

        // The buffer wrapped: stream grew far past what is retained.
        let total = (old.len() + 10 * fresh.len()) as u64;
        let info = inc.advance(&fresh, total, fresh.len()).unwrap();
        assert!(info.cold_restart);
        assert_eq!(inc.generation(), 1);
        assert_eq!(inc.scan().tip_ips(), &[0x50_0000, 0x50_0300]);
        assert_eq!(inc.scan().boundaries, vec![(1, Boundary::Resync)]);
        assert_eq!(inc.scan().trailing_tnt(), vec![true]);
        assert_eq!(inc.stream_pos(), total);
    }

    #[test]
    fn fresh_scanner_on_wrapped_buffer_syncs_without_boundary() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        enc.tip(0x50_0000);
        let fresh = enc.into_sink();
        let mut inc = IncrementalScanner::new();
        // First sight of a long-running trace: delta exceeds the buffer.
        let info = inc.advance(&fresh, 100_000, fresh.len()).unwrap();
        assert!(info.cold_restart);
        assert_eq!(inc.scan().tip_count(), 1);
        assert!(inc.scan().boundaries.is_empty(), "no flow before the gap");
        assert!(inc.first_tip_truncated());
    }

    #[test]
    fn psb_straddling_chunk_seam_is_found() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        enc.tip(0x50_0000);
        let clean = enc.into_sink();
        let mut stream = vec![0x47, 0x13, 0x99]; // unparseable head
        stream.extend_from_slice(&clean);

        // Cut inside the 16-byte PSB pattern: only the seek-carry lets the
        // second advance see the complete pattern.
        let cut = 3 + 7;
        let mut inc = IncrementalScanner::new();
        let info = inc.advance(&stream[..cut], cut as u64, stream.len()).unwrap();
        assert_eq!(info.new_tips, 0);
        inc.advance(&stream, stream.len() as u64, stream.len()).unwrap();
        assert_eq!(inc.scan().tip_ips(), &[0x50_0000]);
        assert!(inc.scan().boundaries.is_empty(), "initial sync is not a resync");
    }

    #[test]
    fn compact_drops_old_tips_and_keeps_checkpoint_live() {
        let stream = busy_stream();
        // Cut at the OVF packet: two TIPs extracted so far.
        let mid = decode_all(&stream).unwrap()[12].offset;
        let mut inc = IncrementalScanner::new();
        inc.advance(&stream[..mid], mid as u64, stream.len()).unwrap();
        inc.compact(1);
        assert_eq!(inc.scan().tip_count(), 1);
        inc.advance(&stream, stream.len() as u64, stream.len()).unwrap();
        let cold = fast::scan(&stream).unwrap();
        // The retained suffix matches the cold scan's suffix.
        let dropped = cold.tip_count() - inc.scan().tip_count();
        let inc_events = inc.scan().tip_events();
        assert_eq!(inc_events, cold.tip_events()[dropped..]);
        assert_eq!(inc.scan().trailing_tnt(), cold.trailing_tnt());
    }

    #[test]
    fn skip_to_resyncs_with_boundary() {
        let stream = busy_stream();
        let mut inc = IncrementalScanner::new();
        inc.advance(&stream, stream.len() as u64, stream.len()).unwrap();
        let before = inc.scan().tip_count();

        inc.skip_to(stream.len() as u64 + 500);
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        enc.tip(0x51_0000);
        let next = enc.into_sink();
        let total = stream.len() as u64 + 500 + next.len() as u64;
        inc.advance(&next, total, next.len()).unwrap();
        assert_eq!(inc.scan().tip_count(), before + 1);
        assert!(inc.scan().boundaries.iter().any(|&(i, b)| i == before && b == Boundary::Resync));
    }
}
