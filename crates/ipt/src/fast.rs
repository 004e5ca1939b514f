//! Fast packet-level extraction of TIP/TNT flow — the fast-path primitive.
//!
//! "It only parses the packets based on the IPT formats and extracts out the
//! TIP and TNT packets, without referring to the binaries with the
//! instruction flow layer of abstraction" (§5.3). The output is the sequence
//! of indirect-branch targets, each annotated with the conditional-branch
//! outcomes (TNT bits) observed since the previous target — exactly the
//! information FlowGuard matches against the credit-labeled ITC-CFG.
//!
//! The result is held in a structure-of-arrays layout: one flat array of
//! target addresses and one shared packed bitvec of TNT outcomes, with each
//! TIP owning an `(offset, len)` slice of the bitvec. The hot loop therefore
//! performs no per-event heap allocation, and a TNT run is compared against
//! trained signatures as a `(u64, u8)` word instead of a `Vec<bool>`.

use crate::decode::{PacketError, PacketErrorKind, PacketParser};
use crate::encode::sext48;
use crate::incremental::IncrementalScanner;
use crate::packet::{wire, Packet, LONG_TNT_MAX};

/// A packed bit vector backing the TNT runs of a [`FastScan`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// An empty bit vector.
    pub fn new() -> BitVec {
        BitVec::default()
    }

    /// Number of bits held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bits are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, b: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if b {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Appends up to 64 bits in one word operation. Bit 0 of `bits` is the
    /// *oldest* outcome (appended first), matching `push` order. This is the
    /// primitive behind table-driven TNT expansion and word-level range
    /// copies; bits of `bits` at or above `len` are ignored.
    pub fn push_run(&mut self, bits: u64, len: usize) {
        debug_assert!(len <= 64, "push_run takes at most one word");
        if len == 0 {
            return;
        }
        let bits = if len == 64 { bits } else { bits & ((1u64 << len) - 1) };
        let off = self.len % 64;
        if self.len / 64 == self.words.len() {
            self.words.push(0);
        }
        let word = self.len / 64;
        self.words[word] |= bits << off;
        if off + len > 64 {
            self.words.push(bits >> (64 - off));
        }
        self.len += len;
    }

    /// Reads up to 64 bits starting at `start`, bit 0 of the result being
    /// the bit at `start` (the `push_run` convention).
    fn read_bits(&self, start: usize, len: usize) -> u64 {
        debug_assert!(len <= 64 && start + len <= self.len, "bit range out of range");
        if len == 0 {
            return 0;
        }
        let word = start / 64;
        let off = start % 64;
        let mut v = self.words[word] >> off;
        if off + len > 64 {
            v |= self.words[word + 1] << (64 - off);
        }
        if len == 64 {
            v
        } else {
            v & ((1u64 << len) - 1)
        }
    }

    /// The `i`-th bit.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Materialises a bit range as booleans (oldest first).
    pub fn range_vec(&self, start: usize, len: usize) -> Vec<bool> {
        (start..start + len).map(|i| self.get(i)).collect()
    }

    /// Packs a bit range into the `(bits, len)` word encoding used by TNT
    /// signatures (oldest bit in the highest populated position). Returns
    /// `None` when the run is too long to pack into one word.
    pub fn range_raw(&self, start: usize, len: usize) -> Option<(u64, u8)> {
        if len > 64 {
            return None;
        }
        if len == 0 {
            return Some((0, 0));
        }
        // `read_bits` yields oldest-first in bit 0; the signature encoding
        // wants oldest in the highest populated position.
        let r = self.read_bits(start, len);
        Some((r.reverse_bits() >> (64 - len), len as u8))
    }

    /// Removes the first `n` bits (at most all of them) in place, shifting
    /// the rest down a word at a time.
    pub fn drop_front(&mut self, n: usize) {
        let n = n.min(self.len);
        let (skip_words, shift) = (n / 64, n % 64);
        self.len -= n;
        let keep_words = self.len.div_ceil(64);
        for i in 0..keep_words {
            let mut w = self.words[i + skip_words] >> shift;
            if shift > 0 {
                if let Some(&hi) = self.words.get(i + skip_words + 1) {
                    w |= hi << (64 - shift);
                }
            }
            self.words[i] = w;
        }
        self.words.truncate(keep_words);
    }
}

/// One indirect-branch target extracted from the trace, materialised from
/// the packed representation (a view, not the storage format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TipEvent {
    /// The target address from the TIP packet.
    pub ip: u64,
    /// Conditional-branch outcomes since the previous TIP (oldest first).
    pub tnt_before: Vec<bool>,
}

/// A seam in the TIP stream: the TIPs on either side of it are not
/// consecutive, so the pair across it cannot be judged. Syscall packets
/// (FUP, TIP.PGD, TIP.PGE) are not seams — the TIPs around a syscall stay
/// consecutive — and record no boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Packet loss; everything before it is unreliable.
    Overflow,
    /// The scanner re-synchronised over damaged bytes (a circular-buffer
    /// seam): the TIPs on either side are **not** consecutive.
    Resync,
}

/// Seam boundaries a scan keeps room for. Only an OVF or a resync after
/// damage records one, and truncation drops the boundaries of the TIPs it
/// drops, so a check's window holds a handful; a rarer burst grows the
/// vector once.
const BOUNDARY_HEADROOM: usize = 16;

/// Result of a packet-level scan, in structure-of-arrays layout.
///
/// [`FastScan::truncate_front`] drops the oldest TIPs by advancing a
/// logical head: the dropped TIPs stay in the arrays until the dead prefix
/// is at least as long as the live part, and only then are the arrays
/// compacted in place. Every accessor and equality see the live part alone
/// — exactly the scan an eager truncation would leave.
#[derive(Debug, Clone, Default)]
pub struct FastScan {
    /// Extracted indirect-branch target addresses in execution order (the
    /// live ones from `head` on).
    tip_ips: Vec<u64>,
    /// Per TIP: `(offset, len)` slice of `bits` holding the TNT run
    /// observed since the previous TIP.
    tnt_ranges: Vec<(u32, u32)>,
    /// Shared packed TNT outcome bits.
    bits: BitVec,
    /// `(offset, len)` slice of `bits` trailing after the last TIP.
    trailing: (u32, u32),
    /// Seam boundaries in stream order, each tagged with the index into the
    /// TIP stream at which it occurred (so sorted by that index).
    pub boundaries: Vec<(usize, Boundary)>,
    /// Index of the first live TIP: the ones before it were truncated and
    /// wait for the next compaction.
    head: usize,
}

/// Two scans are equal when they describe the same TIP/TNT/boundary stream;
/// the physical packing of the shared bitvec (orphaned runs cleared by OVF,
/// ranges re-pointed by mutation helpers, a dead prefix awaiting
/// compaction) is not observable.
impl PartialEq for FastScan {
    fn eq(&self, other: &FastScan) -> bool {
        self.tip_ips() == other.tip_ips()
            && self.boundaries == other.boundaries
            && self.trailing_tnt() == other.trailing_tnt()
            && (0..self.tip_count()).all(|i| {
                self.tnt_len(i) == other.tnt_len(i)
                    && self.tnt_raw(i) == other.tnt_raw(i)
                    && (self.tnt_len(i) <= 64 || self.tnt_vec(i) == other.tnt_vec(i))
            })
    }
}

impl Eq for FastScan {}

impl FastScan {
    /// Total TIP count.
    pub fn tip_count(&self) -> usize {
        self.tip_ips.len() - self.head
    }

    /// The extracted TIP target addresses, in execution order.
    pub fn tip_ips(&self) -> &[u64] {
        &self.tip_ips[self.head..]
    }

    /// The `i`-th TIP target address.
    pub fn tip_ip(&self, i: usize) -> u64 {
        self.tip_ips()[i]
    }

    /// The `(offset, len)` bit slice of the `i`-th TIP's TNT run.
    fn tnt_range(&self, i: usize) -> (u32, u32) {
        self.tnt_ranges[self.head..][i]
    }

    /// Length of the TNT run preceding the `i`-th TIP.
    pub fn tnt_len(&self, i: usize) -> usize {
        self.tnt_range(i).1 as usize
    }

    /// The TNT run preceding the `i`-th TIP, packed as `(bits, len)` in the
    /// signature word encoding; `None` when the run exceeds 64 bits.
    pub fn tnt_raw(&self, i: usize) -> Option<(u64, u8)> {
        let (start, len) = self.tnt_range(i);
        self.bits.range_raw(start as usize, len as usize)
    }

    /// The TNT run preceding the `i`-th TIP, materialised (oldest first).
    pub fn tnt_vec(&self, i: usize) -> Vec<bool> {
        let (start, len) = self.tnt_range(i);
        self.bits.range_vec(start as usize, len as usize)
    }

    /// TNT bits trailing after the last TIP, materialised.
    pub fn trailing_tnt(&self) -> Vec<bool> {
        self.bits.range_vec(self.trailing.0 as usize, self.trailing.1 as usize)
    }

    /// Materialises the `i`-th TIP as a [`TipEvent`] view.
    pub fn tip_event(&self, i: usize) -> TipEvent {
        TipEvent { ip: self.tip_ip(i), tnt_before: self.tnt_vec(i) }
    }

    /// Materialises every TIP as a [`TipEvent`] (test/training convenience).
    pub fn tip_events(&self) -> Vec<TipEvent> {
        (0..self.tip_count()).map(|i| self.tip_event(i)).collect()
    }

    /// Appends a TIP whose TNT run is the bits pushed since the current
    /// pending-run start.
    fn push_tip_with_run(&mut self, ip: u64, run_start: usize) {
        self.tip_ips.push(ip);
        self.tnt_ranges.push((run_start as u32, (self.bits.len() - run_start) as u32));
    }

    /// Appends a synthetic TIP with an explicit TNT run (test construction).
    pub fn push_tip(&mut self, ip: u64, tnt_before: &[bool]) {
        let start = self.bits.len();
        for &b in tnt_before {
            self.bits.push(b);
        }
        self.tip_ips.push(ip);
        self.tnt_ranges.push((start as u32, tnt_before.len() as u32));
        self.trailing = (self.bits.len() as u32, 0);
    }

    /// Rewrites the `i`-th TIP's target address (tamper-style tests).
    pub fn set_tip_ip(&mut self, i: usize, ip: u64) {
        self.tip_ips[self.head + i] = ip;
    }

    /// Swaps two TIP events (address and TNT run together).
    pub fn swap_tips(&mut self, i: usize, j: usize) {
        self.tip_ips.swap(self.head + i, self.head + j);
        self.tnt_ranges.swap(self.head + i, self.head + j);
    }

    /// Replaces the `i`-th TIP's TNT run (tamper-style tests). The old bits
    /// are orphaned in the shared bitvec, which equality ignores.
    pub fn set_tip_tnt(&mut self, i: usize, tnt_before: &[bool]) {
        let start = self.bits.len();
        for &b in tnt_before {
            self.bits.push(b);
        }
        self.tnt_ranges[self.head + i] = (start as u32, tnt_before.len() as u32);
    }

    /// Replaces the trailing TNT run (test construction).
    pub fn set_trailing_tnt(&mut self, tnt: &[bool]) {
        let start = self.bits.len();
        for &b in tnt {
            self.bits.push(b);
        }
        self.trailing = (start as u32, tnt.len() as u32);
    }

    /// Discards the pending trailing run (OVF/resync at a seam).
    pub fn clear_pending(&mut self) {
        self.trailing = (self.bits.len() as u32, 0);
    }

    /// Bit offset where the pending trailing run starts (parser-resume
    /// state for the incremental scanner).
    pub(crate) fn trailing_start(&self) -> usize {
        self.trailing.0 as usize
    }

    /// Total bits held in the shared bitvec.
    pub(crate) fn bits_len(&self) -> usize {
        self.bits.len()
    }

    /// Drops the oldest `drop_tips` TIP events, rebasing the seam
    /// boundaries (benign traces rarely have any) — the step bounding the
    /// memory of a long-lived incremental scan. Amortised O(1) per dropped
    /// TIP: it advances the live head, and compacts the arrays in place
    /// once the dead prefix is at least as long as the live part.
    /// Allocation-free.
    pub fn truncate_front(&mut self, drop_tips: usize) {
        let drop_tips = drop_tips.min(self.tip_count());
        if drop_tips == 0 {
            return;
        }
        self.head += drop_tips;
        // Boundaries are in stream order, so the dropped ones are a prefix.
        let dropped = self.boundaries.partition_point(|&(i, _)| i < drop_tips);
        self.boundaries.drain(..dropped);
        for (i, _) in &mut self.boundaries {
            *i -= drop_tips;
        }
        if self.head >= self.tip_count() {
            self.compact();
        }
    }

    /// Moves the live part to the front of the arrays, shifting out the
    /// dead TIPs and the bits only they referenced.
    fn compact(&mut self) {
        if self.head == 0 {
            return;
        }
        // Every bit before the oldest surviving run belongs to dropped TIPs
        // (or to runs an OVF orphaned).
        let cut = self.tnt_ranges[self.head..]
            .iter()
            .map(|&(start, _)| start)
            .fold(self.trailing.0, u32::min);
        self.bits.drop_front(cut as usize);
        self.tip_ips.drain(..self.head);
        self.tnt_ranges.drain(..self.head);
        for range in &mut self.tnt_ranges {
            range.0 -= cut;
        }
        self.trailing.0 -= cut;
        self.head = 0;
    }

    /// Reserves room for `live` TIPs, a dead prefix (which compaction keeps
    /// shorter than the live part) and as many TIPs again — with 64 TNT bits
    /// per TIP, and [`BOUNDARY_HEADROOM`] seam boundaries — before the scan
    /// reallocates. A no-op once the capacity is there, so a scan truncated
    /// to a fixed size reserves only while it warms up, or not at all when
    /// it was presized.
    pub(crate) fn reserve_headroom(&mut self, live: usize) {
        let room = live.saturating_mul(3);
        self.tip_ips.reserve(room.saturating_sub(self.tip_ips.len()));
        self.tnt_ranges.reserve(room.saturating_sub(self.tnt_ranges.len()));
        self.boundaries.reserve(BOUNDARY_HEADROOM.saturating_sub(self.boundaries.len()));
        self.bits.words.reserve(room.saturating_sub(self.bits.words.len()));
    }
}

/// The scalar scanner's per-packet dispatch: everything except error
/// recovery. Its pending-run and PSB+ state is also the state the
/// vectorized loop carries between calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScanCore {
    /// Bit offset where the pending TNT run starts.
    pub run_start: usize,
    /// Inside a PSB+ bundle (its FUP is sync info, not a flow event).
    pub in_psb_plus: bool,
}

impl ScanCore {
    pub fn feed(&mut self, out: &mut FastScan, packet: &Packet) {
        match packet {
            Packet::Tnt(seq) => {
                for b in seq.iter() {
                    out.bits.push(b);
                }
            }
            Packet::Tip { ip } => {
                out.push_tip_with_run(*ip, self.run_start);
                self.run_start = out.bits.len();
            }
            Packet::Ovf => {
                // Everything before an overflow is untrustworthy for
                // history-based checking.
                out.boundaries.push((out.tip_count(), Boundary::Overflow));
                self.run_start = out.bits.len();
            }
            Packet::Psb => self.in_psb_plus = true,
            Packet::Psbend => self.in_psb_plus = false,
            // Syscall packets (FUP, TIP.PGD, TIP.PGE) only move the parser's
            // last-IP register; none of these records anything.
            Packet::Fup { .. }
            | Packet::TipPgd { .. }
            | Packet::TipPge { .. }
            | Packet::Pad
            | Packet::Cbr { .. }
            | Packet::ModeExec
            | Packet::Pip { .. } => {}
        }
    }

    /// Finalises the pending run into the scan's trailing range.
    pub fn finish(&self, out: &mut FastScan) {
        out.trailing = (self.run_start as u32, (out.bits.len() - self.run_start) as u32);
    }
}

/// Per-byte expansion of short TNT packets: `(bits, len)` with the oldest
/// outcome in bit 0, ready for [`BitVec::push_run`]. Entries for bytes that
/// are not short TNT packets (PAD, EXT, odd headers) have `len == 0` and
/// are never consulted by the dispatch loop.
static TNT_EXPAND: [(u8, u8); 256] = build_tnt_expand();

const fn build_tnt_expand() -> [(u8, u8); 256] {
    let mut t = [(0u8, 0u8); 256];
    let mut b = 4usize;
    while b < 256 {
        if b & 1 == 0 {
            let value = (b >> 1) as u8;
            let stop = 7 - value.leading_zeros() as u8;
            let payload = value & !(1 << stop);
            // The wire payload holds the oldest outcome just below the stop
            // bit; reverse it into push-order (oldest in bit 0).
            t[b] = (payload.reverse_bits() >> (8 - stop), stop);
        }
        b += 2;
    }
    t
}

/// IP-packet payload length by `IPBytes` field, `-1` marking the reserved
/// encodings ([`crate::packet::IpCompression::from_field`] returning `None`).
pub(crate) static IP_PAYLOAD_LEN: [i8; 8] = [0, 2, 4, 6, 6, -1, 8, -1];

/// Where one [`consume_vectorized`] run stopped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VecRun {
    /// Byte offset reached: buffer end on success, the offending packet's
    /// first byte on error (the resync start, like the scalar parser which
    /// does not advance past an undecodable packet).
    pub pos: usize,
    /// Last-IP decompression register at `pos`.
    pub last_ip: u64,
    /// The decode error that stopped the run, if any.
    pub error: Option<PacketError>,
}

fn load_le(buf: &[u8], at: usize, n: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[..n].copy_from_slice(&buf[at..at + n]);
    u64::from_le_bytes(bytes)
}

const PSB_WORD: u64 = u64::from_le_bytes([
    wire::EXT,
    wire::EXT_PSB,
    wire::EXT,
    wire::EXT_PSB,
    wire::EXT,
    wire::EXT_PSB,
    wire::EXT,
    wire::EXT_PSB,
]);

/// The vectorized packet loop: parses `buf[pos..]` straight into `out` and
/// `core` without materialising [`Packet`] values — byte-class dispatch on
/// the leading byte, table-driven TNT expansion, word-level run appends.
/// Produces output bit-identical to feeding [`PacketParser`] packets through
/// [`ScanCore::feed`]; the scalar path stays as the reference the
/// differential tests compare against.
#[allow(clippy::too_many_lines)]
pub(crate) fn consume_vectorized(
    buf: &[u8],
    mut pos: usize,
    mut last_ip: u64,
    core: &mut ScanCore,
    out: &mut FastScan,
) -> VecRun {
    let len = buf.len();
    let fail = |pos: usize, offset: usize, last_ip: u64, kind: PacketErrorKind| VecRun {
        pos,
        last_ip,
        error: Some(PacketError { offset, kind }),
    };
    while pos < len {
        let b0 = buf[pos];
        if b0 & 1 == 0 {
            if b0 > wire::EXT {
                // Short TNT — the hot case: one table load, one run append.
                let (bits, n) = TNT_EXPAND[b0 as usize];
                out.bits.push_run(bits as u64, n as usize);
                pos += 1;
                continue;
            }
            if b0 == wire::PAD {
                pos += 1;
                continue;
            }
            // b0 == EXT: extended opcode.
            if pos + 2 > len {
                return fail(pos, pos, last_ip, PacketErrorKind::Truncated);
            }
            match buf[pos + 1] {
                wire::EXT_PSB => {
                    if pos + wire::PSB_LEN > len
                        || load_le(buf, pos, 8) != PSB_WORD
                        || load_le(buf, pos + 8, 8) != PSB_WORD
                    {
                        return fail(pos, pos, last_ip, PacketErrorKind::Truncated);
                    }
                    last_ip = 0;
                    core.in_psb_plus = true;
                    pos += wire::PSB_LEN;
                }
                wire::EXT_PSBEND => {
                    core.in_psb_plus = false;
                    pos += 2;
                }
                wire::EXT_OVF => {
                    out.boundaries.push((out.tip_count(), Boundary::Overflow));
                    core.run_start = out.bits.len();
                    pos += 2;
                }
                wire::EXT_CBR => {
                    if pos + 4 > len {
                        return fail(pos, pos, last_ip, PacketErrorKind::Truncated);
                    }
                    pos += 4;
                }
                wire::EXT_PIP => {
                    if pos + 8 > len {
                        return fail(pos, pos, last_ip, PacketErrorKind::Truncated);
                    }
                    pos += 8;
                }
                wire::EXT_LONG_TNT => {
                    if pos + 8 > len {
                        return fail(pos, pos, last_ip, PacketErrorKind::Truncated);
                    }
                    let value = load_le(buf, pos + 2, 6);
                    if value == 0 {
                        return fail(pos, pos, last_ip, PacketErrorKind::EmptyTnt);
                    }
                    let stop = 63 - value.leading_zeros() as u8;
                    if stop == 0 || stop > LONG_TNT_MAX {
                        return fail(pos, pos, last_ip, PacketErrorKind::EmptyTnt);
                    }
                    let payload = value & !(1u64 << stop);
                    out.bits
                        .push_run(payload.reverse_bits() >> (64 - u32::from(stop)), stop as usize);
                    pos += 8;
                }
                other => {
                    return fail(pos, pos, last_ip, PacketErrorKind::UnknownExtOpcode(other));
                }
            }
            continue;
        }
        // Odd leading byte: MODE or the IP-packet family.
        if b0 == wire::MODE {
            if pos + 2 > len {
                return fail(pos, pos, last_ip, PacketErrorKind::Truncated);
            }
            pos += 2;
            continue;
        }
        let op5 = b0 & 0x1f;
        if !matches!(op5, wire::TIP_OP | wire::TIP_PGE_OP | wire::TIP_PGD_OP | wire::FUP_OP) {
            return fail(pos, pos, last_ip, PacketErrorKind::UnknownOpcode(b0));
        }
        let ipbytes = b0 >> 5;
        let n = IP_PAYLOAD_LEN[ipbytes as usize];
        if n < 0 {
            return fail(pos, pos, last_ip, PacketErrorKind::BadIpBytes(ipbytes));
        }
        let n = n as usize;
        if pos + 1 + n > len {
            // The scalar parser reports payload truncation at the payload
            // offset, not the packet header.
            return fail(pos, pos + 1, last_ip, PacketErrorKind::Truncated);
        }
        let ip = if n == 0 {
            None
        } else {
            let raw = load_le(buf, pos + 1, n);
            let ip = match ipbytes {
                0b001 => (last_ip & !0xffff) | raw,
                0b010 => (last_ip & !0xffff_ffff) | raw,
                0b011 => sext48(raw),
                0b100 => (last_ip & !0xffff_ffff_ffff) | raw,
                _ => raw, // 0b110: full IP
            };
            last_ip = ip;
            Some(ip)
        };
        // TIP, FUP and TIP.PGE must carry an IP; TIP.PGD may suppress it.
        // Only a TIP records anything: a syscall packet's part is done once
        // it has moved `last_ip`.
        match (op5, ip) {
            (wire::TIP_OP, Some(ip)) => {
                out.push_tip_with_run(ip, core.run_start);
                core.run_start = out.bits.len();
            }
            (wire::TIP_PGD_OP, _) | (_, Some(_)) => {}
            (_, None) => return fail(pos, pos, last_ip, PacketErrorKind::SuppressedIp),
        }
        pos += 1 + n;
    }
    VecRun { pos, last_ip, error: None }
}

/// Vectorized cold scan: same contract and bit-identical output as [`scan`],
/// built on byte-class dispatch and SWAR PSB search instead of the packet
/// iterator. It is a fresh [`IncrementalScanner`] advanced once over the
/// whole buffer, so the cold and the incremental scan share one packet loop
/// and one recovery path. [`scan`] remains the scalar reference
/// implementation.
///
/// # Errors
///
/// Returns a [`PacketError`] only if the buffer is malformed *after*
/// synchronisation (a corrupt PSB+ bundle), exactly like [`scan`].
pub fn scan_vectorized(buf: &[u8]) -> Result<FastScan, PacketError> {
    let mut inc = IncrementalScanner::new();
    inc.advance(buf, buf.len() as u64, buf.len())?;
    Ok(inc.into_scan())
}

/// [`scan_vectorized`] over a chronological slice-of-slices cursor (for
/// example [`Topa::segments`](crate::topa::Topa::segments)) — the zero-copy
/// cold scan. Packets are consumed in place from the borrowed slices; only
/// the ≤ 15-byte fragment of a packet straddling a segment seam is copied
/// into a small carry.
///
/// The extracted TIP/TNT/boundary stream (the checker's whole input) and
/// the error behaviour are bit-identical to scanning the linearised
/// concatenation of `segs`.
///
/// # Errors
///
/// Returns a [`PacketError`] only if the stream is malformed *after*
/// synchronisation (a corrupt PSB+ bundle), exactly like [`scan_vectorized`].
pub fn scan_vectorized_segments(segs: &[&[u8]]) -> Result<FastScan, PacketError> {
    let mut c = crate::stream::StreamConsumer::new();
    let total: u64 = segs.iter().map(|s| s.len() as u64).sum();
    c.drain_segments(segs, total)?;
    Ok(c.into_scan())
}

/// Scans a trace buffer from its start.
///
/// If the buffer does not begin at a packet boundary (a wrapped ToPA), the
/// scan synchronises forward to the first PSB.
///
/// # Errors
///
/// Returns a [`PacketError`] only if the buffer is malformed *after*
/// synchronisation.
pub fn scan(buf: &[u8]) -> Result<FastScan, PacketError> {
    let mut parser = PacketParser::new(buf);
    let mut out = FastScan::default();

    // Probe: if the head doesn't parse (mid-packet seam after a wrap),
    // re-sync on the first PSB.
    if parser.clone().next_packet().is_some_and(|r| r.is_err()) {
        let mut p = PacketParser::new(buf);
        if p.sync_forward().is_none() {
            // No sync point: nothing reliable to extract.
            return Ok(out);
        }
        parser = p;
    }

    let mut core = ScanCore::default();
    while let Some(item) = parser.next_packet() {
        let item = match item {
            Ok(p) => p,
            Err(_) if !core.in_psb_plus => {
                // Seam damage mid-buffer: re-sync on the next PSB, dropping
                // the damaged span, exactly like a real PT decoder. TIPs on
                // either side of the seam are not consecutive.
                if parser.sync_forward().is_none() {
                    break;
                }
                out.boundaries.push((out.tip_count(), Boundary::Resync));
                core.run_start = out.bits.len();
                continue;
            }
            Err(e) => return Err(e),
        };
        core.feed(&mut out, &item.packet);
    }
    core.finish(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::PacketEncoder;

    #[test]
    fn extracts_tips_with_interleaved_tnt() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        enc.tnt_bit(true);
        enc.tnt_bit(false);
        enc.tip(0x50_0000);
        enc.tnt_bit(true);
        enc.tip(0x50_0100);
        enc.tnt_bit(false);
        let bytes = enc.into_sink();
        let scan = scan(&bytes).unwrap();
        assert_eq!(scan.tip_count(), 2);
        assert_eq!(scan.tip_event(0), TipEvent { ip: 0x50_0000, tnt_before: vec![true, false] });
        assert_eq!(scan.tip_event(1), TipEvent { ip: 0x50_0100, tnt_before: vec![true] });
        assert_eq!(scan.trailing_tnt(), vec![false]);
    }

    #[test]
    fn packed_tnt_matches_signature_encoding() {
        let mut scan = FastScan::default();
        scan.push_tip(0x50_0000, &[true, false, true]);
        // Oldest-first shift-left packing: 0b101.
        assert_eq!(scan.tnt_raw(0), Some((0b101, 3)));
        assert_eq!(scan.tnt_len(0), 3);
        scan.push_tip(0x50_0008, &[]);
        assert_eq!(scan.tnt_raw(1), Some((0, 0)));
        // Over-long runs don't pack.
        let long = vec![true; 65];
        scan.push_tip(0x50_0010, &long);
        assert_eq!(scan.tnt_raw(2), None);
        assert_eq!(scan.tnt_vec(2), long);
    }

    #[test]
    fn push_run_spans_word_boundaries() {
        let mut bv = BitVec::default();
        // 61 single pushes, then a 7-bit run straddling the first word.
        for i in 0..61 {
            bv.push(i % 3 == 0);
        }
        bv.push_run(0b101_1001, 7); // oldest outcome in bit 0
        assert_eq!(bv.len(), 68);
        let run: Vec<bool> = (61..68).map(|i| bv.get(i)).collect();
        assert_eq!(run, vec![true, false, false, true, true, false, true]);
        // range_raw packs oldest-first into the high bit of the value.
        assert_eq!(bv.range_raw(61, 7), Some((0b100_1101, 7)));
    }

    #[test]
    fn tnt_expand_table_agrees_with_parser() {
        use crate::decode::PacketParser;
        for b in (4u16..=255).step_by(2) {
            let b = b as u8;
            let bytes = [b];
            let packet = PacketParser::new(&bytes).next_packet().unwrap().unwrap().packet;
            let Packet::Tnt(seq) = packet else { panic!("short TNT expected for {b:#x}") };
            let want: Vec<bool> = seq.iter().collect();
            let (payload, len) = TNT_EXPAND[b as usize];
            assert_eq!(usize::from(len), want.len(), "length for {b:#x}");
            let got: Vec<bool> = (0..len).map(|i| payload >> i & 1 == 1).collect();
            assert_eq!(got, want, "bit order for {b:#x} (oldest first)");
        }
    }

    #[test]
    fn scan_vectorized_matches_scalar_on_busy_stream() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), Some(0x1000));
        for i in 0..80 {
            enc.tnt_bit(i % 3 != 0); // long enough to force a long TNT
        }
        enc.tip(0x50_0000);
        enc.fup(0x40_0010);
        enc.tip_pgd(None);
        enc.tip_pge(0x40_0018);
        enc.ovf();
        enc.mode_exec();
        enc.cbr(32);
        enc.pip(0x5000 << 5);
        enc.psb_plus(Some(0x41_0000), None);
        enc.tip(0x50_0200);
        enc.tnt_bit(true);
        let bytes = enc.into_sink();
        assert_eq!(scan_vectorized(&bytes), scan(&bytes));
    }

    #[test]
    fn scan_vectorized_resyncs_after_damage() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        enc.tip(0x50_0000);
        let clean = enc.into_sink();
        let mut bytes = vec![0x0f, 0x47]; // unknown opcode, then garbage
        bytes.extend_from_slice(&clean);
        let a = scan_vectorized(&bytes).unwrap();
        let b = scan(&bytes).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.tip_ips(), &[0x50_0000]);
        assert!(a.boundaries.is_empty(), "a head sync is not a seam");
    }

    #[test]
    fn psb_plus_fup_not_treated_as_event() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), Some(0x1000));
        enc.tip(0x50_0000);
        let bytes = enc.into_sink();
        let scan = scan(&bytes).unwrap();
        assert!(scan.boundaries.is_empty(), "PSB+ FUP is sync info, not a flow event");
    }

    #[test]
    fn syscall_packets_record_no_boundary_and_feed_last_ip() {
        // The TIP after the syscall is compressed against the TIP.PGE's IP:
        // only a scanner that decoded the PGE's IP gets its target right.
        let mut enc = PacketEncoder::new(Vec::new());
        enc.tip(0x50_0000);
        enc.fup(0x40_0010);
        enc.tip_pgd(None);
        enc.tip_pge(0x1234_5678_0018);
        enc.tip(0x1234_5678_0100);
        let bytes = enc.into_sink();
        let last = crate::decode::decode_all(&bytes).unwrap().pop().unwrap();
        assert_eq!(last.len, 3, "the last TIP carries a 2-byte payload");
        for scan in [scan(&bytes).unwrap(), scan_vectorized(&bytes).unwrap()] {
            assert_eq!(scan.tip_ips(), &[0x50_0000, 0x1234_5678_0100]);
            assert!(scan.boundaries.is_empty(), "a syscall is not a seam");
        }
    }

    #[test]
    fn resync_after_wrap_seam() {
        // Simulate a wrapped buffer: garbage head, then PSB+, then flow.
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        enc.tip(0x50_0000);
        let clean = enc.into_sink();
        let mut dirty = vec![0x47, 0x13, 0x99]; // 0x99 = MODE header → truncation noise
        dirty.extend_from_slice(&clean);
        let scan = scan(&dirty).unwrap();
        assert_eq!(scan.tip_count(), 1);
        assert!(scan.boundaries.is_empty(), "a head sync is not a seam");
    }

    #[test]
    fn no_sync_point_yields_empty_scan() {
        let scan = scan(&[0x47, 0x13]).unwrap();
        assert_eq!(scan, FastScan::default());
    }

    #[test]
    fn overflow_marks_boundary_and_clears_tnt() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.tnt_bit(true);
        enc.ovf();
        enc.tip(0x50_0000);
        let bytes = enc.into_sink();
        let scan = scan(&bytes).unwrap();
        assert_eq!(scan.boundaries, vec![(0, Boundary::Overflow)]);
        assert!(scan.tnt_vec(0).is_empty(), "pre-OVF TNT dropped");
    }

    #[test]
    fn truncate_front_rebases() {
        let mut s = FastScan::default();
        s.push_tip(0x10, &[true]);
        s.push_tip(0x20, &[false, true]);
        s.push_tip(0x30, &[true, true]);
        s.boundaries.push((1, Boundary::Overflow));
        s.boundaries.push((2, Boundary::Resync));
        s.set_trailing_tnt(&[false]);
        s.truncate_front(1);
        assert_eq!(s.tip_count(), 2);
        assert_eq!(s.tip_ip(0), 0x20);
        assert_eq!(s.tnt_vec(0), vec![false, true]);
        assert_eq!(s.boundaries, vec![(0, Boundary::Overflow), (1, Boundary::Resync)]);
        assert_eq!(s.trailing_tnt(), vec![false]);
    }

    #[test]
    fn truncate_front_in_place_keeps_every_later_run() {
        // OVFs orphan the bits between runs; runs up to 69 bits cross word
        // boundaries.
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        for i in 0..120u64 {
            for b in 0..i % 70 {
                enc.tnt_bit((i + b) % 3 == 0);
            }
            if i % 17 == 5 {
                enc.ovf();
            }
            enc.tip(0x50_0000 + i * 8);
        }
        enc.tnt_bit(true);
        let full = scan(&enc.into_sink()).unwrap();
        for drop in [0, 1, 5, 33, 64, 119, 120, 500] {
            let mut s = full.clone();
            let capacity = s.bits.words.capacity();
            s.truncate_front(drop);
            let d = drop.min(full.tip_count());
            assert_eq!(s.tip_events(), full.tip_events()[d..], "drop {drop}");
            let rebased: Vec<_> = full
                .boundaries
                .iter()
                .filter(|&&(i, _)| i >= d)
                .map(|&(i, b)| (i - d, b))
                .collect();
            assert_eq!(s.boundaries, rebased, "drop {drop}");
            assert_eq!(s.trailing_tnt(), full.trailing_tnt(), "drop {drop}");
            assert_eq!(s.bits.words.capacity(), capacity, "drop {drop}: compacted in place");
        }
    }

    #[test]
    fn semantic_equality_ignores_orphaned_bits() {
        let mut a = FastScan::default();
        a.push_tip(0x10, &[true, false]);
        let mut b = FastScan::default();
        b.push_tip(0x10, &[false, false]);
        b.set_tip_tnt(0, &[true, false]); // orphans the old run
        assert_eq!(a, b);
    }
}
