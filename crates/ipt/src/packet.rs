//! Intel Processor Trace packet types and wire-format constants.
//!
//! The binary formats follow the Intel SDM (Vol. 3, "Intel Processor Trace"):
//!
//! | packet    | encoding                                         |
//! |-----------|--------------------------------------------------|
//! | PAD       | `0x00`                                           |
//! | short TNT | 1 byte, header bit 0 = 0, ≤6 TNT bits + stop bit |
//! | long TNT  | `0x02 0xA3` + 6 bytes (≤47 TNT bits + stop bit)  |
//! | TIP       | `(IPBytes << 5) \| 0x0D` + compressed IP         |
//! | TIP.PGE   | `(IPBytes << 5) \| 0x11` + compressed IP         |
//! | TIP.PGD   | `(IPBytes << 5) \| 0x01` + compressed IP         |
//! | FUP       | `(IPBytes << 5) \| 0x1D` + compressed IP         |
//! | PIP       | `0x02 0x43` + 6 bytes (`CR3 >> 5`)               |
//! | MODE.Exec | `0x99` + 1 byte                                  |
//! | CBR       | `0x02 0x03` + 2 bytes                            |
//! | PSB       | `0x02 0x82` × 8                                  |
//! | PSBEND    | `0x02 0x23`                                      |
//! | OVF       | `0x02 0xF3`                                      |
//!
//! TNT payloads use the hardware shift-register convention: a new
//! conditional-branch outcome is shifted in at the low end, so in the wire
//! byte the *oldest* branch sits just below the stop bit and the *newest*
//! at bit 1.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum TNT bits a short TNT packet can carry.
pub const SHORT_TNT_MAX: u8 = 6;
/// Maximum TNT bits a long TNT packet can carry.
pub const LONG_TNT_MAX: u8 = 47;

/// Wire-format constants.
pub mod wire {
    /// PAD packet byte.
    pub const PAD: u8 = 0x00;
    /// Extended-opcode prefix byte.
    pub const EXT: u8 = 0x02;
    /// Extended opcode for long TNT.
    pub const EXT_LONG_TNT: u8 = 0xA3;
    /// Extended opcode for PIP.
    pub const EXT_PIP: u8 = 0x43;
    /// Extended opcode for CBR.
    pub const EXT_CBR: u8 = 0x03;
    /// Extended opcode for PSB (the PSB pattern is `02 82` × 8).
    pub const EXT_PSB: u8 = 0x82;
    /// Extended opcode for PSBEND.
    pub const EXT_PSBEND: u8 = 0x23;
    /// Extended opcode for OVF.
    pub const EXT_OVF: u8 = 0xF3;
    /// MODE packet leading byte.
    pub const MODE: u8 = 0x99;
    /// Low-5-bit opcode of TIP.
    pub const TIP_OP: u8 = 0x0D;
    /// Low-5-bit opcode of TIP.PGE.
    pub const TIP_PGE_OP: u8 = 0x11;
    /// Low-5-bit opcode of TIP.PGD.
    pub const TIP_PGD_OP: u8 = 0x01;
    /// Low-5-bit opcode of FUP.
    pub const FUP_OP: u8 = 0x1D;
    /// Total size of a PSB packet in bytes.
    pub const PSB_LEN: usize = 16;
}

/// A sequence of taken/not-taken conditional branch outcomes, oldest first.
///
/// This is the in-memory representation of a TNT payload; conversion to the
/// stop-bit wire format happens in the codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TntSeq {
    bits: u64,
    len: u8,
}

impl TntSeq {
    /// An empty sequence.
    pub fn new() -> TntSeq {
        TntSeq::default()
    }

    /// Builds a sequence from outcomes ordered oldest → newest.
    ///
    /// # Panics
    ///
    /// Panics if more than [`LONG_TNT_MAX`] outcomes are given.
    pub fn from_slice(outcomes: &[bool]) -> TntSeq {
        assert!(outcomes.len() <= LONG_TNT_MAX as usize, "TNT sequence too long");
        let mut s = TntSeq::new();
        for &b in outcomes {
            s.push(b);
        }
        s
    }

    /// Appends the outcome of the next (newest) conditional branch.
    ///
    /// # Panics
    ///
    /// Panics if the sequence already holds [`LONG_TNT_MAX`] bits.
    #[inline]
    pub fn push(&mut self, taken: bool) {
        assert!(self.len < LONG_TNT_MAX, "TNT sequence overflow");
        self.bits = (self.bits << 1) | taken as u64;
        self.len += 1;
    }

    /// Number of outcomes held.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the sequence is full for a short TNT packet.
    pub fn is_short_full(&self) -> bool {
        self.len >= SHORT_TNT_MAX
    }

    /// The `i`-th outcome, with `0` the oldest.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: u8) -> bool {
        assert!(i < self.len, "TNT index out of range");
        (self.bits >> (self.len - 1 - i)) & 1 == 1
    }

    /// Iterates outcomes oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// The raw shift-register value (newest outcome in bit 0).
    pub fn raw_bits(&self) -> u64 {
        self.bits
    }
}

impl fmt::Display for TntSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TNT(")?;
        for b in self.iter() {
            f.write_str(if b { "T" } else { "N" })?;
        }
        write!(f, ")")
    }
}

/// A decoded trace packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Packet {
    /// Alignment padding.
    Pad,
    /// Packet stream boundary (decoder sync point).
    Psb,
    /// End of the PSB+ status sequence.
    Psbend,
    /// Internal buffer overflow: packets were dropped.
    Ovf,
    /// Taken/not-taken outcomes of conditional branches.
    Tnt(TntSeq),
    /// Target IP of an indirect branch, return, or far transfer.
    Tip { ip: u64 },
    /// Tracing (re-)enabled at `ip`.
    TipPge { ip: u64 },
    /// Tracing disabled; the IP may be suppressed.
    TipPgd { ip: Option<u64> },
    /// Flow-update: source IP of an asynchronous event (or PSB+ sync IP).
    Fup { ip: u64 },
    /// CR3 (address space) change.
    Pip { cr3: u64 },
    /// Core-to-bus frequency ratio.
    Cbr { ratio: u8 },
    /// Execution mode (the reproduction runs in a single 64-bit mode).
    ModeExec,
}

impl Packet {
    /// Whether this packet participates in FlowGuard's fast-path check
    /// (only TNT and TIP do; everything else is bookkeeping).
    pub fn is_flow_packet(&self) -> bool {
        matches!(self, Packet::Tnt(_) | Packet::Tip { .. })
    }

    /// Short mnemonic used in trace dumps (Table 2 style).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Packet::Pad => "PAD",
            Packet::Psb => "PSB",
            Packet::Psbend => "PSBEND",
            Packet::Ovf => "OVF",
            Packet::Tnt(_) => "TNT",
            Packet::Tip { .. } => "TIP",
            Packet::TipPge { .. } => "TIP.PGE",
            Packet::TipPgd { .. } => "TIP.PGD",
            Packet::Fup { .. } => "FUP",
            Packet::Pip { .. } => "PIP",
            Packet::Cbr { .. } => "CBR",
            Packet::ModeExec => "MODE.Exec",
        }
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Packet::Tnt(seq) => write!(f, "{seq}"),
            Packet::Tip { ip } => write!(f, "TIP({ip:#x})"),
            Packet::TipPge { ip } => write!(f, "TIP.PGE({ip:#x})"),
            Packet::TipPgd { ip: Some(ip) } => write!(f, "TIP.PGD({ip:#x})"),
            Packet::TipPgd { ip: None } => write!(f, "TIP.PGD(-)"),
            Packet::Fup { ip } => write!(f, "FUP({ip:#x})"),
            Packet::Pip { cr3 } => write!(f, "PIP(cr3={cr3:#x})"),
            Packet::Cbr { ratio } => write!(f, "CBR({ratio})"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

/// IP compression modes (the `IPBytes` field of IP packets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpCompression {
    /// No payload; IP suppressed.
    Suppressed,
    /// 2-byte payload replacing bits 15:0 of the last IP.
    Update16,
    /// 4-byte payload replacing bits 31:0 of the last IP.
    Update32,
    /// 6-byte payload, sign-extended from bit 47.
    Sext48,
    /// 6-byte payload replacing bits 47:0 of the last IP.
    Update48,
    /// Full 8-byte IP.
    Full,
}

impl IpCompression {
    /// The `IPBytes` field value.
    pub fn field(self) -> u8 {
        match self {
            IpCompression::Suppressed => 0b000,
            IpCompression::Update16 => 0b001,
            IpCompression::Update32 => 0b010,
            IpCompression::Sext48 => 0b011,
            IpCompression::Update48 => 0b100,
            IpCompression::Full => 0b110,
        }
    }

    /// Decodes an `IPBytes` field value.
    pub fn from_field(f: u8) -> Option<IpCompression> {
        Some(match f {
            0b000 => IpCompression::Suppressed,
            0b001 => IpCompression::Update16,
            0b010 => IpCompression::Update32,
            0b011 => IpCompression::Sext48,
            0b100 => IpCompression::Update48,
            0b110 => IpCompression::Full,
            _ => return None,
        })
    }

    /// Payload size in bytes.
    pub fn payload_len(self) -> usize {
        match self {
            IpCompression::Suppressed => 0,
            IpCompression::Update16 => 2,
            IpCompression::Update32 => 4,
            IpCompression::Sext48 | IpCompression::Update48 => 6,
            IpCompression::Full => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tnt_seq_push_get_order() {
        let mut s = TntSeq::new();
        s.push(true);
        s.push(false);
        s.push(true);
        assert_eq!(s.len(), 3);
        assert!(s.get(0), "oldest");
        assert!(!s.get(1));
        assert!(s.get(2), "newest");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![true, false, true]);
        assert_eq!(s.to_string(), "TNT(TNT)");
    }

    #[test]
    fn tnt_seq_from_slice_roundtrip() {
        let v = [true, true, false, true, false, false];
        let s = TntSeq::from_slice(&v);
        assert_eq!(s.iter().collect::<Vec<_>>(), v);
        assert!(s.is_short_full());
    }

    #[test]
    fn tnt_raw_bits_shift_register() {
        // push T, N → bits = 0b10 (newest at bit 0).
        let s = TntSeq::from_slice(&[true, false]);
        assert_eq!(s.raw_bits(), 0b10);
    }

    #[test]
    #[should_panic(expected = "TNT sequence overflow")]
    fn tnt_seq_overflow_panics() {
        let mut s = TntSeq::new();
        for _ in 0..=LONG_TNT_MAX {
            s.push(true);
        }
    }

    #[test]
    fn ip_compression_field_roundtrip() {
        for c in [
            IpCompression::Suppressed,
            IpCompression::Update16,
            IpCompression::Update32,
            IpCompression::Sext48,
            IpCompression::Update48,
            IpCompression::Full,
        ] {
            assert_eq!(IpCompression::from_field(c.field()), Some(c));
        }
        assert_eq!(IpCompression::from_field(0b101), None);
        assert_eq!(IpCompression::from_field(0b111), None);
    }

    #[test]
    fn packet_display_and_mnemonics() {
        assert_eq!(Packet::Tip { ip: 0x905 }.to_string(), "TIP(0x905)");
        assert_eq!(Packet::TipPgd { ip: None }.to_string(), "TIP.PGD(-)");
        assert_eq!(Packet::Psb.to_string(), "PSB");
        assert!(Packet::Tip { ip: 1 }.is_flow_packet());
        assert!(Packet::Tnt(TntSeq::new()).is_flow_packet());
        assert!(!Packet::Psb.is_flow_packet());
        assert!(!Packet::Fup { ip: 1 }.is_flow_packet());
    }
}
