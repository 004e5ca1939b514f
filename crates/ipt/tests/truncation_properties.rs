//! Truncation equivalence: an [`IncrementalScanner`] whose scan drops its
//! oldest TIPs lazily — advancing a live head and compacting only once the
//! dead prefix outgrows the live part — shows, after every append and every
//! `compact(k)`, exactly the scan that eager truncation leaves: every
//! accessor, equality and the serialised form.
//!
//! The oracle is the eager truncation itself, kept here: the bodies of
//! `FastScan::truncate_front` and `BitVec::drop_front` from before
//! truncation became lazy, run on the scan's serialised fields. It works on
//! a view of a second scanner fed the same bytes and never compacted: the
//! eager scan is that scanner's scan without its first `D` TIPs and first
//! `C` TNT bits, where each truncation adds its TIP count to `D` and its
//! bit cut to `C`.

use fg_ipt::encode::PacketEncoder;
use fg_ipt::fast::{Boundary, FastScan};
use fg_ipt::IncrementalScanner;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

/// The serialised form of the scan's packed TNT bits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Bits {
    words: Vec<u64>,
    len: usize,
}

impl Bits {
    /// The eager `BitVec::drop_front`.
    fn drop_front(&mut self, n: usize) {
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

/// The serialised form of a [`FastScan`], field for field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Eager {
    tip_ips: Vec<u64>,
    tnt_ranges: Vec<(u32, u32)>,
    bits: Bits,
    trailing: (u32, u32),
    boundaries: Vec<(usize, Boundary)>,
    bytes_scanned: u64,
    sync_offset: Option<usize>,
    truncated: bool,
    damage_at_head: bool,
}

impl Eager {
    /// The eager `FastScan::truncate_front`; returns the bit cut.
    fn truncate_front(&mut self, drop_tips: usize) -> u32 {
        let drop_tips = drop_tips.min(self.tip_ips.len());
        if drop_tips == 0 {
            return 0;
        }
        let cut = self.tnt_ranges[drop_tips..]
            .iter()
            .map(|&(start, _)| start)
            .fold(self.trailing.0, u32::min);
        self.bits.drop_front(cut as usize);
        self.tnt_ranges.drain(..drop_tips);
        for range in &mut self.tnt_ranges {
            range.0 -= cut;
        }
        self.trailing.0 -= cut;
        self.tip_ips.drain(..drop_tips);
        self.boundaries.retain_mut(|(i, _)| {
            if *i < drop_tips {
                false
            } else {
                *i -= drop_tips;
                true
            }
        });
        cut
    }
}

/// The never-compacted scan without its first `tips` TIPs and `bits` bits:
/// what eager truncation leaves.
fn eager_view(full: &FastScan, tips: usize, bits: u32) -> Eager {
    let mut e = Eager::from_value(&full.to_value()).unwrap();
    e.bits.drop_front(bits as usize);
    e.tip_ips.drain(..tips);
    e.tnt_ranges.drain(..tips);
    for range in &mut e.tnt_ranges {
        range.0 -= bits;
    }
    e.trailing.0 -= bits;
    e.boundaries.retain(|&(i, _)| i >= tips);
    for (i, _) in &mut e.boundaries {
        *i -= tips;
    }
    e
}

/// Every accessor of `got` against the eager scan `want`.
fn assert_same_scan(got: &FastScan, want: &Eager) -> Result<(), String> {
    let oracle = FastScan::from_value(&want.to_value()).unwrap();
    prop_assert_eq!(got.tip_count(), oracle.tip_count());
    prop_assert_eq!(got.tip_ips(), oracle.tip_ips());
    for i in 0..got.tip_count() {
        prop_assert_eq!(got.tnt_len(i), oracle.tnt_len(i));
        prop_assert_eq!(got.tnt_raw(i), oracle.tnt_raw(i));
        prop_assert_eq!(got.tnt_vec(i), oracle.tnt_vec(i));
    }
    prop_assert_eq!(&got.boundaries, &oracle.boundaries);
    prop_assert_eq!(got.trailing_tnt(), oracle.trailing_tnt());
    prop_assert!(got == &oracle, "PartialEq disagrees with the accessors");
    prop_assert_eq!(got.to_value(), want.to_value());
    let round_trip = FastScan::from_value(&got.to_value()).unwrap();
    prop_assert!(&round_trip == got, "serde round trip changed the scan");
    Ok(())
}

/// Derives a stream from a seed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A trace of `n` events: `kind` 0 is benign flow, 1 an OVF storm, 2 benign
/// flow with damaged bytes spliced in.
fn stream(seed: u64, n: usize, kind: u8) -> Vec<u8> {
    let mut rng = XorShift(seed | 1);
    let mut enc = PacketEncoder::new(Vec::new());
    enc.psb_plus(Some(0x40_0000), None);
    for _ in 0..n {
        let ip = 0x40_0000 + (rng.next() % 64) * 16;
        match rng.next() % 10 {
            0..=3 => {
                for _ in 0..rng.next() % 70 {
                    enc.tnt_bit(rng.next().is_multiple_of(3));
                }
            }
            4..=6 => enc.tip(ip),
            7 if kind == 1 => {
                for _ in 0..=rng.next() % 6 {
                    enc.ovf();
                }
            }
            7 => {
                enc.fup(ip);
                enc.tip_pgd(None);
                enc.tip_pge(ip);
            }
            8 if kind == 2 => {
                enc.flush_tnt();
                for _ in 0..=rng.next() % 20 {
                    enc.sink_mut().push((rng.next() % 251) as u8);
                }
            }
            8 => enc.ovf(),
            _ => enc.psb_plus(Some(ip), None),
        }
    }
    enc.into_sink()
}

proptest! {
    #[test]
    fn lazy_truncation_equals_eager_truncation(
        shape in (any::<u64>(), 8usize..400, 0u8..3),
        steps in proptest::collection::vec((any::<bool>(), any::<u64>()), 1..96),
    ) {
        let (seed, events, kind) = shape;
        let bytes = stream(seed, events, kind);
        let mut lazy = IncrementalScanner::new();
        let mut full = IncrementalScanner::new();
        let (mut dropped_tips, mut cut_bits) = (0usize, 0u32);
        let mut end = 0usize;
        for (append, value) in steps.iter().cycle().take(4 * steps.len()) {
            if *append {
                if end == bytes.len() {
                    continue;
                }
                end = (end + 1 + (value % 48) as usize).min(bytes.len());
                let total = end as u64;
                let a = lazy.advance(&bytes[..end], total, end);
                let b = full.advance(&bytes[..end], total, end);
                prop_assert_eq!(a.is_err(), b.is_err());
                if a.is_err() {
                    lazy.skip_to(total);
                    full.skip_to(total);
                }
            } else {
                // Keep at least one TIP: the scanner's restart logic looks at
                // whether any flow is left, which the never-compacted scanner
                // cannot mirror once every TIP is gone.
                let keep = 1 + (value % 24) as usize;
                let n = lazy.scan().tip_count();
                lazy.compact(keep);
                if n > keep {
                    let mut eager = eager_view(full.scan(), dropped_tips, cut_bits);
                    cut_bits += eager.truncate_front(n - keep);
                    dropped_tips += n - keep;
                }
            }
            assert_same_scan(lazy.scan(), &eager_view(full.scan(), dropped_tips, cut_bits))?;
        }
    }
}
