//! Truncation equivalence: an [`IncrementalScanner`] whose scan drops its
//! oldest TIPs lazily — advancing a live head and compacting only once the
//! dead prefix outgrows the live part — shows, after every append and every
//! `compact(k)`, exactly the scan that eager truncation leaves: every
//! accessor and equality.
//!
//! The oracle is built from a second scanner fed the same bytes and never
//! compacted: eager truncation of `D` TIPs leaves that scanner's TIP ips
//! and per-TIP TNT runs from the `D`-th on, its boundaries at or after TIP
//! `D` rebased by `D`, and its trailing run, where each truncation adds
//! its TIP count to `D`.

use fg_ipt::encode::PacketEncoder;
use fg_ipt::fast::FastScan;
use fg_ipt::IncrementalScanner;
use proptest::prelude::*;

/// The never-compacted scan without its first `dropped` TIPs: what eager
/// truncation leaves, rebuilt from the accessors alone.
fn eager_view(full: &FastScan, dropped: usize) -> FastScan {
    let mut e = FastScan::default();
    for i in dropped..full.tip_count() {
        e.push_tip(full.tip_ip(i), &full.tnt_vec(i));
    }
    e.set_trailing_tnt(&full.trailing_tnt());
    e.boundaries = full
        .boundaries
        .iter()
        .filter(|&&(i, _)| i >= dropped)
        .map(|&(i, b)| (i - dropped, b))
        .collect();
    e
}

/// Every accessor of `got` against the eager scan `want`.
fn assert_same_scan(got: &FastScan, want: &FastScan) -> Result<(), String> {
    prop_assert_eq!(got.tip_count(), want.tip_count());
    prop_assert_eq!(got.tip_ips(), want.tip_ips());
    for i in 0..got.tip_count() {
        prop_assert_eq!(got.tnt_len(i), want.tnt_len(i));
        prop_assert_eq!(got.tnt_raw(i), want.tnt_raw(i));
        prop_assert_eq!(got.tnt_vec(i), want.tnt_vec(i));
    }
    prop_assert_eq!(&got.boundaries, &want.boundaries);
    prop_assert_eq!(got.trailing_tnt(), want.trailing_tnt());
    prop_assert!(got == want, "PartialEq disagrees with the accessors");
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
        let mut dropped_tips = 0usize;
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
                dropped_tips += n.saturating_sub(keep);
            }
            assert_same_scan(lazy.scan(), &eager_view(full.scan(), dropped_tips))?;
        }
    }
}
