//! Property tests: the scalar scanner, the vectorized scanner, and the
//! checkpointed incremental scanner are three implementations of the same
//! function and must extract byte-identical TIP/TNT flow from any trace —
//! including traces with overflow packets, mid-stream damage, and arbitrary
//! chunk seams (the incremental scanner's contract is that chunks end at
//! packet boundaries, except inside damaged regions where any seam is fair).

use fg_ipt::encode::PacketEncoder;
use fg_ipt::fast::{self, Boundary, FastScan, TipEvent};
use fg_ipt::{IncrementalScanner, PacketParser};
use proptest::prelude::*;

/// Tiny deterministic generator so stream shape is a pure function of the
/// proptest-supplied seed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Builds a random packet stream starting from a PSB+ bundle, optionally
/// with raw damage bytes spliced in between packets.
fn build_stream(seed: u64, n_ops: usize, with_garbage: bool) -> Vec<u8> {
    let mut rng = XorShift(seed | 1);
    let mut enc = PacketEncoder::new(Vec::new());
    enc.psb_plus(Some(0x40_0000), None);
    for _ in 0..n_ops {
        let ip = 0x40_0000 + (rng.next() % 64) * 16;
        match rng.next() % 12 {
            0..=3 => enc.tnt_bit(rng.next().is_multiple_of(2)),
            4..=6 => enc.tip(ip),
            7 => enc.fup(ip),
            8 => enc.psb_plus(Some(ip), None),
            9 => enc.ovf(),
            10 => {
                enc.tip_pgd(None);
                enc.tip_pge(ip);
            }
            _ if with_garbage => {
                // Raw damage: both scanners must resynchronise at the next
                // PSB identically.
                enc.flush_tnt();
                let len = 1 + (rng.next() % 20) as usize;
                for _ in 0..len {
                    enc.sink_mut().push((rng.next() % 251) as u8);
                }
            }
            _ => enc.pad(),
        }
    }
    enc.into_sink()
}

/// Packet boundaries as the *serial parser* sees them — injected garbage can
/// itself decode as valid packets (possibly swallowing following real
/// packets), so encoder-op offsets are not trustworthy seams. These are: the
/// ToPA only ever exposes whole packets, and the incremental scanner's
/// chunk-seam contract is defined by the parse, not by the producer.
fn parse_boundaries(stream: &[u8]) -> Vec<usize> {
    let mut cuts = vec![0];
    let mut parser = PacketParser::new(stream);
    if parser.clone().next_packet().is_some_and(|r| r.is_err()) {
        let mut p = PacketParser::new(stream);
        match p.sync_forward() {
            Some(_) => parser = p,
            None => return vec![0, stream.len()],
        }
    }
    loop {
        cuts.push(parser.position());
        let Some(item) = parser.next_packet() else { break };
        if item.is_err() && parser.sync_forward().is_none() {
            break;
        }
    }
    cuts.push(stream.len());
    cuts.dedup();
    cuts
}

/// The observable flow three scanners must agree on.
fn events(s: &FastScan) -> (Vec<TipEvent>, Vec<(usize, Boundary)>, Vec<bool>) {
    (s.tip_events(), s.boundaries.clone(), s.trailing_tnt())
}

proptest! {
    /// Scalar and vectorized scans are equal on the full result, and an
    /// incremental scan over randomly chosen chunk seams reproduces the
    /// same flow with no byte scanned twice.
    #[test]
    fn serial_vectorized_incremental_agree(
        seed in any::<u64>(),
        n_ops in 10usize..150,
        with_garbage in any::<bool>(),
    ) {
        let stream = build_stream(seed, n_ops, with_garbage);
        let serial = fast::scan(&stream);
        let vectorized = fast::scan_vectorized(&stream);
        match (&serial, &vectorized) {
            (Ok(s), Ok(v)) => prop_assert_eq!(v, s),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "serial {a:?} vs vectorized {b:?}"),
        }

        let mut rng = XorShift(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
        let mut ends: Vec<usize> = parse_boundaries(&stream)
            .into_iter()
            .filter(|_| rng.next().is_multiple_of(3))
            .collect();
        ends.push(stream.len());
        let mut inc = IncrementalScanner::new();
        let mut inc_err = false;
        for &end in &ends {
            if inc.advance(&stream[..end], end as u64, stream.len()).is_err() {
                inc_err = true;
                break;
            }
        }
        match serial {
            Ok(s) => {
                prop_assert!(!inc_err);
                prop_assert_eq!(events(inc.scan()), events(&s));
                prop_assert_eq!(inc.scan().bytes_scanned, stream.len() as u64);
            }
            // Corrupt PSB+ bundle: every scanner refuses it.
            Err(_) => prop_assert!(inc_err),
        }
    }

    /// A ToPA wrap past the checkpoint: the scanner cold-restarts, keeps the
    /// pre-wrap flow behind a Resync boundary, and the post-wrap suffix is
    /// exactly a cold scan of the fresh buffer.
    #[test]
    fn wrap_restart_matches_cold_scan_of_fresh_buffer(
        seed in any::<u64>(),
        n_old in 5usize..80,
        n_fresh in 5usize..80,
    ) {
        let old = build_stream(seed, n_old, false);
        let fresh = build_stream(seed ^ 0xdead_beef, n_fresh, false);

        let mut inc = IncrementalScanner::new();
        inc.advance(&old, old.len() as u64, old.len()).expect("old advance");
        let had_tips = inc.scan().tip_count();
        let had_flow = had_tips > 0
            || !inc.scan().boundaries.is_empty()
            || !inc.scan().trailing_tnt().is_empty();
        let old_boundaries = inc.scan().boundaries.clone();

        let total = (old.len() + fresh.len()) as u64 + 4096; // gap: wrapped
        let info = inc.advance(&fresh, total, fresh.len()).expect("fresh advance");
        prop_assert!(info.cold_restart);

        let cold = fast::scan(&fresh).expect("cold scan of fresh buffer");
        prop_assert_eq!(&inc.scan().tip_events()[had_tips..], &cold.tip_events()[..]);
        prop_assert_eq!(inc.scan().trailing_tnt(), cold.trailing_tnt());
        let mut expected = old_boundaries;
        if had_flow {
            expected.push((had_tips, Boundary::Resync));
        }
        expected.extend(cold.boundaries.iter().map(|&(i, b)| (i + had_tips, b)));
        prop_assert_eq!(&inc.scan().boundaries, &expected);
    }

    /// Byte soup: even on unstructured input all three scanners agree (they
    /// all silently seek the first PSB and extract nothing or the same
    /// accidental flow).
    #[test]
    fn scanners_agree_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let serial = fast::scan(&bytes);
        let vectorized = fast::scan_vectorized(&bytes);
        match (&serial, &vectorized) {
            (Ok(s), Ok(v)) => prop_assert_eq!(v, s),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "serial {a:?} vs vectorized {b:?}"),
        }
        // One whole-buffer advance (a mid-soup seam is not a packet
        // boundary, which the incremental contract requires outside damaged
        // regions the scanner has already recognised as damaged).
        let mut inc = IncrementalScanner::new();
        let r = inc.advance(&bytes, bytes.len() as u64, bytes.len());
        match (serial, r) {
            (Ok(s), Ok(_)) => prop_assert_eq!(events(inc.scan()), events(&s)),
            (Err(_), Err(_)) => {}
            (s, i) => prop_assert!(false, "serial {s:?} vs incremental {i:?}"),
        }
    }
}
