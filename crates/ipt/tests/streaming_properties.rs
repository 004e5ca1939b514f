//! Soundness properties for the streaming pipeline: a [`StreamConsumer`]
//! fed the producer's bytes in arbitrary chunks — including mid-packet
//! frontier splits, OVF storms, and circular-buffer wraps — must be
//! bit-identical to a cold [`fast::scan`] of the same stream; its budgeted
//! window drain must consume exactly as the endpoint scanner it replaced;
//! syscall packets must leave the checker's input unchanged; and the
//! vectorized scanner must agree with the scalar parser on arbitrary byte
//! soup (divergences are persisted as repro artifacts).

use fg_ipt::encode::{PacketEncoder, TraceSink};
use fg_ipt::fast::{self, FastScan};
use fg_ipt::stream::StreamConsumer;
use fg_ipt::topa::Topa;
use fg_ipt::{scan_vectorized, AppendInfo, IncrementalScanner, PacketError, PacketParser};
use proptest::prelude::*;

/// The fuzz alphabet for well-formed trace streams: a raw `(selector,
/// value, flag)` tuple decoded into one encoder action. The selector is
/// weighted (TNT and TIP dominate, as on real hardware); the value seeds
/// IPs/CR3s into the module-ish range the decoder expects.
type Op = (u8, u64, bool);

/// Encodes an op sequence, always starting from a PSB+ so the stream has a
/// synchronisation point (as real hardware guarantees periodically).
fn encode(ops: &[Op]) -> Vec<u8> {
    let mut enc = PacketEncoder::new(Vec::new());
    enc.psb_plus(Some(0x40_0000), Some(0x1000));
    for &(sel, value, flag) in ops {
        let ip = 0x40_0000 + (value % 0x40_0000);
        match sel % 16 {
            0..=5 => enc.tnt_bit(flag),
            6..=8 => enc.tip(ip),
            9 => enc.fup(ip),
            10 => enc.tip_pge(ip),
            11 => enc.tip_pgd(None),
            12 => enc.ovf(),
            13 => enc.psb_plus(Some(ip), None),
            14 => {
                if flag {
                    enc.mode_exec();
                } else {
                    enc.cbr((value & 0xff) as u8);
                }
            }
            _ => enc.pip((value % (1 << 30)) << 5),
        }
    }
    enc.into_sink()
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((any::<u8>(), any::<u64>(), any::<bool>()), 0..64)
}

/// `ops` without its syscall packets: every FUP, TIP.PGE and TIP.PGD op.
fn without_syscall_packets(ops: &[Op]) -> Vec<Op> {
    ops.iter().copied().filter(|&(sel, _, _)| !matches!(sel % 16, 9..=11)).collect()
}

/// A consumer that drained `stream` in chunks cycling through `cuts`.
fn drain_chunked(stream: &[u8], cuts: &[usize]) -> StreamConsumer {
    let mut c = StreamConsumer::new();
    let mut end = 0usize;
    let mut cut = cuts.iter().cycle();
    while end < stream.len() {
        end = (end + cut.next().unwrap()).min(stream.len());
        c.drain(&stream[..end], end as u64).unwrap();
    }
    c
}

/// The checker-visible stream: TIPs, boundaries, trailing TNT.
fn assert_stream_eq(got: &FastScan, want: &FastScan) {
    assert_eq!(got.tip_events(), want.tip_events());
    assert_eq!(got.boundaries, want.boundaries);
    assert_eq!(got.trailing_tnt(), want.trailing_tnt());
}

/// Persists a diverging input so the failure can be replayed outside
/// proptest shrinking — the streaming analogue of the violation flight
/// recorder's repro artifacts.
fn dump_repro(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    let dir = std::env::temp_dir().join("fg-scan-divergence");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{tag}-{hash:016x}.bin"));
    let _ = std::fs::write(&path, bytes);
    path
}

/// The endpoint-time consumption the engine used before the consumer
/// served every check: skip the residue beyond one window, copy the newest
/// `min(budget, retained)` bytes, and advance the scanner over them.
fn endpoint_scan(
    inc: &mut IncrementalScanner,
    topa: &Topa,
    budget: usize,
    tail: &mut Vec<u8>,
) -> Result<AppendInfo, PacketError> {
    let total = topa.total_written();
    let retained = topa.retained_len();
    let delta = total.saturating_sub(inc.stream_pos());
    if delta > budget as u64 && delta <= retained as u64 {
        inc.skip_to(total - budget as u64);
    }
    topa.tail_into(budget.min(retained), tail);
    inc.advance(tail, total, budget)
}

/// Writes `packets` (byte ranges of `stream`, in order) through a small
/// circular ToPA, draining every `period` packets both with the endpoint
/// scan and with the consumer's budgeted window drain over the region
/// slices. Every drain must agree on what it consumed and on the
/// checker-visible flow.
fn window_drain_matches_endpoint_scan(
    stream: &[u8],
    packets: &[(usize, usize)],
    reps: usize,
    period: usize,
    budget: usize,
) -> Result<(), String> {
    let mut topa = Topa::two_regions(4096).unwrap();
    let mut inc = IncrementalScanner::new();
    let mut c = StreamConsumer::new();
    let mut tail = Vec::new();
    let mut written = 0usize;
    for &(start, end) in packets.iter().cycle().take(packets.len() * reps) {
        topa.write_packet(&stream[start..end]);
        written += 1;
        if !written.is_multiple_of(period) && written != packets.len() * reps {
            continue;
        }
        let total = topa.total_written();
        let want = endpoint_scan(&mut inc, &topa, budget, &mut tail);
        let got = c.drain_window(topa.segments(), total, budget);
        match (want, got) {
            (Ok(want), Ok(got)) => {
                prop_assert_eq!(got.new_bytes, want.new_bytes);
                prop_assert_eq!(got.cold_restart, want.cold_restart);
            }
            (Err(_), Err(_)) => {
                // The engine's recovery: abandon the corrupt bundle.
                inc.skip_to(total);
                c.skip_to(total);
            }
            (want, got) => {
                let path = dump_repro("window", stream);
                prop_assert!(
                    false,
                    "drain divergence ({want:?} vs {got:?}); repro at {}",
                    path.display()
                );
            }
        }
        prop_assert_eq!(c.frontier(), inc.stream_pos());
        assert_stream_eq(c.scan(), inc.scan());
    }
    Ok(())
}

/// The producer's packets of a well-formed `stream`, as byte ranges.
fn packet_ranges(stream: &[u8]) -> Vec<(usize, usize)> {
    fg_ipt::decode::decode_all(stream)
        .unwrap()
        .iter()
        .map(|p| (p.offset, p.offset + p.len))
        .collect()
}

proptest! {
    /// Mid-packet frontier splits: drain arbitrary-sized chunks (1..=17
    /// bytes, freely crossing packet boundaries) and compare against one
    /// cold scan of the whole stream.
    #[test]
    fn chunked_streaming_equals_cold_scan(
        stream_ops in ops(),
        cuts in proptest::collection::vec(1usize..18, 1..128),
    ) {
        let stream = encode(&stream_ops);
        let c = drain_chunked(&stream, &cuts);
        let cold = fast::scan(&stream).unwrap();
        assert_stream_eq(c.scan(), &cold);
        prop_assert_eq!(c.frontier(), stream.len() as u64);
        prop_assert_eq!(c.stats().drained_bytes, stream.len() as u64);
    }

    /// Syscall packets are invisible to the checker: leaving every FUP,
    /// TIP.PGE and TIP.PGD out of a stream changes neither its TIP events,
    /// nor its boundaries, nor its trailing TNT — through the scalar scan
    /// and through a consumer fed in chunks. (The TIPs after a dropped
    /// TIP.PGE compress against a different last IP, and must still decode
    /// to the same targets.)
    #[test]
    fn syscall_packets_are_invisible_to_the_checker(
        stream_ops in ops(),
        cuts in proptest::collection::vec(1usize..18, 1..32),
    ) {
        let with = encode(&stream_ops);
        let without = encode(&without_syscall_packets(&stream_ops));
        assert_stream_eq(&fast::scan(&with).unwrap(), &fast::scan(&without).unwrap());
        assert_stream_eq(drain_chunked(&with, &cuts).scan(), drain_chunked(&without, &cuts).scan());
    }

    /// OVF storms: overflow packets clear TNT state and mark boundaries;
    /// storms interleaved with splits must not desynchronise the frontier.
    #[test]
    fn ovf_storm_streaming_equals_cold_scan(
        bursts in proptest::collection::vec((1usize..8, 0x40_0000u64..0x80_0000), 1..16),
        cut in 1usize..6,
    ) {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        for &(storm, ip) in &bursts {
            for _ in 0..storm {
                enc.ovf();
            }
            enc.tip(ip);
            enc.tnt_bit(ip & 1 == 0);
        }
        let stream = enc.into_sink();
        let mut c = StreamConsumer::new();
        let mut end = 0usize;
        while end < stream.len() {
            end = (end + cut).min(stream.len());
            c.drain(&stream[..end], end as u64).unwrap();
        }
        assert_stream_eq(c.scan(), &fast::scan(&stream).unwrap());
    }

    /// Wraps: a producer writing through a small circular ToPA while the
    /// consumer drains at irregular intervals. While the consumer keeps up
    /// (no wrap passes the frontier) the result matches the cold scan; if
    /// it falls behind, it recovers with a cold restart and ends drained.
    #[test]
    fn topa_residue_draining_tracks_producer(
        stream_ops in ops(),
        period in 1usize..40,
    ) {
        let stream = encode(&stream_ops);
        let mut topa = Topa::two_regions(4096).unwrap();
        let mut c = StreamConsumer::new();
        let mut tail = Vec::new();
        for (i, byte) in stream.iter().enumerate() {
            topa.write_packet(&[*byte]);
            if i % period == period - 1 {
                let total = topa.total_written();
                topa.tail_into(c.residue(total) as usize, &mut tail);
                c.drain(&tail, total).unwrap();
                prop_assert!(c.is_drained(total));
            }
        }
        let total = topa.total_written();
        topa.tail_into(c.residue(total) as usize, &mut tail);
        c.drain(&tail, total).unwrap();
        prop_assert!(c.is_drained(total));
        prop_assert_eq!(total, stream.len() as u64);
        if c.generation() == 0 {
            assert_stream_eq(c.scan(), &fast::scan(&stream).unwrap());
        }
    }

    /// Differential: the vectorized scanner and the scalar parser-driven
    /// scan agree on arbitrary byte soup — same scan or same error. A
    /// divergence persists the input as a repro artifact before failing.
    #[test]
    fn vectorized_matches_scalar_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let scalar = fast::scan(&bytes);
        let vector = scan_vectorized(&bytes);
        if scalar != vector {
            let path = dump_repro("garbage", &bytes);
            prop_assert!(false, "scan divergence; repro at {}", path.display());
        }
    }

    /// Differential on well-formed streams with a garbage head and tail —
    /// the resync-heavy shape the fuzz corpus exercises most.
    #[test]
    fn vectorized_matches_scalar_on_framed_garbage(
        head in proptest::collection::vec(any::<u8>(), 0..32),
        stream_ops in ops(),
        tail in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut bytes = head;
        bytes.extend_from_slice(&encode(&stream_ops));
        bytes.extend_from_slice(&tail);
        let scalar = fast::scan(&bytes);
        let vector = scan_vectorized(&bytes);
        if scalar != vector {
            let path = dump_repro("framed", &bytes);
            prop_assert!(false, "scan divergence; repro at {}", path.display());
        }
    }

    /// find_psb agrees with the scalar parser's sync_forward on garbage.
    #[test]
    fn find_psb_matches_parser_sync(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut p = PacketParser::new(&bytes);
        prop_assert_eq!(p.sync_forward(), fg_ipt::find_psb(&bytes, 0));
    }

    /// Region seams: whole packets written through a small circular ToPA —
    /// straddling region boundaries and wrapping, as hardware does — and
    /// drained zero-copy from the segmented view at irregular intervals.
    /// The result must be bit-identical to a consumer fed the linearized
    /// chronological window at the same instants (same verdict stream, same
    /// frontier, same generation), the segmented view must reassemble the
    /// flight-record window bytes exactly, and the only bytes copied are
    /// sub-packet seam fragments.
    #[test]
    fn segmented_topa_drain_equals_linearized_across_seams_and_wraps(
        stream_ops in ops(),
        period in 1usize..12,
        reps in 1usize..4,
    ) {
        let stream = encode(&stream_ops);
        let packets = fg_ipt::decode::decode_all(&stream).unwrap();
        let mut seg_topa = Topa::two_regions(4096).unwrap();
        let mut lin_topa = Topa::two_regions(4096).unwrap();
        let mut seg_c = StreamConsumer::new();
        let mut lin_c = StreamConsumer::new();
        let mut lin_buf = Vec::new();
        // `reps` passes through the packet list push the producer past the
        // 8 KiB capacity, so region seams and wraps both occur.
        let mut written = 0usize;
        for rep in 0..reps {
            for (i, p) in packets.iter().enumerate() {
                let bytes = &stream[p.offset..p.offset + p.len];
                seg_topa.write_packet(bytes);
                lin_topa.write_packet(bytes);
                written += 1;
                if written.is_multiple_of(period) {
                    let total = seg_topa.total_written();
                    let segs: Vec<&[u8]> = seg_topa.segments().collect();
                    seg_c.drain_segments(&segs, total).unwrap();
                    lin_topa.chronological_into(&mut lin_buf);
                    lin_c.drain(&lin_buf, total).unwrap();
                    prop_assert!(seg_c.is_drained(total));
                    prop_assert_eq!(segs.concat(), lin_buf.clone(),
                        "segmented view must reassemble the flight-record window");
                }
                let _ = (rep, i);
            }
        }
        let total = seg_topa.total_written();
        seg_c.drain_segments(&seg_topa.segments().collect::<Vec<_>>(), total).unwrap();
        lin_topa.chronological_into(&mut lin_buf);
        lin_c.drain(&lin_buf, total).unwrap();
        assert_stream_eq(seg_c.scan(), lin_c.scan());
        prop_assert_eq!(seg_c.frontier(), lin_c.frontier());
        prop_assert_eq!(seg_c.generation(), lin_c.generation());
        let stats = seg_c.stats();
        prop_assert_eq!(stats.drained_bytes, lin_c.stats().drained_bytes);
        // Zero-copy: every copied byte is part of a packet fragment carried
        // across a region seam, never a bulk linearization.
        prop_assert!(
            stats.copied_bytes
                <= stats.seam_carries * (fg_ipt::packet::wire::PSB_LEN as u64 - 1),
            "copied {} bytes over {} seam carries",
            stats.copied_bytes, stats.seam_carries
        );
    }

    /// OVF storms through the segmented cursor: overflow packets clear TNT
    /// state and mark boundaries; storms split across arbitrary region
    /// seams must match the linear drain of the same bytes.
    #[test]
    fn ovf_storm_segmented_drain_matches_linear(
        bursts in proptest::collection::vec((1usize..8, 0x40_0000u64..0x80_0000), 1..16),
        cuts in proptest::collection::vec(1usize..24, 1..32),
    ) {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        for &(storm, ip) in &bursts {
            for _ in 0..storm {
                enc.ovf();
            }
            enc.tip(ip);
            enc.tnt_bit(ip & 1 == 0);
        }
        let stream = enc.into_sink();
        let total = stream.len() as u64;
        let mut segs: Vec<&[u8]> = Vec::new();
        let mut start = 0usize;
        let mut cut = cuts.iter().cycle();
        while start < stream.len() {
            let end = (start + cut.next().unwrap()).min(stream.len());
            segs.push(&stream[start..end]);
            start = end;
        }
        let mut seg_c = StreamConsumer::new();
        seg_c.drain_segments(&segs, total).unwrap();
        let mut lin_c = StreamConsumer::new();
        lin_c.drain(&stream, total).unwrap();
        assert_stream_eq(seg_c.scan(), lin_c.scan());
        prop_assert_eq!(seg_c.frontier(), lin_c.frontier());
    }

    /// Differential on arbitrary byte soup: the segmented drain must agree
    /// with the linear drain — same scan or the same error — no matter
    /// where the seams fall, so packet corruption diagnoses identically on
    /// both paths.
    #[test]
    fn segmented_drain_matches_linear_drain_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        cuts in proptest::collection::vec(1usize..48, 1..16),
    ) {
        let total = bytes.len() as u64;
        let mut segs: Vec<&[u8]> = Vec::new();
        let mut start = 0usize;
        let mut cut = cuts.iter().cycle();
        while start < bytes.len() {
            let end = (start + cut.next().unwrap()).min(bytes.len());
            segs.push(&bytes[start..end]);
            start = end;
        }
        let mut lin_c = StreamConsumer::new();
        let lin_res = lin_c.drain(&bytes, total);
        let mut seg_c = StreamConsumer::new();
        let seg_res = seg_c.drain_segments(&segs, total);
        match (lin_res, seg_res) {
            (Ok(_), Ok(_)) => assert_stream_eq(seg_c.scan(), lin_c.scan()),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => {
                let path = dump_repro("segmented", &bytes);
                prop_assert!(false,
                    "drain divergence ({a:?} vs {b:?}); repro at {}", path.display());
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The budgeted window drain over region slices consumes exactly as
    /// the endpoint scan did — skip, cold restart and in-place drains alike
    /// — on benign streams wrapping a small ToPA.
    #[test]
    fn window_drain_matches_endpoint_scan_on_wrapping_streams(
        stream_ops in ops(),
        reps in 1usize..6,
        period in 1usize..40,
        budget in 16usize..1024,
    ) {
        let stream = encode(&stream_ops);
        let packets = packet_ranges(&stream);
        window_drain_matches_endpoint_scan(&stream, &packets, reps, period, budget)?;
    }

    /// The same on OVF storms.
    #[test]
    fn window_drain_matches_endpoint_scan_on_ovf_storms(
        bursts in proptest::collection::vec((1usize..8, 0x40_0000u64..0x80_0000), 1..16),
        reps in 1usize..40,
        period in 1usize..12,
        budget in 16usize..512,
    ) {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), None);
        for &(storm, ip) in &bursts {
            for _ in 0..storm {
                enc.ovf();
            }
            enc.tip(ip);
            enc.tnt_bit(ip & 1 == 0);
        }
        let stream = enc.into_sink();
        let packets = packet_ranges(&stream);
        window_drain_matches_endpoint_scan(&stream, &packets, reps, period, budget)?;
    }

    /// The same on damaged streams: bytes flipped inside the producer's
    /// packets, so headers lie about lengths and drains end mid-"packet".
    #[test]
    fn window_drain_matches_endpoint_scan_on_damaged_streams(
        stream_ops in ops(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..8),
        reps in 1usize..6,
        period in 1usize..24,
        budget in 16usize..1024,
    ) {
        let mut stream = encode(&stream_ops);
        let packets = packet_ranges(&stream);
        let len = stream.len();
        for &(at, mask) in &flips {
            stream[at % len] ^= mask;
        }
        window_drain_matches_endpoint_scan(&stream, &packets, reps, period, budget)?;
    }
}
