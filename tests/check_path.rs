//! Golden outcomes of the endpoint check path. Every value below was
//! recorded from the engine as it stood before checks stopped compacting
//! the accumulated scan on every call: the scan then dropped its oldest
//! TIPs eagerly, selected the module-stride window by re-walking it, and
//! kept the slow-path cache in a hash set. Any speed-up of the check path
//! must leave all of them exactly as they are.
//!
//! Each run serves seeded requests and pins what the rest of the system
//! reads of its checks: an FNV-1a hash of every `CheckEvent` (floats by
//! their bits), the telemetry snapshot's counters and cycles, and the span
//! profiler's record count, nine phase totals and nine per-phase span
//! counts. The span counts were recorded later, from the engine as it stood
//! before it recorded every span itself (the fast path, the slow path and
//! the trace consumer each recorded their own).

use fg_cpu::StopReason;
use flowguard::{
    CheckEvent, CheckVerdict, Deployment, FlowGuardConfig, PhaseSpan, ProtectedProcess,
};

/// FNV-1a of no bytes.
const EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash `h` over the little-endian bytes of `words`.
fn fnv_words(h: u64, words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Every field of a check event as a word. The destructuring names each
/// field, so adding one to `CheckEvent` fails to compile here.
fn event_words(seq: u64, ev: &CheckEvent) -> [u64; 23] {
    let CheckEvent {
        sysno,
        verdict,
        cold_restart,
        delta_bytes,
        pairs_checked,
        credited_pairs,
        uncredited,
        edge_cache_hits,
        edge_cache_misses,
        scan_cycles,
        check_cycles,
        slow_cycles,
        other_cycles,
        checkpoint_hit,
        slow_shards,
        slow_insns_decoded,
        stitch_cycles,
        tier0_hits,
        tier0_misses,
        streaming,
        frontier_lag,
        drained_bytes,
    } = *ev;
    let verdict = match verdict {
        CheckVerdict::FastClean => 0,
        CheckVerdict::FastMalicious => 1,
        CheckVerdict::SlowClean => 2,
        CheckVerdict::SlowAttack => 3,
        CheckVerdict::Insufficient => 4,
    };
    [
        seq,
        sysno,
        verdict,
        u64::from(cold_restart),
        delta_bytes,
        pairs_checked,
        credited_pairs,
        uncredited,
        edge_cache_hits,
        edge_cache_misses,
        scan_cycles.to_bits(),
        check_cycles.to_bits(),
        slow_cycles.to_bits(),
        other_cycles.to_bits(),
        u64::from(checkpoint_hit),
        slow_shards,
        slow_insns_decoded,
        stitch_cycles.to_bits(),
        tier0_hits,
        tier0_misses,
        u64::from(streaming),
        frontier_lag,
        drained_bytes,
    ]
}

/// What one protected run leaves in its telemetry.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    stop: StopReason,
    violated: bool,
    events: usize,
    event_hash: u64,
    /// `checks`, `fast_clean`, `fast_malicious`, `slow_invocations`,
    /// `slow_attacks`, `insufficient`, `pairs_checked`, `credited_pairs`,
    /// `cache_size`, `bytes_scanned`, `cold_restarts`, `stream_drains`,
    /// `stream_drained_bytes`, `edge_cache_hits`, `edge_cache_misses`,
    /// `tier0_hits`, `tier0_misses`.
    counters: [u64; 17],
    /// `decode_cycles`, `check_cycles`, `other_cycles` as bit patterns.
    cycles: [u64; 3],
    span_records: u64,
    /// Modeled cycles per phase, in `PhaseSpan::ALL` order, as bit patterns.
    phase_cycles: [u64; 9],
    /// Spans recorded per phase, in `PhaseSpan::ALL` order.
    phase_spans: [u64; 9],
}

fn pin(mut p: ProtectedProcess) -> Pin {
    let stop = p.run(200_000_000);
    let events = p.stats.recent_events(usize::MAX);
    let event_hash = events.iter().fold(EMPTY, |h, (seq, ev)| fnv_words(h, &event_words(*seq, ev)));
    let s = p.stats.telemetry_snapshot();
    let spans = &s.spans;
    Pin {
        stop,
        violated: p.violated(),
        events: events.len(),
        event_hash,
        counters: [
            s.checks,
            s.fast_clean,
            s.fast_malicious,
            s.slow_invocations,
            s.slow_attacks,
            s.insufficient,
            s.pairs_checked,
            s.credited_pairs,
            s.cache_size,
            s.bytes_scanned,
            s.cold_restarts,
            s.stream_drains,
            s.stream_drained_bytes,
            s.edge_cache_hits,
            s.edge_cache_misses,
            s.tier0_hits,
            s.tier0_misses,
        ],
        cycles: [s.decode_cycles, s.check_cycles, s.other_cycles].map(f64::to_bits),
        span_records: spans.records,
        phase_cycles: PhaseSpan::ALL.map(|ph| spans.phase_cycles(ph).to_bits()),
        phase_spans: PhaseSpan::ALL.map(|ph| spans.phases[ph.index()].spans),
    }
}

/// Trained `nginx_patched` serving 48 seeded requests under `cfg`.
fn trained_run(cfg: FlowGuardConfig) -> Pin {
    let w = fg_workloads::nginx_patched();
    let mut d = Deployment::analyze(&w.image);
    d.train(std::slice::from_ref(&w.default_input));
    pin(d.launch(&fg_workloads::load_input(48, 7), cfg))
}

#[test]
fn endpoint_checks_match_golden_outcome() {
    let want = Pin {
        stop: StopReason::Exited(0),
        violated: false,
        events: 48,
        event_hash: 7_034_461_821_472_538_331,
        counters: [48, 47, 0, 1, 0, 0, 1344, 1343, 16, 8724, 16, 0, 0, 1324, 20, 1344, 0],
        cycles: [4_705_720_483_377_577_984, 4_683_857_961_674_604_544, 4_663_055_201_677_082_624],
        span_records: 242,
        phase_cycles: [
            4_663_055_201_677_082_624,
            4_665_843_563_165_122_560,
            4_683_065_213_790_978_048,
            4_672_923_318_536_372_224,
            0,
            0,
            4_705_664_279_435_542_528,
            4_685_044_059_843_067_904,
            4_661_999_670_514_417_664,
        ],
        phase_spans: [48, 48, 48, 48, 0, 0, 1, 1, 48],
    };
    assert_eq!(trained_run(FlowGuardConfig::default()), want);
}

#[test]
fn streaming_checks_match_golden_outcome() {
    let want = Pin {
        stop: StopReason::Exited(0),
        violated: false,
        events: 48,
        event_hash: 7_435_395_341_657_895_669,
        counters: [48, 47, 0, 1, 0, 0, 1350, 1349, 16, 948, 0, 92_707, 654_489, 1330, 20, 1350, 0],
        cycles: [4_705_670_386_879_037_440, 4_683_878_577_517_625_344, 4_663_055_201_677_082_624],
        span_records: 92_949,
        phase_cycles: [
            4_663_055_201_677_082_624,
            4_665_864_179_008_143_360,
            4_683_103_868_496_642_048,
            0,
            4_701_183_838_271_832_064,
            4_658_472_437_212_512_256,
            4_705_664_279_435_542_528,
            4_685_044_059_843_067_904,
            4_661_999_670_514_417_664,
        ],
        phase_spans: [48, 48, 48, 0, 92_707, 48, 1, 1, 48],
    };
    assert_eq!(trained_run(FlowGuardConfig { streaming: true, ..Default::default() }), want);
}

/// Every region-fill PMI checks every pair of the accumulated scan, so
/// these values also pin the scan's contents after each compaction.
#[test]
fn pmi_checks_match_golden_outcome() {
    let want = Pin {
        stop: StopReason::Exited(0),
        violated: false,
        events: 88,
        event_hash: 11_316_442_767_442_261_973,
        counters: [88, 87, 0, 1, 0, 0, 39_070, 39_069, 3, 297_900, 31, 0, 0, 39_048, 22, 39_070, 0],
        cycles: [4_707_918_497_315_815_424, 4_705_644_629_960_163_328, 4_667_031_035_723_120_640],
        span_records: 442,
        phase_cycles: [
            4_667_031_035_723_120_640,
            4_687_630_231_450_681_344,
            4_705_101_343_440_764_928,
            4_695_924_036_637_556_736,
            0,
            0,
            4_706_958_894_247_706_624,
            4_685_202_114_639_560_704,
            4_666_063_465_490_677_760,
        ],
        phase_spans: [88, 88, 88, 88, 0, 0, 1, 1, 88],
    };
    assert_eq!(trained_run(FlowGuardConfig { pmi_endpoints: true, ..Default::default() }), want);
}

/// The vulnerable nginx with no training at all: early checks escalate,
/// and the slow path fills the cache mid-run until checks pass fast.
#[test]
fn untrained_checks_fill_the_cache_and_match_golden_outcome() {
    let want = Pin {
        stop: StopReason::Exited(0),
        violated: false,
        events: 48,
        event_hash: 16_819_940_741_602_049_315,
        counters: [48, 42, 0, 6, 0, 0, 1344, 1298, 20, 8723, 16, 0, 0, 1324, 20, 1344, 0],
        cycles: [4_711_494_501_581_979_648, 4_683_857_961_674_604_544, 4_663_055_201_677_082_624],
        span_records: 252,
        phase_cycles: [
            4_663_055_201_677_082_624,
            4_665_843_563_165_122_560,
            4_683_065_213_790_978_048,
            4_672_922_493_902_651_392,
            0,
            0,
            4_711_480_452_207_083_520,
            4_690_430_361_149_112_320,
            4_661_999_670_514_417_664,
        ],
        phase_spans: [48, 48, 48, 48, 0, 0, 6, 6, 48],
    };
    let w = fg_workloads::nginx();
    let d = Deployment::analyze(&w.image);
    let got = pin(d.launch(&fg_workloads::load_input(48, 7), FlowGuardConfig::default()));
    assert_eq!(got, want);
}
