//! The slow path (§5.3): full instruction-flow decoding plus precise,
//! context-sensitive policies.
//!
//! "FlowGuard is responsible for guaranteeing that the traced flow conforms
//! to the O-CFG with the fine-grained forward-edge analysis. In addition,
//! for backward-edges, shadow stack is maintained … to enforce
//! single-target policy for the return branches."
//!
//! This is FlowGuard's dominant cost (§2 measures ~230× decode overhead),
//! so the checker here attacks it twice:
//!
//! * **PSB-sharded decode** — the window splits at its PSB sync points,
//!   every shard decodes independently (fanned out on the [`WorkerPool`],
//!   each worker also pre-scanning its shard's forward edges against the
//!   O-CFG), and a cheap sequential
//!   stitch pass validates the seams and replays the call/ret events
//!   through the shadow stack — bit-identical to a serial decode, at
//!   roughly `1/min(shards, workers)` of the wall-clock.
//! * **Checkpointed re-decode avoidance** — consecutive endpoint checks
//!   see overlapping tail windows. [`SlowScratch`] keeps the parked
//!   [`FlowMachine`] and shadow stack between checks, keyed on the window's
//!   absolute sync offset plus both state hashes; when the key matches,
//!   only the bytes appended since the previous check are decoded, and the
//!   cumulative result is still exactly what a cold decode of the whole
//!   window would produce.
//!
//! [`check`] is the stateless serial reference (a cold [`check_incremental`]
//! with no pool); the equivalence between the two is property-tested in
//! `tests/soundness.rs`.

use crate::pool::WorkerPool;
use crate::shadow::{ShadowOutcome, ShadowStack};
use fg_cfg::ocfg::SuccSet;
use fg_cfg::OCfg;
use fg_cpu::cost::CostModel;
use fg_ipt::flow::{BranchEvent, FlowError, FlowMachine};
use fg_ipt::shard::{decode_shard, shard_spans, ShardDecode, StitchOutcome, Stitcher};
use fg_isa::image::Image;
use fg_isa::insn::CofiKind;

/// Why the slow path flagged the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowViolation {
    /// An indirect call/jump targeted outside its fine-grained target set.
    ForwardEdge { from: u64, to: u64 },
    /// A return disagreed with the shadow stack.
    ReturnEdge { from: u64, went: u64, expected: u64 },
    /// A return left the conservative return-site set entirely.
    ReturnOffCfg { from: u64, to: u64 },
    /// The trace could not be reconstructed against the binary (diverted
    /// into non-code, packet/binary disagreement).
    Reconstruction,
}

/// Slow-path verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlowVerdict {
    /// Violation found.
    Attack(SlowViolation),
    /// The full reconstruction conforms to the fine-grained policy. Carries
    /// the indirect edges `(from_target, to_target)` in TIP terms that were
    /// validated — the engine caches these for later fast-path checks.
    Clean {
        /// Validated consecutive-TIP pairs.
        validated_pairs: Vec<(u64, u64)>,
    },
}

/// Slow-path result with cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowPathResult {
    /// The verdict.
    pub verdict: SlowVerdict,
    /// Instructions in the reconstructed window flow — cumulative over the
    /// checkpoint lineage, equal to what a cold decode of the same window
    /// walks.
    pub insns_walked: u64,
    /// Instructions actually walked by decoders during *this* check (the
    /// appended delta plus shard seam prefixes). Cold checks decode the
    /// whole window; warm checks strictly less.
    pub insns_decoded: u64,
    /// Decode cycles paid this check
    /// (`insns_decoded × flow_decode_insn_cycles` + the per-TIP term).
    pub decode_cycles: f64,
    /// Sequential stitch/replay cycles paid this check.
    pub stitch_cycles: f64,
    /// PSB-delimited shards the appended bytes split into.
    pub shards: u64,
    /// Whether the decode resumed from a checkpoint (warm) instead of
    /// starting cold.
    pub checkpoint_hit: bool,
    /// Shadow-stack matches observed (cumulative over the lineage).
    pub rets_matched: u64,
}

/// The checkpoint key: a warm resume is only taken when the new window
/// shares its absolute start with the previous one *and* the resumable
/// state is provably the state the previous check left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CheckpointKey {
    /// Absolute stream offset of the window's first byte.
    window_start: u64,
    /// Absolute stream offset up to which the lineage has decoded.
    consumed_end: u64,
    /// [`FlowMachine::state_hash`] at the previous check's end.
    machine_hash: u64,
    /// [`ShadowStack::state_hash`] at the previous check's end.
    shadow_hash: u64,
}

/// Reusable slow-path decode state: the parked flow machine, the shadow
/// stack, the validated-pair accumulator, and the checkpoint key. One per
/// engine; allocations are reused across checks.
#[derive(Debug, Default)]
pub struct SlowScratch {
    machine: FlowMachine,
    shadow: ShadowStack,
    validated: Vec<(u64, u64)>,
    last_tip_target: Option<u64>,
    key: Option<CheckpointKey>,
    /// Checks that resumed from the checkpoint.
    pub checkpoint_hits: u64,
    /// Checks that had to decode their window cold.
    pub checkpoint_misses: u64,
}

impl SlowScratch {
    /// Fresh scratch (first check is necessarily cold).
    pub fn new() -> SlowScratch {
        SlowScratch::default()
    }

    /// The parked lineage `(window_start, consumed_end)` in absolute stream
    /// offsets, if a checkpoint is held. The engine uses it to extend the
    /// previous window instead of sliding (a slid start cannot resume: the
    /// shadow stack's windowed context would differ from a cold decode).
    pub fn lineage(&self) -> Option<(u64, u64)> {
        self.key.map(|k| (k.window_start, k.consumed_end))
    }

    /// Resets to the cold-start state, keeping allocations.
    fn reset(&mut self) {
        self.machine.reset();
        self.shadow.clear();
        self.validated.clear();
        self.last_tip_target = None;
        self.key = None;
    }
}

/// Runs the serial, stateless slow path over raw trace bytes — the
/// reference [`check_incremental`] is validated against.
///
/// On reconstruction failure the verdict is an attack:
/// a benign trace always reconstructs (the decoder and tracer share the
/// binary), so divergence means the flow left legitimate code. Packet-level
/// damage is not divergence: the decoder discards the damaged region and
/// re-synchronises at the next PSB, exactly like a real PT decoder (and
/// without byte-stepping through the garbage).
pub fn check(image: &Image, ocfg: &OCfg, trace: &[u8], cost: &CostModel) -> SlowPathResult {
    let mut scratch = SlowScratch::new();
    check_incremental(image, ocfg, trace, 0, cost, None, &mut scratch)
}

/// One validation region of the freshly decoded event buffer.
struct Region {
    /// `[start, end)` indices into the accumulator's branch buffer.
    start: usize,
    end: usize,
    /// `Some(prescan)` when the region came from an adopted shard whose
    /// forward edges were already scanned on the worker: `prescan` is the
    /// first forward-edge violation, region-relative. `None` means the
    /// region must be scanned here.
    prescan: Option<Option<(usize, SlowViolation)>>,
}

/// One worker's unit of slow-path work: the shard's independent decode plus
/// its forward-edge prescan (the CFG lookups are the expensive part of
/// validation, so they ride along on the parallel fan-out).
struct ShardTask {
    decode: ShardDecode,
    prescan: Option<(usize, SlowViolation)>,
}

fn shard_task(image: &Image, ocfg: &OCfg, bytes: &[u8]) -> ShardTask {
    let decode = decode_shard(image, bytes);
    let prescan = decode
        .machine
        .trace()
        .branches
        .iter()
        .enumerate()
        .find_map(|(i, ev)| fwd_violation(ocfg, ev).map(|v| (i, v)));
    ShardTask { decode, prescan }
}

/// Runs [`shard_task`] over `spans` of `buf` on the pool and returns the
/// tasks in span order. Shards are strided over one batched task per
/// worker: PSB shards average well under a KiB, so per-shard dispatch
/// would drown the decode work.
fn run_sharded(
    pool: &WorkerPool,
    image: &Image,
    ocfg: &OCfg,
    buf: &[u8],
    spans: &[(usize, usize)],
) -> Vec<ShardTask> {
    let workers = spans.len().min(pool.size());
    if workers <= 1 {
        return spans.iter().map(|&(s, e)| shard_task(image, ocfg, &buf[s..e])).collect();
    }
    let tasks: Vec<_> = (0..workers)
        .map(|w| {
            move || {
                spans
                    .iter()
                    .enumerate()
                    .skip(w)
                    .step_by(workers)
                    .map(|(i, &(s, e))| (i, shard_task(image, ocfg, &buf[s..e])))
                    .collect::<Vec<_>>()
            }
        })
        .collect();
    let mut results: Vec<(usize, ShardTask)> = pool.run(tasks).into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, t)| t).collect()
}

/// The fine-grained forward-edge policy for one event: TypeArmor-refined
/// target sets for indirect calls/jumps, the conservative return-site set
/// for returns. Direct branches never violate.
fn fwd_violation(ocfg: &OCfg, ev: &BranchEvent) -> Option<SlowViolation> {
    match ev.kind {
        CofiKind::IndCall | CofiKind::IndJmp => {
            let Some(bi) = ocfg.disasm.block_containing(ev.from) else {
                return Some(SlowViolation::ForwardEdge { from: ev.from, to: ev.to });
            };
            match &ocfg.succs[bi] {
                SuccSet::IndCall(ts) | SuccSet::IndJmp(ts) => (!ts.contains(&ev.to))
                    .then_some(SlowViolation::ForwardEdge { from: ev.from, to: ev.to }),
                _ => Some(SlowViolation::ForwardEdge { from: ev.from, to: ev.to }),
            }
        }
        CofiKind::Ret => {
            let Some(bi) = ocfg.disasm.block_containing(ev.from) else {
                return Some(SlowViolation::ReturnOffCfg { from: ev.from, to: ev.to });
            };
            if let SuccSet::Ret(ts) = &ocfg.succs[bi] {
                if !ts.contains(&ev.to) {
                    return Some(SlowViolation::ReturnOffCfg { from: ev.from, to: ev.to });
                }
            }
            None
        }
        _ => None,
    }
}

/// The decode phase's outcome over one appended chunk.
struct ChunkDecode {
    regions: Vec<Region>,
    /// Instructions walked by decoders this check (parallel work included).
    insns_decoded: u64,
    /// PSB shards the chunk split into.
    shards: u64,
    /// A damage restart discarded all pre-restart flow (and must discard
    /// the lineage's shadow/validated state too).
    restarted: bool,
    /// Flow-level walk error — the serial decoder would have failed here.
    error: Option<FlowError>,
}

/// Decodes `chunk` onto the scratch machine: PSB shards fan out (on `pool`
/// when given), the stitcher validates seams sequentially. Fills `regions`
/// with the freshly appended event ranges and their prescan results.
fn decode_chunk(
    image: &Image,
    ocfg: &OCfg,
    chunk: &[u8],
    pool: Option<&WorkerPool>,
    machine: &mut FlowMachine,
) -> ChunkDecode {
    let spans = shard_spans(chunk);
    let mut out = ChunkDecode {
        regions: Vec::new(),
        insns_decoded: 0,
        shards: spans.len() as u64,
        restarted: false,
        error: None,
    };
    let mut st = Stitcher::new(image, machine);

    // No pool: feed the whole chunk serially — the reference decode, with
    // exact accounting (every instruction is walked exactly once).
    if pool.is_none() {
        let before = st.acc().trace().insns_walked;
        match st.feed_serial(chunk) {
            Ok(StitchOutcome::Restarted) => {
                out.insns_decoded += st.acc().trace().insns_walked;
                out.restarted = true;
                let len = st.acc().trace().branches.len();
                if len > 0 {
                    out.regions.push(Region { start: 0, end: len, prescan: None });
                }
            }
            Ok(StitchOutcome::Fallback { base }) => {
                out.insns_decoded += st.acc().trace().insns_walked - before;
                let end = st.acc().trace().branches.len();
                out.regions.push(Region { start: base, end, prescan: None });
            }
            Ok(_) => {}
            Err(e) => out.error = Some(e),
        }
        return out;
    }

    // Restart bookkeeping shared by the head feed and the stitch loop: a
    // restart discarded everything previously appended, so previously
    // recorded regions are invalid and the surviving post-restart events
    // (if any) form one serial region.
    fn note_restart(out: &mut ChunkDecode, st: &Stitcher<'_>) {
        out.restarted = true;
        out.regions.clear();
        let len = st.acc().trace().branches.len();
        if len > 0 {
            out.regions.push(Region { start: 0, end: len, prescan: None });
        }
    }

    // Bytes before the first PSB continue the parked walk serially.
    let head_end = spans.first().map_or(chunk.len(), |&(s, _)| s);
    let before = st.acc().trace().insns_walked;
    match st.feed_serial(&chunk[..head_end]) {
        Ok(StitchOutcome::Restarted) => {
            out.insns_decoded += st.acc().trace().insns_walked;
            note_restart(&mut out, &st);
        }
        Ok(StitchOutcome::Fallback { base }) => {
            out.insns_decoded += st.acc().trace().insns_walked - before;
            let end = st.acc().trace().branches.len();
            out.regions.push(Region { start: base, end, prescan: None });
        }
        Ok(_) => {}
        Err(e) => {
            out.error = Some(e);
            return out;
        }
    }

    // Independent shard decodes — the parallel fan-out.
    let tasks: Vec<ShardTask> = match pool {
        Some(p) if spans.len() >= 2 => run_sharded(p, image, ocfg, chunk, &spans),
        _ => spans.iter().map(|&(s, e)| shard_task(image, ocfg, &chunk[s..e])).collect(),
    };

    // Sequential seam-validating stitch.
    for (task, &(s, e)) in tasks.into_iter().zip(&spans) {
        let mut task = task;
        let shard_insns = task.decode.machine.trace().insns_walked;
        let prefix_branches = task.decode.machine.prefix_branches();
        let acc_synced_before = st.acc().synced();
        let before = st.acc().trace().insns_walked;
        out.insns_decoded += shard_insns;
        match st.push(&chunk[s..e], &mut task.decode) {
            Ok(StitchOutcome::Adopted { base }) => {
                let end = st.acc().trace().branches.len();
                // absorb_tail dropped the seam-overlap prefix (all direct
                // branches, so the prescan index just shifts); absorb_full
                // (fresh sync) kept everything. A prescan hit inside the
                // prefix cannot happen (direct branches never violate), but
                // if the index ever fell there, rescan rather than wrap.
                let shift = if acc_synced_before { prefix_branches } else { 0 };
                match task.prescan {
                    Some((i, v)) if i < shift => {
                        out.regions.push(Region { start: base, end, prescan: None });
                        debug_assert!(false, "forward-edge prescan hit in seam prefix");
                        let _ = v;
                    }
                    Some((i, v)) => out.regions.push(Region {
                        start: base,
                        end,
                        prescan: Some(Some((i - shift, v))),
                    }),
                    None => out.regions.push(Region { start: base, end, prescan: Some(None) }),
                }
            }
            Ok(StitchOutcome::Fallback { base }) => {
                // The seam was re-fed serially — that walk is extra work on
                // top of the discarded parallel decode.
                out.insns_decoded += st.acc().trace().insns_walked - before;
                let end = st.acc().trace().branches.len();
                out.regions.push(Region { start: base, end, prescan: None });
            }
            Ok(StitchOutcome::Restarted) => note_restart(&mut out, &st),
            Ok(StitchOutcome::Skipped) => {}
            Err(e) => {
                out.error = Some(e);
                return out;
            }
        }
    }
    out
}

/// Runs the slow path over the window `[window_start, window_start +
/// window.len())` of the trace stream, resuming from `scratch`'s checkpoint
/// when the window extends the previous check's window (same absolute sync
/// offset, matching machine/shadow state hashes) — then only the appended
/// bytes are decoded. Shard decodes fan out on `pool` when given.
///
/// The verdict, `insns_walked`, validated pairs and `rets_matched` are
/// identical to a cold serial [`check`] of the same window, warm or not.
pub fn check_incremental(
    image: &Image,
    ocfg: &OCfg,
    window: &[u8],
    window_start: u64,
    cost: &CostModel,
    pool: Option<&WorkerPool>,
    scratch: &mut SlowScratch,
) -> SlowPathResult {
    let window_end = window_start + window.len() as u64;
    let warm_from = scratch.key.filter(|k| {
        k.window_start == window_start
            && k.consumed_end >= window_start
            && k.consumed_end <= window_end
            && k.machine_hash == scratch.machine.state_hash()
            && k.shadow_hash == scratch.shadow.state_hash()
    });
    let chunk = match warm_from {
        Some(k) => {
            scratch.checkpoint_hits += 1;
            &window[(k.consumed_end - window_start) as usize..]
        }
        None => {
            scratch.checkpoint_misses += 1;
            scratch.reset();
            window
        }
    };
    let checkpoint_hit = warm_from.is_some();

    // --- decode phase (parallel) ---------------------------------------
    let decoded = decode_chunk(image, ocfg, chunk, pool, &mut scratch.machine);
    if decoded.error.is_some() {
        // The walk diverged from the binary: attack. The serial reference
        // reports no counters for a failed reconstruction, and the scratch
        // state no longer mirrors a serial decode — poison the checkpoint.
        scratch.reset();
        return SlowPathResult {
            verdict: SlowVerdict::Attack(SlowViolation::Reconstruction),
            insns_walked: 0,
            insns_decoded: decoded.insns_decoded,
            decode_cycles: decoded.insns_decoded as f64 * cost.flow_decode_insn_cycles,
            stitch_cycles: 0.0,
            shards: decoded.shards,
            checkpoint_hit,
            rets_matched: scratch.shadow.matched,
        };
    }

    // --- validation phase (sequential stitch/replay) --------------------
    if decoded.restarted {
        // Pre-restart flow was discarded at the decode level; its policy
        // state goes with it, exactly as a cold decode of this window
        // would only see the post-restart flow.
        scratch.shadow.clear();
        scratch.validated.clear();
        scratch.last_tip_target = None;
    }
    let mut events_replayed = 0u64;
    let mut tip_outcomes = 0u64;
    let mut violation: Option<SlowViolation> = None;
    'regions: for region in &decoded.regions {
        let evs = &scratch.machine.trace().branches[region.start..region.end];
        for (i, ev) in evs.iter().enumerate() {
            events_replayed += 1;
            let fwd = match &region.prescan {
                Some(pre) => pre.filter(|&(idx, _)| idx == i).map(|(_, v)| v),
                None => fwd_violation(ocfg, ev),
            };
            if let Some(v) = fwd {
                violation = Some(v);
                break 'regions;
            }
            if let ShadowOutcome::Violation { from, went, expected } = scratch.shadow.feed(ev) {
                violation = Some(SlowViolation::ReturnEdge { from, went, expected });
                break 'regions;
            }
            if matches!(ev.kind, CofiKind::IndCall | CofiKind::IndJmp | CofiKind::Ret) {
                tip_outcomes += 1;
                if let Some(prev) = scratch.last_tip_target {
                    scratch.validated.push((prev, ev.to));
                }
                scratch.last_tip_target = Some(ev.to);
            }
        }
    }

    let decode_cycles = decoded.insns_decoded as f64 * cost.flow_decode_insn_cycles
        + tip_outcomes as f64 * cost.flow_decode_tip_cycles;
    let stitch_cycles = events_replayed as f64 * cost.flow_stitch_event_cycles;
    let insns_walked = scratch.machine.trace().insns_walked;
    let rets_matched = scratch.shadow.matched;

    if let Some(v) = violation {
        // The process dies here; the partially replayed state no longer
        // matches any serial decode, so the checkpoint dies with it.
        scratch.reset();
        return SlowPathResult {
            verdict: SlowVerdict::Attack(v),
            insns_walked,
            insns_decoded: decoded.insns_decoded,
            decode_cycles,
            stitch_cycles,
            shards: decoded.shards,
            checkpoint_hit,
            rets_matched,
        };
    }

    // Park the checkpoint: consumed through the window's end, hashes pin
    // the resumable state. Consumed events are dropped (allocation kept).
    scratch.key = Some(CheckpointKey {
        window_start,
        consumed_end: window_end,
        machine_hash: scratch.machine.state_hash(),
        shadow_hash: scratch.shadow.state_hash(),
    });
    scratch.machine.compact();

    SlowPathResult {
        verdict: SlowVerdict::Clean { validated_pairs: scratch.validated.clone() },
        insns_walked,
        insns_decoded: decoded.insns_decoded,
        decode_cycles,
        stitch_cycles,
        shards: decoded.shards,
        checkpoint_hit,
        rets_matched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_cpu::{IptUnit, Machine, StopReason, TraceUnit};
    use fg_ipt::topa::Topa;

    fn traced_run(w: &fg_workloads::Workload, input: &[u8]) -> (Vec<u8>, StopReason) {
        let mut m = Machine::new(&w.image, 0x4000);
        let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 20).unwrap());
        unit.start(w.image.entry(), 0x4000);
        m.trace = TraceUnit::Ipt(unit);
        let mut k = fg_kernel::Kernel::with_input(input);
        let stop = m.run(&mut k, 10_000_000);
        m.trace.as_ipt_mut().unwrap().flush();
        (m.trace.as_ipt().unwrap().trace_bytes(), stop)
    }

    #[test]
    fn benign_trace_is_clean_with_validated_pairs() {
        let w = fg_workloads::nginx_patched();
        let ocfg = OCfg::build(&w.image);
        let (trace, stop) = traced_run(&w, &w.default_input);
        assert_eq!(stop, StopReason::Exited(0));
        let r = check(&w.image, &ocfg, &trace, &CostModel::calibrated());
        match &r.verdict {
            SlowVerdict::Clean { validated_pairs } => {
                assert!(!validated_pairs.is_empty());
            }
            other => panic!("benign flow must be clean, got {other:?}"),
        }
        assert!(r.insns_walked > 100);
        assert_eq!(r.insns_walked, r.insns_decoded, "cold check decodes everything");
        assert!(r.decode_cycles > r.insns_walked as f64, "slow decode is expensive");
        assert!(r.rets_matched > 0, "shadow stack exercised");
        assert!(!r.checkpoint_hit);
    }

    #[test]
    fn sharded_pool_check_equals_serial_check() {
        let w = fg_workloads::nginx_patched();
        let ocfg = OCfg::build(&w.image);
        let (trace, _) = traced_run(&w, &w.default_input);
        let cost = CostModel::calibrated();
        let serial = check(&w.image, &ocfg, &trace, &cost);
        let mut scratch = SlowScratch::new();
        let pool = WorkerPool::global();
        let sharded =
            check_incremental(&w.image, &ocfg, &trace, 0, &cost, Some(pool), &mut scratch);
        assert!(sharded.shards > 1, "trace holds multiple PSB shards");
        assert_eq!(serial.verdict, sharded.verdict);
        assert_eq!(serial.insns_walked, sharded.insns_walked);
        assert_eq!(serial.rets_matched, sharded.rets_matched);
    }

    #[test]
    fn warm_recheck_decodes_only_the_appended_bytes() {
        let w = fg_workloads::nginx_patched();
        let ocfg = OCfg::build(&w.image);
        let (trace, _) = traced_run(&w, &w.default_input);
        let cost = CostModel::calibrated();
        // Split the trace at a packet boundary near the middle.
        let mut p = fg_ipt::PacketParser::new(&trace);
        let mut cut = 0usize;
        while let Some(Ok(_)) = p.next_packet() {
            cut = p.position();
            if cut >= trace.len() / 2 {
                break;
            }
        }
        let mut scratch = SlowScratch::new();
        let first = check_incremental(&w.image, &ocfg, &trace[..cut], 0, &cost, None, &mut scratch);
        assert!(!first.checkpoint_hit);
        let second = check_incremental(&w.image, &ocfg, &trace, 0, &cost, None, &mut scratch);
        assert!(second.checkpoint_hit, "same window start must resume warm");
        assert!(
            second.insns_decoded < second.insns_walked,
            "warm check decodes only the delta ({} of {})",
            second.insns_decoded,
            second.insns_walked
        );
        // The warm result equals a cold check of the full window.
        let cold = check(&w.image, &ocfg, &trace, &cost);
        assert_eq!(cold.verdict, second.verdict);
        assert_eq!(cold.insns_walked, second.insns_walked);
        assert_eq!(cold.rets_matched, second.rets_matched);
        assert_eq!(scratch.checkpoint_hits, 1);
        assert_eq!(scratch.checkpoint_misses, 1);
    }

    #[test]
    fn moved_window_start_falls_back_to_cold() {
        let w = fg_workloads::nginx_patched();
        let ocfg = OCfg::build(&w.image);
        let (trace, _) = traced_run(&w, &w.default_input);
        let cost = CostModel::calibrated();
        let mut scratch = SlowScratch::new();
        let _ = check_incremental(&w.image, &ocfg, &trace, 0, &cost, None, &mut scratch);
        // A slid window (different absolute start) cannot reuse the state.
        let psbs = fg_ipt::PacketParser::psb_offsets(&trace);
        assert!(psbs.len() >= 2, "need a later sync point");
        let off = psbs[1];
        let r = check_incremental(
            &w.image,
            &ocfg,
            &trace[off..],
            off as u64,
            &cost,
            None,
            &mut scratch,
        );
        assert!(!r.checkpoint_hit);
        let cold = check(&w.image, &ocfg, &trace[off..], &cost);
        assert_eq!(r.verdict, cold.verdict);
        assert_eq!(r.insns_walked, cold.insns_walked);
    }

    #[test]
    fn hijacked_return_detected() {
        // Craft a program whose function overwrites its own return address
        // (the minimal hijack of the machine tests), then slow-path it.
        use fg_isa::asm::Asm;
        use fg_isa::image::Linker;
        use fg_isa::insn::regs::*;
        let mut a = Asm::new("app");
        a.export("main");
        a.label("main");
        a.call("f");
        a.halt();
        a.label("f");
        a.lea(R1, "gadget");
        a.st(R1, SP, 0);
        a.ret();
        a.label("gadget");
        a.movi(R5, 0x41);
        a.halt();
        let image = Linker::new(a.finish().unwrap()).link().unwrap();
        let ocfg = OCfg::build(&image);
        let w = fg_workloads::Workload {
            name: "hijack".into(),
            image,
            default_input: vec![],
            category: fg_workloads::Category::Utility,
        };
        let (trace, stop) = traced_run(&w, &[]);
        assert_eq!(stop, StopReason::Halted); // the gadget halts
        let r = check(&w.image, &ocfg, &trace, &CostModel::calibrated());
        assert!(
            matches!(r.verdict, SlowVerdict::Attack(_)),
            "hijacked ret must be detected, got {:?}",
            r.verdict
        );
        // The sharded/pooled path agrees.
        let mut scratch = SlowScratch::new();
        let pool = WorkerPool::global();
        let sharded = check_incremental(
            &w.image,
            &ocfg,
            &trace,
            0,
            &CostModel::calibrated(),
            Some(pool),
            &mut scratch,
        );
        assert_eq!(r.verdict, sharded.verdict);
        assert_eq!(r.insns_walked, sharded.insns_walked);
    }

    #[test]
    fn forward_edge_violation_detected() {
        // An indirect call whose TIP lands on an arity-incompatible function:
        // TypeArmor excludes it from the call site's target set, so the slow
        // path must flag the forward edge. The trace is hand-encoded — the
        // equivalent of a function-pointer-overwrite (COOP-style) hijack.
        use fg_isa::asm::Asm;
        use fg_isa::image::Linker;
        use fg_isa::insn::regs::*;
        let mut a = Asm::new("app");
        a.export("main");
        a.label("main");
        a.movi(R1, 7); // prepare one argument
        a.lea(R6, "table"); // 1
        a.ld(R7, R6, 0); // 2
        a.calli(R7); // 3
        a.halt(); // 4
        a.label("one_arg"); // 5
        a.mov(R8, R1);
        a.ret();
        a.label("three_args"); // 7
        a.mov(R8, R1);
        a.add(R8, R2);
        a.add(R8, R3);
        a.ret();
        a.data_ptrs("table", &["one_arg", "three_args"]);
        let image = Linker::new(a.finish().unwrap()).link().unwrap();
        let ocfg = OCfg::build(&image);
        let base = image.entry();

        // Legit flow: calli → one_arg (admitted, 1 prepared ≥ 1 consumed).
        let mut enc = fg_ipt::PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(base), None);
        enc.tip(base + 5 * 8);
        enc.tip(base + 4 * 8); // ret to halt
        let ok = check(&image, &ocfg, &enc.into_sink(), &CostModel::calibrated());
        assert!(matches!(ok.verdict, SlowVerdict::Clean { .. }), "{:?}", ok.verdict);

        // Hijacked flow: calli → three_args (1 prepared < 3 consumed).
        let mut enc = fg_ipt::PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(base), None);
        enc.tip(base + 7 * 8);
        let bad = check(&image, &ocfg, &enc.into_sink(), &CostModel::calibrated());
        assert!(
            matches!(bad.verdict, SlowVerdict::Attack(SlowViolation::ForwardEdge { .. })),
            "TypeArmor must reject the arity-incompatible target: {:?}",
            bad.verdict
        );
    }

    #[test]
    fn empty_trace_is_clean() {
        let w = fg_workloads::nginx_patched();
        let ocfg = OCfg::build(&w.image);
        let r = check(&w.image, &ocfg, &[], &CostModel::calibrated());
        assert!(matches!(r.verdict, SlowVerdict::Clean { .. }));
        assert_eq!(r.insns_walked, 0);
    }

    #[test]
    fn damaged_trace_resyncs_at_next_psb_not_bytewise() {
        // A damaged byte after the first PSB+ bundle: the checker must
        // discard the damaged region, re-sync at the next PSB, and stay
        // clean — with cumulative counters matching the post-restart flow.
        let w = fg_workloads::nginx_patched();
        let ocfg = OCfg::build(&w.image);
        let (trace, _) = traced_run(&w, &w.default_input);
        let psbs = fg_ipt::PacketParser::psb_offsets(&trace);
        assert!(psbs.len() >= 2, "need two sync points, got {}", psbs.len());
        let mut damaged = trace.clone();
        damaged[psbs[0] + 17] = 0x05; // unknown opcode after the PSB pattern
        let cost = CostModel::calibrated();
        let r = check(&w.image, &ocfg, &damaged, &cost);
        assert!(matches!(r.verdict, SlowVerdict::Clean { .. }), "{:?}", r.verdict);
        // The sharded path handles the identical damage identically.
        let mut scratch = SlowScratch::new();
        let sharded = check_incremental(
            &w.image,
            &ocfg,
            &damaged,
            0,
            &cost,
            Some(WorkerPool::global()),
            &mut scratch,
        );
        assert_eq!(r.verdict, sharded.verdict);
        assert_eq!(r.insns_walked, sharded.insns_walked);
    }
}
