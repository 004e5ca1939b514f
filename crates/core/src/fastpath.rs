//! The fast path (§5.3): match extracted TIP/TNT flow against the
//! credit-labeled ITC-CFG.
//!
//! Three outcomes, in the paper's terms: the flow is **malicious** (a TIP
//! pair is off the ITC-CFG — impossible for benign execution, so this is a
//! definitive detection), **suspicious** (on-graph, but a checked edge has
//! low credit or its TNT run does not match a trained signature — handed to
//! the slow path), or **clean** (every edge high-credit with matching TNT).

use crate::config::FlowGuardConfig;
use fg_cfg::{Credit, EdgeIdx, EntryBitset, ItcCfg};
use fg_ipt::fast::FastScan;
use fg_isa::image::{Image, ModuleKind};

/// Direct-mapped cache slots for `(from, to) → edge` resolutions. Credited
/// edges repeat heavily (the same handlers are dispatched over and over),
/// so even a small cache short-circuits most CSR probes.
const EDGE_CACHE_SLOTS: usize = 512;

/// The slow-path result cache (§7.1.1): the ITC edges a slow-path check
/// found conformant, which the fast path then treats as high-credit. A
/// bitset over the ITC's dense edge indices, so a probe is one bit read.
#[derive(Debug, Clone, Default)]
pub struct SlowPathCache {
    words: Vec<u64>,
    len: usize,
}

impl SlowPathCache {
    /// Whether edge `e` is cached.
    #[inline]
    pub fn contains(&self, e: EdgeIdx) -> bool {
        self.words.get(e / 64).is_some_and(|w| w >> (e % 64) & 1 == 1)
    }

    /// Caches edge `e`; returns whether it was new. The bitset grows to
    /// the highest edge inserted, so an empty cache holds no memory.
    pub fn insert(&mut self, e: EdgeIdx) -> bool {
        if e / 64 >= self.words.len() {
            self.words.resize(e / 64 + 1, 0);
        }
        let (word, bit) = (&mut self.words[e / 64], 1u64 << (e % 64));
        let new = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(new);
        new
    }

    /// Number of cached edges.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no edge is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Extend<EdgeIdx> for SlowPathCache {
    fn extend<I: IntoIterator<Item = EdgeIdx>>(&mut self, edges: I) {
        for e in edges {
            self.insert(e);
        }
    }
}

/// The memo slot of the TIP pair `from → to`.
const fn edge_slot(from: u64, to: u64) -> usize {
    (from.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(to.wrapping_mul(0xff51_afd7_ed55_8ccd))
        >> 32) as usize
        % EDGE_CACHE_SLOTS
}

/// What empty slot `slot` holds: a pair that hashes to another slot, so no
/// probe can match it, not even a hostile TIP pair made of the same values.
const fn vacant(slot: usize) -> (u64, u64, EdgeIdx) {
    if edge_slot(u64::MAX, 0) == slot {
        (0, u64::MAX, 0)
    } else {
        (u64::MAX, 0, 0)
    }
}

const _: () = assert!(edge_slot(0, u64::MAX) != edge_slot(u64::MAX, 0));

/// Reusable per-process scratch for the fast path: precomputed sorted
/// module ranges (replacing a linear module scan per TIP), the
/// deployment's tier-0 bitset, and a direct-mapped edge memo in front of
/// the tier-0 probe, the node check and [`ItcCfg::edge`].
///
/// The memo maps `(from, to)` to an [`EdgeIdx`]. A slot is filled only
/// after its target passed the tier-0 probe and the node check, so a hit
/// settles both; [`CheckScratch::set_tier0`] clears the memo to keep that
/// true. It is only valid for the ITC-CFG it was filled against:
/// credit/TNT re-labeling is fine (edge indices are stable), but after
/// swapping in a *rebuilt* graph call [`CheckScratch::invalidate_edges`].
#[derive(Debug, Clone)]
pub struct CheckScratch {
    /// `(base, end, module_id, is_executable)`, sorted by base.
    module_ranges: Vec<(u64, u64, u32, bool)>,
    /// Direct-mapped `(from, to, edge)`; an empty slot holds [`vacant`].
    edge_cache: Vec<(u64, u64, EdgeIdx)>,
    /// The tier-0 entry-point bitset, probed on a memo miss.
    tier0: Option<EntryBitset>,
    /// Per-module stamp used to count distinct modules in a window without
    /// allocating (stamp == current generation ⇒ seen this pass; 0 is
    /// never a generation).
    module_stamp: Vec<u32>,
    stamp_gen: u32,
    /// Edge-cache hits (for BENCH_fastpath.json).
    pub edge_cache_hits: u64,
    /// Edge-cache misses.
    pub edge_cache_misses: u64,
}

/// What one module-stride pass has seen so far.
#[derive(Debug, Clone, Copy, Default)]
struct Stride {
    distinct: usize,
    exec: bool,
}

impl CheckScratch {
    /// Builds scratch state for an image (sorts its module ranges once).
    pub fn new(image: &Image) -> CheckScratch {
        let mut module_ranges: Vec<(u64, u64, u32, bool)> = image
            .modules()
            .iter()
            .enumerate()
            .map(|(i, m)| (m.base, m.end(), i as u32, m.kind == ModuleKind::Executable))
            .collect();
        module_ranges.sort_unstable_by_key(|&(base, ..)| base);
        CheckScratch {
            module_stamp: vec![0; module_ranges.len()],
            module_ranges,
            edge_cache: (0..EDGE_CACHE_SLOTS).map(vacant).collect(),
            tier0: None,
            stamp_gen: 0,
            edge_cache_hits: 0,
            edge_cache_misses: 0,
        }
    }

    /// The module containing `va` (id and is-executable flag), by binary
    /// search over the sorted ranges.
    #[inline]
    fn module_of(&self, va: u64) -> Option<(u32, bool)> {
        let i = self.module_ranges.partition_point(|&(base, ..)| base <= va).checked_sub(1)?;
        let (_, end, id, is_exec) = self.module_ranges[i];
        (va < end).then_some((id, is_exec))
    }

    /// Starts a module-stride pass: no module is seen yet. The stamps are
    /// cleared when the generation wraps, since 0 is what a never-seen
    /// module holds.
    fn new_stride(&mut self) -> Stride {
        self.stamp_gen = self.stamp_gen.wrapping_add(1);
        if self.stamp_gen == 0 {
            self.module_stamp.fill(0);
            self.stamp_gen = 1;
        }
        Stride::default()
    }

    /// Adds the modules of `tips` to the pass, returning as soon as it has
    /// seen two distinct modules, one of them the executable.
    fn stride_reached(&mut self, stride: &mut Stride, tips: &[u64]) -> bool {
        for &ip in tips {
            if let Some((m, is_exec)) = self.module_of(ip) {
                if self.module_stamp[m as usize] != self.stamp_gen {
                    self.module_stamp[m as usize] = self.stamp_gen;
                    stride.distinct += 1;
                    stride.exec |= is_exec;
                    if stride.exec && stride.distinct >= 2 {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Resolves `from → to` to its ITC edge, memo first. A hit settles the
    /// pair; a miss runs the tier-0 probe and the node check, then resolves
    /// the edge and fills the slot. `tier0` tallies the probe's `(hits,
    /// misses)`; a memo hit counts as the passed probe it stands for.
    #[inline]
    fn resolve(
        &mut self,
        itc: &ItcCfg,
        from: u64,
        to: u64,
        tier0: &mut (u64, u64),
    ) -> Result<EdgeIdx, Violation> {
        let slot = edge_slot(from, to);
        let (cf, ct, ce) = self.edge_cache[slot];
        if cf == from && ct == to {
            self.edge_cache_hits += 1;
            tier0.0 += u64::from(self.tier0.is_some());
            return Ok(ce);
        }
        // Tier-0 probe: one bit read settles "could this target ever be
        // valid?" before the node binary search and edge resolution.
        if let Some(bits) = &self.tier0 {
            if !bits.contains(to) {
                tier0.1 += 1;
                return Err(Violation::UnknownTarget { from, ip: to });
            }
            tier0.0 += 1;
        }
        if !itc.is_node(to) {
            return Err(Violation::UnknownTarget { from, ip: to });
        }
        self.edge_cache_misses += 1;
        let e = itc.edge(from, to).ok_or(Violation::NoEdge { from, to })?;
        self.edge_cache[slot] = (from, to, e);
        Ok(e)
    }

    /// Installs the deployment's tier-0 entry-point bitset; `None` turns
    /// the probe off. Clears the edge memo, whose targets passed the old
    /// bitset's probe.
    pub fn set_tier0(&mut self, bits: Option<EntryBitset>) {
        self.tier0 = bits;
        self.invalidate_edges();
    }

    /// Drops all cached edge resolutions (call after replacing the graph).
    pub fn invalidate_edges(&mut self) {
        for (slot, entry) in self.edge_cache.iter_mut().enumerate() {
            *entry = vacant(slot);
        }
    }
}

/// Why the fast path flagged the flow as malicious.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// A TIP target is not an IT-BB at all; `from` is the transfer source.
    UnknownTarget { from: u64, ip: u64 },
    /// Two consecutive TIPs are not an ITC-CFG edge.
    NoEdge { from: u64, to: u64 },
}

/// Fast-path verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FastVerdict {
    /// Definitive violation (kill immediately).
    Malicious(Violation),
    /// On-graph but not fully credited: escalate to the slow path. Carries
    /// the edge indices that were low-credit/TNT-mismatched, for caching
    /// after a negative slow-path result.
    Suspicious { uncredited: Vec<EdgeIdx> },
    /// Fully credited window.
    Clean,
    /// Not enough trace to check (process just started).
    InsufficientTrace,
}

/// Fast-path result with cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FastPathResult {
    /// The verdict.
    pub verdict: FastVerdict,
    /// TIP pairs actually checked.
    pub pairs_checked: usize,
    /// Edges that were high-credit (directly or via the slow-path cache).
    pub credited_pairs: usize,
    /// Simulated checking cycles (edge lookups).
    pub check_cycles: f64,
    /// Modeled cycles spent in tier-0 bitset probes. Together with
    /// `edge_cycles` and `verdict_cycles` this partitions `check_cycles`
    /// exactly — the split the span profiler attributes per phase.
    pub tier0_cycles: f64,
    /// Modeled cycles spent in precise edge/TNT/gram resolution.
    pub edge_cycles: f64,
    /// Modeled cycles spent folding per-pair outcomes into the verdict.
    pub verdict_cycles: f64,
    /// Tier-0 bitset probes that passed (target bit set, fell through to
    /// the precise edge check), memo hits included. Zero when the scratch
    /// holds no bitset.
    pub tier0_hits: u64,
    /// Tier-0 probes that failed — each is a definitive violation caught
    /// before any edge lookup.
    pub tier0_misses: u64,
}

/// Builds a [`FastPathResult`], splitting `check_cycles` into the tier-0 /
/// edge / verdict phases. Every `check_windowed` exit funnels through here
/// so the three phase fields always partition `check_cycles` exactly.
fn finish(
    verdict: FastVerdict,
    pairs: usize,
    credited: usize,
    (tier0_hits, tier0_misses): (u64, u64),
    edge_check_cycles: f64,
) -> FastPathResult {
    let check_cycles = pairs as f64 * edge_check_cycles;
    let probes = tier0_hits + tier0_misses;
    // Cost split: a tier-0 bit probe is ~1/16 of a precise edge check, the
    // verdict fold costs at most one edge check, and the precise
    // edge/TNT/gram work takes the remainder.
    let tier0_cycles = (probes as f64 * edge_check_cycles / 16.0).min(check_cycles);
    let verdict_cycles =
        if pairs == 0 { 0.0 } else { edge_check_cycles.min(check_cycles - tier0_cycles) };
    let edge_cycles = (check_cycles - tier0_cycles - verdict_cycles).max(0.0);
    FastPathResult {
        verdict,
        pairs_checked: pairs,
        credited_pairs: credited,
        check_cycles,
        tier0_cycles,
        edge_cycles,
        verdict_cycles,
        tier0_hits,
        tier0_misses,
    }
}

/// Runs the fast path over a packet-level scan.
///
/// The checked window is the most recent [`FlowGuardConfig::pkt_count`]
/// TIPs, widened backwards until it strides at least two modules with one
/// of them the executable (when the trace has such packets at all).
///
/// One-shot convenience: builds a throwaway [`CheckScratch`]. Repeated
/// checks (the engine's endpoint loop) should hold a scratch and call
/// [`check_windowed`].
pub fn check(
    itc: &ItcCfg,
    cache: &SlowPathCache,
    image: &Image,
    scan: &FastScan,
    cfg: &FlowGuardConfig,
    edge_check_cycles: f64,
) -> FastPathResult {
    let mut scratch = CheckScratch::new(image);
    check_windowed(
        itc,
        cache,
        &mut scratch,
        scan,
        cfg,
        cfg.pkt_count,
        cfg.require_module_stride,
        edge_check_cycles,
    )
}

/// [`check`] with reusable scratch state.
///
/// Every [`Boundary`](fg_ipt::fast::Boundary) of the scan is a seam (an
/// OVF or a resync): the two TIPs around it are not one transfer, so that
/// pair is skipped. A pair's TNT run is the run before its second TIP, so
/// every checked run lies wholly inside the scan, even when the scan began
/// at a mid-trace sync point: only the run before the scan's first TIP can
/// be cut, and it belongs to no pair.
///
/// The window is `pkt_count` TIPs, widened for the module stride when
/// `require_module_stride` is set — passed as values so a PMI check can
/// reach back over the whole scan without copying `cfg`, which supplies
/// the remaining policy (`cred_ratio`, caching, path matching).
///
/// Each pair asks the scratch's edge memo first. A slot is filled only
/// after its target passed the tier-0 probe and the node check, so a hit
/// settles the pair with one probe. A miss runs both checks, then resolves
/// the edge. When the scratch holds the deployment's entry-point bitset
/// ([`CheckScratch::set_tier0`]), a clear bit proves the target is outside
/// every ITC target set (the bitset is verified to cover all nodes, rule
/// `FG-X01`), so the transfer is malicious without touching the edge
/// arrays. A set bit falls through to the precise check — the probe can
/// only short-circuit detections, never admit anything.
#[allow(clippy::too_many_arguments)]
pub fn check_windowed(
    itc: &ItcCfg,
    cache: &SlowPathCache,
    scratch: &mut CheckScratch,
    scan: &FastScan,
    cfg: &FlowGuardConfig,
    pkt_count: usize,
    require_module_stride: bool,
    edge_check_cycles: f64,
) -> FastPathResult {
    let mut tier0 = (0u64, 0u64);
    let tips = scan.tip_ips();
    if tips.len() < 2 {
        return finish(FastVerdict::InsufficientTrace, 0, 0, tier0, edge_check_cycles);
    }

    // --- window selection -------------------------------------------------
    let mut start = tips.len().saturating_sub(pkt_count);
    if require_module_stride {
        // Widen while unsatisfied, but boundedly (the ToPA buffer itself
        // bounds how far back the implementation can reach): at most 4x the
        // configured window. The rule only gets easier as the window grows,
        // so each step adds just the modules of the TIPs it brings in.
        let floor = tips.len().saturating_sub(pkt_count * 4);
        let mut stride = scratch.new_stride();
        let mut seen_from = tips.len();
        while start > floor && !scratch.stride_reached(&mut stride, &tips[start..seen_from]) {
            seen_from = start;
            start = start.saturating_sub(8).max(floor);
        }
    }

    // --- pair checking ----------------------------------------------------
    // Pairs crossing a seam are unjudgeable and skipped. The boundary list
    // is sorted by TIP index, so membership is a cursor walk that starts at
    // the window's first pair.
    let in_window = scan.boundaries.partition_point(|&(i, _)| i <= start);
    let mut breaks = scan.boundaries[in_window..].iter().map(|&(i, _)| i).peekable();

    let mut uncredited = Vec::new();
    let mut credited = 0usize;
    let mut pairs = 0usize;
    let mut prev_edge: Option<EdgeIdx> = None;
    for wi in 0..tips.len() - start - 1 {
        let (from, to) = (tips[start + wi], tips[start + wi + 1]);
        while breaks.peek().is_some_and(|&b| b < start + wi + 1) {
            breaks.next();
        }
        if breaks.peek() == Some(&(start + wi + 1)) {
            prev_edge = None;
            continue; // non-consecutive TIPs across a seam
        }
        pairs += 1;
        let e = match scratch.resolve(itc, from, to, &mut tier0) {
            Ok(e) => e,
            Err(v) => {
                let verdict = FastVerdict::Malicious(v);
                return finish(verdict, pairs, credited, tier0, edge_check_cycles);
            }
        };
        let cached = cfg.cache_slow_path_results && cache.contains(e);
        let high = itc.credit(e) == Credit::High || cached;
        // TNT association (§4.3): trained edges must match a recorded
        // signature; a mismatch means a direct-fork path never seen in
        // training — AIA-derogation territory — so escalate. The comparison
        // happens on the packed `(bits, len)` word — no per-pair allocation.
        let tnt_ok = cached || itc.tnt(e).admits_raw(scan.tnt_raw(start + wi + 1));
        // Path matching (§7.1.2 future work): the consecutive edge pair must
        // be a trained high-credit path gram.
        let gram_ok =
            !cfg.path_matching || cached || prev_edge.is_none_or(|p| itc.has_path_gram(p, e));
        prev_edge = Some(e);
        if high && tnt_ok && gram_ok {
            credited += 1;
        } else {
            uncredited.push(e);
        }
    }

    let fraction = if pairs == 0 { 1.0 } else { credited as f64 / pairs as f64 };
    // With the default cred_ratio = 1.0 any uncredited edge escalates;
    // smaller thresholds tolerate a credited fraction above the threshold.
    let verdict = if uncredited.is_empty() || fraction >= cfg.cred_ratio {
        FastVerdict::Clean
    } else {
        FastVerdict::Suspicious { uncredited }
    };
    finish(verdict, pairs, credited, tier0, edge_check_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_cfg::OCfg;
    use fg_cpu::{IptUnit, Machine, StopReason, TraceUnit};
    use fg_ipt::fast::Boundary;
    use fg_ipt::topa::Topa;

    struct Setup {
        image: Image,
        itc: ItcCfg,
        scan: FastScan,
    }

    /// Runs the patched nginx on benign input under IPT and returns the
    /// trained ITC plus the resulting scan.
    fn trained_setup() -> Setup {
        let w = fg_workloads::nginx_patched();
        let ocfg = OCfg::build(&w.image);
        let mut itc = ItcCfg::build(&ocfg);
        fg_fuzz::train(
            &mut itc,
            &w.image,
            std::slice::from_ref(&w.default_input),
            fg_fuzz::TrainConfig::default(),
        );
        let mut m = Machine::new(&w.image, 0x4000);
        let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 20).unwrap());
        unit.start(w.image.entry(), 0x4000);
        m.trace = TraceUnit::Ipt(unit);
        let mut k = fg_kernel::Kernel::with_input(&w.default_input);
        assert_eq!(m.run(&mut k, 10_000_000), StopReason::Exited(0));
        m.trace.as_ipt_mut().unwrap().flush();
        let bytes = m.trace.as_ipt().unwrap().trace_bytes();
        let scan = fg_ipt::fast::scan(&bytes).unwrap();
        Setup { image: w.image, itc, scan }
    }

    /// [`check_windowed`] over `scan` with the default config's window and
    /// no slow-path cache, as an endpoint check runs it.
    fn endpoint_check(s: &Setup, scratch: &mut CheckScratch, scan: &FastScan) -> FastPathResult {
        let cfg = FlowGuardConfig::default();
        check_windowed(
            &s.itc,
            &SlowPathCache::default(),
            scratch,
            scan,
            &cfg,
            cfg.pkt_count,
            cfg.require_module_stride,
            18.0,
        )
    }

    /// A fresh scratch holding `bits`.
    fn scratch_with(s: &Setup, bits: &EntryBitset) -> CheckScratch {
        let mut scratch = CheckScratch::new(&s.image);
        scratch.set_tier0(Some(bits.clone()));
        scratch
    }

    #[test]
    fn trained_benign_flow_is_clean() {
        let s = trained_setup();
        let cfg = FlowGuardConfig::default();
        let r = check(&s.itc, &SlowPathCache::default(), &s.image, &s.scan, &cfg, 18.0);
        assert_eq!(r.verdict, FastVerdict::Clean, "trained input must pass the fast path");
        assert!(r.pairs_checked >= cfg.pkt_count.min(s.scan.tip_count()) - 1);
        assert!(r.check_cycles > 0.0);
    }

    #[test]
    fn untrained_itc_routes_to_slow_path() {
        let w = fg_workloads::nginx_patched();
        let ocfg = OCfg::build(&w.image);
        let itc = ItcCfg::build(&ocfg); // no training at all
        let s = trained_setup();
        let cfg = FlowGuardConfig::default();
        let r = check(&itc, &SlowPathCache::default(), &w.image, &s.scan, &cfg, 18.0);
        match r.verdict {
            FastVerdict::Suspicious { uncredited } => assert!(!uncredited.is_empty()),
            other => panic!("expected Suspicious, got {other:?}"),
        }
    }

    #[test]
    fn cache_promotes_low_credit_edges() {
        let w = fg_workloads::nginx_patched();
        let ocfg = OCfg::build(&w.image);
        let itc = ItcCfg::build(&ocfg); // untrained
        let s = trained_setup();
        let cfg = FlowGuardConfig::default();
        // Prime the cache with every edge the window needs.
        let r1 = check(&itc, &SlowPathCache::default(), &w.image, &s.scan, &cfg, 18.0);
        let FastVerdict::Suspicious { uncredited } = r1.verdict else {
            panic!("expected Suspicious")
        };
        let mut cache = SlowPathCache::default();
        cache.extend(uncredited);
        let r2 = check(&itc, &cache, &w.image, &s.scan, &cfg, 18.0);
        assert_eq!(r2.verdict, FastVerdict::Clean, "cached slow-path results satisfy fast path");
    }

    #[test]
    fn off_graph_tip_is_malicious() {
        let s = trained_setup();
        let cfg = FlowGuardConfig::default();
        let mut scan = s.scan.clone();
        // Tamper: retarget the last TIP to a non-IT-BB code address.
        let exec_base = s.image.executable().base;
        scan.set_tip_ip(scan.tip_count() - 1, exec_base + 8); // mid-entry block
        let r = check(&s.itc, &SlowPathCache::default(), &s.image, &scan, &cfg, 18.0);
        assert!(
            matches!(r.verdict, FastVerdict::Malicious(_)),
            "off-CFG target must be flagged, got {:?}",
            r.verdict
        );
    }

    #[test]
    fn valid_nodes_without_edge_is_malicious() {
        let s = trained_setup();
        let cfg = FlowGuardConfig { require_module_stride: false, ..Default::default() };
        let mut scan = s.scan.clone();
        // Swap two distant TIP targets to produce node-valid but edge-less
        // pairs (if the swap happens to form valid edges, the test still
        // passes via the Suspicious arm — assert "not Clean").
        let n = scan.tip_count();
        scan.swap_tips(n - 2, n - 8);
        let r = check(&s.itc, &SlowPathCache::default(), &s.image, &scan, &cfg, 18.0);
        assert_ne!(r.verdict, FastVerdict::Clean);
    }

    #[test]
    fn insufficient_trace_reported() {
        let s = trained_setup();
        let cfg = FlowGuardConfig::default();
        let scan = FastScan::default();
        let r = check(&s.itc, &SlowPathCache::default(), &s.image, &scan, &cfg, 18.0);
        assert_eq!(r.verdict, FastVerdict::InsufficientTrace);
    }

    #[test]
    fn tnt_mismatch_escalates() {
        let s = trained_setup();
        let cfg = FlowGuardConfig { require_module_stride: false, ..Default::default() };
        let mut scan = s.scan.clone();
        // Flip one TNT bit ahead of the last TIP — a direct-fork divergence.
        let i = scan.tip_count() - 1;
        let mut tnt = scan.tnt_vec(i);
        if tnt.is_empty() {
            tnt.push(true);
        } else {
            let n = tnt.len();
            tnt[n - 1] = !tnt[n - 1];
        }
        scan.set_tip_tnt(i, &tnt);
        let r = check(&s.itc, &SlowPathCache::default(), &s.image, &scan, &cfg, 18.0);
        assert_ne!(
            r.verdict,
            FastVerdict::Clean,
            "TNT divergence must not pass silently (AIA derogation defence)"
        );
    }

    #[test]
    fn path_matching_passes_trained_traffic() {
        let s = trained_setup();
        let cfg = FlowGuardConfig { path_matching: true, ..Default::default() };
        let r = check(&s.itc, &SlowPathCache::default(), &s.image, &s.scan, &cfg, 18.0);
        assert_eq!(r.verdict, FastVerdict::Clean, "grams learned from the same input must match");
    }

    #[test]
    fn path_matching_escalates_novel_edge_stitching() {
        // Find two individually high-credit edges (a→b) and (b→c) that were
        // never adjacent in training, and synthesise a window exercising
        // them back to back: path matching must escalate.
        let s = trained_setup();
        let stitched = s
            .itc
            .iter_edges()
            .filter(|&(_, _, e)| s.itc.credit(e) == fg_cfg::Credit::High)
            .find_map(|(a, b, e1)| {
                s.itc.targets_of(b).iter().find_map(|&c| {
                    let e2 = s.itc.edge(b, c)?;
                    (s.itc.credit(e2) == fg_cfg::Credit::High && !s.itc.has_path_gram(e1, e2))
                        .then_some((a, b, c))
                })
            });
        let Some((a, b, c)) = stitched else {
            // Training saturated every gram (tiny program) — nothing to test.
            return;
        };
        let mut scan = FastScan::default();
        for ip in [a, b, c] {
            scan.push_tip(ip, &[]);
        }
        let pm = FlowGuardConfig {
            require_module_stride: false,
            cache_slow_path_results: false,
            path_matching: true,
            ..Default::default()
        };
        let r = check(&s.itc, &SlowPathCache::default(), &s.image, &scan, &pm, 18.0);
        assert!(
            matches!(r.verdict, FastVerdict::Suspicious { .. }),
            "unseen edge adjacency must escalate under path matching, got {:?}",
            r.verdict
        );
    }

    #[test]
    fn scratch_edge_cache_hits_on_repeat() {
        let s = trained_setup();
        let mut scratch = CheckScratch::new(&s.image);
        let r1 = endpoint_check(&s, &mut scratch, &s.scan);
        let r2 = endpoint_check(&s, &mut scratch, &s.scan);
        assert_eq!(r1, r2, "scratch reuse must not change verdicts");
        assert!(scratch.edge_cache_hits > 0, "repeat checks hit the edge cache");
        scratch.invalidate_edges();
        let r3 = endpoint_check(&s, &mut scratch, &s.scan);
        assert_eq!(r1, r3);
    }

    #[test]
    fn stamp_generation_wrap_clears_the_stamps() {
        // Never-seen modules hold stamp 0: a generation that wrapped to 0
        // would count them as seen, and the window would widen to its floor.
        let s = trained_setup();
        let fresh = endpoint_check(&s, &mut CheckScratch::new(&s.image), &s.scan);
        let cfg = FlowGuardConfig::default();
        assert!(fresh.pairs_checked < 4 * cfg.pkt_count - 1, "the stride rule ends the widening");
        let mut wrapped = CheckScratch::new(&s.image);
        wrapped.stamp_gen = u32::MAX;
        assert_eq!(endpoint_check(&s, &mut wrapped, &s.scan), fresh);
        assert_eq!(wrapped.stamp_gen, 1, "the generation skips 0");
    }

    #[test]
    fn tier0_probe_is_transparent_on_benign_flow() {
        // Benign + trained: the probe must hit on every pair and change
        // nothing — zero false escalations is the bitset's design guarantee.
        let s = trained_setup();
        let bits = EntryBitset::from_itc(&s.image, &s.itc);
        let mut scratch = scratch_with(&s, &bits);
        let with = endpoint_check(&s, &mut scratch, &s.scan);
        assert_eq!(with.verdict, FastVerdict::Clean, "probe must not reject benign flow");
        assert_eq!(with.tier0_misses, 0, "zero false escalations");
        assert_eq!(with.tier0_hits as usize, with.pairs_checked, "every pair probed");
        assert_eq!(endpoint_check(&s, &mut scratch, &s.scan), with, "memo hits count as probes");
        scratch.set_tier0(None);
        let without = endpoint_check(&s, &mut scratch, &s.scan);
        assert_eq!(without.verdict, FastVerdict::Clean);
        assert_eq!(without.tier0_hits, 0, "no probes without a bitset");
    }

    #[test]
    fn tier0_probe_catches_off_bitset_attack() {
        let s = trained_setup();
        let bits = EntryBitset::from_itc(&s.image, &s.itc);
        let mut scan = s.scan.clone();
        let exec_base = s.image.executable().base;
        scan.set_tip_ip(scan.tip_count() - 1, exec_base + 8); // mid-entry block
        let r = endpoint_check(&s, &mut scratch_with(&s, &bits), &scan);
        assert!(
            matches!(r.verdict, FastVerdict::Malicious(Violation::UnknownTarget { .. })),
            "probe miss is a definitive violation, got {:?}",
            r.verdict
        );
        assert_eq!(r.tier0_misses, 1, "the attack target missed the bitset");
    }

    #[test]
    fn the_hostile_pair_max_to_zero_is_an_unknown_target() {
        // An empty memo slot must not read as a resolved pair, even for a
        // TIP pair made of the values an empty slot once held.
        let s = trained_setup();
        let mut scan = s.scan.clone();
        let n = scan.tip_count();
        scan.boundaries.push((n, Boundary::Overflow)); // the pair into u64::MAX is a seam
        scan.push_tip(u64::MAX, &[]);
        scan.push_tip(0, &[]);
        let want = FastVerdict::Malicious(Violation::UnknownTarget { from: u64::MAX, ip: 0 });
        let without = endpoint_check(&s, &mut CheckScratch::new(&s.image), &scan);
        assert_eq!(without.verdict, want);
        let bits = EntryBitset::from_itc(&s.image, &s.itc);
        let with = endpoint_check(&s, &mut scratch_with(&s, &bits), &scan);
        assert_eq!(with.verdict, want);
        assert_eq!(with.tier0_misses, 1);
    }

    #[test]
    fn set_tier0_forgets_memoized_targets() {
        // The last pair of the trained trace, alone in a scan: clean, and
        // memoized once checked.
        let s = trained_setup();
        let n = s.scan.tip_count();
        let (from, to) = (s.scan.tip_ips()[n - 2], s.scan.tip_ips()[n - 1]);
        let mut pair = FastScan::default();
        pair.push_tip(from, &[]);
        pair.push_tip(to, &s.scan.tnt_vec(n - 1));
        let mut bits = EntryBitset::from_itc(&s.image, &s.itc);
        let mut scratch = scratch_with(&s, &bits);
        assert_eq!(endpoint_check(&s, &mut scratch, &pair).verdict, FastVerdict::Clean);
        assert_eq!(endpoint_check(&s, &mut scratch, &pair).verdict, FastVerdict::Clean);
        assert_eq!(scratch.edge_cache_hits, 1, "the second check hit the memo");
        // A bitset without the target: the memoized pair is probed again.
        assert!(bits.remove(to));
        scratch.set_tier0(Some(bits));
        let r = endpoint_check(&s, &mut scratch, &pair);
        assert_eq!(r.verdict, FastVerdict::Malicious(Violation::UnknownTarget { from, ip: to }));
        assert_eq!((r.tier0_hits, r.tier0_misses), (0, 1));
    }

    #[test]
    fn phase_cycle_split_partitions_check_cycles() {
        let s = trained_setup();
        let bits = EntryBitset::from_itc(&s.image, &s.itc);
        let r = endpoint_check(&s, &mut scratch_with(&s, &bits), &s.scan);
        assert_eq!(r.verdict, FastVerdict::Clean);
        let sum = r.tier0_cycles + r.edge_cycles + r.verdict_cycles;
        assert!((sum - r.check_cycles).abs() < 1e-9, "phase split must partition check_cycles");
        assert!(r.tier0_cycles > 0.0 && r.edge_cycles > 0.0 && r.verdict_cycles > 0.0);
    }

    #[test]
    fn a_break_at_the_window_edge_skips_only_its_pair() {
        // With pkt_count 5 the window's pairs end at TIPs n-4 ..= n-1. An
        // overflow just before TIP n-4 makes the window's first pair
        // unjudgeable; one just before TIP n-5 lies outside the window.
        let s = trained_setup();
        let cfg =
            FlowGuardConfig { pkt_count: 5, require_module_stride: false, ..Default::default() };
        let n = s.scan.tip_count();
        let pairs_with_break_at = |at: usize| {
            let mut scan = s.scan.clone();
            let pos = scan.boundaries.partition_point(|&(i, _)| i <= at);
            scan.boundaries.insert(pos, (at, Boundary::Overflow));
            check(&s.itc, &SlowPathCache::default(), &s.image, &scan, &cfg, 18.0).pairs_checked
        };
        assert_eq!(pairs_with_break_at(n - 4), 3);
        assert_eq!(pairs_with_break_at(n - 5), 4);
    }

    #[test]
    fn window_honors_pkt_count() {
        let s = trained_setup();
        let cfg =
            FlowGuardConfig { pkt_count: 5, require_module_stride: false, ..Default::default() };
        let r = check(&s.itc, &SlowPathCache::default(), &s.image, &s.scan, &cfg, 18.0);
        assert_eq!(r.pairs_checked, 4);
    }
}
