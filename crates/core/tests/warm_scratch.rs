//! A long-lived [`CheckScratch`] decides exactly as a fresh one. The
//! engine keeps one scratch for its whole life — its edge cache and its
//! module stamps carry over from check to check — so every check through
//! it must return the `FastPathResult` a fresh scratch returns for the
//! same scan, and look up as many edges. Both must also agree with the
//! fast path's rule applied with no cache at all (`reference_check`): a
//! fresh scratch still reuses its edge cache within one check.
//!
//! The edge cache answers before the tier-0 probe and the node check, so
//! it must hold only pairs that passed both. The scratch holds no bitset,
//! the deployment's, or the deployment's with a quarter of the ITC nodes
//! the trace visits cleared: there tier-0 misses fire on real edges,
//! after earlier pairs and earlier checks have filled the cache. Halfway
//! through, the scratch may be given another of the three.
//!
//! The scans are windows of a real traced `h264ref` run cut at random
//! points, some with bytes damaged, some truncated at the front and some
//! with one TIP's TNT run changed, checked with windows of random size (as
//! endpoint and PMI checks alternate) while the slow-path cache grows
//! between checks, as the engine grows it. That run visits 29 ITC nodes
//! over 45 distinct TIP pairs, with 43% of its TIPs on its two busiest
//! nodes, so a cleared node lands in the windows. A traced server visits
//! 17 nodes with 99% of its TIPs on two, whatever its input.

use fg_cfg::{Credit, EntryBitset, ItcCfg};
use fg_cpu::{IptUnit, Machine, StopReason, TraceUnit};
use fg_ipt::fast::{self, FastScan};
use fg_ipt::topa::Topa;
use fg_isa::image::{Image, ModuleKind};
use flowguard::{
    fastpath, CheckScratch, Deployment, FastVerdict, FlowGuardConfig, SlowPathCache, Violation,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// A trained and an untrained graph of one image, and one traced run.
struct Fixture {
    image: Image,
    trained: ItcCfg,
    /// Every edge low-credit: checks escalate until the cache credits them.
    untrained: ItcCfg,
    tier0: EntryBitset,
    /// The ITC nodes the trace visits, in address order.
    visited: Vec<u64>,
    trace: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let w = fg_workloads::spec_by_name("h264ref").expect("a bundled SPEC profile");
        let mut d = Deployment::analyze(&w.image);
        let untrained = d.itc.clone();
        d.train(std::slice::from_ref(&w.default_input));
        let cr3 = 0x4000;
        let mut m = Machine::new(&w.image, cr3);
        let mut unit = IptUnit::flowguard(cr3, Topa::two_regions(1 << 20).unwrap());
        unit.start(w.image.entry(), cr3);
        m.trace = TraceUnit::Ipt(unit);
        let mut k = fg_kernel::Kernel::with_input(&w.default_input);
        assert_eq!(m.run(&mut k, 50_000_000), StopReason::Exited(0));
        let ipt = m.trace.as_ipt_mut().unwrap();
        ipt.flush();
        let trace = ipt.trace_bytes();
        let tier0 = EntryBitset::from_itc(&w.image, &d.itc);
        let tips: BTreeSet<u64> = fast::scan(&trace).unwrap().tip_ips().iter().copied().collect();
        let visited = tips.into_iter().filter(|&ip| d.itc.is_node(ip)).collect();
        Fixture { image: w.image, trained: d.itc, untrained, tier0, visited, trace }
    })
}

/// What a check decides, and how many edges it looks up.
#[derive(Debug, PartialEq)]
struct Decision {
    verdict: FastVerdict,
    pairs: usize,
    credited: usize,
    tier0: (u64, u64),
    lookups: u64,
}

/// The fast path's rule with no edge cache and no stamps: the window
/// the module-stride rule selects by re-walking every candidate, then each
/// pair decided from the graph alone.
#[allow(clippy::too_many_arguments)]
fn reference_check(
    f: &Fixture,
    itc: &ItcCfg,
    cache: &SlowPathCache,
    scan: &FastScan,
    cfg: &FlowGuardConfig,
    pkt_count: usize,
    stride: bool,
    tier0: Option<&EntryBitset>,
) -> Decision {
    let mut d = Decision {
        verdict: FastVerdict::InsufficientTrace,
        pairs: 0,
        credited: 0,
        tier0: (0, 0),
        lookups: 0,
    };
    let tips = scan.tip_ips();
    if tips.len() < 2 {
        return d;
    }
    let module_of = |ip: u64| {
        let m = f.image.modules().iter().position(|m| m.base <= ip && ip < m.end())?;
        Some((m, f.image.modules()[m].kind == ModuleKind::Executable))
    };
    let strides = |s: usize| {
        let seen: BTreeSet<(usize, bool)> =
            tips[s..].iter().filter_map(|&ip| module_of(ip)).collect();
        seen.len() >= 2 && seen.iter().any(|&(_, exec)| exec)
    };
    let mut start = tips.len().saturating_sub(pkt_count);
    if stride {
        let floor = tips.len().saturating_sub(pkt_count * 4);
        while start > floor && !strides(start) {
            start = start.saturating_sub(8).max(floor);
        }
    }
    let breaks: Vec<usize> = scan.boundaries.iter().map(|&(i, _)| i).collect();
    let mut uncredited = Vec::new();
    let mut prev = None;
    for j in start + 1..tips.len() {
        let (from, to) = (tips[j - 1], tips[j]);
        if breaks.contains(&j) {
            prev = None;
            continue;
        }
        d.pairs += 1;
        if let Some(bits) = tier0 {
            if !bits.contains(to) {
                d.tier0.1 += 1;
                d.verdict = FastVerdict::Malicious(Violation::UnknownTarget { from, ip: to });
                return d;
            }
            d.tier0.0 += 1;
        }
        if !itc.is_node(to) {
            d.verdict = FastVerdict::Malicious(Violation::UnknownTarget { from, ip: to });
            return d;
        }
        d.lookups += 1;
        let Some(e) = itc.edge(from, to) else {
            d.verdict = FastVerdict::Malicious(Violation::NoEdge { from, to });
            return d;
        };
        let cached = cfg.cache_slow_path_results && cache.contains(e);
        let high = itc.credit(e) == Credit::High || cached;
        let tnt_ok = cached || itc.tnt(e).admits_raw(scan.tnt_raw(j));
        let gram_ok = !cfg.path_matching || cached || prev.is_none_or(|p| itc.has_path_gram(p, e));
        prev = Some(e);
        if high && tnt_ok && gram_ok {
            d.credited += 1;
        } else {
            uncredited.push(e);
        }
    }
    let fraction = if d.pairs == 0 { 1.0 } else { d.credited as f64 / d.pairs as f64 };
    d.verdict = if uncredited.is_empty() || fraction >= cfg.cred_ratio {
        FastVerdict::Clean
    } else {
        FastVerdict::Suspicious { uncredited }
    };
    d
}

/// Derives one check's parameters from its seed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

proptest! {
    #[test]
    fn warm_scratch_decides_like_a_fresh_one(
        checks in proptest::collection::vec(any::<u64>(), 4..24),
        policy in (any::<bool>(), any::<bool>(), any::<bool>()),
        bitsets in (0..3usize, 0..3usize),
        thin in 0..4usize,
        region in any::<u64>(),
    ) {
        let f = fixture();
        let (trained, path_matching, cache_slow_path_results) = policy;
        let itc = if trained { &f.trained } else { &f.untrained };
        let cfg = FlowGuardConfig { path_matching, cache_slow_path_results, ..Default::default() };
        let mut thinned = f.tier0.clone();
        for &ip in f.visited.iter().skip(thin).step_by(4) {
            thinned.remove(ip);
        }
        let choices = [None, Some(&f.tier0), Some(&thinned)];
        let mut tier0 = choices[bitsets.0];
        let mut fresh = CheckScratch::new(&f.image);
        fresh.set_tier0(tier0.cloned());
        let mut warm = fresh.clone();
        let half = checks.len() / 2;
        let mut cache = SlowPathCache::default();
        // Windows start within one 16 KiB region, so checks overlap and
        // revisit the same pairs, as consecutive checks of a server do.
        let region = region as usize % (f.trace.len() - 20_480);
        for (i, seed) in checks.into_iter().enumerate() {
            if i == half {
                // A new bitset under a filled cache.
                tier0 = choices[bitsets.1];
                fresh.set_tier0(tier0.cloned());
                warm.set_tier0(tier0.cloned());
            }
            let mut rng = XorShift(seed | 1);
            let len = 64 + rng.below(4096) as usize;
            let at = region + rng.below(16_384) as usize;
            let mut bytes = f.trace[at..at + len].to_vec();
            for _ in 0..rng.below(4) {
                let i = rng.below(len as u64) as usize;
                bytes[i] = rng.next() as u8;
            }
            let Ok(mut scan) = fast::scan(&bytes) else { continue };
            scan.truncate_front(rng.below(scan.tip_count() as u64 / 2 + 1) as usize);
            if scan.tip_count() > 0 && rng.below(2) == 0 {
                // A direct-fork divergence: one TIP's TNT run gains or flips
                // a bit, so a pair seen before arrives with a new run.
                let i = scan.tip_count() - 1 - rng.below(scan.tip_count().min(40) as u64) as usize;
                let mut tnt = scan.tnt_vec(i);
                match tnt.last_mut() {
                    Some(b) if rng.below(2) == 0 => *b = !*b,
                    _ => tnt.push(true),
                }
                scan.set_tip_tnt(i, &tnt);
            }
            let pkt_count = 2 + rng.below(60) as usize;
            let stride = rng.below(2) == 0;

            let check = |scratch: &mut CheckScratch| {
                let (hits, misses) = (scratch.edge_cache_hits, scratch.edge_cache_misses);
                let r = fastpath::check_windowed(
                    itc,
                    &cache,
                    scratch,
                    &scan,
                    &cfg,
                    pkt_count,
                    stride,
                    18.0,
                );
                let lookups = scratch.edge_cache_hits - hits + scratch.edge_cache_misses - misses;
                (r, lookups)
            };
            let (got, warm_lookups) = check(&mut warm);
            let (want, fresh_lookups) = check(&mut fresh.clone());
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(warm_lookups, fresh_lookups);
            let rule = reference_check(
                f, itc, &cache, &scan, &cfg, pkt_count, stride, tier0,
            );
            let decided = Decision {
                verdict: got.verdict.clone(),
                pairs: got.pairs_checked,
                credited: got.credited_pairs,
                tier0: (got.tier0_hits, got.tier0_misses),
                lookups: warm_lookups,
            };
            prop_assert_eq!(decided, rule);

            // Grow the cache as the engine does after a clean slow path:
            // the window's uncredited edges, plus a few other edges.
            if let FastVerdict::Suspicious { uncredited } = got.verdict {
                if rng.below(2) == 0 {
                    cache.extend(uncredited);
                }
            }
            for _ in 0..rng.below(4) {
                cache.insert(rng.below(itc.edge_count() as u64) as usize);
            }
        }
    }
}
