//! Criterion benches for the incremental fast path: cold vs. checkpointed
//! scanning, CSR vs. BTreeMap edge lookup, and the windowed check with a
//! persistent scratch.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fg_cfg::{EdgeIdx, EntryBitset, ItcCfg, OCfg};
use fg_cpu::{CostModel, IptUnit, Machine, TraceUnit};
use fg_ipt::topa::Topa;
use fg_ipt::{fast, IncrementalScanner};
use flowguard::{fastpath, CheckScratch, FlowGuardConfig, SlowPathCache};
use std::collections::BTreeMap;

struct Setup {
    w: fg_workloads::Workload,
    itc: ItcCfg,
    trace: Vec<u8>,
    scan: fast::FastScan,
}

fn setup() -> Setup {
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
    let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 22).expect("topa"));
    unit.start(w.image.entry(), 0x4000);
    m.trace = TraceUnit::Ipt(unit);
    let mut k = fg_kernel::Kernel::with_input(&w.default_input);
    m.run(&mut k, 100_000_000);
    m.trace.as_ipt_mut().expect("ipt").flush();
    let trace = m.trace.as_ipt().expect("ipt").trace_bytes();
    let scan = fast::scan(&trace).expect("scan");
    Setup { w, itc, trace, scan }
}

fn bench_scan(c: &mut Criterion) {
    let s = setup();
    let mut g = c.benchmark_group("scan");
    g.throughput(Throughput::Bytes(s.trace.len() as u64));
    g.bench_function("cold_full", |b| b.iter(|| fast::scan(&s.trace).expect("scan")));
    // Incremental replay: feed the trace in 4 KiB appends, as the engine
    // sees it between endpoint checks.
    g.bench_function("incremental_4k_appends", |b| {
        b.iter(|| {
            let mut inc = IncrementalScanner::new();
            let mut end = 0usize;
            while end < s.trace.len() {
                end = (end + 4096).min(s.trace.len());
                inc.advance(&s.trace[..end], end as u64, end).expect("advance");
            }
            inc.scan().tip_count()
        });
    });
    g.finish();
}

fn bench_edge_lookup(c: &mut Criterion) {
    let s = setup();
    let pairs: Vec<(u64, u64)> =
        s.scan.tip_ips().windows(2).map(|w| (w[0], w[1])).take(1024).collect();
    let map: BTreeMap<(u64, u64), EdgeIdx> =
        s.itc.iter_edges().map(|(f, t, e)| ((f, t), e)).collect();
    let mut g = c.benchmark_group("edge_lookup_1k");
    g.bench_function("csr", |b| {
        b.iter(|| pairs.iter().filter(|&&(f, t)| s.itc.edge(f, t).is_some()).count());
    });
    g.bench_function("btreemap", |b| {
        b.iter(|| pairs.iter().filter(|&&(f, t)| map.contains_key(&(f, t))).count());
    });
    g.finish();
}

fn bench_check(c: &mut Criterion) {
    let s = setup();
    let cfg = FlowGuardConfig::default();
    let cache = SlowPathCache::default();
    let cost = CostModel::calibrated();
    // The bitset every deployment installs (`Deployment::analyze`).
    let mut scratch = CheckScratch::new(&s.w.image);
    scratch.set_tier0(Some(EntryBitset::from_itc(&s.w.image, &s.itc)));
    c.bench_function("fastpath_check_scratch", |b| {
        b.iter(|| {
            fastpath::check_windowed(
                &s.itc,
                &cache,
                &mut scratch,
                &s.scan,
                &cfg,
                cfg.pkt_count,
                cfg.require_module_stride,
                cost.edge_check_cycles,
            )
        });
    });
}

criterion_group! {
    name = benches;
    // FG_BENCH_QUICK=1 drops the sample count for CI smoke runs.
    config = Criterion::default().sample_size(
        if std::env::var_os("FG_BENCH_QUICK").is_some() { 3 } else { 15 },
    );
    targets = bench_scan, bench_edge_lookup, bench_check
}
criterion_main!(benches);
