//! Criterion benches for FlowGuard's runtime checking: ITC-CFG edge lookup,
//! the fast-path window check, the slow-path full analysis, and the offline
//! construction costs (O-CFG, ITC-CFG, training).

use criterion::{criterion_group, criterion_main, Criterion};
use fg_cfg::{ItcCfg, OCfg};
use fg_cpu::{CostModel, IptUnit, Machine, TraceUnit};
use fg_ipt::topa::Topa;
use flowguard::{FlowGuardConfig, SlowPathCache};

struct Setup {
    w: fg_workloads::Workload,
    ocfg: OCfg,
    itc: ItcCfg,
    trace: Vec<u8>,
    scan: fg_ipt::fast::FastScan,
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
    let scan = fg_ipt::fast::scan(&trace).expect("scan");
    Setup { w, ocfg, itc, trace, scan }
}

fn bench_edge_lookup(c: &mut Criterion) {
    let s = setup();
    let pairs: Vec<(u64, u64)> =
        s.scan.tip_ips().windows(2).map(|w| (w[0], w[1])).take(1024).collect();
    c.bench_function("itc_edge_lookup_1k", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &(f, t) in &pairs {
                if s.itc.edge(f, t).is_some() {
                    hits += 1;
                }
            }
            hits
        });
    });
}

fn bench_paths(c: &mut Criterion) {
    let s = setup();
    let cfg = FlowGuardConfig::default();
    let cache = SlowPathCache::default();
    let cost = CostModel::calibrated();
    c.bench_function("fast_path_window", |b| {
        b.iter(|| {
            flowguard::fastpath::check(
                &s.itc,
                &cache,
                &s.w.image,
                &s.scan,
                &cfg,
                cost.edge_check_cycles,
            )
        });
    });
    c.bench_function("slow_path_full", |b| {
        b.iter(|| flowguard::slowpath::check(&s.w.image, &s.ocfg, &s.trace, &cost));
    });
}

fn bench_offline(c: &mut Criterion) {
    let w = fg_workloads::vsftpd();
    c.bench_function("ocfg_build", |b| b.iter(|| OCfg::build(&w.image)));
    let ocfg = OCfg::build(&w.image);
    c.bench_function("itc_build", |b| b.iter(|| ItcCfg::build(&ocfg)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_edge_lookup, bench_paths, bench_offline
}
criterion_main!(benches);
