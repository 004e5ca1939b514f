//! Criterion benches for the IPT codec: trace-side encoding, packet-level
//! scanning (the fast-path primitive), and instruction-flow decoding (the
//! slow path) — the throughput asymmetry behind the paper's design.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fg_cpu::{IptUnit, Machine, TraceUnit};
use fg_ipt::encode::PacketEncoder;
use fg_ipt::topa::Topa;

/// A realistic trace: the tar workload under IPT.
fn workload_trace() -> (fg_workloads::Workload, Vec<u8>) {
    let w = fg_workloads::tar();
    let mut m = Machine::new(&w.image, 0x4000);
    let mut unit = IptUnit::flowguard(0x4000, Topa::two_regions(1 << 22).expect("topa"));
    unit.start(w.image.entry(), 0x4000);
    m.trace = TraceUnit::Ipt(unit);
    let mut k = fg_kernel::Kernel::with_input(&w.default_input);
    m.run(&mut k, 50_000_000);
    m.trace.as_ipt_mut().expect("ipt").flush();
    let bytes = m.trace.as_ipt().expect("ipt").trace_bytes();
    (w, bytes)
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("encode");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("tnt_tip_mix", |b| {
        b.iter(|| {
            let mut enc = PacketEncoder::new(Vec::with_capacity(64 * 1024));
            for i in 0..10_000u64 {
                if i % 5 == 0 {
                    enc.tip(0x40_0000 + (i % 97) * 8);
                } else {
                    enc.tnt_bit(i % 3 == 0);
                }
            }
            enc.into_sink()
        });
    });
    g.finish();
}

fn bench_scan_vs_flow_decode(c: &mut Criterion) {
    let (w, bytes) = workload_trace();
    let mut g = c.benchmark_group("decode");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("packet_scan", |b| b.iter(|| fg_ipt::fast::scan(&bytes).expect("scan")));
    g.bench_function("instruction_flow", |b| {
        b.iter(|| fg_ipt::flow::FlowDecoder::new(&w.image).decode(&bytes).expect("decodes"));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_encode, bench_scan_vs_flow_decode
}
criterion_main!(benches);
