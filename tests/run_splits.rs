//! Splitting a run changes nothing: executing a protected-style traced run
//! as a seeded sequence of short `Machine::run` calls — cut inside
//! straight-line runs and across poll slots — leaves exactly what one call
//! leaves, down to the pc of every syscall, PMI and poll-slot callback.

use fg_cpu::{
    Cpu, IptUnit, Machine, StopReason, SysOutcome, SyscallCtx, SyscallHandler, TraceUnit,
};
use fg_ipt::topa::Topa;
use fg_isa::image::Image;
use fg_kernel::Kernel;

const CR3: u64 = 0x4000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Callback {
    Syscall,
    Pmi,
    Poll,
}

/// The kernel, logging every callback it receives with the pc it sees.
struct Logged {
    kernel: Kernel,
    log: Vec<(Callback, u64)>,
}

impl SyscallHandler for Logged {
    fn syscall(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome {
        self.log.push((Callback::Syscall, ctx.cpu.pc));
        self.kernel.syscall(ctx)
    }

    fn pmi(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome {
        self.log.push((Callback::Pmi, ctx.cpu.pc));
        self.kernel.pmi(ctx)
    }

    fn trace_poll(&mut self, ctx: &mut SyscallCtx<'_>) {
        self.log.push((Callback::Poll, ctx.cpu.pc));
        self.kernel.trace_poll(ctx);
    }
}

/// Everything a finished run leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Finish {
    stop: StopReason,
    insns: u64,
    cofis: u64,
    cpu: Cpu,
    /// `exec`, `trace`, `decode`, `check`, `other` as bit patterns.
    account: [u64; 5],
    bytes_emitted: u64,
    trace: Vec<u8>,
    output: Vec<u8>,
    log: Vec<(Callback, u64)>,
}

/// `nginx_patched` serving `input`, traced over two 4 KiB ToPA regions so
/// that PMIs fire.
fn launch(image: &Image, input: &[u8]) -> (Machine, Logged) {
    let mut m = Machine::new(image, CR3);
    let mut unit = IptUnit::flowguard(CR3, Topa::two_regions(4096).expect("valid ToPA"));
    unit.start(image.entry(), CR3);
    m.trace = TraceUnit::Ipt(unit);
    (m, Logged { kernel: Kernel::with_input(input), log: Vec::new() })
}

fn finish(mut m: Machine, h: Logged, stop: StopReason) -> Finish {
    let unit = m.trace.as_ipt_mut().expect("ipt");
    unit.flush();
    let a = m.account;
    Finish {
        stop,
        insns: m.insns_retired,
        cofis: m.cofi_retired,
        bytes_emitted: unit.bytes_emitted(),
        trace: unit.trace_bytes(),
        cpu: m.cpu,
        account: [a.exec, a.trace, a.decode, a.check, a.other].map(f64::to_bits),
        output: h.kernel.output,
        log: h.log,
    }
}

/// One splitmix64 step.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn split_runs_match_one_run() {
    let w = fg_workloads::nginx_patched();
    let input = fg_workloads::load_input(3, 0x5eed);
    let whole = {
        let (mut m, mut h) = launch(&w.image, &input);
        let stop = m.run(&mut h, 50_000_000);
        finish(m, h, stop)
    };
    assert_eq!(whole.stop, StopReason::Exited(0));
    let count = |kind| whole.log.iter().filter(|(k, _)| *k == kind).count();
    assert!(count(Callback::Pmi) >= 2, "the run must raise PMIs");
    assert!(count(Callback::Poll) > 1000 && count(Callback::Syscall) > 10);

    // Budgets of 1..=7 cut straight-line runs at every offset; 1..=300
    // cuts across poll slots.
    for max_k in [7, 300] {
        let (mut m, mut h) = launch(&w.image, &input);
        let mut state = max_k;
        let stop = loop {
            let k = 1 + next(&mut state) % max_k;
            match m.run(&mut h, k) {
                StopReason::InsnLimit => {}
                stop => break stop,
            }
        };
        let split = finish(m, h, stop);
        assert!(split == whole, "runs cut at 1..={max_k} instructions diverge");
    }
}
