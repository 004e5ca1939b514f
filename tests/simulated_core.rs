//! Golden outcomes of the simulated core. Every value below was recorded
//! from an interpreter that executed one instruction per step: the first
//! ones from the plain fetch-and-decode interpreter that checked for a
//! pending PMI after every instruction, the poll-slot, BTS, LBR, coverage,
//! multi-CR3 and non-integral-cost values from its predecoded successor.
//! Any speed-up of `Machine::run` must leave all of them exactly as they
//! are.

use fg_cpu::{
    BtsUnit, IptUnit, LbrFilter, LbrUnit, Machine, MemFault, MultiIptUnit, StopReason, SysOutcome,
    SyscallCtx, SyscallHandler, TraceUnit,
};
use fg_ipt::topa::Topa;
use fg_isa::asm::Asm;
use fg_isa::image::{Image, Linker};
use fg_isa::insn::regs::*;
use fg_isa::insn::{Cond, INSN_SIZE};
use fg_kernel::Kernel;

const CR3: u64 = 0x4000;
/// A second admitted CR3 for the multi-CR3 run.
const OTHER_CR3: u64 = 0x5000;

/// FNV-1a of no bytes.
const EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, so the pinned hashes do not depend on the standard library's
/// hasher.
fn fnv(bytes: &[u8]) -> u64 {
    fnv_extend(EMPTY, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`.
fn fnv_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `exec`, `trace`, `decode`, `check`, `other` as bit patterns.
fn account_bits(m: &Machine) -> [u64; 5] {
    let a = m.account;
    [a.exec, a.trace, a.decode, a.check, a.other].map(f64::to_bits)
}

/// Everything a traced run leaves behind that the rest of the system reads.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    stop: StopReason,
    insns: u64,
    cofis: u64,
    bytes_emitted: u64,
    trace_hash: u64,
    output_hash: u64,
    pmis: u64,
    pmi_pc_hash: u64,
    polls: u64,
    poll_pc_hash: u64,
    /// `exec`, `trace`, `decode`, `check`, `other` as bit patterns.
    account: [u64; 5],
}

/// The kernel, with the pc of every PMI and poll-slot callback recorded on
/// the way through.
struct CallbackLog<'a> {
    kernel: &'a mut Kernel,
    pmi_pcs: Vec<u8>,
    poll_pcs: Vec<u8>,
}

impl<'a> CallbackLog<'a> {
    fn new(kernel: &'a mut Kernel) -> CallbackLog<'a> {
        CallbackLog { kernel, pmi_pcs: Vec::new(), poll_pcs: Vec::new() }
    }
}

impl SyscallHandler for CallbackLog<'_> {
    fn syscall(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome {
        self.kernel.syscall(ctx)
    }

    fn pmi(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome {
        self.pmi_pcs.extend_from_slice(&ctx.cpu.pc.to_le_bytes());
        self.kernel.pmi(ctx)
    }

    fn trace_poll(&mut self, ctx: &mut SyscallCtx<'_>) {
        self.poll_pcs.extend_from_slice(&ctx.cpu.pc.to_le_bytes());
        self.kernel.trace_poll(ctx);
    }
}

/// The outcome of a finished run whose trace `unit` wrote.
fn outcome(m: &Machine, stop: StopReason, unit: &mut IptUnit, log: &CallbackLog<'_>) -> Outcome {
    unit.flush();
    Outcome {
        stop,
        insns: m.insns_retired,
        cofis: m.cofi_retired,
        bytes_emitted: unit.bytes_emitted(),
        trace_hash: fnv(&unit.trace_bytes()),
        output_hash: fnv(&log.kernel.output),
        pmis: log.pmi_pcs.len() as u64 / 8,
        pmi_pc_hash: fnv(&log.pmi_pcs),
        polls: log.poll_pcs.len() as u64 / 8,
        poll_pc_hash: fnv(&log.poll_pcs),
        account: account_bits(m),
    }
}

/// A traced unit with FlowGuard's IPT configuration over the smallest ToPA
/// (two 4 KiB regions), so a run wraps it and raises PMIs.
fn small_unit(image: &Image, cr3: u64) -> IptUnit {
    let mut unit = IptUnit::flowguard(cr3, Topa::two_regions(4096).expect("valid ToPA"));
    unit.start(image.entry(), cr3);
    unit
}

/// Runs `input` on `image` traced by [`small_unit`], after `setup` has
/// adjusted the machine.
fn traced_run_with(image: &Image, input: &[u8], setup: impl FnOnce(&mut Machine)) -> Outcome {
    let mut m = Machine::new(image, CR3);
    m.trace = TraceUnit::Ipt(small_unit(image, CR3));
    setup(&mut m);
    let mut kernel = Kernel::with_input(input);
    let mut log = CallbackLog::new(&mut kernel);
    let stop = m.run(&mut log, 20_000_000);
    let mut trace = std::mem::take(&mut m.trace);
    outcome(&m, stop, trace.as_ipt_mut().expect("ipt"), &log)
}

/// [`traced_run_with`] on an unadjusted machine.
fn traced_run(image: &Image, input: &[u8]) -> Outcome {
    traced_run_with(image, input, |_| {})
}

#[test]
fn traced_runs_match_golden_outcomes() {
    let patched = fg_workloads::nginx_patched();
    let nginx = fg_workloads::nginx();
    let img = &nginx.image;
    let g = fg_attacks::find_gadgets(img);
    use fg_attacks::payloads;
    let runs = [
        ("nginx_patched", traced_run(&patched.image, &patched.default_input)),
        ("nginx", traced_run(img, &nginx.default_input)),
        ("rop", traced_run(img, &payloads::rop_write(img, &g))),
        ("srop", traced_run(img, &payloads::srop_execve(img, &g))),
        ("ret-to-lib", traced_run(img, &payloads::ret_to_lib(img, &g))),
        ("history-flush", traced_run(img, &payloads::history_flush(img, &g, 12))),
        ("kbouncer-evasion", traced_run(img, &payloads::kbouncer_evasion(img, 12))),
    ];
    let unmapped = StopReason::Fault(MemFault::Unmapped { va: 0 });
    let golden = [
        Outcome {
            stop: StopReason::Exited(0),
            insns: 4_166_533,
            cofis: 1_393_528,
            bytes_emitted: 379_244,
            trace_hash: 0x1966_023c_dd29_c103,
            output_hash: 0xcba2_5712_697f_6af9,
            pmis: 46,
            pmi_pc_hash: 0xb1dd_3847_2953_5415,
            polls: 65_102,
            poll_pc_hash: 0x5eb7_4168_b296_0141,
            account: [0x414f_c9c2_8000_0000, 0x40f7_251c_0000_0000, 0, 0, 0],
        },
        Outcome {
            stop: StopReason::Exited(0),
            insns: 4_166_485,
            cofis: 1_393_504,
            bytes_emitted: 379_240,
            trace_hash: 0xb7bf_d1e9_9705_ee66,
            output_hash: 0xcba2_5712_697f_6af9,
            pmis: 46,
            pmi_pc_hash: 0x506b_c3fc_8054_921a,
            polls: 65_101,
            poll_pc_hash: 0x4516_2f63_d34f_4e7f,
            account: [0x414f_c9aa_8000_0000, 0x40f7_250c_0000_0000, 0, 0, 0],
        },
        Outcome {
            stop: StopReason::Exited(0),
            insns: 1331,
            cofis: 275,
            bytes_emitted: 125,
            trace_hash: 0x3999_8e0f_e7b0_bcf5,
            output_hash: 0x7129_adc5_6e36_6ad6,
            pmis: 0,
            pmi_pc_hash: EMPTY,
            polls: 20,
            poll_pc_hash: 0xa6dc_3a38_9229_d925,
            account: [0x4094_cc00_0000_0000, 0x4036_0000_0000_0000, 0, 0, 0],
        },
        Outcome {
            stop: unmapped,
            insns: 2033,
            cofis: 414,
            bytes_emitted: 133,
            trace_hash: 0xc542_c9f4_6886_d0b9,
            output_hash: EMPTY,
            pmis: 0,
            pmi_pc_hash: EMPTY,
            polls: 31,
            poll_pc_hash: 0x6399_ec02_b11d_0fb5,
            account: [0x409f_c400_0000_0000, 0x4038_0000_0000_0000, 0, 0, 0],
        },
        Outcome {
            stop: StopReason::Exited(0),
            insns: 1173,
            cofis: 242,
            bytes_emitted: 119,
            trace_hash: 0x808a_1e4e_3ad9_0664,
            output_hash: 0x830c_6295_7371_2b22,
            pmis: 0,
            pmi_pc_hash: EMPTY,
            polls: 18,
            poll_pc_hash: 0x4a14_cf4c_d3ec_3d65,
            account: [0x4092_5400_0000_0000, 0x4034_8000_0000_0000, 0, 0, 0],
        },
        Outcome {
            stop: unmapped,
            insns: 1432,
            cofis: 305,
            bytes_emitted: 177,
            trace_hash: 0xc3f7_ad21_3a1b_ae47,
            output_hash: 0xaf63_bc4c_8601_b62c,
            pmis: 0,
            pmi_pc_hash: EMPTY,
            polls: 22,
            poll_pc_hash: 0x6e55_d709_e16f_6ee5,
            account: [0x4096_6000_0000_0000, 0x4041_8000_0000_0000, 0, 0, 0],
        },
        Outcome {
            stop: unmapped,
            insns: 1713,
            cofis: 301,
            bytes_emitted: 160,
            trace_hash: 0x3e3e_05bf_acfd_4239,
            output_hash: 0xaf64_454c_8602_9ef7,
            pmis: 0,
            pmi_pc_hash: EMPTY,
            polls: 26,
            poll_pc_hash: 0x95ee_c1cb_c2e1_db87,
            account: [0x409a_c400_0000_0000, 0x403e_c000_0000_0000, 0, 0, 0],
        },
    ];
    for ((name, got), want) in runs.iter().zip(&golden) {
        assert_eq!(got, want, "{name}");
    }
}

/// What a run under a BTS or LBR unit leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct RecordRun {
    stop: StopReason,
    insns: u64,
    cofis: u64,
    records: usize,
    record_hash: u64,
    account: [u64; 5],
}

#[test]
fn bts_and_lbr_runs_match_golden_outcomes() {
    let nginx = fg_workloads::nginx();
    let units = [
        ("bts", TraceUnit::Bts(BtsUnit::new(4096))),
        ("lbr", TraceUnit::Lbr(LbrUnit::new(16, LbrFilter::indirect_only()))),
    ];
    let golden = [
        RecordRun {
            stop: StopReason::Exited(0),
            insns: 4_166_485,
            cofis: 1_393_504,
            records: 4096,
            record_hash: 0xe761_2573_35bc_6ce5,
            account: [0x414f_c9aa_8000_0000, 0x41b0_9ca3_0000_0000, 0, 0, 0],
        },
        RecordRun {
            stop: StopReason::Exited(0),
            insns: 4_166_485,
            cofis: 1_393_504,
            records: 16,
            record_hash: 0x61b9_0eec_fe8a_e0be,
            account: [0x414f_c9aa_8000_0000, 0, 0, 0, 0],
        },
    ];
    for ((name, unit), want) in units.into_iter().zip(&golden) {
        let mut m = Machine::new(&nginx.image, CR3);
        m.trace = unit;
        let stop = m.run(&mut Kernel::with_input(&nginx.default_input), 20_000_000);
        let records = match &m.trace {
            TraceUnit::Bts(u) => u.records(),
            TraceUnit::Lbr(u) => u.stack(),
            _ => unreachable!("a BTS or LBR unit"),
        };
        let bytes: Vec<u8> =
            records.iter().flat_map(|r| [r.from, r.to]).flat_map(u64::to_le_bytes).collect();
        let got = RecordRun {
            stop,
            insns: m.insns_retired,
            cofis: m.cofi_retired,
            records: records.len(),
            record_hash: fnv(&bytes),
            account: account_bits(&m),
        };
        assert_eq!(&got, want, "{name}");
    }
}

#[test]
fn coverage_and_branch_log_match_golden_outcome() {
    // The fuzzer's mode: no trace unit, coverage and the branch log on.
    let nginx = fg_workloads::nginx();
    let mut m = Machine::new(&nginx.image, CR3);
    m.enable_coverage().enable_branch_log();
    let stop = m.run(&mut Kernel::with_input(&nginx.default_input), 20_000_000);
    let coverage = m.coverage.as_ref().expect("coverage on");
    let log = m.branch_log.as_ref().expect("branch log on");
    let log_hash = log.iter().fold(EMPTY, |h, b| {
        let taken = match b.taken {
            None => 2,
            Some(t) => u8::from(t),
        };
        let h = fnv_extend(h, &b.from.to_le_bytes());
        let h = fnv_extend(h, &b.to.to_le_bytes());
        fnv_extend(h, &[b.kind as u8, taken])
    });
    let got = (
        stop,
        m.insns_retired,
        m.cofi_retired,
        fnv(coverage.raw()),
        coverage.edges_hit(),
        log.len(),
        log_hash,
        account_bits(&m),
    );
    let golden = (
        StopReason::Exited(0),
        4_166_485,
        1_393_504,
        0x8cb6_55ab_e9e0_25dc,
        49,
        1_393_503,
        0x4e9f_9385_94de_3696,
        [0x414f_c9aa_8000_0000, 0, 0, 0, 0],
    );
    assert_eq!(got, golden);
}

#[test]
fn multi_cr3_run_matches_golden_outcome() {
    let w = fg_workloads::nginx_patched();
    let mut m = Machine::new(&w.image, CR3);
    let mut multi = MultiIptUnit::new();
    for cr3 in [CR3, OTHER_CR3] {
        assert!(multi.admit(small_unit(&w.image, cr3)));
    }
    assert!(multi.set_current(CR3));
    m.trace = TraceUnit::MultiIpt(multi);
    let mut kernel = Kernel::with_input(&w.default_input);
    let mut log = CallbackLog::new(&mut kernel);
    // The running process is the selected one: its events take the
    // selected-CR3 path, and poll slots and PMIs read its buffer...
    assert_eq!(m.run(&mut log, 1_000_000), StopReason::InsnLimit);
    // ...then another admitted process is selected: the running process's
    // events take the routing search, while poll slots and PMIs read the
    // selected process's buffer.
    let multi = m.trace.as_multi_ipt_mut().expect("multi-CR3 unit");
    assert!(multi.set_current(OTHER_CR3));
    let stop = m.run(&mut log, 20_000_000);
    let mut trace = std::mem::take(&mut m.trace);
    let multi = trace.as_multi_ipt_mut().expect("multi-CR3 unit");
    let other = multi.unit_mut(OTHER_CR3).expect("admitted");
    other.flush();
    let other = (other.bytes_emitted(), fnv(&other.trace_bytes()));
    let got = outcome(&m, stop, multi.unit_mut(CR3).expect("admitted"), &log);
    // The selected-CR3 process's buffer is what a solo run writes; the
    // other buffer holds only its start-up PSB+.
    let golden = Outcome {
        stop: StopReason::Exited(0),
        insns: 4_166_533,
        cofis: 1_393_528,
        bytes_emitted: 379_244,
        trace_hash: 0x1966_023c_dd29_c103,
        output_hash: 0xcba2_5712_697f_6af9,
        pmis: 11,
        pmi_pc_hash: 0xe163_f14f_c7f0_6d12,
        polls: 65_102,
        poll_pc_hash: 0x5eb7_4168_b296_0141,
        account: [0x414f_c9c2_8000_0000, 0x40f7_251c_0000_0000, 0, 0, 0],
    };
    assert_eq!(got, golden);
    assert_eq!(other, (37, 0x4105_c151_a81b_a1b3));
}

#[test]
fn non_integral_costs_match_golden_account() {
    // Costs whose sums round: a batched charge that is exact only for
    // integral constants would move these bits.
    let w = fg_workloads::nginx_patched();
    let got = traced_run_with(&w.image, &w.default_input, |m| {
        m.cost.insn_cycles = 0.1;
        m.cost.ipt_byte_cycles = 0.3;
    });
    assert_eq!(got.account, [0x4119_6e35_332c_97d0, 0x40fb_c621_9999_fb68, 0, 0, 0]);
    assert_eq!((got.insns, got.bytes_emitted, got.pmis), (4_166_533, 379_244, 46));
}

/// A handler whose poll slots flush the TNT shift register (so a poll slot,
/// not a branch, can be the write that raises a PMI) and whose PMI handler
/// acknowledges only every third delivery (so a PMI stays pending across
/// instructions). It records the resume pc and r5 of every delivery.
#[derive(Default)]
struct FlushingPolls {
    /// `(pc, r5)` at each delivery.
    pmis: Vec<(u64, u64)>,
}

impl SyscallHandler for FlushingPolls {
    fn syscall(&mut self, _ctx: &mut SyscallCtx<'_>) -> SysOutcome {
        SysOutcome::Exit(0)
    }

    fn pmi(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome {
        self.pmis.push((ctx.cpu.pc, ctx.cpu.regs[5]));
        if self.pmis.len().is_multiple_of(3) {
            ctx.trace.as_ipt_mut().expect("ipt").topa_mut().take_pmi();
        }
        SysOutcome::Continue
    }

    fn trace_poll(&mut self, ctx: &mut SyscallCtx<'_>) {
        ctx.trace.as_ipt_mut().expect("ipt").flush();
    }
}

/// Iterations of the PMI-timing loop, and its body length in instructions
/// (one poll period, so every poll slot lands on the same body offset).
const LOOPS: u64 = 8_000;
const BODY: u64 = 64;

#[test]
fn pmis_arrive_at_golden_instruction_counts() {
    // r5 counts iterations started. Each iteration writes three packets:
    // the indirect jump's TNT flush and TIP, then a poll slot's flush of
    // the four never-taken branches after it, so both branches and poll
    // slots raise PMIs. The two-instruction prologue puts every poll slot
    // just before a `cmpi`, so a PMI raised there is due after an
    // instruction that is not a branch.
    let mut a = Asm::new("app");
    a.export("main");
    a.label("main");
    a.movi(R5, 0);
    a.nop();
    a.label("loop");
    a.addi(R5, 1);
    a.lea(R1, "next");
    a.jmpi(R1);
    a.label("next");
    for _ in 0..4 {
        a.cmpi(R0, 1);
        a.jcc(Cond::Eq, "end");
    }
    for _ in 0..51 {
        a.nop();
    }
    a.cmpi(R5, LOOPS as i32);
    a.jcc(Cond::Lt, "loop");
    a.label("end");
    a.halt();
    let image = Linker::new(a.finish().expect("assembles")).link().expect("links");
    let body = image.symbol("main").expect("main") + 2 * INSN_SIZE;

    let mut m = Machine::new(&image, CR3);
    let mut unit = IptUnit::flowguard(CR3, Topa::two_regions(4096).expect("valid ToPA"));
    unit.start(image.entry(), CR3);
    m.trace = TraceUnit::Ipt(unit);
    let mut h = FlushingPolls::default();
    assert_eq!(m.run(&mut h, 1_000_000), StopReason::Halted);
    assert_eq!(m.insns_retired, 3 + LOOPS * BODY);
    // A delivery's resume pc and r5 name the retired-instruction count:
    // `p` instructions into iteration `r5`, or `r5` whole iterations done
    // when back at the top of the loop.
    let counts: Vec<u64> = h
        .pmis
        .iter()
        .map(|&(pc, r5)| match (pc - body) / INSN_SIZE {
            0 => 2 + r5 * BODY,
            p => 2 + (r5 - 1) * BODY + p,
        })
        .collect();
    // Three deliveries per PMI, one instruction apart. 342,401 is the PMI a
    // poll slot raised (poll at 342,400, delivered after the `cmpi`); the
    // others were raised by the TIP at body offset 3.
    let golden = [
        48_645, 48_646, 48_647, 146_373, 146_374, 146_375, 244_165, 244_166, 244_167, 342_401,
        342_402, 342_403, 440_133, 440_134, 440_135,
    ];
    assert_eq!(counts, golden);
}
