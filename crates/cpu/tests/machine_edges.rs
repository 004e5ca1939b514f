//! Machine edge cases: undecodable instructions, handler-accounted cycles,
//! cost-model serialisation, trace-unit swapping.

use fg_cpu::machine::{Machine, NullKernel, StopReason, SysOutcome, SyscallCtx, SyscallHandler};
use fg_cpu::{CostModel, CycleAccount};
use fg_isa::asm::Asm;
use fg_isa::image::{Image, Linker};
use fg_isa::insn::regs::*;

fn build(f: impl FnOnce(&mut Asm)) -> Image {
    let mut a = Asm::new("app");
    a.export("main");
    a.label("main");
    f(&mut a);
    Linker::new(a.finish().unwrap()).link().unwrap()
}

#[test]
fn jumping_into_the_got_is_a_dep_fault() {
    // The GOT is mapped but not executable: DEP faults the fetch.
    let mut lib = Asm::new("l");
    lib.export("f");
    lib.label("f");
    lib.ret();
    let img = {
        let mut a = Asm::new("app");
        a.import("f").needs("l");
        a.export("main");
        a.label("main");
        a.call("f");
        a.halt();
        Linker::new(a.finish().unwrap()).library(lib.finish().unwrap()).link().unwrap()
    };
    let got = img.executable().got_start;
    let mut m = Machine::new(&img, 0x1000);
    m.cpu.pc = got;
    let stop = m.run(&mut NullKernel, 10);
    assert!(stop.is_crash(), "{stop:?}");
    let _ = R1; // register constants imported for other tests
}

#[test]
fn handler_extra_cycles_are_absorbed() {
    struct Expensive;
    impl SyscallHandler for Expensive {
        fn syscall(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome {
            ctx.extra_cycles.other += 1234.0;
            ctx.extra_cycles.decode += 56.0;
            SysOutcome::Exit(0)
        }
    }
    let img = build(|a| {
        a.syscall();
        a.halt();
    });
    let mut m = Machine::new(&img, 0x1000);
    assert_eq!(m.run(&mut Expensive, 10), StopReason::Exited(0));
    assert_eq!(m.account.other, 1234.0);
    assert_eq!(m.account.decode, 56.0);
}

#[test]
fn cost_model_json_roundtrip() {
    let c = CostModel::calibrated();
    let json = serde_json::to_string(&c).expect("serialise");
    let back: CostModel = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(back, c);
}

#[test]
fn account_serialises() {
    let a = CycleAccount { exec: 1.0, trace: 2.0, decode: 3.0, check: 4.0, other: 5.0 };
    let json = serde_json::to_string(&a).expect("serialise");
    let back: CycleAccount = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(back, a);
    assert_eq!(back.total(), 15.0);
}

#[test]
fn sigreturn_style_pc_rewrite_reflected_in_pge() {
    // A handler that redirects pc; the machine must emit TIP.PGE at the
    // *new* pc and keep running there.
    struct Redirect(u64);
    impl SyscallHandler for Redirect {
        fn syscall(&mut self, ctx: &mut SyscallCtx<'_>) -> SysOutcome {
            ctx.cpu.pc = self.0;
            SysOutcome::Continue
        }
    }
    let img = build(|a| {
        a.syscall(); // 0
        a.halt(); // 8  (skipped by the redirect)
        a.label("landing"); // 16
        a.movi(R9, 0x77);
        a.halt();
    });
    let landing = img.entry() + 16;
    let mut m = Machine::new(&img, 0x1000);
    let mut unit = fg_cpu::IptUnit::flowguard(0x1000, fg_ipt::Topa::two_regions(4096).unwrap());
    unit.start(img.entry(), 0x1000);
    m.trace = fg_cpu::TraceUnit::Ipt(unit);
    assert_eq!(m.run(&mut Redirect(landing), 100), StopReason::Halted);
    assert_eq!(m.cpu.regs[9], 0x77);
    m.trace.as_ipt_mut().unwrap().flush();
    let bytes = m.trace.as_ipt().unwrap().trace_bytes();
    let packets: Vec<fg_ipt::Packet> =
        fg_ipt::decode::decode_all(&bytes).unwrap().into_iter().map(|p| p.packet).collect();
    assert!(
        packets.contains(&fg_ipt::Packet::TipPge { ip: landing }),
        "PGE must carry the redirected pc: {packets:?}"
    );
}
