//! Guest arithmetic at the edges of the 64-bit range neither panics the
//! host nor misorders: a compare orders operands whose difference
//! overflows, and stack-pointer arithmetic wraps into an ordinary fault.

use fg_cpu::{Machine, MemFault, NullKernel, StopReason};
use fg_isa::asm::Asm;
use fg_isa::image::{Image, Linker};
use fg_isa::insn::regs::*;
use fg_isa::insn::{Cond, Reg};
use std::cmp::Ordering;

fn build(f: impl FnOnce(&mut Asm)) -> Image {
    let mut a = Asm::new("app");
    a.export("main");
    a.label("main");
    f(&mut a);
    Linker::new(a.finish().expect("assembles")).link().expect("links")
}

/// Whether `cc` holds for an ordering, as a signed compare decides it.
fn holds(cc: Cond, ord: Ordering) -> bool {
    match cc {
        Cond::Eq => ord.is_eq(),
        Cond::Ne => ord.is_ne(),
        Cond::Lt => ord.is_lt(),
        Cond::Le => ord.is_le(),
        Cond::Gt => ord.is_gt(),
        Cond::Ge => ord.is_ge(),
    }
}

/// Runs `compare` then `jcc cc`, with `r1 = a` and `r2 = b`, and returns
/// whether the branch was taken.
fn taken(compare: impl FnOnce(&mut Asm), cc: Cond, a: i64, b: i64) -> bool {
    let image = build(|asm| {
        compare(asm);
        asm.jcc(cc, "yes");
        asm.movi(R5, 0);
        asm.halt();
        asm.label("yes");
        asm.movi(R5, 1);
        asm.halt();
    });
    let mut m = Machine::new(&image, 0x1000);
    m.cpu.set_reg(R1, a as u64);
    m.cpu.set_reg(R2, b as u64);
    assert_eq!(m.run(&mut NullKernel, 100), StopReason::Halted);
    m.cpu.reg(R5) == 1
}

const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge];

#[test]
fn compares_order_operands_whose_difference_overflows() {
    let pairs = [
        (i64::MIN, 1),
        (i64::MAX, -1),
        (i64::MIN, i64::MAX),
        (i64::MAX, i64::MIN),
        (i64::MIN, i64::MIN),
        (-1, 0),
        (7, 7),
    ];
    for (a, b) in pairs {
        for cc in CONDS {
            let want = holds(cc, a.cmp(&b));
            let got = taken(|asm| _ = asm.cmp(R1, R2), cc, a, b);
            assert_eq!(got, want, "cmp {a}, {b}; j{cc:?}");
        }
    }
    for (a, imm) in [(i64::MIN, 1), (i64::MAX, -1), (i64::MIN, i32::MAX), (i64::MAX, i32::MIN)] {
        for cc in CONDS {
            let want = holds(cc, a.cmp(&i64::from(imm)));
            let got = taken(|asm| _ = asm.cmpi(R1, imm), cc, a, 0);
            assert_eq!(got, want, "cmpi {a}, {imm}; j{cc:?}");
        }
    }
}

#[test]
fn stack_pointer_wraps_into_a_fault() {
    // With sp = 0, each push-like instruction's store lands at 2^64 - 8,
    // which no segment maps: the instruction retires and faults there.
    let pushes: [fn(&mut Asm); 3] = [
        |a| _ = a.push(R1),
        |a| _ = a.call("main"),
        |a| {
            a.lea(R1, "main");
            a.calli(R1);
        },
    ];
    for (i, push) in pushes.into_iter().enumerate() {
        let image = build(push);
        let mut m = Machine::new(&image, 0x1000);
        m.cpu.set_reg(Reg::SP, 0);
        let stop = m.run(&mut NullKernel, 100);
        assert_eq!(stop, StopReason::Fault(MemFault::Unmapped { va: u64::MAX - 7 }), "case {i}");
        assert_eq!(m.cpu.reg(Reg::SP), 0, "case {i}: sp is written only after the store");
    }
}
