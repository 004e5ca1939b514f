//! The predecoded instruction fetch against its oracle: at every address of
//! every mapped segment, and around each, `AddressSpace::fetch_insn`
//! returns exactly what `fetch` followed by `Insn::decode` returns — the
//! same instruction, the same decode error, or the same `MemFault` variant
//! and address. A machine reaching an undecodable word stops on it.

use fg_cpu::mem::{HEAP_BASE, HEAP_SIZE, STACK_SIZE, STACK_TOP};
use fg_cpu::{AddressSpace, Machine, NullKernel, StopReason};
use fg_isa::asm::Asm;
use fg_isa::image::{Image, Linker};
use fg_isa::insn::Insn;

const ANON: u64 = 0x5000_0000;
const ANON_LEN: u64 = 0x2000;

fn assert_same(space: &AddressSpace, pc: u64) {
    let want = space.fetch(pc).map(|bytes| Insn::decode(bytes, pc));
    assert_eq!(space.fetch_insn(pc), want, "pc {pc:#x}");
}

/// Every mapped range of `image`'s address space, plus one anonymous
/// mapping.
fn space_and_ranges(image: &Image) -> (AddressSpace, Vec<(u64, u64)>) {
    let mut space = AddressSpace::from_image(image);
    space.map_anon(ANON, ANON_LEN as usize).expect("free range");
    let mut ranges: Vec<(u64, u64)> =
        image.segments().iter().map(|s| (s.va, s.va + s.bytes.len() as u64)).collect();
    ranges.extend([
        (STACK_TOP - STACK_SIZE, STACK_TOP),
        (HEAP_BASE, HEAP_BASE + HEAP_SIZE),
        (ANON, ANON + ANON_LEN),
    ]);
    (space, ranges)
}

/// Checks every byte address of every range and the 16 addresses on either
/// side (all 8 offsets within a word, each segment's last 7 bytes, and the
/// unmapped or neighbouring addresses past its ends), then the same
/// addresses hopping between ranges so no lookup hint is ever warm.
fn check_all(image: &Image) {
    let (space, ranges) = space_and_ranges(image);
    for &(start, end) in &ranges {
        for pc in start - 16..end + 16 {
            assert_same(&space, pc);
        }
    }
    for i in 0..64 {
        for &(start, end) in ranges.iter().rev() {
            assert_same(&space, start + i);
            assert_same(&space, end - 1 - i);
        }
    }
    for pc in [0, 8, u64::MAX - 7, u64::MAX] {
        assert_same(&space, pc);
    }
}

#[test]
fn predecoded_fetch_matches_fetch_then_decode() {
    check_all(&fg_workloads::nginx().image);
}

/// `n` nops, then `halt; nop; halt` with the first `halt` damaged into an
/// undecodable word (opcode 0xff). Linked code always decodes, so the
/// damage is done to the serialised image.
fn image_with_bad_word(n: usize) -> Image {
    let mut a = Asm::new("app");
    a.export("main");
    a.label("main");
    for _ in 0..n {
        a.nop();
    }
    a.halt();
    a.nop();
    a.halt();
    let image = Linker::new(a.finish().expect("assembles")).link().expect("links");
    let text = serde_json::to_string(&image).expect("serialises");
    let nops = "0,".repeat(8 * n);
    let damaged = text.replacen(
        &format!("\"bytes\":[{nops}1,0,0,0,0,0,0,0,"),
        &format!("\"bytes\":[{nops}255,0,0,0,0,0,0,0,"),
        1,
    );
    assert_ne!(damaged, text, "the code starts with {n} nops and a `halt`");
    serde_json::from_str(&damaged).expect("deserialises")
}

#[test]
fn undecodable_code_words_fall_back_to_decode_errors() {
    let image = image_with_bad_word(0);
    let main = image.entry();
    let (space, _) = space_and_ranges(&image);
    assert!(matches!(space.fetch_insn(main), Ok(Err(e)) if e.opcode == 0xff));
    assert_eq!(space.fetch_insn(main + 8), Ok(Ok(Insn::Nop)));
    check_all(&image);
}

#[test]
fn run_stops_at_an_undecodable_word() {
    // `nop; nop; <0xff word>`: the two nops retire and are charged, then
    // the run stops on the damaged word, in one call or one instruction
    // per call.
    let image = image_with_bad_word(2);
    let main = image.entry();
    let bad = StopReason::BadInsn { pc: main + 16 };
    let mut whole = Machine::new(&image, 0x1000);
    assert_eq!(whole.run(&mut NullKernel, 100), bad);
    let mut split = Machine::new(&image, 0x1000);
    let stops: Vec<StopReason> = (0..4).map(|_| split.run(&mut NullKernel, 1)).collect();
    assert_eq!(stops, [StopReason::InsnLimit, StopReason::InsnLimit, bad, bad]);
    for m in [&whole, &split] {
        assert_eq!(m.insns_retired, 2);
        assert_eq!(m.account.exec.to_bits(), 2.0f64.to_bits());
        assert_eq!(m.cpu.pc, main + 16);
    }
}
