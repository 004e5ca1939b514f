//! The predecoded instruction fetch against its oracle: at every address of
//! every mapped segment, and around each, `AddressSpace::fetch_insn`
//! returns exactly what `fetch` followed by `Insn::decode` returns — the
//! same instruction, the same decode error, or the same `MemFault` variant
//! and address.

use fg_cpu::mem::{HEAP_BASE, HEAP_SIZE, STACK_SIZE, STACK_TOP};
use fg_cpu::AddressSpace;
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

#[test]
fn undecodable_code_words_fall_back_to_decode_errors() {
    // Linked code always decodes, so damage the image: the first word's
    // opcode becomes 0xff, an invalid encoding.
    let mut a = Asm::new("app");
    a.export("main");
    a.label("main");
    a.halt();
    a.nop();
    a.halt();
    let image = Linker::new(a.finish().expect("assembles")).link().expect("links");
    let text = serde_json::to_string(&image).expect("serialises");
    let damaged = text.replacen("\"bytes\":[1,0,0,0,0,0,0,0,", "\"bytes\":[255,0,0,0,0,0,0,0,", 1);
    assert_ne!(damaged, text, "the first code word is `halt`");
    let image: Image = serde_json::from_str(&damaged).expect("deserialises");
    let main = image.entry();
    let (space, _) = space_and_ranges(&image);
    assert!(matches!(space.fetch_insn(main), Ok(Err(e)) if e.opcode == 0xff));
    assert_eq!(space.fetch_insn(main + 8), Ok(Ok(Insn::Nop)));
    check_all(&image);
}
