//! The address space against a flat model: random sequences of loads,
//! stores, bulk copies and fetches aimed at the places where zero pages on
//! first touch can go wrong — both logical ends of the stack, the heap and
//! an anonymous mapping, the page boundaries a materialised window starts
//! and ends on, accesses straddling them, writes to read-only segments and
//! fetches from data. Every value and every `MemFault` must equal the
//! model's, in which each segment is one fully zeroed buffer, and no read
//! may materialise a byte.

use fg_cpu::mem::{HEAP_BASE, HEAP_SIZE, STACK_SIZE, STACK_TOP};
use fg_cpu::{AddressSpace, MemFault};
use fg_isa::asm::Asm;
use fg_isa::image::{Image, Linker};
use proptest::prelude::*;

/// An anonymous mapping whose ends are not page-aligned, so the window is
/// clamped inside a page at both ends.
const ANON: u64 = 0x5000_0100;
const ANON_LEN: u64 = 0x2_0800;
const PAGE: u64 = 0x1000;

/// One segment of the model: every byte of its extent, materialised.
struct Flat {
    va: u64,
    bytes: Vec<u8>,
    writable: bool,
    executable: bool,
}

/// The model address space.
struct Model {
    segs: Vec<Flat>,
}

impl Model {
    fn new(image: &Image) -> Model {
        let mut segs: Vec<Flat> = image
            .segments()
            .iter()
            .map(|s| Flat {
                va: s.va,
                bytes: s.bytes.to_vec(),
                writable: s.writable,
                executable: !s.writable,
            })
            .collect();
        for (va, len) in
            [(STACK_TOP - STACK_SIZE, STACK_SIZE), (HEAP_BASE, HEAP_SIZE), (ANON, ANON_LEN)]
        {
            segs.push(Flat { va, bytes: vec![0; len as usize], writable: true, executable: false });
        }
        Model { segs }
    }

    /// The segment holding `va` and `va`'s offset in it.
    fn find(&mut self, va: u64) -> Result<(&mut Flat, usize), MemFault> {
        self.segs
            .iter_mut()
            .find(|s| va >= s.va && va - s.va < s.bytes.len() as u64)
            .map(|s| {
                let off = (va - s.va) as usize;
                (s, off)
            })
            .ok_or(MemFault::Unmapped { va })
    }

    /// The `len` bytes from `va`, all in one segment.
    fn read(&mut self, va: u64, len: usize) -> Result<Vec<u8>, MemFault> {
        let (s, off) = self.find(va)?;
        s.bytes
            .get(off..)
            .and_then(|b| b.get(..len))
            .map(<[u8]>::to_vec)
            .ok_or(MemFault::Unmapped { va })
    }

    fn write(&mut self, va: u64, data: &[u8]) -> Result<(), MemFault> {
        let (s, off) = self.find(va)?;
        if !s.writable {
            return Err(MemFault::ReadOnly { va });
        }
        let dst = s.bytes.get_mut(off..).and_then(|b| b.get_mut(..data.len()));
        dst.ok_or(MemFault::Unmapped { va })?.copy_from_slice(data);
        Ok(())
    }

    fn fetch(&mut self, pc: u64) -> Result<[u8; 8], MemFault> {
        let (s, _) = self.find(pc)?;
        if !s.executable {
            return Err(MemFault::NotExecutable { va: pc });
        }
        let word = self.read(pc, 8)?;
        Ok(word.try_into().expect("8 bytes"))
    }
}

fn image() -> Image {
    let mut a = Asm::new("app");
    a.export("main");
    a.label("main");
    a.nop();
    a.halt();
    a.data_bytes("buf", &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]);
    Linker::new(a.finish().expect("assembles")).link().expect("links")
}

/// The addresses accesses aim at, before a small offset is added: every
/// segment's two ends, and the page boundaries of the stack below its
/// initial stack pointer, of the low end of the heap and of the whole
/// anonymous mapping — where windows start, stop and grow to.
fn anchors(image: &Image) -> Vec<u64> {
    let mut at: Vec<u64> =
        image.segments().iter().flat_map(|s| [s.va, s.va + s.bytes.len() as u64]).collect();
    at.extend([STACK_TOP - STACK_SIZE, STACK_TOP, HEAP_BASE + HEAP_SIZE, ANON + ANON_LEN]);
    at.extend((0..40).map(|k| STACK_TOP - k * PAGE));
    at.extend((0..40).map(|k| HEAP_BASE + k * PAGE));
    at.extend((0..=ANON_LEN / PAGE + 1).map(|k| (ANON & !(PAGE - 1)) + k * PAGE));
    at
}

/// One operation, decoded from a generated tuple: its kind, the anchor
/// and signed offset of its address, a length selector and a value.
fn apply(
    space: &mut AddressSpace,
    model: &mut Model,
    anchors: &[u64],
    (kind, anchor, offset, value): (u8, usize, i64, u64),
) -> Result<(), String> {
    let va = anchors[anchor % anchors.len()].wrapping_add_signed(offset);
    // Mostly short accesses; one in four crosses a page or more.
    let len =
        if value % 4 == 0 { (value >> 8) as usize % 9000 } else { (value >> 8) as usize % 40 };
    let data: Vec<u8> = (0..len).map(|i| (value >> (i % 8 * 8)) as u8 | 1).collect();
    let before = space.materialised_bytes();
    let what = format!("op {kind} at {va:#x}, len {len}");
    match kind {
        0 => {
            let want = model.read(va, 1).map(|b| b[0]);
            prop_assert_eq!(space.read_u8(va), want, "{}", what);
        }
        1 => {
            let want = model.read(va, 8).map(|b| u64::from_le_bytes(b.try_into().expect("8")));
            prop_assert_eq!(space.read_u64(va), want, "{}", what);
        }
        2 => {
            prop_assert_eq!(space.read_bytes(va, len), model.read(va, len), "{}", what);
        }
        3 => {
            prop_assert_eq!(
                space.write_u8(va, value as u8),
                model.write(va, &[value as u8]),
                "{}",
                what
            );
        }
        4 => {
            let bytes = value.to_le_bytes();
            prop_assert_eq!(space.write_u64(va, value), model.write(va, &bytes), "{}", what);
        }
        5 => {
            prop_assert_eq!(space.write_bytes(va, &data), model.write(va, &data), "{}", what);
        }
        _ => {
            prop_assert_eq!(space.fetch(va), model.fetch(va), "{}", what);
        }
    }
    if matches!(kind, 0..=2 | 6) {
        prop_assert_eq!(space.materialised_bytes(), before, "{} materialised bytes", what);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn lazy_segments_match_a_flat_model(
        ops in proptest::collection::vec((0u8..7, any::<usize>(), -24i64..24, any::<u64>()), 1..240),
    ) {
        let image = image();
        let mut space = AddressSpace::from_image(&image);
        space.map_anon(ANON, ANON_LEN as usize).expect("free range");
        let mut model = Model::new(&image);
        let anchors = anchors(&image);
        for op in ops {
            apply(&mut space, &mut model, &anchors, op)?;
        }
        // Finally every byte and word near every anchor, so that every
        // window edge the writes left on an anchor is read across.
        for &a in &anchors {
            for va in a.saturating_sub(16)..a.saturating_add(16) {
                prop_assert_eq!(space.read_u8(va), model.read(va, 1).map(|b| b[0]), "byte {:#x}", va);
                let word = model.read(va, 8).map(|b| u64::from_le_bytes(b.try_into().expect("8")));
                prop_assert_eq!(space.read_u64(va), word, "word {:#x}", va);
            }
        }
        prop_assert_eq!(space.mapped_bytes(), model.segs.iter().map(|s| s.bytes.len()).sum::<usize>());
    }
}
