//! Behavioural checks on the synthetic workloads: they must not just link,
//! they must do their job.

use fg_cpu::{Machine, NullKernel, StopReason};
use fg_kernel::Kernel;

#[test]
fn tar_archives_its_input() {
    let w = fg_workloads::tar();
    let mut m = Machine::new(&w.image, 0x1000);
    let mut k = Kernel::with_input(&w.default_input);
    assert_eq!(m.run(&mut k, 100_000_000), StopReason::Exited(0));
    // Every input block is written back out.
    assert_eq!(k.output.len(), w.default_input.len());
}

#[test]
fn dd_copies_exactly() {
    let w = fg_workloads::dd();
    let mut m = Machine::new(&w.image, 0x1000);
    let mut k = Kernel::with_input(&w.default_input);
    assert_eq!(m.run(&mut k, 100_000_000), StopReason::Exited(0));
    assert_eq!(k.output, w.default_input, "dd must be a faithful copy");
}

#[test]
fn server_echo_handler_echoes() {
    let w = fg_workloads::nginx_patched();
    let payload = b"echo-me-please";
    let input = fg_workloads::request(1, payload); // handler 1 echoes
    let mut m = Machine::new(&w.image, 0x1000);
    let mut k = Kernel::with_input(&input);
    assert_eq!(m.run(&mut k, 100_000_000), StopReason::Exited(0));
    assert!(
        k.output.windows(payload.len()).any(|w| w == payload),
        "GET handler must echo the payload, got {:?}",
        String::from_utf8_lossy(&k.output)
    );
}

#[test]
fn server_banner_handler_writes_banner() {
    let w = fg_workloads::vsftpd();
    let input = fg_workloads::request(0, b"x");
    let mut m = Machine::new(&w.image, 0x1000);
    let mut k = Kernel::with_input(&input);
    assert_eq!(m.run(&mut k, 100_000_000), StopReason::Exited(0));
    assert!(k.output.starts_with(b"HTTP/1.1"));
}

#[test]
fn servers_materialise_only_the_memory_they_touch() {
    // The stack and the heap are materialised on first write: 64 requests
    // leave at most 64 KiB of them, of the 5 MiB they map.
    let input = fg_workloads::load_input(64, 7);
    for w in [fg_workloads::nginx(), fg_workloads::vsftpd(), fg_workloads::openssh()] {
        let mut m = Machine::new(&w.image, 0x1000);
        let image_bytes = m.mem.materialised_bytes();
        let mut k = Kernel::with_input(&input);
        assert_eq!(m.run(&mut k, 1_000_000_000), StopReason::Exited(0), "{}", w.name);
        let touched = m.mem.materialised_bytes() - image_bytes;
        assert!(touched <= 64 << 10, "{}: {touched} bytes materialised", w.name);
    }
}

#[test]
fn vulnerable_and_patched_differ_only_under_overflow() {
    let benign = fg_workloads::request(1, &[b'a'; 20]);
    for (w, name) in [(fg_workloads::nginx(), "vuln"), (fg_workloads::nginx_patched(), "patched")] {
        let mut m = Machine::new(&w.image, 0x1000);
        let mut k = Kernel::with_input(&benign);
        assert_eq!(m.run(&mut k, 100_000_000), StopReason::Exited(0), "{name} benign");
    }
    // Oversized payload: patched survives, vulnerable crashes (garbage ret).
    let smash = fg_workloads::request(1, &[0u8; 120]);
    let w = fg_workloads::nginx_patched();
    let mut m = Machine::new(&w.image, 0x1000);
    let mut k = Kernel::with_input(&smash);
    assert_eq!(m.run(&mut k, 100_000_000), StopReason::Exited(0), "patched survives");
    let w = fg_workloads::nginx();
    let mut m = Machine::new(&w.image, 0x1000);
    let mut k = Kernel::with_input(&smash);
    let stop = m.run(&mut k, 100_000_000);
    assert!(stop.is_crash(), "all-zero overflow must crash the vulnerable parser: {stop:?}");
}

#[test]
fn spec_profiles_are_deterministic() {
    let a = fg_workloads::spec_by_name("sjeng").unwrap();
    let b = fg_workloads::spec_by_name("sjeng").unwrap();
    let run = |w: &fg_workloads::Workload| {
        let mut m = Machine::new(&w.image, 0x1000);
        let mut k = Kernel::with_input(&w.default_input);
        let stop = m.run(&mut k, 200_000_000);
        (stop, m.insns_retired, m.cofi_retired)
    };
    assert_eq!(run(&a), run(&b));
}

#[test]
fn make_runs_all_rules_through_the_table() {
    let w = fg_workloads::make();
    let mut m = Machine::new(&w.image, 0x1000);
    m.enable_branch_log();
    let mut k = Kernel::new();
    assert_eq!(m.run(&mut k, 100_000_000), StopReason::Exited(0));
    let ind_calls = m
        .branch_log
        .as_ref()
        .unwrap()
        .iter()
        .filter(|b| b.kind == fg_isa::insn::CofiKind::IndCall)
        .count();
    assert_eq!(ind_calls, 12, "6 rules × 2 passes dispatched indirectly");
    assert_eq!(k.output, b"made\nmade\n");
    let _ = NullKernel; // silence unused-import style drift
}
