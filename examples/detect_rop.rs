//! The paper's §7.1.2 headline demonstration: a real ROP exploit against
//! the vulnerable nginx-alike works unprotected and is killed by FlowGuard
//! at the `write` endpoint; the SROP variant is killed at `sigreturn`.
//!
//! Run with: `cargo run --release --example detect_rop`

use fg_attacks::{
    find_gadgets, rop_write, run_protected, run_unprotected, srop_execve, trained_vulnerable_nginx,
};
use flowguard::FlowGuardConfig;

fn main() {
    println!("building the vulnerable server and training FlowGuard on benign traffic...");
    let (workload, deployment) = trained_vulnerable_nginx();
    let gadgets = find_gadgets(&workload.image);
    println!(
        "gadget scan: {} pop-gadgets, {} bare rets, syscall trampoline at {:#x}",
        gadgets.pop.len(),
        gadgets.rets.len(),
        gadgets.syscall()
    );

    // --- traditional ROP -----------------------------------------------
    let rop = rop_write(&workload.image, &gadgets);
    let free = run_unprotected(&workload.image, &rop);
    println!("\nROP without protection: {:?}", free.stop);
    println!("  attacker output: {:?}", String::from_utf8_lossy(&free.output));
    assert!(free.attack_succeeded(b"HACKED!"), "the exploit genuinely works");

    let guarded = run_protected(&deployment, &rop, FlowGuardConfig::default());
    println!("ROP under FlowGuard: {:?}", guarded.stop);
    println!("  detected = {}, endpoint = {:?}", guarded.detected, guarded.endpoints);
    assert!(guarded.detected && guarded.endpoints.iter().any(|e| e == "write"));

    // --- SROP ------------------------------------------------------------
    let srop = srop_execve(&workload.image, &gadgets);
    let free = run_unprotected(&workload.image, &srop);
    println!("\nSROP without protection: {:?}; execve log = {:?}", free.stop, free.execve);
    assert!(free.execve.iter().any(|p| p == "/bin/sh"), "the forged frame reaches execve");

    let guarded = run_protected(&deployment, &srop, FlowGuardConfig::default());
    println!("SROP under FlowGuard: {:?}", guarded.stop);
    println!("  detected = {}, endpoint = {:?}", guarded.detected, guarded.endpoints);
    assert!(guarded.detected && guarded.endpoints.iter().any(|e| e == "sigreturn"));

    println!("\nboth attacks prevented, exactly as in the paper (§7.1.2).");
}
