//! Attack execution harness: runs a payload against the vulnerable server
//! with and without FlowGuard, and reports what happened.

use fg_cpu::machine::{Machine, StopReason};
use fg_cpu::trace::{BtsUnit, LbrFilter, LbrUnit, TraceUnit};
use fg_isa::image::Image;
use fg_kernel::Kernel;
use flowguard::{CfimonLike, Deployment, FlowGuardConfig, KBouncerLike};
use std::sync::Arc;

/// What an attack run produced.
#[derive(Debug, Clone)]
pub struct AttackResult {
    /// How the process stopped.
    pub stop: StopReason,
    /// Whether FlowGuard reported a violation (always `false` unprotected).
    pub detected: bool,
    /// The endpoints at which violations were reported.
    pub endpoints: Vec<String>,
    /// Bytes the process wrote (attack-goal evidence).
    pub output: Vec<u8>,
    /// `execve` paths the process requested (SROP goal evidence).
    pub execve: Vec<String>,
}

impl AttackResult {
    /// Whether the attacker's goal (writing data / spawning a shell) was
    /// reached.
    pub fn attack_succeeded(&self, marker: &[u8]) -> bool {
        self.output.windows(marker.len().max(1)).any(|w| w == marker)
            || self.execve.iter().any(|p| p == "/bin/sh")
    }
}

/// Runs `input` against the image with **no protection**.
pub fn run_unprotected(image: &Image, input: &[u8]) -> AttackResult {
    let mut m = Machine::new(image, 0x4000);
    let mut k = Kernel::with_input(input);
    let stop = m.run(&mut k, 50_000_000);
    AttackResult {
        stop,
        detected: false,
        endpoints: Vec::new(),
        output: k.output,
        execve: k.execve_log,
    }
}

/// Runs `input` under a trained FlowGuard deployment.
pub fn run_protected(deployment: &Deployment, input: &[u8], cfg: FlowGuardConfig) -> AttackResult {
    let mut p = deployment.launch(input, cfg);
    let stop = p.run(50_000_000);
    let endpoints =
        p.stats.telemetry_snapshot().violations.into_iter().map(|v| v.endpoint).collect();
    AttackResult {
        stop,
        detected: p.kernel.violated(),
        endpoints,
        output: p.kernel.output,
        execve: p.kernel.execve_log,
    }
}

/// Runs `input` under the kBouncer-style LBR monitor.
pub fn run_kbouncer(image: &Image, input: &[u8]) -> AttackResult {
    let cr3 = 0x4000;
    let mut m = Machine::new(image, cr3);
    m.trace = TraceUnit::Lbr(LbrUnit::new(16, LbrFilter::indirect_only()));
    let mut k = Kernel::with_input(input);
    k.install_interceptor(Box::new(KBouncerLike::new(image.clone(), cr3)));
    let stop = m.run(&mut k, 200_000_000);
    AttackResult {
        stop,
        detected: k.violated(),
        endpoints: k.violations.iter().map(ToString::to_string).collect(),
        output: k.output,
        execve: k.execve_log,
    }
}

/// Runs `input` under the CFIMon-style BTS monitor.
pub fn run_cfimon(image: &Image, input: &[u8]) -> AttackResult {
    let cr3 = 0x4000;
    let ocfg = Arc::new(fg_cfg::OCfg::build(image));
    let mut m = Machine::new(image, cr3);
    m.trace = TraceUnit::Bts(BtsUnit::new(1 << 16));
    let mut k = Kernel::with_input(input);
    k.install_interceptor(Box::new(CfimonLike::new(ocfg, cr3)));
    let stop = m.run(&mut k, 200_000_000);
    AttackResult {
        stop,
        detected: k.violated(),
        endpoints: k.violations.iter().map(ToString::to_string).collect(),
        output: k.output,
        execve: k.execve_log,
    }
}

/// Builds the standard evaluation target: the vulnerable nginx-alike with a
/// FlowGuard deployment trained on benign traffic.
pub fn trained_vulnerable_nginx() -> (fg_workloads::Workload, Deployment) {
    let w = fg_workloads::nginx();
    let mut d = Deployment::analyze(&w.image);
    // Train on benign requests covering all handlers (short payloads only —
    // the vulnerability needs > 32 bytes to matter).
    let mut corpus = vec![w.default_input.clone()];
    for c in 0..8u8 {
        corpus.push(fg_workloads::request(c, b"benign-payload"));
    }
    d.train(&corpus);
    (w, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gadgets, payloads};
    use fg_kernel::SIGKILL;

    #[test]
    fn rop_attack_works_unprotected_and_is_caught_at_write() {
        let (w, d) = trained_vulnerable_nginx();
        let g = gadgets::find(&w.image);
        let attack = payloads::rop_write(&w.image, &g);

        // Unprotected: the hijack genuinely reaches the attacker's write.
        let free = run_unprotected(&w.image, &attack);
        assert!(
            free.attack_succeeded(b"HACKED!"),
            "ROP chain must work without protection: {:?} out={:?}",
            free.stop,
            String::from_utf8_lossy(&free.output)
        );

        // Protected: killed at the write endpoint (§7.1.2).
        let guarded = run_protected(&d, &attack, FlowGuardConfig::default());
        assert!(guarded.detected, "FlowGuard must detect the ROP chain");
        assert_eq!(guarded.stop, StopReason::Killed(SIGKILL));
        assert!(
            guarded.endpoints.iter().any(|e| e == "write"),
            "caught at write: {:?}",
            guarded.endpoints
        );
        assert!(!guarded.attack_succeeded(b"HACKED!"), "goal must be prevented");
    }

    #[test]
    fn srop_attack_works_unprotected_and_is_caught_at_sigreturn() {
        let (w, d) = trained_vulnerable_nginx();
        let g = gadgets::find(&w.image);
        let attack = payloads::srop_execve(&w.image, &g);

        let free = run_unprotected(&w.image, &attack);
        assert!(
            free.execve.iter().any(|p| p == "/bin/sh"),
            "SROP must reach execve unprotected: {:?}",
            free.stop
        );

        let guarded = run_protected(&d, &attack, FlowGuardConfig::default());
        assert!(guarded.detected);
        assert_eq!(guarded.stop, StopReason::Killed(SIGKILL));
        assert!(
            guarded.endpoints.iter().any(|e| e == "sigreturn"),
            "caught at sigreturn: {:?}",
            guarded.endpoints
        );
        assert!(guarded.execve.is_empty(), "shell must be prevented");
    }

    #[test]
    fn return_to_lib_is_caught() {
        let (w, d) = trained_vulnerable_nginx();
        let g = gadgets::find(&w.image);
        let attack = payloads::ret_to_lib(&w.image, &g);

        let free = run_unprotected(&w.image, &attack);
        assert!(free.attack_succeeded(b"LIBPWN!"), "ret-to-lib works unprotected");

        let guarded = run_protected(&d, &attack, FlowGuardConfig::default());
        assert!(guarded.detected, "library-call laundering must be caught");
        assert!(!guarded.attack_succeeded(b"LIBPWN!"));
    }

    #[test]
    fn history_flush_caught_with_default_window() {
        let (w, d) = trained_vulnerable_nginx();
        let g = gadgets::find(&w.image);
        let attack = payloads::history_flush(&w.image, &g, 12);
        let guarded = run_protected(&d, &attack, FlowGuardConfig::default());
        assert!(guarded.detected, "pkt_count = 30 window must reach back into the illegal pairs");
    }

    #[test]
    fn history_flush_evades_a_tiny_window() {
        // The §7.1.1 rationale, inverted: a degenerate configuration with a
        // 3-TIP window and no module-stride rule is flushable.
        let (w, d) = trained_vulnerable_nginx();
        let g = gadgets::find(&w.image);
        let attack = payloads::history_flush(&w.image, &g, 12);
        let weak =
            FlowGuardConfig { pkt_count: 3, require_module_stride: false, ..Default::default() };
        let guarded = run_protected(&d, &attack, weak);
        assert!(
            !guarded.detected,
            "a tiny window is historically flushable — this is why pkt_count ≥ 30"
        );
    }

    #[test]
    fn kbouncer_evasion_beats_heuristics_but_not_flowguard() {
        // Carlini & Wagner's call-preceded long-gadget chain: the LBR
        // heuristics pass it, the CFG-grounded fast path does not.
        let (w, d) = trained_vulnerable_nginx();
        let attack = payloads::kbouncer_evasion(&w.image, 12);

        let kb = run_kbouncer(&w.image, &attack);
        assert!(
            !kb.detected,
            "call-preceded long gadgets must evade the kBouncer heuristics: {:?}",
            kb.endpoints
        );
        assert!(
            !kb.output.is_empty(),
            "the evasion chain reaches its write under the heuristic monitor"
        );

        let fg = run_protected(&d, &attack, FlowGuardConfig::default());
        assert!(fg.detected, "FlowGuard's ITC-CFG matching must catch the same chain");
    }

    #[test]
    fn pmi_fallback_catches_endpoint_laundering() {
        // A flush chain that diverts into the heavyweight GET handler: its
        // ~4000 legal transfers push the hijack out of any endpoint window,
        // evading syscall-endpoint checking entirely. The §7.1.2 fallback —
        // full-buffer checks at every trace-buffer PMI — still catches it,
        // because the PMI fires while the hijack is in the buffer.
        let (w, d) = trained_vulnerable_nginx();
        let g = gadgets::find(&w.image);
        let table = w.image.symbol("handlers").expect("handlers");
        let h1 = u64::from_le_bytes(
            w.image.read_bytes(table + 8, 8).expect("entry").try_into().expect("8 bytes"),
        );
        let mut chain: Vec<u64> = (0..12).map(|i| g.rets[i % g.rets.len()]).collect();
        chain.push(h1);
        let mut payload = vec![b'A'; 32];
        for wd in &chain {
            payload.extend_from_slice(&wd.to_le_bytes());
        }
        let attack = fg_workloads::request(1, &payload);

        // Endpoint-only checking is laundered past.
        let endpoint_only = run_protected(&d, &attack, FlowGuardConfig::default());
        assert!(
            !endpoint_only.detected,
            "the laundering chain evades endpoint-window checking: {:?}",
            endpoint_only.endpoints
        );

        // PMI-fallback checking catches it.
        let pmi_cfg = FlowGuardConfig { pmi_endpoints: true, ..Default::default() };
        let guarded = run_protected(&d, &attack, pmi_cfg);
        assert!(guarded.detected, "the PMI full-buffer check must catch the hijack");
    }

    #[test]
    fn pmi_mode_has_no_false_positives() {
        let (w, d) = trained_vulnerable_nginx();
        let cfg = FlowGuardConfig { pmi_endpoints: true, ..Default::default() };
        let r = run_protected(&d, &w.default_input, cfg);
        assert!(!r.detected, "benign traffic passes PMI-endpoint mode: {:?}", r.endpoints);
        assert_eq!(r.stop, StopReason::Exited(0));
    }

    #[test]
    fn baseline_monitors_pass_benign_traffic() {
        let w = fg_workloads::nginx_patched();
        let kb = run_kbouncer(&w.image, &w.default_input);
        assert!(!kb.detected, "kBouncer: no false positives: {:?}", kb.endpoints);
        assert_eq!(kb.stop, StopReason::Exited(0));
        let cm = run_cfimon(&w.image, &w.default_input);
        assert!(!cm.detected, "CFIMon: no false positives: {:?}", cm.endpoints);
        assert_eq!(cm.stop, StopReason::Exited(0));
    }

    #[test]
    fn flight_recorder_snapshots_the_rop_detection() {
        // The forensic contract behind §7.1.2's attack reporting: a caught
        // hijack leaves a serialisable record of the failing edge, the raw
        // ToPA bytes around it, and the decoded packet run.
        let (w, d) = trained_vulnerable_nginx();
        let g = gadgets::find(&w.image);
        let attack = payloads::rop_write(&w.image, &g);
        let mut p = d.launch(&attack, FlowGuardConfig::default());
        let stop = p.run(50_000_000);
        assert_eq!(stop, StopReason::Killed(SIGKILL));
        let records = p.stats.flight_records();
        assert!(!records.is_empty(), "a detection must capture a flight record");
        let r = &records[0];
        assert!(r.edge.is_some(), "the violating edge is recorded: {}", r.detail);
        assert!(!r.topa_window.is_empty(), "ToPA window bytes are captured");
        assert!(!r.packets.is_empty(), "the decoded packet run is captured");
        assert!(
            r.packets.iter().any(|pkt| pkt.starts_with("TIP")),
            "the window decodes to real TIP packets: {:?}",
            &r.packets[..r.packets.len().min(4)]
        );

        // The record survives a JSON round-trip byte-for-byte.
        let json = serde_json::to_string(r).expect("serialise");
        let back: fg_trace::FlightRecord = serde_json::from_str(&json).expect("parse");
        assert_eq!(&back, r);
    }

    #[test]
    fn benign_traffic_still_passes_the_trained_deployment() {
        let (w, d) = trained_vulnerable_nginx();
        let r = run_protected(&d, &w.default_input, FlowGuardConfig::default());
        assert!(!r.detected, "no false positives on benign traffic");
        assert_eq!(r.stop, StopReason::Exited(0));
    }
}
