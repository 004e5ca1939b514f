//! The benchmark's workloads: images, training corpora, configuration
//! overrides, seeded inputs, run sizes, and the timed deployment set-up.

use crate::host::secs;
use crate::spans::SpanLog;
use fg_cpu::machine::{Machine, StopReason};
use fg_kernel::Kernel;
use fg_workloads::Workload;
use flowguard::{Deployment, FlowGuardConfig, DEFAULT_CR3};
use serde::{Deserialize, Serialize, Value};
use std::time::Instant;

/// How a workload drives its protected processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One long-lived server fed a seeded request stream, measured in
    /// fixed-size instruction windows.
    Serve,
    /// Many short sessions, each a fresh launch serving a few requests;
    /// some end with an attack that must be killed.
    Churn,
}

/// One named workload.
#[derive(Debug)]
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The protected image.
    pub image: fn() -> Workload,
    /// JSON object applied onto `FlowGuardConfig::default()`.
    pub config: &'static str,
    /// How the processes are driven.
    pub shape: Shape,
}

/// Every workload. Why each is here is in README.md.
pub const SPECS: [Spec; 3] = [
    // Fig. 5a steady state: every response is a `write` check decided by
    // the fast path over the endpoint-time incremental scan.
    Spec {
        name: "serve-steady",
        image: fg_workloads::nginx_patched,
        config: "{}",
        shape: Shape::Serve,
    },
    // Same traffic, but the streaming consumer drains the trace buffer at
    // poll slots and PMIs, so checks see only residue.
    Spec {
        name: "serve-stream",
        image: fg_workloads::nginx_patched,
        config: r#"{"streaming": true}"#,
        shape: Shape::Serve,
    },
    // Fresh engines escalate to the slow path, launches cost, and attacks
    // must be killed.
    Spec { name: "session-churn", image: fg_workloads::nginx, config: "{}", shape: Shape::Churn },
];

/// The workload named `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Run sizes. `--quick` shrinks them about 50-fold for tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Set-up repetitions, spread evenly over the run (`setup_s` is their
    /// median, so a contended second does not decide it).
    pub setup_reps: usize,
    /// Instructions per window (a serve slice, or consecutive churn sessions).
    pub window_insns: u64,
    /// Windows measured even past the deadline.
    pub min_windows: usize,
    /// Requests per generated serve batch.
    pub batch: usize,
    /// A serve process gets a new batch whenever fewer input bytes than
    /// this are queued (far more than one window consumes).
    pub low_water_bytes: usize,
    /// Every this-many-th session ends with an attack.
    pub attack_every: u64,
    /// Every this-many-th benign session is checked against an
    /// unprotected run of the same input.
    pub verify_every: u64,
    /// Requests in the unprotected reference run of the traced run.
    pub ref_requests: usize,
    /// Launches in the traced run's launch replay.
    pub launch_reps: usize,
    /// Trace bytes replayed through the slow path.
    pub slow_window: usize,
    /// Share of the 90th-percentile window's simulator speed a quiet window
    /// reaches ([`crate::quiet`]). A `--quick` window holds less than one
    /// request, so its speed says more about what it ran than about the
    /// host, and quick runs count every window.
    pub quiet_share: f64,
}

impl Sizes {
    /// Sizes for a measured run, or for `--quick`.
    pub fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                setup_reps: 1,
                window_insns: 80_000,
                min_windows: 2,
                batch: 4,
                low_water_bytes: 1 << 10,
                attack_every: 2,
                verify_every: 2,
                ref_requests: 4,
                launch_reps: 2,
                slow_window: 4 << 10,
                quiet_share: 0.0,
            }
        } else {
            Sizes {
                setup_reps: 10,
                window_insns: 4_000_000,
                min_windows: 3,
                batch: 64,
                low_water_bytes: 8 << 10,
                attack_every: 25,
                verify_every: 10,
                ref_requests: 128,
                launch_reps: 32,
                slow_window: 64 << 10,
                quiet_share: 0.97,
            }
        }
    }

    /// Sessions run even past the deadline: every attack payload once.
    pub fn min_sessions(&self) -> u64 {
        self.attack_every * ATTACKS as u64
    }
}

/// Number of attack payloads session-churn cycles through.
pub const ATTACKS: usize = 5;

/// Input streams derived from the run seed.
pub mod stream {
    /// Serve request batches.
    pub const SERVE: u64 = 1;
    /// Churn session lengths.
    pub const SESSION_LEN: u64 = 2;
    /// Churn session requests.
    pub const SESSION: u64 = 3;
    /// The traced run's unprotected reference run.
    pub const REFERENCE: u64 = 4;
}

/// The `k`-th seed of input stream `stream` under run seed `seed`
/// (a splitmix64 finaliser over the three).
pub fn sub_seed(seed: u64, stream: u64, k: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03)
        ^ k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The benchmark's own training corpus: the image's benign default input
/// plus two requests per handler. Owned here so that edits to other
/// corpora cannot move this benchmark's numbers.
pub fn corpus(w: &Workload) -> Vec<Vec<u8>> {
    let mut c = vec![w.default_input.clone()];
    for cmd in 0..8u8 {
        c.push(fg_workloads::request(cmd, b"training-payload-x"));
        c.push(fg_workloads::request(cmd, b"tp"));
    }
    c
}

/// `FlowGuardConfig::default()` with the JSON object `overrides` applied
/// key by key. A key the configuration no longer has is reported and
/// skipped, so deleting a knob from the engine does not break this build.
///
/// # Panics
///
/// Panics when `overrides` is not a JSON object or a value does not fit.
pub fn config(overrides: &str) -> FlowGuardConfig {
    let Value::Object(mut fields) = FlowGuardConfig::default().to_value() else {
        panic!("FlowGuardConfig serialises as an object")
    };
    let Value::Object(over) = serde_json::parse_value(overrides).expect("override is JSON") else {
        panic!("config override must be a JSON object: {overrides}")
    };
    for (key, value) in over {
        match fields.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => eprintln!("warning: FlowGuardConfig has no `{key}`; override ignored"),
        }
    }
    FlowGuardConfig::from_value(&Value::Object(fields)).expect("override fits FlowGuardConfig")
}

/// Timed deployment set-up of one workload: analyze → train on
/// [`corpus`] → verify, repeated at intervals through the run.
#[derive(Debug, Default)]
pub struct Setup {
    /// Seconds of analyze + train + verify, per repetition.
    pub total_s: Vec<f64>,
    /// `Deployment::analyze` ms, per repetition.
    pub analyze_ms: Vec<f64>,
    /// `Deployment::train` ms, per repetition.
    pub train_ms: Vec<f64>,
    /// `Deployment::verify` ms, per repetition.
    pub verify_ms: Vec<f64>,
    /// Host ns of the reference loop run just before each repetition.
    pub ref_ns: Vec<f64>,
    /// Verifier findings of error severity, if any repetition had them.
    pub verify_errors: Option<String>,
}

impl Setup {
    /// One timed deployment of `w`; spans go under `parent` when tracing.
    pub fn deploy(&mut self, w: &Workload, spans: Option<&mut SpanLog>, parent: u64) -> Deployment {
        let corpus = corpus(w);
        self.ref_ns.push(crate::host::reference_loop_ns());
        let t0 = Instant::now();
        let mut d = Deployment::analyze(&w.image);
        let t1 = Instant::now();
        d.train(&corpus);
        let t2 = Instant::now();
        let report = d.verify();
        let t3 = Instant::now();
        self.total_s.push(secs(t3 - t0));
        self.analyze_ms.push(secs(t1 - t0) * 1e3);
        self.train_ms.push(secs(t2 - t1) * 1e3);
        self.verify_ms.push(secs(t3 - t2) * 1e3);
        if report.has_errors() {
            self.verify_errors = Some(report.to_string());
        }
        if let Some(log) = spans {
            let rep = self.total_s.len() as u64 - 1;
            let s = log.span(parent, "setup", rep, t0, t3);
            log.span(s, "setup.analyze", rep, t0, t1);
            log.span(s, "setup.train", rep, t1, t2);
            log.span(s, "setup.verify", rep, t2, t3);
        }
        d
    }

    /// Seconds of each repetition, scaled to the nominal host by the
    /// reference loop run just before it.
    pub fn nominal_s(&self) -> Vec<f64> {
        let scale = self.ref_ns.iter().map(|&r| crate::host::host_scale(r));
        self.total_s.iter().zip(scale).map(|(s, k)| s / k).collect()
    }
}

/// Runs `input` on the deployment's image with no tracing and no
/// protection: the reference every protected output is compared with.
pub fn unprotected(d: &Deployment, input: &[u8]) -> (StopReason, Vec<u8>) {
    let mut m = Machine::new(&d.image, DEFAULT_CR3);
    let mut k = Kernel::with_input(input);
    let stop = m.run(&mut k, RUN_BUDGET);
    (stop, k.output)
}

/// Instruction budget of one run to completion (a runaway guard).
pub const RUN_BUDGET: u64 = 200_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overrides_apply_by_key_and_skip_vanished_keys() {
        assert!(!config("{}").streaming);
        let c = config(r#"{"streaming": true, "no_such_knob": 3}"#);
        assert!(c.streaming);
        assert_eq!(c.pkt_count, FlowGuardConfig::default().pkt_count);
    }

    #[test]
    fn sub_seeds_differ_by_seed_stream_and_index() {
        let a = sub_seed(1, stream::SERVE, 0);
        assert_eq!(a, sub_seed(1, stream::SERVE, 0));
        assert_ne!(a, sub_seed(2, stream::SERVE, 0));
        assert_ne!(a, sub_seed(1, stream::SESSION, 0));
        assert_ne!(a, sub_seed(1, stream::SERVE, 1));
    }
}
