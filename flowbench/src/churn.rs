//! session-churn: many short sessions against the vulnerable server, each a
//! fresh protected launch serving 1–16 seeded requests. Every
//! `attack_every`-th session ends with one of the five `fg-attacks`
//! payloads, cycling through all five, and must be killed before the
//! attack writes anything.

use crate::host::{ns_between, reference_loop_ns};
use crate::probe::{self, Probe};
use crate::workload::{stream, sub_seed, unprotected, Sizes, ATTACKS, RUN_BUDGET};
use crate::{Between, Ctx, RunData, Window};
use fg_attacks::payloads;
use fg_cpu::machine::StopReason;
use fg_kernel::SIGKILL;
use flowguard::{Deployment, FlowGuardConfig, ProtectedProcess};
use std::time::{Duration, Instant};

/// The five attack payloads against `d`'s image, by name.
pub fn attacks(d: &Deployment) -> [(&'static str, Vec<u8>); ATTACKS] {
    let img = &d.image;
    let g = fg_attacks::find_gadgets(img);
    [
        ("rop", payloads::rop_write(img, &g)),
        ("srop", payloads::srop_execve(img, &g)),
        ("ret-to-lib", payloads::ret_to_lib(img, &g)),
        ("history-flush", payloads::history_flush(img, &g, 12)),
        ("kbouncer-evasion", payloads::kbouncer_evasion(img, 12)),
    ]
}

/// One session's input.
struct Session {
    /// The benign requests.
    benign: Vec<u8>,
    requests: u64,
    /// The attack appended after them, if any, by name.
    attack: Option<(&'static str, Vec<u8>)>,
}

impl Session {
    fn new(
        seed: u64,
        i: u64,
        sizes: &Sizes,
        attacks: &[(&'static str, Vec<u8>); ATTACKS],
    ) -> Session {
        let requests = session_length(seed, i);
        let n = usize::try_from(requests).expect("session length fits usize");
        let benign = fg_workloads::load_input(n, sub_seed(seed, stream::SESSION, i));
        let attack = (i % sizes.attack_every == sizes.attack_every - 1).then(|| {
            let k = usize::try_from((i / sizes.attack_every) % ATTACKS as u64).expect("< 5");
            attacks[k].clone()
        });
        Session { benign, requests, attack }
    }

    fn input(&self) -> Vec<u8> {
        let mut input = self.benign.clone();
        if let Some((_, payload)) = &self.attack {
            input.extend_from_slice(payload);
        }
        input
    }
}

/// Requests in session `i`: every block of [`MAX_SESSION`] consecutive
/// sessions serves 1 to [`MAX_SESSION`] requests once each, in a seeded
/// order, so that every seed runs the same mix of session lengths.
fn session_length(seed: u64, i: u64) -> u64 {
    let mut order: Vec<u64> = (1..=MAX_SESSION).collect();
    let mut r = sub_seed(seed, stream::SESSION_LEN, i / MAX_SESSION);
    for k in (1..order.len()).rev() {
        r = sub_seed(r, stream::SESSION_LEN, 0);
        order.swap(k, usize::try_from(r % (k as u64 + 1)).expect("index fits usize"));
    }
    order[usize::try_from(i % MAX_SESSION).expect("index fits usize")]
}

/// The longest session, in requests.
const MAX_SESSION: u64 = 16;

/// Runs sessions until the deadline (and at least every attack once),
/// checking each session's end. A window is the consecutive sessions that
/// first reach `window_insns` instructions together.
pub fn run(
    ctx: &mut Ctx,
    d: &Deployment,
    cfg: &FlowGuardConfig,
    between: &mut Between<'_>,
) -> RunData {
    let sizes = ctx.sizes;
    let attacks = attacks(d);
    let probe = Probe::shared(ctx.epoch);
    let mut run = RunData::default();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut i = 0u64;
    while i < sizes.min_sessions()
        || run.windows.len() < sizes.min_windows
        || Instant::now() < deadline
    {
        between(ctx);
        let ws = run.windows.len() as u64;
        let traced = ctx.tracing() && ws % 2 == 1;
        probe.borrow_mut().set_tracing(traced);
        let mut window = Window { traced, ref_ns: reference_loop_ns(), ..Window::default() };
        while window.insns < sizes.window_insns {
            let s = Session::new(ctx.seed, i, &sizes, &attacks);
            let input = s.input();
            let t0 = Instant::now();
            let mut p = probe::launch(d, &input, cfg, &probe);
            let t1 = Instant::now();
            let stop = p.run(RUN_BUDGET);
            let t2 = Instant::now();
            let calls = probe.borrow_mut().take();
            if let (true, Some(log)) = (traced, ctx.spans.as_mut()) {
                let id = log.span(ctx.root, "session", i, t0, t2);
                log.set_attr(id, "window", ws as f64);
                log.span(id, "launch", i, t0, t1);
                log.record_calls(id, i, &calls);
            }
            window.ns += ns_between(t0, t2);
            window.launch_ns += ns_between(t0, t1);
            window.launches += 1;
            window.insns += p.machine.insns_retired;
            window.calls.extend(calls);
            window.model.absorb(&p.machine.account);
            run.insns += p.machine.insns_retired;
            if ctx.tracing() {
                run.telemetry.absorb(&p.stats.telemetry_snapshot());
            }
            let verify = i.is_multiple_of(sizes.verify_every);
            check_session(&mut run, d, i, &s, verify, &p, stop);
            i += 1;
        }
        run.windows.push(window);
    }
    run
}

/// Checks how session `i` ended: a benign session exits 0 with no
/// violation (and, when `verify`, with the unprotected run's output); an
/// attack session is killed with only its benign prefix's output written
/// and no shell spawned.
fn check_session(
    run: &mut RunData,
    d: &Deployment,
    i: u64,
    s: &Session,
    verify: bool,
    p: &ProtectedProcess,
    stop: StopReason,
) {
    let n = s.requests;
    run.requests += n;
    let Some((name, _)) = s.attack else {
        run.attempted += n;
        if stop != StopReason::Exited(0) || p.violated() {
            let v = &p.kernel.violations;
            run.fail(n, format!("session {i}: benign session ended {stop}, violations {v:?}"));
        } else if p.stats.checks() < n {
            run.fail(n, format!("session {i}: {} checks for {n} responses", p.stats.checks()));
        } else if verify && unprotected(d, &s.benign) != (stop, p.kernel.output.clone()) {
            run.fail(n, format!("session {i}: output differs from the unprotected reference"));
        }
        return;
    };
    run.attempted += n + 1;
    run.attacks += 1;
    let killed = stop == StopReason::Killed(SIGKILL) && p.violated();
    let (_, benign_out) = unprotected(d, &s.benign);
    if killed && p.kernel.output == benign_out && p.kernel.execve_log.is_empty() {
        run.attacks_killed += 1;
    } else {
        run.fail(n + 1, format!("session {i}: {name} attack not stopped: {stop}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_of_sessions_has_every_length_once() {
        for seed in [1, 2, 99] {
            for block in 0..3 {
                let mut lengths: Vec<u64> = (block * MAX_SESSION..(block + 1) * MAX_SESSION)
                    .map(|i| session_length(seed, i))
                    .collect();
                lengths.sort_unstable();
                assert_eq!(lengths, (1..=MAX_SESSION).collect::<Vec<_>>());
            }
        }
        let order = |seed| (0..MAX_SESSION).map(|i| session_length(seed, i)).collect::<Vec<_>>();
        assert_ne!(order(1), order(2), "the order follows the seed");
    }
}
