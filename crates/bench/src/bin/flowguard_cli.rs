//! `flowguard-cli` — drive the full pipeline from the command line.
//!
//! ```text
//! flowguard_cli analyze  <workload> <artifact.json>        # ① static analysis
//! flowguard_cli train    <artifact.json> [--fuzz N]        # ② credit labeling
//! flowguard_cli verify   <artifact.json>                   # static artifact checks
//! flowguard_cli audit    <workload|artifact.json> [--json FILE]
//! flowguard_cli info     <artifact.json>                   # inspect an artifact
//! flowguard_cli run      <artifact.json> [--input FILE]    # ③–⑤ protected run
//! flowguard_cli stats    <artifact.json> [--input FILE] [--prom] [--prom-summaries]
//!                        [--streaming] [--phases] [--save FILE] [--diff FILE]
//! flowguard_cli health   <artifact.json> [--input FILE] [--streaming] [--slice N]
//! flowguard_cli top      <artifact.json> [--input FILE] [--streaming] [--slice N]
//! flowguard_cli events   <artifact.json> [--input FILE] [--last N]
//! flowguard_cli attack   <artifact.json> <rop|srop|ret2lib|flush|kbouncer>
//! flowguard_cli fleet    stats [--procs N] [--json] [--prom] [--single-cr3]
//! flowguard_cli workloads                                  # list bundled targets
//! ```
//!
//! Workloads are the bundled evaluation programs (`nginx`, `nginx-patched`,
//! `vsftpd`, `openssh`, `exim`, `tar`, `dd`, `make`, `scp`, or any SPEC
//! profile name). Artifacts are the JSON files produced by
//! [`flowguard::Deployment::save`].
//!
//! Machine-readable output (the `stats` JSON / Prometheus dump, the `events`
//! listing, tables) goes to stdout; progress and error diagnostics go to
//! stderr. Every failure path exits nonzero (2 for usage errors, 1 for
//! everything else, including an undetected `attack` and a `health` verdict
//! of Degraded or Critical).

use flowguard::{
    Deployment, FleetConfig, FleetSupervisor, FlowGuardConfig, HealthStatus, PhaseSpan,
    TelemetrySnapshot,
};
use std::process::ExitCode;

fn pick_workload(name: &str) -> Option<fg_workloads::Workload> {
    Some(match name {
        "nginx" => fg_workloads::nginx(),
        "nginx-patched" => fg_workloads::nginx_patched(),
        "vsftpd" => fg_workloads::vsftpd(),
        "openssh" => fg_workloads::openssh(),
        "exim" => fg_workloads::exim(),
        "tar" => fg_workloads::tar(),
        "dd" => fg_workloads::dd(),
        "make" => fg_workloads::make(),
        "scp" => fg_workloads::scp(),
        other => fg_workloads::spec_by_name(other)?,
    })
}

fn default_input_for(d: &Deployment) -> Vec<u8> {
    // Artifacts do not record their source workload; a generic benign
    // request mix works for the bundled servers and is harmless for others.
    let _ = d;
    fg_workloads::benign_input(24)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  flowguard_cli workloads\n  flowguard_cli analyze <workload> <artifact.json>\n  \
         flowguard_cli train <artifact.json> [--fuzz N]\n  \
         flowguard_cli verify <artifact.json>\n  \
         flowguard_cli audit <workload|artifact.json> [--json FILE]\n  \
         flowguard_cli info <artifact.json>\n  \
         flowguard_cli run <artifact.json> [--input FILE]\n  \
         flowguard_cli stats <artifact.json> [--input FILE] [--prom] [--prom-summaries] \
         [--streaming] [--phases] [--save FILE] [--diff FILE]\n  \
         flowguard_cli health <artifact.json> [--input FILE] [--streaming] [--slice N]\n  \
         flowguard_cli top <artifact.json> [--input FILE] [--streaming] [--slice N]\n  \
         flowguard_cli events <artifact.json> [--input FILE] [--last N]\n  \
         flowguard_cli attack <artifact.json> <rop|srop|ret2lib|flush|kbouncer>\n  \
         flowguard_cli fleet stats [--procs N] [--json] [--prom] [--single-cr3]"
    );
    ExitCode::from(2)
}

fn load_artifact(path: &str) -> Result<Deployment, ExitCode> {
    Deployment::load(path).map_err(|e| {
        eprintln!("cannot load artifact: {e}");
        ExitCode::FAILURE
    })
}

/// Runs the protected workload behind `stats` / `events` and returns the
/// engine telemetry handle.
fn protected_run(
    d: &Deployment,
    input: &[u8],
) -> (fg_cpu::StopReason, std::sync::Arc<flowguard::EngineTelemetry>) {
    let mut p = d.launch(input, FlowGuardConfig::default());
    let stop = p.run(2_000_000_000);
    (stop, p.stats)
}

/// Parses `[--input FILE]` returning the workload input, or an exit code on
/// a bad flag / unreadable file.
fn parse_input_flag<'a>(
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<(Vec<u8>, Option<&'a str>), ExitCode> {
    match it.next() {
        Some("--input") => {
            let Some(f) = it.next() else { return Err(usage()) };
            match std::fs::read(f) {
                Ok(b) => Ok((b, it.next())),
                Err(e) => {
                    eprintln!("cannot read input: {e}");
                    Err(ExitCode::FAILURE)
                }
            }
        }
        other => Ok((Vec::new(), other)),
    }
}

/// Instruction budget of one live-view slice (`health` / `top` tick).
const DEFAULT_SLICE_INSNS: u64 = 2_000_000;

/// Overall instruction budget of a CLI-driven protected run.
const RUN_BUDGET_INSNS: u64 = 2_000_000_000;

/// Parses the live-view flags `[--input FILE] [--streaming] [--slice N]`
/// shared by `health` and `top`; `N` is the per-slice instruction budget.
fn parse_live_flags<'a>(
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<(Vec<u8>, bool, u64), ExitCode> {
    let mut input = Vec::new();
    let mut streaming = false;
    let mut slice: u64 = DEFAULT_SLICE_INSNS;
    while let Some(a) = it.next() {
        match a {
            "--input" => {
                let Some(f) = it.next() else { return Err(usage()) };
                match std::fs::read(f) {
                    Ok(b) => input = b,
                    Err(e) => {
                        eprintln!("cannot read input: {e}");
                        return Err(ExitCode::FAILURE);
                    }
                }
            }
            "--streaming" => streaming = true,
            "--slice" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n > 0 => slice = n,
                _ => return Err(usage()),
            },
            _ => return Err(usage()),
        }
    }
    Ok((input, streaming, slice))
}

/// Prints the per-phase cycle-attribution table from a telemetry snapshot:
/// one row per phase, background phases marked, and the coverage line
/// comparing the check-phase span total against the measured check-latency
/// total (the ≥95% gate of `BENCH_observability.json`).
fn print_phase_table(ts: &TelemetrySnapshot) {
    println!("{:<14} {:>16} {:>10} {:>10}", "phase", "cycles", "spans", "% check");
    let measured = ts.check_latency.mean * ts.check_latency.count as f64;
    for p in &ts.spans.phases {
        let is_check = PhaseSpan::ALL.iter().any(|&s| s.label() == p.phase && s.is_check_phase());
        let share = if measured > 0.0 && is_check { p.cycles / measured * 100.0 } else { 0.0 };
        let tag = if is_check { format!("{share:>9.1}%") } else { "     (bg)".to_string() };
        println!("{:<14} {:>16.0} {:>10} {}", p.phase, p.cycles, p.spans, tag);
    }
    println!(
        "check-phase total {:.0} of {:.0} measured check cycles ({:.1}% attributed)",
        ts.spans.check_cycles,
        measured,
        if measured > 0.0 { ts.spans.check_cycles / measured * 100.0 } else { 0.0 }
    );
    let o = &ts.spans.overhead;
    println!(
        "profiler self-overhead: {:.0} ns/record over {} sampled records (~{:.0} ns total)",
        o.mean_ns_per_record, o.sampled_records, o.estimated_total_ns
    );
}

/// Prints the delta table between a saved snapshot and the current one.
fn print_snapshot_diff(saved: &TelemetrySnapshot, now: &TelemetrySnapshot) {
    println!("{:<26} {:>16} {:>16} {:>16}", "metric", "saved", "current", "delta");
    let rows_u64: &[(&str, u64, u64)] = &[
        ("checks", saved.checks, now.checks),
        ("events_recorded", saved.events_recorded, now.events_recorded),
        ("span_records", saved.spans.records, now.spans.records),
        ("check_samples", saved.check_latency.count, now.check_latency.count),
    ];
    for (name, a, b) in rows_u64 {
        println!("{name:<26} {a:>16} {b:>16} {:>+16}", *b as i64 - *a as i64);
    }
    let mut rows_f64 = vec![
        ("span_check_cycles".to_string(), saved.spans.check_cycles, now.spans.check_cycles),
        ("span_total_cycles".to_string(), saved.spans.total_cycles, now.spans.total_cycles),
    ];
    for phase in PhaseSpan::ALL {
        rows_f64.push((
            format!("phase_{}_cycles", phase.label()),
            saved.spans.phase_cycles(phase),
            now.spans.phase_cycles(phase),
        ));
    }
    for (name, a, b) in rows_f64 {
        println!("{name:<26} {a:>16.0} {b:>16.0} {:>+16.0}", b - a);
    }
    println!("health: {} -> {}", saved.health.status.label(), now.health.status.label());
}

fn sysno_label(nr: u64) -> String {
    if nr == flowguard::telemetry::PMI_SYSNO {
        "pmi".to_string()
    } else {
        match fg_kernel::Sysno::from_u64(nr) {
            Some(s) => s.name().to_string(),
            None => format!("sys#{nr}"),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("workloads") => {
            for w in
                ["nginx", "nginx-patched", "vsftpd", "openssh", "exim", "tar", "dd", "make", "scp"]
            {
                println!("{w}");
            }
            for p in fg_workloads::SPEC_TABLE {
                println!("{}", p.name);
            }
            ExitCode::SUCCESS
        }
        Some("analyze") => {
            let (Some(wname), Some(out)) = (it.next(), it.next()) else { return usage() };
            let Some(w) = pick_workload(wname) else {
                eprintln!("unknown workload `{wname}` — see `flowguard_cli workloads`");
                return ExitCode::FAILURE;
            };
            let d = Deployment::analyze(&w.image);
            eprintln!(
                "analyzed {wname}: {} modules, {} instructions, ITC |V|={} |E|={}",
                w.image.modules().len(),
                w.image.total_insns(),
                d.itc.node_count(),
                d.itc.edge_count()
            );
            if let Err(e) = d.save(out) {
                eprintln!("cannot write artifact: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("artifact written to {out}");
            ExitCode::SUCCESS
        }
        Some("train") => {
            let Some(path) = it.next() else { return usage() };
            let fuzz_execs = match (it.next(), it.next()) {
                (Some("--fuzz"), Some(n)) => n.parse::<u64>().ok(),
                (None, _) => None,
                _ => return usage(),
            };
            let mut d = match load_artifact(path) {
                Ok(d) => d,
                Err(code) => return code,
            };
            let stats = if let Some(execs) = fuzz_execs {
                let seeds =
                    vec![fg_workloads::request(0, b"seed"), fg_workloads::request(1, b"s2")];
                let (stats, history) = d.fuzz_train(seeds, execs, fg_fuzz::FuzzConfig::default());
                if let Some(last) = history.last() {
                    eprintln!(
                        "fuzzer: {} execs, {} paths, {} crashes",
                        last.execs, last.paths, last.crashes
                    );
                }
                stats
            } else {
                d.train(&[default_input_for(&d)])
            };
            eprintln!(
                "trained: {} inputs, {} TIP pairs, {} edges high-credit, cred fraction {:.1}%",
                stats.inputs,
                stats.pairs,
                stats.edges_labeled,
                stats.cred_fraction * 100.0
            );
            if let Err(e) = d.save(path) {
                eprintln!("cannot update artifact: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some("verify") => {
            let Some(path) = it.next() else { return usage() };
            // Load unchecked so a rejected artifact can still be reported
            // rule by rule (the verifying `load` would refuse it outright).
            let d = match Deployment::load_unchecked(path) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("cannot load artifact: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let report = d.verify();
            for diag in &report.diagnostics {
                println!("{diag}");
            }
            if report.has_errors() {
                eprintln!(
                    "FAIL: {} error(s), {} warning(s)",
                    report.error_count(),
                    report.warning_count()
                );
                ExitCode::FAILURE
            } else {
                println!(
                    "OK: artifact passes verification ({} warning(s))",
                    report.warning_count()
                );
                ExitCode::SUCCESS
            }
        }
        Some("audit") => {
            let Some(target) = it.next() else { return usage() };
            let json_out = match (it.next(), it.next()) {
                (Some("--json"), Some(f)) => Some(f),
                (None, _) => None,
                _ => return usage(),
            };
            // A bundled workload name audits a fresh analysis; anything
            // else is an artifact path (loaded unchecked so a broken
            // artifact gets the full finding list instead of a load error).
            let d = match pick_workload(target) {
                Some(w) => Deployment::analyze(&w.image),
                None => match Deployment::load_unchecked(target) {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("`{target}` is neither a workload nor a loadable artifact: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            let report = fg_audit::audit(&d);
            print!("{report}");
            if let Some(f) = json_out {
                let json = match serde_json::to_string(&report) {
                    Ok(j) => j,
                    Err(e) => {
                        eprintln!("cannot serialise report: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if let Err(e) = std::fs::write(f, json + "\n") {
                    eprintln!("cannot write report: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("report written to {f}");
            }
            if report.has_soundness_findings() {
                eprintln!(
                    "FAIL: {} soundness finding(s)",
                    report.count_by_severity(fg_audit::Severity::Error)
                );
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Some("info") => {
            let Some(path) = it.next() else { return usage() };
            match load_artifact(path) {
                Ok(d) => {
                    println!("modules:       {}", d.image.modules().len());
                    for m in d.image.modules() {
                        println!("  {:10} base {:#x}  {} bytes", m.name, m.base, m.bytes.len());
                    }
                    println!("ITC nodes:     {}", d.itc.node_count());
                    println!("ITC edges:     {}", d.itc.edge_count());
                    println!("high-credit:   {:.1}%", d.itc.high_credit_fraction() * 100.0);
                    println!("path grams:    {}", d.itc.path_gram_count());
                    println!("resident size: {:.1} KiB", d.itc.memory_bytes() as f64 / 1024.0);
                    if let Some(t) = d.train_stats {
                        println!("last training: {} inputs, {} pairs", t.inputs, t.pairs);
                    }
                    ExitCode::SUCCESS
                }
                Err(code) => code,
            }
        }
        Some("run") => {
            let Some(path) = it.next() else { return usage() };
            let (input, trailing) = match parse_input_flag(&mut it) {
                Ok(v) => v,
                Err(code) => return code,
            };
            if trailing.is_some() {
                return usage();
            }
            let d = match load_artifact(path) {
                Ok(d) => d,
                Err(code) => return code,
            };
            let input = if input.is_empty() { default_input_for(&d) } else { input };
            let mut p = d.launch(&input, FlowGuardConfig::default());
            let stop = p.run(2_000_000_000);
            let s = p.stats.snapshot();
            println!("stop:            {stop}");
            println!("endpoint checks: {}", s.checks);
            println!("fast clean:      {}", s.fast_clean);
            println!("slow upcalls:    {}", s.slow_invocations);
            println!("violations:      {}", s.violations.len());
            for v in &s.violations {
                println!("  at {}: {}", v.endpoint, v.detail);
            }
            let exec = p.machine.account.exec;
            if exec > 0.0 {
                println!("overhead:        {:.2}%", p.machine.account.overhead() * 100.0);
            }
            if s.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("stats") => {
            let Some(path) = it.next() else { return usage() };
            let mut input = Vec::new();
            let mut prom = false;
            let mut prom_summaries = false;
            let mut streaming = false;
            let mut phases = false;
            let mut save: Option<&str> = None;
            let mut diff: Option<&str> = None;
            while let Some(a) = it.next() {
                match a {
                    "--input" => {
                        let Some(f) = it.next() else { return usage() };
                        match std::fs::read(f) {
                            Ok(b) => input = b,
                            Err(e) => {
                                eprintln!("cannot read input: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                    "--prom" => prom = true,
                    "--prom-summaries" => prom_summaries = true,
                    "--streaming" => streaming = true,
                    "--phases" => phases = true,
                    "--save" => {
                        let Some(f) = it.next() else { return usage() };
                        save = Some(f);
                    }
                    "--diff" => {
                        let Some(f) = it.next() else { return usage() };
                        diff = Some(f);
                    }
                    _ => return usage(),
                }
            }
            // The baseline snapshot must parse before the (slow) run.
            let saved: Option<TelemetrySnapshot> = match diff {
                Some(f) => match std::fs::read_to_string(f)
                    .map_err(|e| e.to_string())
                    .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
                {
                    Ok(s) => Some(s),
                    Err(e) => {
                        eprintln!("cannot load snapshot {f}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => None,
            };
            let d = match load_artifact(path) {
                Ok(d) => d,
                Err(code) => return code,
            };
            let input = if input.is_empty() { default_input_for(&d) } else { input };
            let cfg = FlowGuardConfig { streaming, ..Default::default() };
            let mut p = d.launch(&input, cfg);
            let stop = p.run(2_000_000_000);
            let stats = p.stats;
            eprintln!("stop: {stop}");
            let ts = stats.telemetry_snapshot();
            if streaming {
                eprintln!(
                    "streaming: {} drains, {} bytes drained, {:.2} copied B/KiB, \
                     residue p50/p99 {}/{}",
                    ts.stream_drains,
                    ts.stream_drained_bytes,
                    ts.copied_per_drained_kib(),
                    ts.frontier_lag.p50,
                    ts.frontier_lag.p99
                );
            }
            if let Some(f) = save {
                match serde_json::to_string(&ts) {
                    Ok(json) => {
                        if let Err(e) = std::fs::write(f, json + "\n") {
                            eprintln!("cannot write snapshot: {e}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!("snapshot written to {f}");
                    }
                    Err(e) => {
                        eprintln!("cannot serialise telemetry: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if prom || prom_summaries {
                print!("{}", stats.prometheus_text_opts(prom_summaries));
            } else if phases {
                print_phase_table(&ts);
            } else if let Some(saved) = &saved {
                print_snapshot_diff(saved, &ts);
            } else if save.is_none() {
                match serde_json::to_string(&ts) {
                    Ok(json) => println!("{json}"),
                    Err(e) => {
                        eprintln!("cannot serialise telemetry: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Some("health") => {
            let Some(path) = it.next() else { return usage() };
            let (input, streaming, slice) = match parse_live_flags(&mut it) {
                Ok(v) => v,
                Err(code) => return code,
            };
            let d = match load_artifact(path) {
                Ok(d) => d,
                Err(code) => return code,
            };
            let input = if input.is_empty() { default_input_for(&d) } else { input };
            let cfg = FlowGuardConfig { streaming, ..Default::default() };
            let mut p = d.launch(&input, cfg);
            // Slice-driven run: each slice feeds the watchdog one rolling
            // window sample (ProtectedProcess::run ticks on return).
            let mut budget = RUN_BUDGET_INSNS;
            let mut stop = p.run(slice.min(budget));
            while stop == fg_cpu::StopReason::InsnLimit && budget > slice {
                budget -= slice;
                stop = p.run(slice.min(budget));
            }
            eprintln!("stop: {stop}");
            let report = p.stats.health_report();
            println!(
                "health: {} ({} window samples, {} checks in window)",
                report.status.label(),
                report.samples,
                report.window_checks
            );
            for f in &report.findings {
                println!("  [{}] {}: {}", f.status.label(), f.rule, f.detail);
            }
            if report.status == HealthStatus::Healthy {
                ExitCode::SUCCESS
            } else {
                eprintln!("health is {}", report.status.label());
                ExitCode::FAILURE
            }
        }
        Some("top") => {
            let Some(path) = it.next() else { return usage() };
            let (input, streaming, slice) = match parse_live_flags(&mut it) {
                Ok(v) => v,
                Err(code) => return code,
            };
            let d = match load_artifact(path) {
                Ok(d) => d,
                Err(code) => return code,
            };
            let input = if input.is_empty() { default_input_for(&d) } else { input };
            let cfg = FlowGuardConfig { streaming, ..Default::default() };
            let mut p = d.launch(&input, cfg);
            println!(
                "{:>6} {:>8} {:>8} {:>8} {:>14} {:>10} {:>9}",
                "slice", "checks", "fast", "slow", "span_cycles", "lag", "health"
            );
            let mut prev = p.stats.telemetry_snapshot();
            let mut prev_stats = p.stats.snapshot();
            for i in 1..=RUN_BUDGET_INSNS / slice.max(1) {
                let stop = p.run(slice);
                let ts = p.stats.telemetry_snapshot();
                let s = p.stats.snapshot();
                println!(
                    "{:>6} {:>8} {:>8} {:>8} {:>14.0} {:>10} {:>9}",
                    i,
                    ts.checks - prev.checks,
                    s.fast_clean - prev_stats.fast_clean,
                    s.slow_invocations - prev_stats.slow_invocations,
                    ts.spans.total_cycles - prev.spans.total_cycles,
                    ts.last_frontier_lag,
                    ts.health.status.label()
                );
                prev = ts;
                prev_stats = s;
                if stop != fg_cpu::StopReason::InsnLimit {
                    eprintln!("stop: {stop}");
                    break;
                }
            }
            ExitCode::SUCCESS
        }
        Some("events") => {
            let Some(path) = it.next() else { return usage() };
            let (input, trailing) = match parse_input_flag(&mut it) {
                Ok(v) => v,
                Err(code) => return code,
            };
            let last = match trailing {
                Some("--last") => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) => n,
                    None => return usage(),
                },
                None => 32,
                _ => return usage(),
            };
            let d = match load_artifact(path) {
                Ok(d) => d,
                Err(code) => return code,
            };
            let input = if input.is_empty() { default_input_for(&d) } else { input };
            let (stop, stats) = protected_run(&d, &input);
            eprintln!("stop: {stop}");
            println!(
                "{:>8}  {:<14} {:<12} {:>10} {:>8} {:>12}",
                "seq", "endpoint", "verdict", "delta", "pairs", "cycles"
            );
            for (seq, ev) in stats.recent_events(last) {
                println!(
                    "{:>8}  {:<14} {:<12} {:>10} {:>8} {:>12.0}",
                    seq,
                    sysno_label(ev.sysno),
                    ev.verdict.label(),
                    ev.delta_bytes,
                    ev.pairs_checked,
                    ev.total_cycles()
                );
            }
            eprintln!("{} events recorded in total", stats.events_recorded());
            ExitCode::SUCCESS
        }
        Some("attack") => {
            let (Some(path), Some(kind)) = (it.next(), it.next()) else { return usage() };
            let d = match load_artifact(path) {
                Ok(d) => d,
                Err(code) => return code,
            };
            let g = fg_attacks::find_gadgets(&d.image);
            let payload = match kind {
                "rop" => fg_attacks::rop_write(&d.image, &g),
                "srop" => fg_attacks::srop_execve(&d.image, &g),
                "ret2lib" => fg_attacks::ret_to_lib(&d.image, &g),
                "flush" => fg_attacks::history_flush(&d.image, &g, 12),
                "kbouncer" => fg_attacks::kbouncer_evasion(&d.image, 12),
                other => {
                    eprintln!("unknown attack `{other}`");
                    return ExitCode::FAILURE;
                }
            };
            let free = fg_attacks::run_unprotected(&d.image, &payload);
            println!(
                "unprotected: {} (output {} bytes, execve {:?})",
                free.stop,
                free.output.len(),
                free.execve
            );
            let guarded = fg_attacks::run_protected(&d, &payload, FlowGuardConfig::default());
            println!(
                "protected:   {} — {}",
                guarded.stop,
                if guarded.detected {
                    format!("DETECTED at {:?}", guarded.endpoints)
                } else {
                    "not detected".to_string()
                }
            );
            if guarded.detected {
                ExitCode::SUCCESS
            } else {
                eprintln!("attack was NOT detected");
                ExitCode::FAILURE
            }
        }
        Some("fleet") => {
            if it.next() != Some("stats") {
                return usage();
            }
            let mut procs: usize = 8;
            let mut json = false;
            let mut prom = false;
            let mut multi_cr3 = true;
            while let Some(flag) = it.next() {
                match flag {
                    "--procs" => {
                        let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                            return usage();
                        };
                        procs = n;
                    }
                    "--json" => json = true,
                    "--prom" => prom = true,
                    "--single-cr3" => multi_cr3 = false,
                    _ => return usage(),
                }
            }
            if procs == 0 {
                eprintln!("--procs must be at least 1");
                return ExitCode::from(2);
            }

            // The benchmark fleet: `procs` members round-robined over four
            // distinct server images, each on a pid-seeded benign request
            // stream, with streaming engines so background drains exercise
            // the shared scheduler.
            let images = [
                fg_workloads::nginx_patched(),
                fg_workloads::vsftpd(),
                fg_workloads::openssh(),
                fg_workloads::exim(),
            ];
            let mut cfg = FleetConfig::default();
            cfg.flowguard.streaming = true;
            cfg.multi_cr3 = multi_cr3;
            let mut fleet = FleetSupervisor::new(cfg);
            for pid in 0..procs {
                let w = &images[pid % images.len()];
                let corpus = vec![w.default_input.clone()];
                let input = fg_workloads::load_input(8, pid as u64);
                if let Err(report) = fleet.spawn(&w.name, &w.image, &corpus, &input) {
                    eprintln!(
                        "artifact for {} rejected: {} error(s)",
                        w.name,
                        report.error_count()
                    );
                    return ExitCode::FAILURE;
                }
            }
            eprintln!("running {procs}-process fleet ...");
            fleet.run();

            if prom {
                print!("{}", fleet.prometheus_text());
                return ExitCode::SUCCESS;
            }
            let snap = fleet.snapshot();
            if json {
                match serde_json::to_string(&snap) {
                    Ok(s) => println!("{s}"),
                    Err(e) => {
                        eprintln!("serialization failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                return ExitCode::SUCCESS;
            }
            println!("fleet: {} processes (multi_cr3 {})", snap.processes.len(), snap.multi_cr3);
            println!(
                "artifact cache: {} hits / {} misses / {} rejections (hit rate {:.3})",
                snap.cache.hits,
                snap.cache.misses,
                snap.cache.rejections,
                snap.cache.hit_rate()
            );
            println!(
                "scheduler: {} checks admitted, {} drains deferred, {} executed, \
                 {} shed inline, {} dropped, max depth {}",
                snap.scheduler.checks_admitted,
                snap.scheduler.drains_enqueued,
                snap.scheduler.executed,
                snap.scheduler.shed_inline,
                snap.scheduler.dropped,
                snap.scheduler.max_queue_depth
            );
            println!(
                "tracing: {} context switches, {:.0} reconfig cycles",
                snap.switches, snap.reconfig_cycles
            );
            println!(
                "checks: {} total, {} violations, p99 latency {} cycles",
                snap.checks_total, snap.violations_total, snap.check_latency.p99
            );
            println!(
                "\n{:>4}  {:<14} {:>12}  {:>8}  {:>6}  stop",
                "pid", "name", "insns", "checks", "viol"
            );
            for p in &snap.processes {
                println!(
                    "{:>4}  {:<14} {:>12}  {:>8}  {:>6}  {}",
                    p.pid,
                    p.name,
                    p.insns_retired,
                    p.telemetry.checks,
                    p.violated,
                    p.stop.as_deref().unwrap_or("running")
                );
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
