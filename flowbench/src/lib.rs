//! Host-timed benchmark of the FlowGuard reproduction.
//!
//! Every number is host wall time measured from outside the program: the
//! benchmark wraps each protected process's engine in its own
//! [`SyscallInterceptor`](fg_kernel::SyscallInterceptor) ([`probe::Timed`])
//! and times the public calls it makes into `Deployment`, `fg-ipt` and the
//! slow path directly. The end-to-end run reports what a user of a
//! protected server sees; the traced run (`--trace 1`) repeats the same
//! workload with spans around every layer call and reports per-layer
//! metrics. README.md defines every workload and metric.

#![deny(unsafe_code)]

pub mod churn;
pub mod host;
pub mod layers;
pub mod probe;
pub mod report;
pub mod serve;
pub mod spans;
pub mod workload;

use fg_cpu::CycleAccount;
use flowguard::WorkerPool;
use layers::Counters;
use probe::Calls;
use report::{Metric, Report};
use spans::SpanLog;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Setup, Shape, Sizes, Spec};

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run; every workload when `None`.
    pub workload: Option<String>,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure per workload.
    pub seconds: f64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Sizes divided by about 50, for tests.
    pub quick: bool,
    /// Where to write the full reports as JSON.
    pub json: Option<PathBuf>,
    /// Directory the traced run writes its span files to.
    pub spans: PathBuf,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            workload: None,
            seed: 1,
            seconds: 30.0,
            trace: false,
            quick: false,
            json: None,
            spans: PathBuf::from("flowbench/spans"),
        }
    }
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// --quick --json <path> --spans <dir>`.
    ///
    /// # Errors
    ///
    /// Describes the first unknown flag, missing value or bad value.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut a = Args::default();
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                a.quick = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => {
                    workload::spec(&value).ok_or_else(|| bad("a workload name"))?;
                    a.workload = Some(value);
                }
                "--seed" => a.seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => {
                    a.seconds = value.parse().map_err(|_| bad("a number"))?;
                    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                        return Err(bad("a non-negative number"));
                    }
                }
                "--trace" => {
                    a.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--json" => a.json = Some(PathBuf::from(value)),
                "--spans" => a.spans = PathBuf::from(value),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(a)
    }

    /// The workloads this invocation runs.
    pub fn specs(&self) -> Vec<&'static Spec> {
        match &self.workload {
            Some(name) => workload::spec(name).into_iter().collect(),
            None => workload::SPECS.iter().collect(),
        }
    }
}

/// State shared by the phases of one workload run.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Run sizes.
    pub sizes: Sizes,
    /// Time zero of every recorded time.
    pub epoch: Instant,
    /// Host cost of one timed region, ns ([`host::timer_overhead_ns`]).
    pub timer_ns: f64,
    /// The span log; `Some` only in the traced run.
    pub spans: Option<SpanLog>,
    /// Id of the top-level `workload` span (0 when not tracing).
    pub root: u64,
}

impl Ctx {
    /// Whether this is the traced run.
    pub fn tracing(&self) -> bool {
        self.spans.is_some()
    }
}

/// Work run between windows, outside their timing (the spaced set-up
/// repetitions).
pub type Between<'a> = dyn FnMut(&mut Ctx) + 'a;

/// One measurement window: a slice of a serve process, or a group of
/// churn sessions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    /// Whether poll slots were timed and checks classified (every other
    /// window of the traced run).
    pub traced: bool,
    /// Host ns the window's runs took (launches included).
    pub ns: u64,
    /// Instructions retired.
    pub insns: u64,
    /// Host ns spent launching processes (churn).
    pub launch_ns: u64,
    /// Processes launched (churn).
    pub launches: u64,
    /// Engine calls the wrapper timed.
    pub calls: Calls,
    /// Host ns of the reference loop run just before the window.
    pub ref_ns: f64,
    /// Modeled cycles of the window's processes.
    pub model: CycleAccount,
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct RunData {
    /// The measured windows.
    pub windows: Vec<Window>,
    /// Benign requests answered.
    pub requests: u64,
    /// Instructions retired by every measured process.
    pub insns: u64,
    /// Operations attempted: benign requests plus attack sessions.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed (first few).
    pub failures: Vec<String>,
    /// Attack sessions run.
    pub attacks: u64,
    /// Attack sessions killed with nothing of the attack's output written.
    pub attacks_killed: u64,
    /// Engine telemetry by key, summed over processes (traced run only).
    pub telemetry: Counters,
}

impl RunData {
    /// Records a failure costing `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Benign requests per retired instruction.
    pub fn requests_per_insn(&self) -> f64 {
        ratio(self.requests as f64, self.insns as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl Window {
    /// How much slower than the nominal host the host ran during this
    /// window, by the reference loop run just before it.
    pub fn scale(&self) -> f64 {
        host::host_scale(self.ref_ns)
    }

    /// Host ns outside every call the wrapper timed and every launch: the
    /// simulator and simulated kernel, which FlowGuard does not run.
    pub fn sim_ns(&self) -> f64 {
        let timed: u64 = self.calls.checks.iter().chain(&self.calls.pmis).map(|c| c.ns).sum();
        (self.ns as f64 - (timed + self.calls.poll_ns + self.launch_ns) as f64).max(1.0)
    }

    /// Instructions per host ns of [`Window::sim_ns`], unscaled.
    pub fn sim_speed(&self) -> f64 {
        self.insns as f64 / self.sim_ns()
    }
}

/// The windows during which the host left the benchmark alone: those
/// whose simulator speed reaches `share` of the 90th-percentile window's
/// ([`Sizes::quiet_share`]).
///
/// This host is shared, and other tenants slow it in phases of seconds to
/// minutes. The reference loop run before each window tracks the slow
/// phases, so every time is scaled to the nominal host by it
/// ([`Window::scale`]). It misses bursts of contention inside a window,
/// which slow the cache-bound checks two to four times while the
/// simulator loses a tenth. Such a burst only ever slows a window, so the
/// fastest windows of a run are the clean ones. The simulator speed
/// ([`Window::sim_speed`]) leaves out every FlowGuard call, and it is not
/// scaled, so that the reference loop's own noise does not blur it. Every
/// end-to-end host time is taken over the quiet windows.
pub fn quiet<'a>(windows: impl IntoIterator<Item = &'a Window>, share: f64) -> Vec<&'a Window> {
    let windows: Vec<&Window> = windows.into_iter().collect();
    let mut speeds: Vec<f64> = windows.iter().map(|w| w.sim_speed()).collect();
    let fast = host::quantile(&mut speeds, 0.9);
    windows.into_iter().filter(|w| w.sim_speed() >= share * fast).collect()
}

/// Instructions per nominal-host second over `windows`, FlowGuard calls
/// included.
pub fn insns_per_s(windows: &[&Window]) -> f64 {
    let insns: u64 = windows.iter().map(|w| w.insns).sum();
    let ns: f64 = windows.iter().map(|w| w.ns as f64 / w.scale()).sum();
    ratio(insns as f64 * 1e9, ns)
}

/// The end-to-end metrics of an untraced run: host times over the
/// [`quiet`] windows, scaled to the nominal host; the modeled overhead is
/// the median over every window.
pub fn end_to_end(sizes: &Sizes, setup: &Setup, run: &RunData) -> Vec<Metric> {
    let quiet = quiet(&run.windows, sizes.quiet_share);
    let mut check_us: Vec<f64> = quiet
        .iter()
        .flat_map(|w| w.calls.checks.iter().map(|c| c.ns as f64 / 1e3 / w.scale()))
        .collect();
    let mut overhead: Vec<f64> = run
        .windows
        .iter()
        .filter(|w| w.model.exec > 0.0)
        .map(|w| w.model.overhead() * 100.0)
        .collect();
    let mut setup_s = setup.nominal_s();
    let req_per_s = run.requests_per_insn() * insns_per_s(&quiet);
    vec![
        Metric::new("setup_s", host::median(&mut setup_s), "s", setup_s.len()),
        Metric::new("req_per_s", req_per_s, "req/s", quiet.len()),
        Metric::new("check_us_p50", host::median(&mut check_us), "us", check_us.len()),
        Metric::new("overhead_model_pct", host::median(&mut overhead), "%", overhead.len()),
    ]
}

/// Runs one workload end to end (or traced) and reports it.
pub fn run_workload(spec: &Spec, args: &Args) -> Report {
    let sizes = Sizes::new(args.quick);
    let epoch = Instant::now();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        sizes,
        epoch,
        timer_ns: host::timer_overhead_ns(),
        spans: args.trace.then(|| SpanLog::new(epoch)),
        root: 0,
    };
    let ref_start_ms = host::reference_ms();
    // The pool spawns its threads on first use; keep that out of every
    // timed call.
    WorkerPool::global();
    if let Some(log) = ctx.spans.as_mut() {
        ctx.root = log.open(0, "workload", 0, Instant::now());
    }

    let cfg = workload::config(spec.config);
    let w = (spec.image)();
    let mut setup = Setup::default();
    let d = &setup.deploy(&w, ctx.spans.as_mut(), ctx.root);
    // The remaining set-ups run between windows, evenly spaced.
    let spacing = Duration::from_secs_f64(args.seconds / sizes.setup_reps as f64);
    let mut due = Instant::now() + spacing;
    let mut between = |ctx: &mut Ctx| {
        if setup.total_s.len() < sizes.setup_reps && Instant::now() >= due {
            setup.deploy(&w, ctx.spans.as_mut(), ctx.root);
            due += spacing;
        }
    };
    let mut run = match spec.shape {
        Shape::Serve => serve::run(&mut ctx, d, &cfg, &mut between),
        Shape::Churn => churn::run(&mut ctx, d, &cfg, &mut between),
    };
    while setup.total_s.len() < sizes.setup_reps {
        setup.deploy(&w, ctx.spans.as_mut(), ctx.root);
    }
    if let Some(report) = &setup.verify_errors {
        run.fail(0, format!("deployment failed verification: {report}"));
    }

    let metrics = if ctx.tracing() {
        let replays = layers::replays(&mut ctx, d, &cfg);
        for f in &replays.failures {
            run.fail(0, f.clone());
        }
        let ref_end_ms = host::reference_ms();
        drift_warning(ref_start_ms, ref_end_ms);
        let host = layers::Host { timer_ns: ctx.timer_ns, ref_start_ms, ref_end_ms };
        layers::per_layer(&ctx, &setup, &run, &replays, &host)
    } else {
        drift_warning(ref_start_ms, host::reference_ms());
        end_to_end(&sizes, &setup, &run)
    };

    if let Some(mut log) = ctx.spans.take() {
        log.close(ctx.root, Instant::now());
        let path = args.spans.join(format!("{}-seed{}.jsonl", spec.name, args.seed));
        match log.write_jsonl(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => run.fail(0, format!("writing {}: {e}", path.display())),
        }
        println!("  {:<20} {:>8} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
        for row in log.self_times() {
            println!(
                "  {:<20} {:>8} {:>12.3} {:>12.3}",
                row.name,
                row.count,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6
            );
        }
    }

    Report {
        workload: spec.name.to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        correct: run.failed == 0 && run.failures.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        failures: run.failures,
        metrics,
    }
}

fn drift_warning(start_ms: f64, end_ms: f64) {
    let drift = ratio((end_ms - start_ms).abs(), start_ms);
    if drift > host::DRIFT_LIMIT {
        println!(
            "DRIFT: host reference loop took {start_ms:.2} ms at start, {end_ms:.2} ms at end \
             ({:.0}% apart); host speed changed during the run",
            drift * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn args_take_the_benchmark_flags_and_reject_the_rest() {
        let a = parse(&[
            "--workload",
            "serve-stream",
            "--seed",
            "7",
            "--seconds",
            "30",
            "--trace",
            "1",
        ])
        .expect("valid flags");
        assert_eq!(a.workload.as_deref(), Some("serve-stream"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30.0, true));
        assert_eq!(a.specs().len(), 1);
        assert_eq!(parse(&[]).expect("defaults").specs().len(), workload::SPECS.len());
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seed"],
            &["--seconds", "-1"],
            &["--bogus", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
