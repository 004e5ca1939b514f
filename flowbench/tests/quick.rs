//! `--quick` runs of every workload: every metric `BENCHMARK.json` names
//! is reported and finite, nothing fails, every attack session is killed,
//! the `--json` report round-trips, and the traced run's spans add up.

use flowbench::report::Report;
use flowbench::workload::{self, Shape, Sizes, SPECS};
use flowbench::{churn, run_workload, Args, Ctx};
use serde::Value;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// The metric names `BENCHMARK.json` lists under `list`.
fn declared(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = serde_json::parse_value(&text).expect("BENCHMARK.json is JSON");
    let Some(Value::Array(metrics)) = doc.get(list) else { panic!("BENCHMARK.json lacks {list}") };
    metrics
        .iter()
        .map(|m| match m.get("name") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("metric without a name: {other:?}"),
        })
        .collect()
}

fn number(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::F64(x)) => *x,
        other => panic!("expected a number, got {other:?}"),
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let json = tmp("quick.json");
    let out = Command::new(env!("CARGO_BIN_EXE_flowbench"))
        .args(["--quick", "--seconds", "0.2", "--spans"])
        .arg(tmp("spans-e2e"))
        .arg("--json")
        .arg(&json)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    let last =
        serde_json::parse_value(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(last.get("failed"), Some(&Value::U64(0)));
    let metrics = last.get("metrics").expect("metrics");
    for spec in &SPECS {
        for name in declared("end_to_end") {
            let m = metrics.get(&format!("{}.{name}", spec.name));
            let value = number(m.and_then(|m| m.get("value")));
            assert!(value.is_finite() && value > 0.0, "{}.{name} = {value}", spec.name);
        }
    }

    let text = std::fs::read_to_string(&json).expect("--json wrote its file");
    let reports: Vec<Report> = serde_json::from_str(&text).expect("reports parse back");
    assert_eq!(serde_json::to_string(&reports).expect("serialise"), text, "round trip");
    assert_eq!(reports.len(), SPECS.len());
    for r in &reports {
        assert_eq!(r.failed, 0, "{}: {:?}", r.workload, r.failures);
        for m in &r.metrics {
            let line = metrics.get(&format!("{}.{}", r.workload, m.name));
            assert_eq!(number(line.and_then(|l| l.get("value"))), m.value, "{}", m.name);
        }
    }
}

#[test]
fn churn_kills_every_attack() {
    let spec = SPECS.iter().find(|s| s.shape == Shape::Churn).expect("a churn workload");
    let d = workload::Setup::default().deploy(&(spec.image)(), None, 0);
    let mut ctx = Ctx {
        seed: 3,
        seconds: 0.0,
        sizes: Sizes::new(true),
        epoch: Instant::now(),
        timer_ns: 0.0,
        spans: None,
        root: 0,
    };
    let run = churn::run(&mut ctx, &d, &workload::config(spec.config), &mut |_: &mut Ctx| {});
    assert_eq!(run.failed, 0, "{:?}", run.failures);
    assert_eq!(run.attacks, 5, "one session per payload");
    assert_eq!(run.attacks_killed, 5);
}

#[test]
fn traced_runs_report_every_layer_metric_and_their_spans_add_up() {
    let dir = tmp("spans-traced");
    for spec in &SPECS {
        let args = Args {
            workload: Some(spec.name.to_owned()),
            seconds: 0.2,
            trace: true,
            quick: true,
            spans: dir.clone(),
            ..Args::default()
        };
        let r = run_workload(spec, &args);
        assert!(r.correct, "{}: {:?}", spec.name, r.failures);
        for name in declared("per_layer") {
            let m = r.metric(&name).unwrap_or_else(|| panic!("{}: {name} missing", spec.name));
            assert!(m.value.is_finite(), "{}: {name} = {}", spec.name, m.value);
        }

        let text = std::fs::read_to_string(dir.join(format!("{}-seed1.jsonl", spec.name)))
            .expect("the traced run wrote its spans");
        let spans: Vec<Value> =
            text.lines().map(|l| serde_json::parse_value(l).expect("a JSON span")).collect();
        let field = |s: &Value, k: &str| match s.get(k) {
            Some(Value::U64(n)) => *n,
            other => panic!("{k}: {other:?}"),
        };
        let dur = |s: &Value| field(s, "end_ns") - field(s, "start_ns");
        let mut checked = 0;
        for s in spans.iter().filter(
            |s| matches!(s.get("name"), Some(Value::Str(n)) if n == "window" || n == "session"),
        ) {
            let id = field(s, "id");
            let children: u64 = spans.iter().filter(|c| field(c, "parent") == id).map(dur).sum();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let polls = number(s.get("attrs").and_then(|a| a.get("poll_ns"))) as u64;
            assert_eq!(field(s, "self_ns") + children + polls, dur(s), "{}: span {id}", spec.name);
            checked += 1;
        }
        assert!(checked > 0, "{}: no traced window", spec.name);
    }
}
