//! Reported numbers, the per-workload report, and the one-line result the
//! benchmark prints last.

use serde::{Deserialize, Serialize, Value};

/// One reported number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name (`req_per_s`, `fastpath.check_us_p50`, …).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit (`s`, `req/s`, `us`, `count`, …).
    pub unit: String,
    /// Samples the value was derived from: windows, checks, repetitions.
    pub samples: u64,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, value: f64, unit: &str, samples: usize) -> Metric {
        Metric { name: name.to_owned(), value, unit: unit.to_owned(), samples: samples as u64 }
    }
}

/// Everything one workload run reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds requested.
    pub seconds: f64,
    /// Whether this was the traced (per-layer) run.
    pub trace: bool,
    /// Whether every output and verdict checked out.
    pub correct: bool,
    /// Operations attempted: benign requests plus attack sessions.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed (first few), for the log.
    pub failures: Vec<String>,
    /// End-to-end metrics, or per-layer metrics in the traced run.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The metric named `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// A ready-made document tree, serialisable as-is.
pub struct Raw(pub Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// The final stdout line: `correct`, `attempted`, `failed` and every metric
/// as `{"value", "unit"}`. Several reports (a run over every workload)
/// prefix each metric with its workload's name.
pub fn result_line(reports: &[Report]) -> String {
    let prefix = reports.len() > 1;
    let mut metrics = Vec::new();
    for r in reports {
        for m in &r.metrics {
            let name = if prefix { format!("{}.{}", r.workload, m.name) } else { m.name.clone() };
            let entry = Value::Object(vec![
                ("value".to_owned(), Value::F64(m.value)),
                ("unit".to_owned(), Value::Str(m.unit.clone())),
            ]);
            metrics.push((name, entry));
        }
    }
    let line = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(reports.iter().all(|r| r.correct))),
        ("attempted".to_owned(), Value::U64(reports.iter().map(|r| r.attempted).sum())),
        ("failed".to_owned(), Value::U64(reports.iter().map(|r| r.failed).sum())),
        ("metrics".to_owned(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&Raw(line)).expect("result serialises")
}

/// A human-readable table of one report.
pub fn table(r: &Report) -> String {
    let mut out = format!(
        "{}  seed={}  seconds={}  trace={}\n  {:<32} {:>16}  {:<10} {:>8}\n",
        r.workload,
        r.seed,
        r.seconds,
        u8::from(r.trace),
        "metric",
        "value",
        "unit",
        "samples"
    );
    for m in &r.metrics {
        out.push_str(&format!(
            "  {:<32} {:>16.6}  {:<10} {:>8}\n",
            m.name, m.value, m.unit, m.samples
        ));
    }
    out.push_str(&format!(
        "  correct={} attempted={} failed={}\n",
        r.correct, r.attempted, r.failed
    ));
    for f in &r.failures {
        out.push_str(&format!("  FAILED: {f}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let r = Report {
            workload: "w".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            correct: true,
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
            metrics: vec![Metric::new("setup_s", 0.5, "s", 5)],
        };
        let line = result_line(std::slice::from_ref(&r));
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
        let two = result_line(&[r.clone(), r]);
        assert!(two.contains(r#""w.setup_s""#) && two.contains(r#""attempted":6"#));
    }
}
