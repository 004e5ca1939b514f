//! Exporters: a linted Prometheus/OpenMetrics text exposition builder.
//!
//! JSON export happens via `serde` on the snapshot structs that the runtime
//! crates assemble (e.g. `flowguard`'s `TelemetrySnapshot`); this module owns
//! the Prometheus text rendering. Two disciplines keep the dump fit for a
//! fleet scraper:
//!
//! * **Exposition lint** — every emitter validates its metric name against
//!   the Prometheus charset and the suite's unit-suffix convention
//!   (counters end in `_total`, everything else in a unit such as
//!   `_bytes`/`_cycles`/`_ns`), and always writes `# HELP`/`# TYPE` before
//!   samples. [`lint`] re-parses a finished dump and reports every
//!   violation, so a test (or CI) can assert the exposition is clean.
//! * **Mergeable histograms** — [`PromText::histogram`] renders cumulative
//!   `_bucket{le="…"}` series from [`Histogram::cumulative_buckets`]
//!   output. Because `fg-trace` bucket boundaries are fixed, expositions
//!   from many processes aggregate by addition.
//!
//! [`Histogram::cumulative_buckets`]: crate::hist::Histogram::cumulative_buckets

use std::collections::HashMap;

/// Unit suffixes the suite's metric names may end with. Counters must end
/// in `_total` (optionally preceded by a unit, e.g. `_bytes_total`); every
/// other kind must end in one of the remaining units.
pub const UNIT_SUFFIXES: [&str; 9] =
    ["_total", "_bytes", "_cycles", "_entries", "_ns", "_ratio", "_status", "_shards", "_records"];

/// Whether `name` matches the Prometheus metric-name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    if !(first.is_ascii_alphabetic() || first == '_' || first == ':') {
        return false;
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn has_unit_suffix(name: &str) -> bool {
    UNIT_SUFFIXES.iter().any(|s| name.ends_with(s))
}

fn check_name(name: &str, kind: &str) {
    assert!(valid_metric_name(name), "metric name {name:?} violates the Prometheus charset");
    if kind == "counter" {
        assert!(name.ends_with("_total"), "counter {name:?} must end in _total");
    } else {
        assert!(has_unit_suffix(name), "{kind} {name:?} must end in a unit suffix");
    }
}

/// Accumulates a Prometheus text-format exposition.
#[derive(Default, Debug)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty exposition.
    pub fn new() -> PromText {
        PromText::default()
    }

    /// Appends one counter metric with `# HELP`/`# TYPE` headers.
    ///
    /// # Panics
    ///
    /// Panics when `name` violates the charset or does not end in `_total`.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) -> &mut Self {
        self.header(name, help, "counter");
        self.out.push_str(&format!("{name} {value}\n"));
        self
    }

    /// Appends one counter family with one sample per `label_key` value —
    /// e.g. per-phase cycle totals as `fg_phase_cycles_total{phase="…"}`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric or label name.
    pub fn labeled_counter(
        &mut self,
        name: &str,
        help: &str,
        label_key: &str,
        series: &[(&str, f64)],
    ) -> &mut Self {
        self.header(name, help, "counter");
        assert!(valid_metric_name(label_key), "label name {label_key:?} violates the charset");
        for (label, value) in series {
            self.out.push_str(&format!("{name}{{{label_key}=\"{label}\"}} {value}\n"));
        }
        self
    }

    /// Appends one gauge metric.
    ///
    /// # Panics
    ///
    /// Panics when `name` violates the charset or lacks a unit suffix.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) -> &mut Self {
        self.header(name, help, "gauge");
        self.out.push_str(&format!("{name} {value}\n"));
        self
    }

    /// Appends a *mergeable* cumulative histogram: one
    /// `_bucket{le="bound"}` sample per occupied bucket (as produced by
    /// `Histogram::cumulative_buckets`), the mandatory `le="+Inf"` bucket,
    /// and exact `_sum`/`_count` series.
    ///
    /// # Panics
    ///
    /// Panics when `name` violates the charset or lacks a unit suffix.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        buckets: &[(u64, u64)],
        sum: u64,
        count: u64,
    ) -> &mut Self {
        self.header(name, help, "histogram");
        for (upper, cum) in buckets {
            self.out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cum}\n"));
        }
        self.out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
        self.out.push_str(&format!("{name}_sum {sum}\n"));
        self.out.push_str(&format!("{name}_count {count}\n"));
        self
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        check_name(name, kind);
        self.out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    }

    /// The rendered exposition.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Strips the component suffix a `histogram` sample carries on top of its
/// family name.
fn family_of<'a>(sample_name: &'a str, types: &HashMap<String, String>) -> &'a str {
    for comp in ["_bucket", "_sum", "_count"] {
        if let Some(base) = sample_name.strip_suffix(comp) {
            if types.get(base).is_some_and(|kind| kind == "histogram") {
                return base;
            }
        }
    }
    sample_name
}

/// Re-parses a finished exposition and returns every lint violation:
/// samples without `# HELP`/`# TYPE`, names outside the Prometheus
/// charset, missing unit suffixes, counters not ending in `_total`, and
/// unparsable sample values. An empty vector means the dump is clean.
pub fn lint(text: &str) -> Vec<String> {
    let mut helps: HashMap<String, String> = HashMap::new();
    let mut types: HashMap<String, String> = HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            if let Some((name, help)) = rest.split_once(' ') {
                helps.insert(name.to_owned(), help.to_owned());
            }
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((name, kind)) = rest.split_once(' ') {
                types.insert(name.to_owned(), kind.to_owned());
            }
        }
    }

    let mut errors = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // A sample is `name value` or `name{labels} value`.
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let sample_name = &line[..name_end];
        let Some(value) = line.rsplit(' ').next().filter(|v| !v.is_empty()) else {
            errors.push(format!("sample line {line:?} has no value"));
            continue;
        };
        if value.parse::<f64>().is_err() {
            errors.push(format!("sample {sample_name}: value {value:?} is not a number"));
        }
        let family = family_of(sample_name, &types);
        if !valid_metric_name(family) {
            errors.push(format!("metric {family:?} violates the Prometheus charset"));
        }
        let Some(kind) = types.get(family) else {
            errors.push(format!("metric {family} has no # TYPE line"));
            continue;
        };
        if !helps.contains_key(family) {
            errors.push(format!("metric {family} has no # HELP line"));
        }
        if kind == "counter" {
            if !family.ends_with("_total") {
                errors.push(format!("counter {family} does not end in _total"));
            }
        } else if !has_unit_suffix(family) {
            errors.push(format!("{kind} {family} lacks a unit suffix"));
        }
    }
    errors.dedup();
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn renders_counters_and_gauges() {
        let mut p = PromText::new();
        p.counter("fg_checks_total", "Endpoint checks performed", 42);
        p.gauge("fg_cache_entries", "Edge-cache entries", 7.0);
        let text = p.finish();
        assert!(text.contains("# TYPE fg_checks_total counter"));
        assert!(text.contains("fg_checks_total 42"));
        assert!(text.contains("# TYPE fg_cache_entries gauge"));
        assert!(text.contains("fg_cache_entries 7"));
        assert!(lint(&text).is_empty(), "own dump lints clean: {:?}", lint(&text));
    }

    #[test]
    fn renders_mergeable_cumulative_histograms() {
        let mut h = Histogram::new();
        for v in [5u64, 5, 80, 3000] {
            h.record(v);
        }
        let mut p = PromText::new();
        p.histogram("fg_latency_cycles", "Check latency", &h.cumulative_buckets(), h.sum(), 4);
        let text = p.finish();
        assert!(text.contains("# TYPE fg_latency_cycles histogram"));
        assert!(text.contains("fg_latency_cycles_bucket{le=\"5\"} 2"));
        assert!(text.contains("fg_latency_cycles_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains(&format!("fg_latency_cycles_sum {}", h.sum())));
        assert!(text.contains("fg_latency_cycles_count 4"));
        assert!(lint(&text).is_empty(), "{:?}", lint(&text));
    }

    #[test]
    fn renders_labeled_counters() {
        let mut p = PromText::new();
        p.labeled_counter(
            "fg_phase_cycles_total",
            "Cycles per phase",
            "phase",
            &[("fast_scan", 120.5), ("verdict", 7.0)],
        );
        let text = p.finish();
        assert!(text.contains("fg_phase_cycles_total{phase=\"fast_scan\"} 120.5"));
        assert!(text.contains("fg_phase_cycles_total{phase=\"verdict\"} 7"));
        assert!(lint(&text).is_empty(), "{:?}", lint(&text));
    }

    #[test]
    fn lint_flags_every_violation_class() {
        // Clean exposition: no findings.
        assert!(lint("# HELP a_total ok\n# TYPE a_total counter\na_total 1\n").is_empty());
        // Missing TYPE.
        let errs = lint("orphan_total 3\n");
        assert!(errs.iter().any(|e| e.contains("no # TYPE")), "{errs:?}");
        // Missing HELP.
        let errs = lint("# TYPE x_total counter\nx_total 3\n");
        assert!(errs.iter().any(|e| e.contains("no # HELP")), "{errs:?}");
        // Counter without _total.
        let errs = lint("# HELP x_bytes h\n# TYPE x_bytes counter\nx_bytes 3\n");
        assert!(errs.iter().any(|e| e.contains("does not end in _total")), "{errs:?}");
        // Gauge without a unit suffix.
        let errs = lint("# HELP x_size h\n# TYPE x_size gauge\nx_size 3\n");
        assert!(errs.iter().any(|e| e.contains("lacks a unit suffix")), "{errs:?}");
        // Charset violation.
        let errs = lint("# HELP 9bad_total h\n# TYPE 9bad_total counter\n9bad_total 3\n");
        assert!(errs.iter().any(|e| e.contains("charset")), "{errs:?}");
        // Unparsable value.
        let errs = lint("# HELP v_total h\n# TYPE v_total counter\nv_total oops\n");
        assert!(errs.iter().any(|e| e.contains("not a number")), "{errs:?}");
        // Histogram component series resolve to their family.
        let text = "# HELP h_cycles h\n# TYPE h_cycles histogram\n\
                    h_cycles_bucket{le=\"+Inf\"} 2\nh_cycles_sum 10\nh_cycles_count 2\n";
        assert!(lint(text).is_empty(), "{:?}", lint(text));
    }

    #[test]
    #[should_panic(expected = "must end in _total")]
    fn emitting_a_counter_without_total_suffix_panics() {
        PromText::new().counter("fg_checks", "nope", 1);
    }

    #[test]
    #[should_panic(expected = "charset")]
    fn emitting_an_invalid_name_panics() {
        PromText::new().gauge("bad name_bytes", "nope", 1.0);
    }
}
