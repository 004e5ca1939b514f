//! Spans around the calls the benchmark makes into each layer, kept in
//! memory and written as JSON lines when the run ends.
//!
//! A span's self time is its duration minus the part its child spans cover,
//! minus its `poll_ns` attribute: trace-poll slots fire about 2,400 times
//! per request, so they are aggregated into one count and one time on the
//! span that contains them instead of being recorded one by one.

use crate::host::ns_between;
use crate::probe::Calls;
use crate::report::Raw;
use serde::Value;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are ns since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based id.
    pub id: u64,
    /// The enclosing span's id; 0 for a top-level span.
    pub parent: u64,
    /// What was called (`engine.check`, `window`, `setup.train`, …).
    pub name: &'static str,
    /// Workload-level index: window, session or repetition number.
    pub ws: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Extra numbers (escalated flag, scanned bytes, aggregated polls, …).
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The value of attribute `key`, if recorded.
    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// Self time of every span with one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// The in-memory span log of one run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose times count from `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog { epoch, spans: Vec::new() }
    }

    /// `t` in ns since the epoch.
    fn ns(&self, t: Instant) -> u64 {
        ns_between(self.epoch, t)
    }

    /// Opens a span starting at `start`; [`SpanLog::close`] ends it.
    pub fn open(&mut self, parent: u64, name: &'static str, ws: u64, start: Instant) -> u64 {
        let start_ns = self.ns(start);
        self.record(parent, name, ws, start_ns, start_ns, Vec::new())
    }

    /// Ends span `id` at `end`.
    pub fn close(&mut self, id: u64, end: Instant) {
        let end_ns = self.ns(end);
        self.span_mut(id).end_ns = end_ns;
    }

    /// Adds attribute `key` to span `id`.
    pub fn set_attr(&mut self, id: u64, key: &'static str, value: f64) {
        self.span_mut(id).attrs.push((key, value));
    }

    /// Records a finished span between two instants.
    pub fn span(
        &mut self,
        parent: u64,
        name: &'static str,
        ws: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record(parent, name, ws, start_ns, end_ns, Vec::new())
    }

    /// Records a finished span in epoch coordinates.
    pub fn record(
        &mut self,
        parent: u64,
        name: &'static str,
        ws: u64,
        start_ns: u64,
        end_ns: u64,
        attrs: Vec<(&'static str, f64)>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span { id, parent, name, ws, start_ns, end_ns, attrs });
        id
    }

    /// Records `calls` under span `parent`: one `engine.check` or
    /// `engine.pmi` span per call, and the poll slots as the parent's
    /// `polls` and `poll_ns` attributes.
    pub fn record_calls(&mut self, parent: u64, ws: u64, calls: &Calls) {
        for c in &calls.checks {
            let attrs =
                vec![("escalated", f64::from(u8::from(c.escalated))), ("bytes", c.bytes as f64)];
            self.record(parent, "engine.check", ws, c.start_ns, c.start_ns + c.ns, attrs);
        }
        for c in &calls.pmis {
            self.record(parent, "engine.pmi", ws, c.start_ns, c.start_ns + c.ns, Vec::new());
        }
        self.set_attr(parent, "polls", calls.polls as f64);
        self.set_attr(parent, "poll_ns", calls.poll_ns as f64);
    }

    fn span_mut(&mut self, id: u64) -> &mut Span {
        let idx = usize::try_from(id - 1).expect("span ids fit usize");
        &mut self.spans[idx]
    }

    /// Self time of each span, in span order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                let idx = usize::try_from(s.parent - 1).expect("span ids fit usize");
                covered[idx] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let polls = s.attr("poll_ns").unwrap_or(0.0) as u64;
                s.dur_ns().saturating_sub(c + polls)
            })
            .collect()
    }

    /// Self time summed per span name, in order of first appearance.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut out: Vec<SelfTime> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let row = match out.iter_mut().position(|r| r.name == s.name) {
                Some(i) => &mut out[i],
                None => {
                    out.push(SelfTime { name: s.name, count: 0, total_ns: 0, self_ns: 0 });
                    out.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.total_ns += s.dur_ns();
            row.self_ns += self_ns;
        }
        out
    }

    /// Writes one JSON object per span, with its computed `self_ns`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let attrs =
                s.attrs.iter().map(|&(k, v)| (k.to_owned(), Value::F64(v))).collect::<Vec<_>>();
            let line = Value::Object(vec![
                ("id".to_owned(), Value::U64(s.id)),
                ("parent".to_owned(), Value::U64(s.parent)),
                ("name".to_owned(), Value::Str(s.name.to_owned())),
                ("ws".to_owned(), Value::U64(s.ws)),
                ("start_ns".to_owned(), Value::U64(s.start_ns)),
                ("end_ns".to_owned(), Value::U64(s.end_ns)),
                ("self_ns".to_owned(), Value::U64(self_ns)),
                ("attrs".to_owned(), Value::Object(attrs)),
            ]);
            let text = serde_json::to_string(&Raw(line)).expect("spans serialise");
            writeln!(out, "{text}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_aggregated_polls() {
        let mut log = SpanLog::new(Instant::now());
        let w = log.record(0, "window", 0, 0, 1000, vec![("poll_ns", 100.0)]);
        log.record(w, "engine.check", 0, 100, 300, Vec::new());
        log.record(w, "engine.check", 0, 500, 550, Vec::new());
        assert_eq!(log.self_ns(), vec![650, 200, 50]);
        let rows = log.self_times();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].count, 2);
        assert_eq!(rows[1].total_ns, 250);
    }
}
