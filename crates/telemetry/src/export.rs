//! Exporters: Chrome trace-event JSON and a flame summary table.

use crate::trace::SpanRecord;
use serde_json::Value;

/// Chrome trace-event phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Duration begin.
    Begin,
    /// Duration end.
    End,
    /// Complete event (`ts` + `dur`).
    Complete,
    /// Instant event.
    Instant,
}

impl Phase {
    fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Complete => "X",
            Phase::Instant => "i",
        }
    }
}

/// One event in the Chrome trace-event format
/// (<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name.
    pub name: String,
    /// Comma-separated categories.
    pub cat: String,
    /// Phase.
    pub ph: Phase,
    /// Timestamp, µs.
    pub ts_us: u64,
    /// Duration, µs — only for [`Phase::Complete`].
    pub dur_us: Option<u64>,
    /// Process id lane.
    pub pid: u32,
    /// Thread id lane.
    pub tid: u32,
    /// Extra `args` payload, shown by the viewer on click.
    pub args: Vec<(String, String)>,
}

impl TraceEvent {
    /// A complete (`X`) event.
    pub(crate) fn complete(
        name: &str,
        cat: &str,
        ts_us: u64,
        dur_us: u64,
        pid: u32,
        tid: u32,
    ) -> Self {
        TraceEvent {
            name: name.to_owned(),
            cat: cat.to_owned(),
            ph: Phase::Complete,
            ts_us,
            dur_us: Some(dur_us),
            pid,
            tid,
            args: Vec::new(),
        }
    }

    /// Adds an `args` entry, builder style.
    pub(crate) fn with_arg(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.args.push((key.to_owned(), value.to_string()));
        self
    }

    fn to_value(&self) -> Value {
        // `Int` when it fits, matching what the JSON parser produces, so
        // exported values roundtrip to equal `Value`s.
        fn uint(n: u64) -> Value {
            i64::try_from(n).map_or(Value::UInt(n), Value::Int)
        }
        let mut fields = vec![
            ("name".to_owned(), Value::Str(self.name.clone())),
            ("cat".to_owned(), Value::Str(self.cat.clone())),
            ("ph".to_owned(), Value::Str(self.ph.code().to_owned())),
            ("ts".to_owned(), uint(self.ts_us)),
        ];
        if let Some(dur) = self.dur_us {
            fields.push(("dur".to_owned(), uint(dur)));
        }
        fields.push(("pid".to_owned(), uint(self.pid as u64)));
        fields.push(("tid".to_owned(), uint(self.tid as u64)));
        if self.ph == Phase::Instant {
            fields.push(("s".to_owned(), Value::Str("t".to_owned())));
        }
        if !self.args.is_empty() {
            let args = self.args.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone()))).collect();
            fields.push(("args".to_owned(), Value::Object(args)));
        }
        Value::Object(fields)
    }
}

/// Pid lane used for compiler-side spans.
pub(crate) const COMPILER_PID: u32 = 1;

/// Converts finished spans into complete (`X`) trace events, carrying
/// span id / parent id and every attribute in `args`.
pub fn spans_to_events(spans: &[SpanRecord]) -> Vec<TraceEvent> {
    spans
        .iter()
        .map(|span| {
            let mut event = TraceEvent::complete(
                &span.name,
                &span.category,
                span.start_us,
                span.duration_us(),
                COMPILER_PID,
                span.tid,
            )
            .with_arg("span_id", span.id);
            if let Some(parent) = span.parent {
                event = event.with_arg("parent_id", parent);
            }
            for (key, value) in &span.attrs {
                event = event.with_arg(key, value);
            }
            event
        })
        .collect()
}

/// Serializes events as a Chrome trace-event JSON array, loadable in
/// `chrome://tracing` and Perfetto.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let array = Value::Array(events.iter().map(TraceEvent::to_value).collect());
    serde_json::to_string(&array).expect("value tree always serializes")
}

/// Aggregated timing for one span name in a [`flame_summary`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FlameRow {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub calls: u64,
    /// Total wall time, µs.
    pub total_us: u64,
    /// Total minus time spent in child spans, µs.
    pub self_us: u64,
}

/// Aggregates spans by name (calls, total µs, self µs), ordered by total
/// time descending.
pub(crate) fn flame_rows(spans: &[SpanRecord]) -> Vec<FlameRow> {
    // Time attributed to children, keyed by parent span id.
    let mut child_us: Vec<(u64, u64)> = Vec::new();
    for span in spans {
        if let Some(parent) = span.parent {
            match child_us.iter_mut().find(|(id, _)| *id == parent) {
                Some((_, total)) => *total += span.duration_us(),
                None => child_us.push((parent, span.duration_us())),
            }
        }
    }
    let mut rows: Vec<FlameRow> = Vec::new();
    for span in spans {
        let in_children =
            child_us.iter().find(|(id, _)| *id == span.id).map_or(0, |(_, total)| *total);
        let total = span.duration_us();
        let own = total.saturating_sub(in_children);
        match rows.iter_mut().find(|row| row.name == span.name) {
            Some(row) => {
                row.calls += 1;
                row.total_us += total;
                row.self_us += own;
            }
            None => rows.push(FlameRow {
                name: span.name.clone(),
                calls: 1,
                total_us: total,
                self_us: own,
            }),
        }
    }
    rows.sort_by(|a, b| b.total_us.cmp(&a.total_us).then_with(|| a.name.cmp(&b.name)));
    rows
}

/// Renders a human-readable flame summary table.
pub fn flame_summary(spans: &[SpanRecord]) -> String {
    let rows = flame_rows(spans);
    let name_width =
        rows.iter().map(|row| row.name.len()).chain(std::iter::once("span".len())).max().unwrap();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_width$}  {:>7}  {:>12}  {:>12}  {:>10}\n",
        "span", "calls", "total µs", "self µs", "mean µs"
    ));
    out.push_str(&format!("{}\n", "-".repeat(name_width + 2 + 7 + 2 + 12 + 2 + 12 + 2 + 10)));
    for row in &rows {
        let mean = row.total_us as f64 / row.calls as f64;
        out.push_str(&format!(
            "{:<name_width$}  {:>7}  {:>12}  {:>12}  {:>10.1}\n",
            row.name, row.calls, row.total_us, row.self_us, mean
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_owned(),
            category: "test".to_owned(),
            start_us: start,
            end_us: end,
            tid: 1,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn chrome_json_has_required_fields() {
        let spans = vec![span(1, None, "compile", 0, 500)];
        let json = chrome_trace_json(&spans_to_events(&spans));
        let value: Value = serde_json::from_str(&json).unwrap();
        let Value::Array(events) = value else { panic!("expected array") };
        assert_eq!(events.len(), 1);
        let event = &events[0];
        assert_eq!(event.get("name"), Some(&Value::Str("compile".to_owned())));
        assert_eq!(event.get("ph"), Some(&Value::Str("X".to_owned())));
        assert_eq!(event.get("ts"), Some(&Value::Int(0)));
        assert_eq!(event.get("dur"), Some(&Value::Int(500)));
        assert!(event.get("pid").is_some() && event.get("tid").is_some());
    }

    #[test]
    fn parent_links_and_attrs_land_in_args() {
        let mut child = span(2, Some(1), "inner", 10, 20);
        child.attrs.push(("k".to_owned(), "v".to_owned()));
        let events = spans_to_events(&[child]);
        let args = &events[0].args;
        assert!(args.contains(&("parent_id".to_owned(), "1".to_owned())));
        assert!(args.contains(&("k".to_owned(), "v".to_owned())));
    }

    #[test]
    fn begin_end_events_serialize_with_phase_codes() {
        let event = |ph, ts_us| TraceEvent {
            name: "task".to_owned(),
            cat: "workflow".to_owned(),
            ph,
            ts_us,
            dur_us: None,
            pid: 2,
            tid: 3,
            args: Vec::new(),
        };
        let events = vec![event(Phase::Begin, 5), event(Phase::End, 9)];
        let json = chrome_trace_json(&events);
        let Value::Array(values) = serde_json::from_str(&json).unwrap() else {
            panic!("expected array")
        };
        assert_eq!(values[0].get("ph"), Some(&Value::Str("B".to_owned())));
        assert_eq!(values[1].get("ph"), Some(&Value::Str("E".to_owned())));
        assert_eq!(values[0].get("tid"), Some(&Value::Int(3)));
        assert!(values[0].get("dur").is_none());
    }

    #[test]
    fn flame_rows_compute_self_time_and_order() {
        let spans = vec![
            span(1, None, "outer", 0, 100),
            span(2, Some(1), "inner", 10, 40),
            span(3, Some(1), "inner", 50, 70),
        ];
        let rows = flame_rows(&spans);
        assert_eq!(rows[0].name, "outer");
        assert_eq!(rows[0].total_us, 100);
        assert_eq!(rows[0].self_us, 100 - 30 - 20);
        assert_eq!(rows[1].name, "inner");
        assert_eq!(rows[1].calls, 2);
        assert_eq!(rows[1].total_us, 50);
        assert_eq!(rows[1].self_us, 50);
    }

    #[test]
    fn flame_summary_renders_every_row() {
        let spans = vec![span(1, None, "a", 0, 10), span(2, None, "b", 0, 4)];
        let table = flame_summary(&spans);
        assert!(table.contains("span"));
        assert!(table.contains('a') && table.contains('b'));
        assert_eq!(table.lines().count(), 4); // header, rule, two rows
    }
}
