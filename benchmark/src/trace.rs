//! The benchmark's own span recorder. Spans are opened by the workload
//! code around each call into a layer's public function — nothing inside
//! the program is instrumented — stay in memory, and are written out as
//! JSON when the run ends. A disabled recorder reads no clock.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent` is the span that was open when this one
/// began (`None` for a pass's root span).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub layer: &'static str,
    pub pass: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Trace {
    enabled: bool,
    origin: Instant,
    pass: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace { enabled, origin: Instant::now(), pass: 0, open: Vec::new(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between passes.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "cannot toggle tracing inside a span");
        self.enabled = enabled;
    }

    /// Numbers the spans recorded from here on as belonging to `pass`.
    pub fn start_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::end`] in LIFO order.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            layer,
            pass: self.pass,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("Trace::end without a matching begin");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records `f` as one leaf span.
    pub fn call<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(layer, name);
        let out = f();
        self.end();
        out
    }

    /// Per pass, the summed duration (µs) of the spans called
    /// `layer`/`name`; one entry per pass that recorded any.
    fn per_pass_us(&self, layer: &str, name: &str) -> Vec<f64> {
        let mut by_pass: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.layer == layer && s.name == name) {
            *by_pass.entry(s.pass).or_default() += s.duration_us();
        }
        by_pass.into_values().collect()
    }

    /// Median over the traced passes of [`Trace::per_pass_us`]; 0 when
    /// no such span was recorded.
    pub fn median_us(&self, layer: &str, name: &str) -> f64 {
        let per_pass = self.per_pass_us(layer, name);
        if per_pass.is_empty() {
            0.0
        } else {
            crate::measure::median(&per_pass)
        }
    }

    /// Every duration (µs) of the spans called `layer`/`name`.
    pub fn durations_us(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Self time per `(layer, name)`: each span's duration minus the
    /// part its direct children cover, summed over all passes, µs.
    pub fn self_time_us(&self) -> BTreeMap<(&'static str, &'static str), f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<(&'static str, &'static str), f64> = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            *out.entry((s.layer, s.name)).or_default() += own as f64 / 1e3;
        }
        out
    }

    /// The trace file: every span plus the self-time table.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(u64::from(s.id))),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| Value::UInt(u64::from(p)))),
                    ("name".into(), Value::Str(s.name.into())),
                    ("layer".into(), Value::Str(s.layer.into())),
                    ("workload".into(), Value::Str(workload.into())),
                    ("pass".into(), Value::UInt(u64::from(s.pass))),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                ])
            })
            .collect();
        let self_time = self
            .self_time_us()
            .into_iter()
            .map(|((layer, name), us)| {
                Value::Object(vec![
                    ("layer".into(), Value::Str(layer.into())),
                    ("name".into(), Value::Str(name.into())),
                    ("self_us".into(), Value::Float(us)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("schema_version".into(), Value::UInt(crate::SCHEMA_VERSION)),
            ("workload".into(), Value::Str(workload.into())),
            ("self_time".into(), Value::Array(self_time)),
            ("spans".into(), Value::Array(spans)),
        ])
    }
}
