//! Structured diagnostics shared by every static analysis and lint.
//!
//! All analyses — the IR lints in [`crate::lints`], the workflow race
//! detector, the verifier bridge in the CLI — report through one
//! [`Diagnostic`] type so tooling downstream (the `everestc check`
//! subcommand, the CI JSON gate) sees a single stable format: a severity, a
//! stable lint code, a function/task location, a human message and a
//! rendered snippet of the offending op or task pair.

use crate::ir::Op;
use std::fmt;

/// How serious a diagnostic is. Errors fail `everestc check`; warnings are
/// reported but do not change the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not definitely wrong (dead stores, unused results).
    Warning,
    /// Definitely wrong on some execution (out-of-bounds access, secret
    /// flows to an unprotected sink, dataset races).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding from a static analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable lint code (e.g. `"dead-store"`, `"taint-flow"`): one of the
    /// `LINT_*` constants of [`crate::lints`].
    pub code: &'static str,
    /// Enclosing function or workflow name (without the `@`).
    pub func: String,
    /// Op or task location, e.g. `"^bb0 op 3"` (nested regions join with
    /// `" / "`); empty when the finding is not tied to one op.
    pub location: String,
    /// Human-readable explanation.
    pub message: String,
    /// Rendered snippet of the offending op or task pair.
    pub snippet: String,
    /// Source file the diagnostic came from (filled in by the CLI; empty
    /// for programmatic use).
    pub file: String,
}

impl Diagnostic {
    /// Creates a diagnostic with empty location/snippet/file, which the
    /// analysis then fills in.
    pub fn new(
        severity: Severity,
        code: &'static str,
        func: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity,
            code,
            func: func.into(),
            location: String::new(),
            message: message.into(),
            snippet: String::new(),
            file: String::new(),
        }
    }

    /// Sets the op/task location, returning `self` for chaining.
    #[must_use]
    pub fn at(mut self, location: impl Into<String>) -> Diagnostic {
        self.location = location.into();
        self
    }

    /// Sets the rendered snippet, returning `self` for chaining.
    #[must_use]
    pub fn with_snippet(mut self, snippet: impl Into<String>) -> Diagnostic {
        self.snippet = snippet.into();
        self
    }

    /// Renders the diagnostic as a human-readable block, mirroring the
    /// verifier's `at ^bbN op I` location format:
    ///
    /// ```text
    /// error[taint-flow] @leak at ^bb0 op 3: secret value reaches sink
    ///     df.sink %2 {kind = "out"}
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.file.is_empty() {
            out.push_str(&self.file);
            out.push_str(": ");
        }
        out.push_str(&format!("{}[{}] @{}", self.severity, self.code, self.func));
        if !self.location.is_empty() {
            out.push_str(&format!(" at {}", self.location));
        }
        out.push_str(&format!(": {}", self.message));
        if !self.snippet.is_empty() {
            out.push_str(&format!("\n    {}", self.snippet));
        }
        out
    }

    /// Serializes the diagnostic as one JSON object.
    pub(crate) fn to_json(&self) -> String {
        let q = |s: &str| serde_json::to_string(s).expect("a string always serializes");
        format!(
            "{{\"severity\": \"{}\", \"code\": {}, \"func\": {}, \"location\": {}, \
             \"message\": {}, \"snippet\": {}, \"file\": {}}}",
            self.severity,
            q(self.code),
            q(&self.func),
            q(&self.location),
            q(&self.message),
            q(&self.snippet),
            q(&self.file),
        )
    }
}

/// Renders a plain-text report: one block per diagnostic plus a summary
/// line (`check: 2 errors, 1 warning`).
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.render());
        out.push('\n');
    }
    let (errors, warnings) = tally(diags);
    out.push_str(&format!(
        "check: {errors} error{}, {warnings} warning{}\n",
        if errors == 1 { "" } else { "s" },
        if warnings == 1 { "" } else { "s" },
    ));
    out
}

/// Version of the JSON envelope emitted by [`render_json`]. Bumped whenever
/// a field is renamed, removed, or changes meaning; purely additive changes
/// keep the version. CI gates and external tooling key on this.
pub(crate) const DIAG_SCHEMA_VERSION: u32 = 1;

/// Serializes diagnostics as a versioned JSON envelope (`--format json`):
/// `{"schema_version": 1, "diagnostics": [...]}`.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = format!("{{\"schema_version\": {DIAG_SCHEMA_VERSION}, \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&d.to_json());
    }
    out.push_str("]}\n");
    out
}

/// `(errors, warnings)` counts.
pub fn tally(diags: &[Diagnostic]) -> (usize, usize) {
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    (errors, diags.len() - errors)
}

/// Bumps the `check.diag.error` / `check.diag.warn` telemetry counters for
/// a batch of findings.
pub fn record_metrics(diags: &[Diagnostic]) {
    let (errors, warnings) = tally(diags);
    let metrics = everest_telemetry::metrics();
    if errors > 0 {
        metrics.counter_add("check.diag.error", errors as u64);
    }
    if warnings > 0 {
        metrics.counter_add("check.diag.warn", warnings as u64);
    }
}

/// Renders one op as a single-line snippet using raw SSA ids (`%7`), the
/// same ids the verifier reports.
pub(crate) fn op_snippet(op: &Op) -> String {
    let mut out = String::new();
    if !op.results.is_empty() {
        let rs: Vec<String> = op.results.iter().map(|r| r.to_string()).collect();
        out.push_str(&rs.join(", "));
        out.push_str(" = ");
    }
    out.push_str(&op.name);
    if !op.operands.is_empty() {
        let os: Vec<String> = op.operands.iter().map(|o| o.to_string()).collect();
        out.push(' ');
        out.push_str(&os.join(", "));
    }
    if !op.attrs.is_empty() {
        out.push_str(" {");
        for (i, (k, v)) in op.attrs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{k} = {v}"));
        }
        out.push('}');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic::new(Severity::Error, "taint-flow", "leak", "secret reaches sink")
            .at("^bb0 op 3")
            .with_snippet("df.sink %2 {kind = \"out\"}")
    }

    #[test]
    fn renders_location_and_snippet() {
        let text = sample().render();
        assert!(text.contains("error[taint-flow] @leak at ^bb0 op 3: secret reaches sink"));
        assert!(text.contains("df.sink %2"));
    }

    #[test]
    fn json_escapes_quotes() {
        let json = sample().to_json();
        assert!(json.contains("\\\"out\\\""));
        assert!(json.contains("\"code\": \"taint-flow\""));

        // Every escape class survives a parse.
        let hostile = "quote \" backslash \\ newline \n tab \t control \u{1}";
        let json = Diagnostic::new(Severity::Error, "taint-flow", "leak", hostile).to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(parsed.get("message"), Some(&serde_json::Value::Str(hostile.into())));
    }

    #[test]
    fn tally_splits_by_severity() {
        let diags =
            vec![sample(), Diagnostic::new(Severity::Warning, "dead-store", "f", "never read")];
        assert_eq!(tally(&diags), (1, 1));
        let report = render_text(&diags);
        assert!(report.contains("check: 1 error, 1 warning"));
    }

    #[test]
    fn record_metrics_bumps_counters() {
        let metrics = everest_telemetry::metrics();
        let before_e = metrics.snapshot().counter("check.diag.error");
        let before_w = metrics.snapshot().counter("check.diag.warn");
        record_metrics(&[
            sample(),
            Diagnostic::new(Severity::Warning, "dead-store", "f", "m"),
            Diagnostic::new(Severity::Warning, "unused-result", "f", "m"),
        ]);
        let after = metrics.snapshot();
        assert_eq!(after.counter("check.diag.error") - before_e, 1);
        assert_eq!(after.counter("check.diag.warn") - before_w, 2);
    }

    #[test]
    fn render_json_is_a_versioned_envelope() {
        let json = render_json(&[sample()]);
        assert!(json.starts_with("{\"schema_version\": 1, \"diagnostics\": ["));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn golden_json_envelope() {
        // Pins the envelope byte-for-byte: downstream CI gates parse this.
        assert_eq!(render_json(&[]), "{\"schema_version\": 1, \"diagnostics\": []}\n");
        let one =
            Diagnostic::new(Severity::Warning, "dead-store", "f", "never read").at("^bb0 op 0");
        assert_eq!(
            render_json(&[one]),
            "{\"schema_version\": 1, \"diagnostics\": [{\"severity\": \"warning\", \
             \"code\": \"dead-store\", \"func\": \"f\", \"location\": \"^bb0 op 0\", \
             \"message\": \"never read\", \"snippet\": \"\", \"file\": \"\"}]}\n"
        );
    }
}
