//! The static-analysis driver behind `everestc check`: bridges workflow
//! specs onto the `everest-workflow` race detector and reports everything
//! through the shared [`Diagnostic`] type the IR lints use.
//!
//! Workflow items are internally single-producer (the DSL validator
//! enforces it), so task/task conflicts can only arise through *external*
//! datasets — the `kind` tags on `source`/`sink` steps. A task *reads* the
//! kinds of the sources it consumes and *writes* the kinds of the sinks its
//! outputs feed; two tasks with no ordering path between them touching the
//! same kind (at least one writing) race on that external dataset.

use everest_dsl::{WorkflowSpec, WorkflowStep};
use everest_ir::diag::record_metrics;
use everest_ir::lints::LINT_WF_RACE;
use everest_ir::{Diagnostic, Severity};
use everest_workflow::race::{detect_races, Race, TaskAccess};
use std::collections::BTreeMap;

/// Derives each task's external-dataset access set from a workflow spec:
/// reads are the kinds of sources whose items the task consumes, writes the
/// kinds of sinks its outputs feed.
pub(crate) fn workflow_accesses(spec: &WorkflowSpec) -> Vec<TaskAccess> {
    let mut source_kind: BTreeMap<&str, &str> = BTreeMap::new();
    let mut sink_kinds: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for step in &spec.steps {
        match step {
            WorkflowStep::Source { name, kind } => {
                source_kind.insert(name, kind);
            }
            WorkflowStep::Sink { name, kind } => {
                sink_kinds.entry(name).or_default().push(kind);
            }
            WorkflowStep::Task { .. } => {}
        }
    }
    spec.steps
        .iter()
        .filter_map(|step| match step {
            WorkflowStep::Task { name, inputs, outputs } => {
                let mut access = TaskAccess { task: name.clone(), ..TaskAccess::default() };
                for input in inputs {
                    if let Some(kind) = source_kind.get(input.as_str()) {
                        access.reads.insert(kind.to_string());
                    }
                }
                for output in outputs {
                    for kind in sink_kinds.get(output.as_str()).map(Vec::as_slice).unwrap_or(&[]) {
                        access.writes.insert(kind.to_string());
                    }
                }
                Some(access)
            }
            _ => None,
        })
        .collect()
}

fn race_diagnostic(spec: &WorkflowSpec, race: &Race) -> Diagnostic {
    Diagnostic::new(
        Severity::Error,
        LINT_WF_RACE,
        &spec.name,
        format!(
            "{} race on dataset \"{}\": tasks '{}' and '{}' have no ordering edge ({})",
            race.kind, race.dataset, race.first, race.second, race.evidence
        ),
    )
    .at(format!("task {} / task {}", race.first, race.second))
    .with_snippet(format!(
        "{} and {} both touch \"{}\" concurrently",
        race.first, race.second, race.dataset
    ))
}

/// Runs the race detector over a parsed workflow and renders the findings
/// as `wf-race` diagnostics (bumping the `check.diag.*` counters).
pub(crate) fn check_workflow_spec(spec: &WorkflowSpec) -> Vec<Diagnostic> {
    let mut span = everest_telemetry::span("workflow.check", "workflow");
    let accesses = workflow_accesses(spec);
    let races = detect_races(&accesses, &spec.task_edges());
    let diags: Vec<Diagnostic> = races.iter().map(|r| race_diagnostic(spec, r)).collect();
    span.attr("races", diags.len());
    record_metrics(&diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    const RACY: &str = r#"
        workflow racy {
            source raw: "warehouse";
            task clean(raw) -> table;
            task refresh(raw) -> snapshot;
            sink table: "results";
            sink snapshot: "warehouse";
        }
    "#;

    #[test]
    fn unordered_tasks_race_on_external_datasets() {
        let spec = WorkflowSpec::parse(RACY).unwrap();
        let diags = check_workflow_spec(&spec);
        // clean reads "warehouse" while refresh writes it, unordered.
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, LINT_WF_RACE);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("read-write"));
        assert!(diags[0].message.contains("warehouse"));
    }

    #[test]
    fn write_write_on_shared_sink_kind() {
        let spec = WorkflowSpec::parse(
            r#"workflow w {
                source a: "in";
                task left(a) -> x;
                task right(a) -> y;
                sink x: "table";
                sink y: "table";
            }"#,
        )
        .unwrap();
        let diags = check_workflow_spec(&spec);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("write-write"));
    }

    #[test]
    fn ordered_pipeline_is_clean() {
        let spec = WorkflowSpec::parse(
            r#"workflow clean {
                source fcd: "floating-car-data";
                task model(fcd) -> m;
                task predict(m) -> p;
                sink p: "dashboard";
            }"#,
        )
        .unwrap();
        assert!(check_workflow_spec(&spec).is_empty());
    }

    #[test]
    fn golden_race_rendering() {
        let spec = WorkflowSpec::parse(RACY).unwrap();
        let diags = check_workflow_spec(&spec);
        assert_eq!(
            diags[0].render(),
            "error[wf-race] @racy at task clean / task refresh: read-write race on dataset \
             \"warehouse\": tasks 'clean' and 'refresh' have no ordering edge (no ordering \
             path links them)\n    clean and refresh both touch \"warehouse\" concurrently"
        );
    }

    #[test]
    fn accesses_capture_kinds_not_items() {
        let spec = WorkflowSpec::parse(RACY).unwrap();
        let accesses = workflow_accesses(&spec);
        assert_eq!(accesses.len(), 2);
        let clean = accesses.iter().find(|a| a.task == "clean").unwrap();
        assert!(clean.reads.contains("warehouse"));
        assert!(clean.writes.contains("results"));
    }
}
