//! The fusion-legality driver behind `everestc fuse`: bridges parsed
//! workflow specs, compiled kernel modules and the platform BRAM budget
//! onto the graph-only classifier in [`everest_workflow::fuse`].
//!
//! The split of responsibilities mirrors `check`:
//!
//! * `everest-ir` computes per-kernel footprint summaries
//!   ([`module_footprints`]) — byte bounds for every kernel result;
//! * [`build_plan`] turns the items a [`WorkflowSpec`] resolves into
//!   [`DataEdge`]s, attaches the byte bound of each item by positionally
//!   mapping task outputs onto kernel results, and hands everything to
//!   [`classify`];
//! * [`unresolved_diags`] makes a missing kernel a *hard* error before
//!   classification — fusion analysis must never run on a partial graph;
//! * [`plan_diags`] renders racy classifications as `fuse-racy`
//!   diagnostics with the race counterexample and its ordering witness.

use everest_dsl::{WorkflowSpec, WorkflowStep};
use everest_ir::diag::record_metrics;
use everest_ir::footprint::{module_footprints, FnFootprint};
use everest_ir::lints::{LINT_FUSE_RACY, LINT_UNRESOLVED_KERNEL};
use everest_ir::{Diagnostic, Module, Severity};
use everest_workflow::fuse::{classify, DataEdge, EdgeClass, EdgeEnd, FusionPlan};
use std::collections::BTreeMap;

/// Footprint summaries for every kernel across a set of compiled modules,
/// keyed by kernel name. Later modules win on name collisions, matching
/// the CLI's sorted-search-path semantics.
pub fn kernel_index(modules: &[Module]) -> BTreeMap<String, FnFootprint> {
    let mut index = BTreeMap::new();
    for module in modules {
        index.extend(module_footprints(module));
    }
    index
}

/// One `wf-unresolved-kernel` error per workflow task whose kernel is
/// missing from `index`. An empty result means the graph is complete and
/// classification may proceed.
pub fn unresolved_diags(
    spec: &WorkflowSpec,
    index: &BTreeMap<String, FnFootprint>,
) -> Vec<Diagnostic> {
    let known = if index.is_empty() {
        "(none)".to_string()
    } else {
        index.keys().cloned().collect::<Vec<_>>().join(", ")
    };
    let diags: Vec<Diagnostic> = spec
        .steps
        .iter()
        .filter_map(|step| match step {
            WorkflowStep::Task { name, .. } if !index.contains_key(name) => Some(
                Diagnostic::new(
                    Severity::Error,
                    LINT_UNRESOLVED_KERNEL,
                    &spec.name,
                    format!("task '{name}' references a kernel missing from the search path"),
                )
                .at(format!("task {name}"))
                .with_snippet(format!("known kernels: {known}")),
            ),
            _ => None,
        })
        .collect();
    record_metrics(&diags);
    diags
}

/// Builds and classifies the dataset-edge graph of one workflow.
///
/// Byte bounds come from `index`: the producer task's kernel summary,
/// positionally mapping the task's output list onto the kernel's results.
/// Tasks without a summary (unresolved kernels — already reported by
/// [`unresolved_diags`]) contribute unbounded edges.
pub(crate) fn build_plan(
    spec: &WorkflowSpec,
    index: &BTreeMap<String, FnFootprint>,
    budget_bytes: u64,
) -> FusionPlan {
    let mut span = everest_telemetry::span("workflow.fuse", "workflow");
    let end = |item: &str, step: usize| match &spec.steps[step] {
        WorkflowStep::Source { kind, .. } => EdgeEnd::source(item, kind),
        WorkflowStep::Task { name, .. } => EdgeEnd::task(name),
        WorkflowStep::Sink { kind, .. } => EdgeEnd::sink(item, kind),
    };
    let mut edges = Vec::new();
    for (item, &(from, output)) in &spec.producers {
        let consumers = &spec.consumers[item];
        let bytes = match &spec.steps[from] {
            WorkflowStep::Task { name, .. } => {
                index.get(name).and_then(|fp| fp.out_shapes.get(output)).and_then(|s| s.max_bytes())
            }
            _ => None,
        };
        for &(to, reads) in consumers {
            edges.push(DataEdge {
                item: item.clone(),
                producer: end(item, from),
                consumer: end(item, to),
                bytes,
                readers: consumers.len(),
                reads,
            });
        }
    }
    span.attr("edges", edges.len());
    let plan = classify(
        &spec.name,
        edges,
        &crate::check::workflow_accesses(spec),
        &spec.task_edges(),
        budget_bytes,
    );
    span.attr("fusable", plan.count(EdgeClass::Fusable));
    span.attr("racy", plan.count(EdgeClass::Racy));
    plan
}

/// Renders every racy edge of a plan as a `fuse-racy` error with the race
/// counterexample (and its ordering witness) as the snippet.
pub(crate) fn plan_diags(spec: &WorkflowSpec, plan: &FusionPlan) -> Vec<Diagnostic> {
    let diags: Vec<Diagnostic> = plan
        .racy()
        .map(|e| {
            let mut d = Diagnostic::new(
                Severity::Error,
                LINT_FUSE_RACY,
                &spec.name,
                format!("dataset edge \"{}\" cannot be scheduled: {}", e.edge.item, e.detail),
            )
            .at(format!("edge {} -> {}", e.edge.producer.name, e.edge.consumer.name));
            if let Some(race) = &e.race {
                d = d.with_snippet(format!(
                    "counterexample: '{}' and '{}' both write \"{}\" in either order ({})",
                    race.first, race.second, race.dataset, race.evidence
                ));
            }
            d
        })
        .collect();
    record_metrics(&diags);
    diags
}

/// Renders a plan as the human `everestc fuse` report. With `explain`,
/// every verdict carries its one-line proof.
pub fn render_plan_text(plan: &FusionPlan, explain: bool) -> String {
    let mut out = format!(
        "fusion plan for '{}' (BRAM stream budget {} B)\n",
        plan.workflow, plan.budget_bytes
    );
    for e in &plan.edges {
        let bytes = e.edge.bytes.map_or("? B".to_string(), |b| format!("{b} B"));
        out.push_str(&format!(
            "  [{}] {}: {} -> {} ({bytes}, {})\n",
            e.class, e.edge.item, e.edge.producer.name, e.edge.consumer.name, e.reason
        ));
        if explain {
            out.push_str(&format!("      proof: {}\n", e.detail));
        }
    }
    out.push_str(&format!(
        "fuse: {} fusable, {} must-spill, {} racy\n",
        plan.count(EdgeClass::Fusable),
        plan.count(EdgeClass::MustSpill),
        plan.count(EdgeClass::Racy)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_dsl::compile_kernels;

    const CASCADE_WF: &str = r#"
        workflow air_quality_cascade {
            source obs: "weather-ensemble-feed";
            task assimilate(obs) -> fields;
            task ensemble(fields) -> ensemble_field;
            task plume(ensemble_field) -> concentration;
            task exceedance(concentration) -> alerts;
            task report(concentration) -> summary;
            sink alerts: "operations-dashboard";
            sink summary: "forecast-archive";
        }
    "#;

    const CASCADE_KERNELS: &str = r#"
        kernel assimilate(obs: tensor<256x256xf64>, psf: tensor<3x3xf64>) -> tensor<256x256xf64> {
            return conv2d(obs, psf);
        }
        kernel ensemble(fields: tensor<256x256xf64>, lift: tensor<256x128xf64>) -> tensor<128x128xf64> {
            var proj = transpose(fields @ lift, [1, 0]);
            return proj @ lift;
        }
        kernel plume(field: tensor<128x128xf64>, kern: tensor<5x5xf64>) -> tensor<128x128xf64> {
            return conv2d(field, kern);
        }
        kernel exceedance(conc: tensor<128x128xf64>) -> tensor<128xf64> {
            return reduce_max(conc, [1]);
        }
        kernel report(conc: tensor<128x128xf64>) -> tensor<128xf64> {
            return reduce_mean(conc, [1]);
        }
    "#;

    const BUDGET: u64 = 230_400;

    fn cascade_plan() -> FusionPlan {
        let spec = WorkflowSpec::parse(CASCADE_WF).unwrap();
        let modules = vec![compile_kernels(CASCADE_KERNELS).unwrap()];
        let index = kernel_index(&modules);
        assert!(unresolved_diags(&spec, &index).is_empty());
        build_plan(&spec, &index, BUDGET)
    }

    #[test]
    fn ensemble_to_plume_edge_is_certified_fusable() {
        let plan = cascade_plan();
        let edge = plan
            .edges
            .iter()
            .find(|e| e.edge.item == "ensemble_field")
            .expect("ensemble_field edge");
        assert_eq!(edge.class, EdgeClass::Fusable);
        // 128x128 f64 = 131072 B, under the 230400 B edge-device budget.
        assert_eq!(edge.edge.bytes, Some(131_072));
        assert_eq!(edge.ordering_path, Some(vec!["ensemble".to_string(), "plume".to_string()]));
        assert_eq!(plan.count(EdgeClass::Racy), 0);
        assert_eq!(plan.count(EdgeClass::Fusable), 1, "{plan:?}");
    }

    #[test]
    fn oversized_and_fanned_out_edges_spill() {
        let plan = cascade_plan();
        let by_item =
            |item: &str| plan.edges.iter().filter(|e| e.edge.item == item).collect::<Vec<_>>();
        // 256x256 f64 = 524288 B > budget.
        let fields = by_item("fields");
        assert_eq!(fields[0].reason, "exceeds-budget");
        assert_eq!(fields[0].edge.bytes, Some(524_288));
        // concentration feeds exceedance and report.
        let conc = by_item("concentration");
        assert_eq!(conc.len(), 2);
        assert!(conc.iter().all(|e| e.reason == "fan-out" && e.edge.readers == 2));
        // Source and sink hand-offs stay on the host.
        assert_eq!(by_item("obs")[0].reason, "host-boundary");
        assert_eq!(by_item("alerts")[0].reason, "host-boundary");
    }

    #[test]
    fn missing_kernel_is_a_hard_diagnostic() {
        let spec = WorkflowSpec::parse(CASCADE_WF).unwrap();
        let index = BTreeMap::new();
        let diags = unresolved_diags(&spec, &index);
        assert_eq!(diags.len(), 5);
        assert!(diags.iter().all(|d| d.code == LINT_UNRESOLVED_KERNEL));
        assert_eq!(
            diags[0].render(),
            "error[wf-unresolved-kernel] @air_quality_cascade at task assimilate: \
             task 'assimilate' references a kernel missing from the search path\n    \
             known kernels: (none)"
        );
    }

    #[test]
    fn aliased_sinks_are_rejected_with_a_counterexample() {
        let spec = WorkflowSpec::parse(
            r#"workflow aliased_export {
                source frames: "camera-feed";
                task blur(frames) -> soft;
                task sharpen(frames) -> crisp;
                sink soft: "frame-store";
                sink crisp: "frame-store";
            }"#,
        )
        .unwrap();
        let plan = build_plan(&spec, &BTreeMap::new(), BUDGET);
        assert_eq!(plan.count(EdgeClass::Racy), 2, "{plan:?}");
        let diags = plan_diags(&spec, &plan);
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].code, LINT_FUSE_RACY);
        // Golden rendering: the exact proof text is part of the contract.
        assert_eq!(
            diags[0].render(),
            "error[fuse-racy] @aliased_export at edge sharpen -> crisp: dataset edge \
             \"crisp\" cannot be scheduled: write-write conflict on \"frame-store\" between \
             'blur' and 'sharpen' (no ordering path links them)\n    counterexample: 'blur' \
             and 'sharpen' both write \"frame-store\" in either order (no ordering path \
             links them)"
        );
    }

    #[test]
    fn golden_plan_rendering() {
        let plan = cascade_plan();
        let text = render_plan_text(&plan, true);
        assert!(text.contains(
            "  [fusable] ensemble_field: ensemble -> plume (131072 B, fits-budget)\n      \
             proof: single reader, footprint 131072 B <= 230400 B budget, serialized by \
             ensemble -> plume\n"
        ));
        assert!(text.ends_with("fuse: 1 fusable, 6 must-spill, 0 racy\n"));
        // Deterministic rendering and serialization.
        assert_eq!(text, render_plan_text(&cascade_plan(), true));
        assert_eq!(plan.to_json(), cascade_plan().to_json());
    }
}
