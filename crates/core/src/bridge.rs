//! Bridges between subsystems: workflow DSL specs → HyperLoom-style task
//! graphs (the paper's "higher-level coordination of the workflow kernels
//! ... and its integration on HyperLoom").

use everest_dsl::{WorkflowSpec, WorkflowStep};
use everest_workflow::TaskGraph;

/// Converts a validated workflow spec into an executable task graph.
///
/// `cost_of` supplies `(cost_us, output_bytes)` per task name — typically
/// from the variant metrics of the kernels the tasks invoke. Sources and
/// sinks become lightweight I/O tasks. A cost below 1 µs or NaN becomes
/// 1 µs and +∞ the largest finite cost, which the graph accepts.
///
/// Each step adds one task in step order, so a task's dependencies are
/// the step numbers of its inputs in [`WorkflowSpec::producers`].
///
/// # Panics
///
/// Panics if a step reads an item that `producers` does not resolve (specs
/// from [`WorkflowSpec::parse`] always resolve).
pub fn task_graph_from_workflow(
    spec: &WorkflowSpec,
    mut cost_of: impl FnMut(&str) -> (f64, u64),
) -> TaskGraph {
    let mut graph = TaskGraph::new(spec.name.clone());
    let producer = |item: &String| spec.producers[item].0;
    for step in &spec.steps {
        match step {
            WorkflowStep::Source { kind, .. } => {
                let (cost, bytes) = cost_of(kind);
                graph.add_task(format!("source:{kind}"), task_cost(cost), bytes, &[]);
            }
            WorkflowStep::Task { name, inputs, .. } => {
                let deps: Vec<usize> = inputs.iter().map(producer).collect();
                let (cost, bytes) = cost_of(name);
                graph.add_task(name.clone(), task_cost(cost), bytes, &deps);
            }
            WorkflowStep::Sink { name, kind } => {
                graph.add_task(format!("sink:{kind}"), 1.0, 0, &[producer(name)]);
            }
        }
    }
    graph
}

/// `cost` clamped to `[1, f64::MAX]`, NaN to 1.
fn task_cost(cost: f64) -> f64 {
    if cost.is_nan() {
        1.0
    } else {
        cost.clamp(1.0, f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_workflow::exec::simulate;
    use everest_workflow::{Policy, Worker};

    const WF: &str = r#"
        workflow forecast {
            source raw: "weather-feed";
            source hist: "history-db";
            task downscale(raw) -> fine;
            task predict(fine, hist) -> power;
            sink power: "trading-desk";
        }
    "#;

    #[test]
    fn converts_spec_structure() {
        let spec = WorkflowSpec::parse(WF).unwrap();
        let graph = task_graph_from_workflow(&spec, |name| match name {
            "downscale" => (5_000.0, 100_000),
            "predict" => (2_000.0, 1_000),
            _ => (10.0, 10_000),
        });
        // 2 sources + 2 tasks + 1 sink.
        assert_eq!(graph.len(), 5);
        // predict depends on downscale's output and the history source.
        let predict = graph.tasks().iter().find(|t| t.name == "predict").unwrap();
        assert_eq!(predict.deps.len(), 2);
    }

    #[test]
    fn converted_graph_executes() {
        let spec = WorkflowSpec::parse(WF).unwrap();
        let graph = task_graph_from_workflow(&spec, |_| (100.0, 1_000));
        let run = simulate(&graph, &Worker::uniform_pool(2, 1.0), Policy::Heft).unwrap();
        assert!(run.makespan_us >= 300.0, "three chained levels of 100us");
    }

    #[test]
    fn non_finite_costs_are_clamped() {
        let spec = WorkflowSpec::parse(WF).unwrap();
        for (cost, want) in [(f64::NAN, 1.0), (f64::INFINITY, f64::MAX), (-5.0, 1.0)] {
            let graph = task_graph_from_workflow(&spec, |_| (cost, 0));
            assert_eq!(graph.task(0).cost_us, want);
            assert!(simulate(&graph, &Worker::uniform_pool(2, 1.0), Policy::Heft).is_ok());
        }
    }

    #[test]
    fn costs_flow_through() {
        let spec = WorkflowSpec::parse(WF).unwrap();
        let cheap = task_graph_from_workflow(&spec, |_| (10.0, 0));
        let pricey = task_graph_from_workflow(&spec, |_| (10_000.0, 0));
        assert!(pricey.total_work_us() > 100.0 * cheap.total_work_us());
    }
}
