//! Property tests for the workflow front end: the `.ewf` parser returns
//! `Ok` or `Err` on any input and never panics, and on random valid specs
//! the dataflow it resolves gives the task graph and the task edges that a
//! brute-force scan of the earlier steps gives.

use everest::dsl::{WorkflowSpec, WorkflowStep};
use everest::task_graph_from_workflow;
use everest_workflow::seed::mix;
use proptest::prelude::*;

/// Every token the workflow grammar knows, plus a few it does not.
const TOKENS: &[&str] = &[
    "workflow", "w", "source", "task", "sink", "a", "b", "c", "{", "}", "(", ")", ",", ";", ":",
    "->", "\"k\"", "\n", "7", "@",
];

/// A spec that parses whenever it returns: the lowered module verifies
/// and the task graph builds, one task a step.
fn check_accepted(source: &str) {
    if let Ok(spec) = WorkflowSpec::parse(source) {
        spec.to_ir().expect("an accepted spec lowers").verify().expect("and verifies");
        assert_eq!(task_graph_from_workflow(&spec, |_| (1.0, 0)).len(), spec.steps.len());
    }
}

/// A random valid spec from `seed`: sources, tasks reading one to three
/// earlier items (repeats allowed) and writing one or two new ones, and
/// sinks, interleaved in any order a valid spec allows.
fn random_steps(seed: u64, len: usize) -> Vec<WorkflowStep> {
    let mut state = seed;
    let mut draw = |n: usize| {
        state = mix(state.wrapping_add(0x9e37_79b9_7f4a_7c15));
        (state % n as u64) as usize
    };
    let mut items: Vec<String> = Vec::new();
    let mut steps = Vec::with_capacity(len);
    for i in 0..len {
        let kind = format!("k{}", draw(3));
        let step = match if items.is_empty() { 0 } else { draw(3) } {
            0 => WorkflowStep::Source { name: format!("s{i}"), kind },
            1 => {
                let inputs = (0..1 + draw(3)).map(|_| items[draw(items.len())].clone()).collect();
                let outputs = (0..1 + draw(2)).map(|o| format!("x{i}_{o}")).collect();
                WorkflowStep::Task { name: format!("t{}", draw(4)), inputs, outputs }
            }
            _ => WorkflowStep::Sink { name: items[draw(items.len())].clone(), kind },
        };
        match &step {
            WorkflowStep::Source { name, .. } => items.push(name.clone()),
            WorkflowStep::Task { outputs, .. } => items.extend(outputs.iter().cloned()),
            WorkflowStep::Sink { .. } => {}
        }
        steps.push(step);
    }
    steps
}

fn render(steps: &[WorkflowStep]) -> String {
    let mut out = String::from("workflow random {\n");
    for step in steps {
        out.push_str(&match step {
            WorkflowStep::Source { name, kind } => format!("  source {name}: \"{kind}\";\n"),
            WorkflowStep::Task { name, inputs, outputs } => {
                format!("  task {name}({}) -> {};\n", inputs.join(", "), outputs.join(", "))
            }
            WorkflowStep::Sink { name, kind } => format!("  sink {name}: \"{kind}\";\n"),
        });
    }
    out.push_str("}\n");
    out
}

/// The step before `at` that produces `item`, by scanning the earlier steps.
fn producer_before(steps: &[WorkflowStep], at: usize, item: &str) -> usize {
    (0..at)
        .find(|&j| match &steps[j] {
            WorkflowStep::Source { name, .. } => name == item,
            WorkflowStep::Task { outputs, .. } => outputs.iter().any(|o| o == item),
            WorkflowStep::Sink { .. } => false,
        })
        .expect("a generated spec reads only earlier items")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        check_accepted(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn arbitrary_token_runs_never_panic_the_parser(
        picks in prop::collection::vec(0usize..TOKENS.len(), 0..64),
    ) {
        let source: Vec<&str> = picks.iter().map(|&i| TOKENS[i]).collect();
        check_accepted(&source.join(" "));
        let prefixed = format!("workflow w {{ {} }}", source.join(" "));
        check_accepted(&prefixed);
    }

    #[test]
    fn random_specs_resolve_like_a_scan_of_the_earlier_steps(
        seed in any::<u64>(),
        len in 1usize..24,
    ) {
        let steps = random_steps(seed, len);
        let spec = WorkflowSpec::parse(&render(&steps)).expect("a generated spec parses");
        prop_assert_eq!(&spec.steps, &steps);
        spec.to_ir().expect("a generated spec lowers").verify().expect("and verifies");

        let graph = task_graph_from_workflow(&spec, |_| (1.0, 0));
        prop_assert_eq!(graph.len(), steps.len());
        let mut edges = Vec::new();
        for (i, step) in steps.iter().enumerate() {
            let reads: Vec<&String> = match step {
                WorkflowStep::Source { .. } => Vec::new(),
                WorkflowStep::Task { inputs, .. } => inputs.iter().collect(),
                WorkflowStep::Sink { name, .. } => vec![name],
            };
            let deps: Vec<usize> = reads.iter().map(|r| producer_before(&steps, i, r)).collect();
            prop_assert_eq!(&graph.tasks()[i].deps, &deps, "step {}", i);
            if let WorkflowStep::Task { name, .. } = step {
                for &j in &deps {
                    if let WorkflowStep::Task { name: producer, .. } = &steps[j] {
                        edges.push((producer.clone(), name.clone()));
                    }
                }
            }
        }
        prop_assert_eq!(spec.task_edges(), edges);
    }
}
