//! The workflow DSL: "a workflow pipeline where each node can be specified
//! in C/C++ or with proper AI libraries" (paper III-A). Here nodes are named
//! tasks wired through named data items; the spec lowers to the `df` dialect
//! and converts into HyperLoom-style task graphs downstream.
//!
//! ```text
//! workflow forecast {
//!     source raw: "weather-feed";
//!     task clean(raw) -> cleaned;
//!     task predict(cleaned) -> result;
//!     sink result: "dashboard";
//! }
//! ```

use crate::error::{DslError, DslResult};
use crate::lexer::Tok;
use crate::parser::P;
use everest_ir::dialects::df;
use everest_ir::{FuncBuilder, Module, Type, Value};
use std::collections::BTreeMap;

/// One step of a workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowStep {
    /// External data source producing item `name`, tagged with `kind`.
    Source {
        /// Produced data item.
        name: String,
        /// Source kind tag (e.g. `"weather-feed"`).
        kind: String,
    },
    /// A computational task consuming `inputs` and producing `outputs`.
    Task {
        /// Task/callee name.
        name: String,
        /// Consumed data items.
        inputs: Vec<String>,
        /// Produced data items.
        outputs: Vec<String>,
    },
    /// Final consumer of data item `name`, tagged with `kind`.
    Sink {
        /// Consumed data item.
        name: String,
        /// Sink kind tag (e.g. `"dashboard"`).
        kind: String,
    },
}

impl WorkflowStep {
    /// The items this step reads and the items it produces.
    fn reads_writes(&self) -> (&[String], &[String]) {
        match self {
            WorkflowStep::Source { name, .. } => (&[], std::slice::from_ref(name)),
            WorkflowStep::Task { inputs, outputs, .. } => (inputs, outputs),
            WorkflowStep::Sink { name, .. } => (std::slice::from_ref(name), &[]),
        }
    }
}

/// A parsed and validated workflow.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkflowSpec {
    /// Workflow name.
    pub name: String,
    /// Steps in declaration order.
    pub steps: Vec<WorkflowStep>,
    /// Each data item's producer `(step, output)`: a source step, or a task
    /// step and the item's position in its outputs (0 for a source). Step
    /// numbers index `steps`; [`WorkflowSpec::parse`] resolves this and
    /// `consumers` once.
    pub producers: BTreeMap<String, (usize, usize)>,
    /// Each produced item's readers `(step, reads)` in step order: a task
    /// with the number of times it lists the item as an input, or a sink
    /// (1). Every key of `producers` has an entry, empty if nothing reads it.
    pub consumers: BTreeMap<String, Vec<(usize, usize)>>,
}

impl WorkflowSpec {
    /// Parses workflow-DSL source into a validated spec.
    ///
    /// # Errors
    ///
    /// Returns [`DslError`] on syntax errors, uses of undefined items or
    /// duplicate producers; a dataflow error names its step's line.
    ///
    /// ```
    /// let spec = everest_dsl::WorkflowSpec::parse(
    ///     "workflow w { source a: \"in\"; task t(a) -> b; sink b: \"out\"; }",
    /// ).unwrap();
    /// assert_eq!(spec.steps.len(), 3);
    /// ```
    pub fn parse(source: &str) -> DslResult<WorkflowSpec> {
        let mut span = everest_telemetry::span("dsl.workflow.parse", "dsl");
        span.attr("bytes", source.len());
        let spec = P::new(source)?.workflow()?;
        span.attr("steps", spec.steps.len());
        Ok(spec)
    }

    /// Resolves `producers` and `consumers` from `steps`: every consumed
    /// item has a producer declared earlier, and every item has exactly one
    /// producer. An error (phase `Type`) names the item and its step's line
    /// in `lines`.
    fn resolve(&mut self, lines: &[usize]) -> DslResult<()> {
        for (step, (s, &line)) in self.steps.iter().zip(lines).enumerate() {
            let (reads, writes) = s.reads_writes();
            for (i, input) in reads.iter().enumerate() {
                let Some(consumers) = self.consumers.get_mut(input) else {
                    let reader = match s {
                        WorkflowStep::Task { name, .. } => format!("task '{name}'"),
                        _ => "sink".to_string(),
                    };
                    let msg = format!("{reader} consumes undefined item '{input}'");
                    return Err(DslError::ty(line, msg));
                };
                if !reads[..i].contains(input) {
                    consumers.push((step, reads.iter().filter(|r| *r == input).count()));
                }
            }
            for (output, item) in writes.iter().enumerate() {
                if self.producers.insert(item.clone(), (step, output)).is_some() {
                    return Err(DslError::ty(line, format!("item '{item}' produced twice")));
                }
                self.consumers.insert(item.clone(), Vec::new());
            }
        }
        Ok(())
    }

    /// Names of all task steps, in order.
    pub fn task_names(&self) -> Vec<&str> {
        self.steps
            .iter()
            .filter_map(|s| match s {
                WorkflowStep::Task { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Producer→consumer edges between tasks (by task name), derived from
    /// shared data items. Source/sink steps are not included.
    pub fn task_edges(&self) -> Vec<(String, String)> {
        let mut edges = Vec::new();
        for step in &self.steps {
            if let WorkflowStep::Task { name, inputs, .. } = step {
                for (from, _) in inputs.iter().filter_map(|input| self.producers.get(input)) {
                    if let WorkflowStep::Task { name: producer, .. } = &self.steps[*from] {
                        edges.push((producer.clone(), name.clone()));
                    }
                }
            }
        }
        edges
    }

    /// Lowers the workflow to a `df`-dialect IR function inside a fresh
    /// module (the unified representation of paper Fig. 1).
    ///
    /// # Errors
    ///
    /// Returns a [`DslError`] if a step reads an item that `producers`
    /// does not resolve to an earlier step.
    pub fn to_ir(&self) -> DslResult<Module> {
        let mut span = everest_telemetry::span("dsl.workflow.lower", "dsl");
        span.attr("steps", self.steps.len());
        let mut module = Module::new(self.name.clone());
        let mut fb = FuncBuilder::new(self.name.clone(), &[], &[]);
        fb.set_func_attr("dsl", "workflow");
        // The values each step produced, in step order.
        let mut outs: Vec<Vec<Value>> = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            let (reads, writes) = step.reads_writes();
            let value = |item: &String| {
                let (from, output) = self.producers.get(item)?;
                outs.get(*from)?.get(*output).copied()
            };
            let ins = reads
                .iter()
                .map(|item| {
                    value(item).ok_or_else(|| {
                        DslError::lower(0, format!("item '{item}' has no earlier producer"))
                    })
                })
                .collect::<DslResult<Vec<Value>>>()?;
            outs.push(match step {
                WorkflowStep::Source { kind, .. } => vec![df::source(&mut fb, kind, Type::Token)],
                WorkflowStep::Task { name, .. } => {
                    df::task(&mut fb, name, &ins, &vec![Type::Token; writes.len()])
                }
                WorkflowStep::Sink { kind, .. } => {
                    df::sink(&mut fb, kind, &ins);
                    Vec::new()
                }
            });
        }
        fb.ret(&[]);
        module.push(fb.finish());
        module
            .verify()
            .map_err(|e| DslError::lower(0, format!("workflow lowering failed: {e}")))?;
        Ok(module)
    }
}

impl P<'_> {
    /// `workflow NAME { step* }`; the dataflow is resolved once the last
    /// step is read, so a syntax error anywhere wins over a dataflow error.
    fn workflow(&mut self) -> DslResult<WorkflowSpec> {
        self.keyword("workflow")?;
        let name = self.ident()?.to_owned();
        self.expect(&Tok::LBrace)?;
        let mut spec = WorkflowSpec { name, ..WorkflowSpec::default() };
        let mut lines = Vec::new();
        loop {
            let line = self.line();
            let step = match self.bump()? {
                Tok::RBrace => break,
                Tok::Ident(kw @ ("source" | "sink")) => {
                    let name = self.ident()?.to_owned();
                    self.expect(&Tok::Colon)?;
                    let kind = self.string()?.to_owned();
                    if kw == "source" {
                        WorkflowStep::Source { name, kind }
                    } else {
                        WorkflowStep::Sink { name, kind }
                    }
                }
                Tok::Ident("task") => {
                    let name = self.ident()?.to_owned();
                    self.expect(&Tok::LParen)?;
                    let mut inputs = Vec::new();
                    loop {
                        inputs.push(self.ident()?.to_owned());
                        match self.bump()? {
                            Tok::Comma => continue,
                            Tok::RParen => break,
                            other => {
                                return Err(DslError::parse(
                                    line,
                                    format!("expected ',' or ')', got {other:?}"),
                                ))
                            }
                        }
                    }
                    self.expect(&Tok::Arrow)?;
                    let mut outputs = vec![self.ident()?.to_owned()];
                    while self.eat(&Tok::Comma) {
                        outputs.push(self.ident()?.to_owned());
                    }
                    WorkflowStep::Task { name, inputs, outputs }
                }
                Tok::Ident(other) => {
                    return Err(DslError::parse(
                        line,
                        format!("expected 'source', 'task' or 'sink', got '{other}'"),
                    ))
                }
                other => return Err(DslError::parse(line, format!("unexpected token {other:?}"))),
            };
            self.expect(&Tok::Semi)?;
            spec.steps.push(step);
            lines.push(line);
        }
        spec.resolve(&lines)?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const TRAFFIC: &str = r#"
        workflow traffic {
            source fcd: "floating-car-data";
            source od: "origin-destination";
            task build_model(fcd, od) -> model;
            task simulate(model) -> sim;
            task predict(sim, model) -> forecast;
            sink forecast: "routing-service";
        }
    "#;

    #[test]
    fn parses_multi_step_workflow() {
        let spec = WorkflowSpec::parse(TRAFFIC).unwrap();
        assert_eq!(spec.name, "traffic");
        assert_eq!(spec.steps.len(), 6);
        assert_eq!(spec.task_names(), vec!["build_model", "simulate", "predict"]);
    }

    #[test]
    fn task_edges_follow_data_items() {
        let spec = WorkflowSpec::parse(TRAFFIC).unwrap();
        let edges = spec.task_edges();
        assert!(edges.contains(&("build_model".into(), "simulate".into())));
        assert!(edges.contains(&("simulate".into(), "predict".into())));
        assert!(edges.contains(&("build_model".into(), "predict".into())));
        assert_eq!(edges.len(), 3);
    }

    #[test]
    fn rejects_undefined_input() {
        let err = WorkflowSpec::parse("workflow w { task t(ghost) -> out; sink out: \"o\"; }")
            .unwrap_err();
        assert!(err.to_string().contains("undefined item 'ghost'"));
    }

    #[test]
    fn rejects_duplicate_producer() {
        let src = "workflow w { source a: \"x\"; task t(a) -> a; sink a: \"o\"; }";
        assert!(WorkflowSpec::parse(src).unwrap_err().to_string().contains("produced twice"));
    }

    #[test]
    fn dataflow_errors_name_their_steps_line() {
        for (step, msg) in [
            ("task t(b) -> c;", "consumes undefined item 'b'"),
            ("task t(a) -> a;", "item 'a' produced twice"),
        ] {
            let src = format!("workflow w {{\n    source a: \"in\";\n    {step}\n}}");
            let err = WorkflowSpec::parse(&src).unwrap_err().to_string();
            assert!(err.starts_with("type error at line 3: "), "{err}");
            assert!(err.contains(msg), "{err}");
        }
    }

    #[test]
    fn items_resolve_producers_and_consumers() {
        let spec = WorkflowSpec::parse(TRAFFIC).unwrap();
        // build_model is step 2; predict (step 4) reads model once, after simulate (3).
        assert_eq!(
            (spec.producers["model"], &spec.consumers["model"][..]),
            ((2, 0), &[(3, 1), (4, 1)][..])
        );
        assert_eq!(
            (spec.producers["forecast"], &spec.consumers["forecast"][..]),
            ((4, 0), &[(5, 1)][..])
        );
        let src = "workflow w { source a: \"in\"; task t(a, a) -> b, c; sink c: \"o\"; }";
        let spec = WorkflowSpec::parse(src).unwrap();
        assert_eq!((spec.producers["a"], &spec.consumers["a"][..]), ((0, 0), &[(1, 2)][..]));
        assert_eq!((spec.producers["c"], &spec.consumers["c"][..]), ((1, 1), &[(2, 1)][..]));
        assert_eq!((spec.producers["b"], &spec.consumers["b"][..]), ((1, 0), &[][..]));
    }

    #[test]
    fn lowers_to_df_dialect() {
        let spec = WorkflowSpec::parse(TRAFFIC).unwrap();
        let module = spec.to_ir().unwrap();
        let f = module.func("traffic").unwrap();
        let mut counts: HashMap<String, usize> = HashMap::new();
        f.walk(&mut |op| *counts.entry(op.name.clone()).or_default() += 1);
        assert_eq!(counts["df.source"], 2);
        assert_eq!(counts["df.task"], 3);
        assert_eq!(counts["df.sink"], 1);
    }

    #[test]
    fn multi_output_tasks() {
        let src = "workflow w { source a: \"in\"; task split(a) -> b, c; sink b: \"o1\"; sink c: \"o2\"; }";
        let spec = WorkflowSpec::parse(src).unwrap();
        let module = spec.to_ir().unwrap();
        module.verify().unwrap();
        assert_eq!(spec.task_edges().len(), 0);
    }
}
