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
use crate::lexer::{lex, SpannedTok, Tok};
use everest_ir::dialects::df;
use everest_ir::{FuncBuilder, Module, Type, Value};
use std::collections::HashMap;

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

/// A parsed and validated workflow.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkflowSpec {
    /// Workflow name.
    pub name: String,
    /// Steps in declaration order.
    pub steps: Vec<WorkflowStep>,
}

impl WorkflowSpec {
    /// Parses workflow-DSL source into a validated spec.
    ///
    /// # Errors
    ///
    /// Returns [`DslError`] on syntax errors, uses of undefined items or
    /// duplicate producers.
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
        let toks = lex(source)?;
        let mut p = WfParser { toks, pos: 0 };
        let spec = p.workflow()?;
        spec.validate()?;
        span.attr("steps", spec.steps.len());
        Ok(spec)
    }

    /// Checks dataflow consistency: every consumed item has a producer
    /// declared earlier, and every item has exactly one producer.
    ///
    /// # Errors
    ///
    /// Returns a [`DslError`] (phase `Type`) naming the offending item.
    pub(crate) fn validate(&self) -> DslResult<()> {
        let mut produced: HashMap<&str, ()> = HashMap::new();
        for step in &self.steps {
            match step {
                WorkflowStep::Source { name, .. } => {
                    if produced.insert(name, ()).is_some() {
                        return Err(DslError::ty(0, format!("item '{name}' produced twice")));
                    }
                }
                WorkflowStep::Task { name, inputs, outputs } => {
                    for input in inputs {
                        if !produced.contains_key(input.as_str()) {
                            return Err(DslError::ty(
                                0,
                                format!("task '{name}' consumes undefined item '{input}'"),
                            ));
                        }
                    }
                    for output in outputs {
                        if produced.insert(output, ()).is_some() {
                            return Err(DslError::ty(0, format!("item '{output}' produced twice")));
                        }
                    }
                }
                WorkflowStep::Sink { name, .. } => {
                    if !produced.contains_key(name.as_str()) {
                        return Err(DslError::ty(
                            0,
                            format!("sink consumes undefined item '{name}'"),
                        ));
                    }
                }
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
        let mut producer_of: HashMap<&str, &str> = HashMap::new();
        for step in &self.steps {
            if let WorkflowStep::Task { name, outputs, .. } = step {
                for out in outputs {
                    producer_of.insert(out, name);
                }
            }
        }
        let mut edges = Vec::new();
        for step in &self.steps {
            if let WorkflowStep::Task { name, inputs, .. } = step {
                for input in inputs {
                    if let Some(producer) = producer_of.get(input.as_str()) {
                        edges.push(((*producer).to_owned(), name.clone()));
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
    /// Returns a [`DslError`] if the spec is inconsistent (see
    /// `WorkflowSpec::validate`).
    pub fn to_ir(&self) -> DslResult<Module> {
        let mut span = everest_telemetry::span("dsl.workflow.lower", "dsl");
        span.attr("steps", self.steps.len());
        self.validate()?;
        let mut module = Module::new(self.name.clone());
        let mut fb = FuncBuilder::new(self.name.clone(), &[], &[]);
        fb.set_func_attr("dsl", "workflow");
        let mut items: HashMap<&str, Value> = HashMap::new();
        let item_ty = Type::Token;
        for step in &self.steps {
            match step {
                WorkflowStep::Source { name, kind } => {
                    let v = df::source(&mut fb, kind, item_ty.clone());
                    items.insert(name, v);
                }
                WorkflowStep::Task { name, inputs, outputs } => {
                    let ins: Vec<Value> = inputs.iter().map(|i| items[i.as_str()]).collect();
                    let out_tys = vec![item_ty.clone(); outputs.len()];
                    let outs = df::task(&mut fb, name, &ins, &out_tys);
                    for (o, v) in outputs.iter().zip(outs) {
                        items.insert(o, v);
                    }
                }
                WorkflowStep::Sink { name, kind } => {
                    let v = items[name.as_str()];
                    df::sink(&mut fb, kind, &[v]);
                }
            }
        }
        fb.ret(&[]);
        module.push(fb.finish());
        module
            .verify()
            .map_err(|e| DslError::lower(0, format!("workflow lowering failed: {e}")))?;
        Ok(module)
    }
}

struct WfParser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl WfParser {
    fn line(&self) -> usize {
        self.toks.get(self.pos).or_else(|| self.toks.last()).map(|t| t.line).unwrap_or(0)
    }

    fn bump(&mut self) -> DslResult<Tok> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| DslError::parse(self.line(), "unexpected end of input"))?;
        self.pos += 1;
        Ok(t.tok)
    }

    fn expect(&mut self, want: &Tok) -> DslResult<()> {
        let line = self.line();
        let got = self.bump()?;
        if &got == want {
            Ok(())
        } else {
            Err(DslError::parse(line, format!("expected {want:?}, got {got:?}")))
        }
    }

    fn ident(&mut self) -> DslResult<String> {
        let line = self.line();
        match self.bump()? {
            Tok::Ident(s) => Ok(s),
            other => Err(DslError::parse(line, format!("expected identifier, got {other:?}"))),
        }
    }

    fn string(&mut self) -> DslResult<String> {
        let line = self.line();
        match self.bump()? {
            Tok::Str(s) => Ok(s),
            other => Err(DslError::parse(line, format!("expected string, got {other:?}"))),
        }
    }

    fn workflow(&mut self) -> DslResult<WorkflowSpec> {
        let line = self.line();
        let kw = self.ident()?;
        if kw != "workflow" {
            return Err(DslError::parse(line, format!("expected 'workflow', got '{kw}'")));
        }
        let name = self.ident()?;
        self.expect(&Tok::LBrace)?;
        let mut steps = Vec::new();
        loop {
            let line = self.line();
            match self.bump()? {
                Tok::RBrace => break,
                Tok::Ident(kw) => match kw.as_str() {
                    "source" => {
                        let item = self.ident()?;
                        self.expect(&Tok::Colon)?;
                        let kind = self.string()?;
                        self.expect(&Tok::Semi)?;
                        steps.push(WorkflowStep::Source { name: item, kind });
                    }
                    "task" => {
                        let tname = self.ident()?;
                        self.expect(&Tok::LParen)?;
                        let mut inputs = Vec::new();
                        loop {
                            inputs.push(self.ident()?);
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
                        let mut outputs = vec![self.ident()?];
                        while self.toks.get(self.pos).map(|t| &t.tok) == Some(&Tok::Comma) {
                            self.pos += 1;
                            outputs.push(self.ident()?);
                        }
                        self.expect(&Tok::Semi)?;
                        steps.push(WorkflowStep::Task { name: tname, inputs, outputs });
                    }
                    "sink" => {
                        let item = self.ident()?;
                        self.expect(&Tok::Colon)?;
                        let kind = self.string()?;
                        self.expect(&Tok::Semi)?;
                        steps.push(WorkflowStep::Sink { name: item, kind });
                    }
                    other => {
                        return Err(DslError::parse(
                            line,
                            format!("expected 'source', 'task' or 'sink', got '{other}'"),
                        ))
                    }
                },
                other => return Err(DslError::parse(line, format!("unexpected token {other:?}"))),
            }
        }
        Ok(WorkflowSpec { name, steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
