//! `BENCHMARK.json` as the single list of metric names, units,
//! directions and bounds: the program prints exactly what it declares.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The benchmark's directory (where this package was built from).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out`, created on first use.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

#[derive(Debug, Clone)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median the metric may worsen by; `None`
    /// for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Declared {
    /// The `--seconds` of a run that is given none.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("BENCHMARK.json: missing '{key}'"))
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    match field(v, key)? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("BENCHMARK.json: '{key}' is {}, not a string", other.kind())),
    }
}

fn list<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    match field(v, key)? {
        Value::Array(items) => Ok(items),
        other => Err(format!("BENCHMARK.json: '{key}' is {}, not an array", other.kind())),
    }
}

/// A JSON number of any kind.
pub fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Int(n) => Some(*n as f64),
        Value::UInt(n) => Some(*n as f64),
        Value::Float(n) => Some(*n),
        _ => None,
    }
}

fn metric(v: &Value) -> Result<MetricDecl, String> {
    Ok(MetricDecl {
        name: text(v, "name")?,
        unit: text(v, "unit")?,
        higher_is_better: text(v, "better")? == "higher",
        bound: number(v.get("bound")),
    })
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

impl Declared {
    pub fn load() -> Result<Declared, String> {
        let path = bench_dir().join("../BENCHMARK.json");
        let raw = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let root: Value = serde_json::from_str(&raw).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let declared = Declared {
            run_seconds: number(root.get("run_seconds"))
                .ok_or("BENCHMARK.json: 'run_seconds' is not a number")?,
            workloads: list(&root, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: list(&root, "end_to_end")?.iter().map(metric).collect::<Result<_, _>>()?,
            per_layer: list(&root, "per_layer")?.iter().map(metric).collect::<Result<_, _>>()?,
        };
        for name in declared.all().map(|m| &m.name).chain(&declared.workloads) {
            if !valid_name(name) {
                return Err(format!("BENCHMARK.json: '{name}' is not a valid name"));
            }
        }
        Ok(declared)
    }

    fn all(&self) -> impl Iterator<Item = &MetricDecl> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    /// The declared unit of `name`; for the simulated-time results only
    /// some workloads have (and `BENCHMARK.json` therefore cannot list
    /// as end-to-end metrics), the unit its suffix names.
    pub fn unit(&self, name: &str) -> &str {
        match self.all().find(|m| m.name == name) {
            Some(decl) => &decl.unit,
            None if name.ends_with("_qps") => "1/s",
            None => "us",
        }
    }

    fn object(
        decls: &[MetricDecl],
        value_of: impl Fn(&str) -> Result<f64, String>,
    ) -> Result<Value, String> {
        let mut fields = Vec::with_capacity(decls.len());
        for decl in decls {
            let entry = vec![
                ("value".to_owned(), Value::Float(value_of(&decl.name)?)),
                ("unit".to_owned(), Value::Str(decl.unit.clone())),
            ];
            fields.push((decl.name.clone(), Value::Object(entry)));
        }
        Ok(Value::Object(fields))
    }

    /// The `metrics` object of an untraced run: every declared
    /// end-to-end metric, each of which `measured` must hold.
    pub fn end_to_end(&self, measured: &BTreeMap<String, f64>) -> Result<Value, String> {
        Declared::object(&self.end_to_end, |name| {
            measured
                .get(name)
                .copied()
                .ok_or_else(|| format!("end-to-end metric '{name}' was not measured"))
        })
    }

    /// The `metrics` object of a traced run: every declared per-layer
    /// metric, 0 for a layer this workload's passes never enter. A
    /// measured name that is not declared is an error.
    pub fn per_layer(&self, measured: &BTreeMap<String, f64>) -> Result<Value, String> {
        if let Some(stray) = measured.keys().find(|k| !self.per_layer.iter().any(|m| &m.name == *k))
        {
            return Err(format!(
                "per-layer metric '{stray}' is measured but not declared in BENCHMARK.json"
            ));
        }
        Declared::object(&self.per_layer, |name| Ok(measured.get(name).copied().unwrap_or(0.0)))
    }
}
