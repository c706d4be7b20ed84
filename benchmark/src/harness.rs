//! What every workload shares: set-up, warm-up and the timed passes,
//! the pass-to-pass determinism check, the traced run, and the result
//! record both the driver (last stdout line) and `run.sh` (detail file)
//! read.

use crate::measure::{fastest_tenth, median, rusage, timed, Cost, Summary};
use crate::trace::Trace;
use crate::workloads::Counters;
use crate::{manifest, provenance};
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Worker threads every layer is given: the runner's core count. All
/// load comes from this one process and never uses more threads.
pub const JOBS: usize = 2;
/// Timed passes a run takes at least, however short `--seconds` is.
const MIN_PASSES: usize = 5;
/// A traced run takes this many untraced and this many traced passes,
/// whatever `--seconds` says: its spans all stay in memory until it ends.
const TRACED_PASSES: usize = 2;
/// A run sets up this many times and reports the median: the first
/// set-up of a process also pays for its lazy initialization and for
/// pages the host has to back, and one reading of a second of work is
/// too few on a shared runner.
const SETUPS: usize = 3;

/// Full size, or `--quick`: every count divided by 16.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    pub fn div(&self, n: usize) -> usize {
        if self.quick {
            (n / 16).max(1)
        } else {
            n
        }
    }
}

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Also run the checks too slow for every run (`cascade_e2e` at
    /// `jobs = 1`).
    pub full: bool,
    /// Where to write the full record of this run, for `run.sh`.
    pub detail: Option<String>,
}

/// What one pass produced, reduced to what must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations the pass completed (the numerator of `ops_per_s`).
    pub ops: u64,
    pub attempted: u64,
    /// Operations that ended without a correct outcome.
    pub failed: u64,
    /// Queries the serving tier shed or rejected under overload.
    pub refused: u64,
    /// Digest of every output of the pass.
    pub fingerprint: u64,
    /// Simulated-time results, by metric name.
    pub virt: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Equal counts and digest, and bit-equal simulated-time results.
    fn same_as(&self, other: &Outcome) -> bool {
        let bits = |o: &Outcome| o.virt.iter().map(|(n, v)| (*n, v.to_bits())).collect::<Vec<_>>();
        (self.ops, self.attempted, self.failed, self.refused, self.fingerprint)
            == (other.ops, other.attempted, other.failed, other.refused, other.fingerprint)
            && bits(self) == bits(other)
    }
}

/// Named values collected during a run.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

pub trait Workload: Sized {
    type Output;
    /// Timed passes per second of `--seconds`. A run's pass count follows
    /// from its arguments, never from its clock, so that every run of a
    /// workload does the same work on any machine and at any commit: what
    /// grows from pass to pass (the flight recorder's rings, see the
    /// README) then grows alike in every run. Chosen so that the passes
    /// of one run take about three quarters of `--seconds` on the 2-core
    /// runner when it is left alone, and the whole run, with its set-ups
    /// and checks, about `--seconds`.
    const PASSES_PER_SECOND: f64;
    /// Builds every input from `seed`.
    fn setup(seed: u64, scale: Scale) -> Result<Self, String>;
    /// One pass at [`JOBS`] workers, spans recorded into `trace`.
    fn pass(&mut self, trace: &mut Trace) -> Result<Self::Output, String>;
    /// Reduces a pass's outputs, outside the timed region.
    fn digest(&self, out: &Self::Output) -> Outcome;
    /// Output checks beyond pass-to-pass equality: the independent
    /// oracle, conservation laws, and `jobs` 1 against 2.
    fn verify(&mut self, out: &Self::Output, outcome: &Outcome, full: bool) -> Result<(), String>;
    /// Per-layer numbers of a traced run: from the spans, from the
    /// program's own counters, and from probes run here.
    fn layers(
        &mut self,
        trace: &Trace,
        counters: &Counters,
        out: &Self::Output,
        m: &mut Metrics,
    ) -> Result<(), String>;
}

/// The timed passes of one run.
struct Measured<W: Workload> {
    /// Cost of every untraced pass.
    costs: Vec<Cost>,
    /// Wall time of every traced pass (empty for an untraced run).
    traced_wall_s: Vec<f64>,
    /// The first pass's outputs, which every later pass had to repeat.
    out: W::Output,
    outcome: Outcome,
    trace: Trace,
    /// The program's counters around the last traced pass.
    counters: Option<Counters>,
}

/// Takes the run's timed passes. A traced run alternates an untraced
/// and a traced pass, so both sides of the overhead ratio see the same
/// machine.
fn measure<W: Workload>(w: &mut W, name: &str, opts: &Options) -> Result<Measured<W>, String> {
    let passes = match (opts.quick, opts.trace) {
        (true, _) => 1,
        (false, true) => TRACED_PASSES,
        (false, false) => ((W::PASSES_PER_SECOND * opts.seconds).round() as usize).max(MIN_PASSES),
    };
    let modes: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    let mut trace = Trace::new(false);
    let mut costs = Vec::new();
    let mut traced_wall_s = Vec::new();
    let mut counters = None;
    let mut reference: Option<(W::Output, Outcome)> = None;
    for _ in 0..passes {
        for &traced in modes {
            trace.set_enabled(traced);
            trace.start_pass(traced_wall_s.len() as u32);
            let before = traced.then(|| everest_telemetry::metrics().snapshot());
            let (out, cost) = timed(|| {
                trace.begin("benchmark", "pass");
                let out = w.pass(&mut trace);
                trace.end();
                out
            });
            let out = out?;
            if let Some(before) = before {
                counters = Some(Counters {
                    before,
                    after: everest_telemetry::metrics().snapshot(),
                    memo_entries: everest::hls::cache::global().len(),
                });
                traced_wall_s.push(cost.wall_s);
            } else {
                costs.push(cost);
            }
            let outcome = w.digest(&out);
            match &reference {
                Some((_, first)) if !first.same_as(&outcome) => {
                    return Err(format!(
                        "{name}: a pass (traced: {traced}) did not repeat the first pass's \
                         outputs:\n  first {first:?}\n  now   {outcome:?}"
                    ));
                }
                Some(_) => {}
                None => reference = Some((out, outcome)),
            }
        }
    }
    trace.set_enabled(false);
    let (out, outcome) = reference.expect("at least one pass ran");
    Ok(Measured { costs, traced_wall_s, out, outcome, trace, counters })
}

/// A metric in the detail file: the `value` the run reports, and how
/// the samples it was taken from spread.
fn summary_json(value: f64, s: &Summary) -> Value {
    Value::Object(vec![
        ("value".into(), Value::Float(value)),
        ("median".into(), Value::Float(s.median)),
        ("q1".into(), Value::Float(s.q1)),
        ("q3".into(), Value::Float(s.q3)),
        ("min".into(), Value::Float(s.min)),
        ("max".into(), Value::Float(s.max)),
        ("n".into(), Value::UInt(s.n as u64)),
    ])
}

/// Runs one workload as the contract asks and prints the result line.
pub fn run<W: Workload>(name: &'static str, opts: &Options) -> Result<(), String> {
    // Set-up is everything before the first timed pass: the inputs built
    // from the seed, then one pass in which caches fill and lazy set-up
    // ends. It is timed whole, so that work a later change moves out of
    // the passes shows here; the last set-up is the one the passes use.
    let mut setups_s = Vec::new();
    let mut w = loop {
        let began = Instant::now();
        let mut w = W::setup(opts.seed, Scale { quick: opts.quick })?;
        if !opts.quick {
            w.pass(&mut Trace::new(false))?;
        }
        setups_s.push(began.elapsed().as_secs_f64());
        if opts.quick || setups_s.len() == SETUPS {
            break w;
        }
    };
    let Measured { costs, traced_wall_s, out, outcome, trace, counters } =
        measure(&mut w, name, opts)?;
    let peak_rss_mib = rusage().peak_rss_mib;
    w.verify(&out, &outcome, opts.full)?;

    // The runner is a few cores of a shared host: other tenants slow a
    // pass down and nothing speeds one up, and how much they do changes
    // from one minute to the next. So a run reports what a pass costs
    // when it is left alone: the mean over the tenth of its passes with
    // the least wall time (several where there are many, because the
    // single fastest of several hundred short passes is a lucky one, and because the
    // kernel splits run time into user and system by sampling at the
    // scheduler tick, which one 40 ms pass is too short for). Medians and
    // quartiles over all passes go to the detail file.
    let sample = |f: fn(&Cost) -> f64| costs.iter().map(f).collect::<Vec<f64>>();
    let quiet = fastest_tenth(&costs);
    let quiet_mean = |f: fn(&Cost) -> f64| quiet.iter().map(f).sum::<f64>() / quiet.len() as f64;
    let wall_s = quiet_mean(|c| c.wall_s);
    let wall = Summary::of(&sample(|c| c.wall_s));
    let ops_per_s: Vec<f64> = costs.iter().map(|c| outcome.ops as f64 / c.wall_s).collect();
    let single = |v: f64| (v, Summary::of(&[v]));
    let mut end_to_end: Vec<(&str, (f64, Summary))> = vec![
        ("setup_s", (median(&setups_s), Summary::of(&setups_s))),
        ("wall_s", (wall_s, wall)),
        ("cpu_user_s", single(quiet_mean(|c| c.user_s))),
        ("ops_per_s", (outcome.ops as f64 / wall_s, Summary::of(&ops_per_s))),
        ("peak_rss_mb", single(peak_rss_mib)),
    ];
    end_to_end.extend(outcome.virt.iter().map(|(name, value)| (*name, single(*value))));

    let mut layers = Metrics::default();
    if let Some(counters) = &counters {
        layers.set("process.cpu_sys_s", median(&sample(|c| c.sys_s)));
        layers.set("process.page_faults", median(&sample(|c| c.page_faults as f64)));
        layers.set(
            format!("trace.overhead_share.{name}"),
            median(&traced_wall_s) / wall.median - 1.0,
        );
        crate::probes::telemetry(&mut layers);
        w.layers(&trace, counters, &out, &mut layers)?;
        let path = manifest::out_dir()?.join(format!("trace-{name}.json"));
        let text = serde_json::to_string(&trace.to_json(name)).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // Human-readable first; the contract's JSON object is the last line.
    let declared = manifest::Declared::load()?;
    let Outcome { attempted, failed, refused, .. } = outcome;
    println!(
        "{name}: seed {}, {} timed passes, per pass {attempted} attempted, {failed} failed, \
         {refused} refused",
        opts.seed,
        costs.len()
    );
    for (metric, (value, s)) in &end_to_end {
        let unit = declared.unit(metric);
        println!(
            "  {metric:<40} {value:>18.6} {unit:<6} (median {:.6} q1 {:.6} q3 {:.6} n {})",
            s.median, s.q1, s.q3, s.n
        );
    }
    for (metric, value) in &layers.0 {
        println!("  {metric:<40} {value:>18.6} {}", declared.unit(metric));
    }

    if let Some(path) = &opts.detail {
        let detail = Value::Object(vec![
            ("workload".into(), Value::Str(name.into())),
            ("passes".into(), Value::UInt(costs.len() as u64)),
            ("attempted".into(), Value::UInt(attempted)),
            ("failed".into(), Value::UInt(failed)),
            ("refused".into(), Value::UInt(refused)),
            ("fingerprint".into(), Value::Str(format!("{:016x}", outcome.fingerprint))),
            (
                "end_to_end".into(),
                Value::Object(
                    end_to_end
                        .iter()
                        .map(|(n, (v, s))| ((*n).to_owned(), summary_json(*v, s)))
                        .collect(),
                ),
            ),
            (
                "per_layer".into(),
                Value::Object(
                    layers.0.iter().map(|(n, v)| (n.clone(), Value::Float(*v))).collect(),
                ),
            ),
            ("provenance".into(), provenance::block(opts)),
        ]);
        let text = serde_json::to_string_pretty(&detail).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }

    let values: BTreeMap<String, f64> =
        end_to_end.iter().map(|(n, (v, _))| ((*n).to_owned(), *v)).collect();
    let metrics =
        if opts.trace { declared.per_layer(&layers.0)? } else { declared.end_to_end(&values)? };
    let passes = (costs.len() + traced_wall_s.len()) as u64;
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::UInt(attempted * passes)),
        ("failed".into(), Value::UInt(failed * passes)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", serde_json::to_string(&line).map_err(|e| e.to_string())?);
    Ok(())
}
