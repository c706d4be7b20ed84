//! Mass production of HLS data tables.
//!
//! The dataset factory samples thousands of (kernel, knob-vector) points
//! and fans them through the batch evaluator the exploration uses
//! ([`crate::generate_all`]; always memoized here — a dataset has no
//! direct-synthesis reference to keep) — emitting one row per point:
//! provenance (kernel name, IR fingerprint, seed, sample index), the
//! feature encoding from [`crate::knob`], and the synthesis targets from
//! [`SynthSummary::targets`].
//!
//! Everything is seed-reproducible: sampling is a pure function of
//! `(seed, index)` (a [`splitmix64`] stream per row), the pool preserves
//! enumeration order at any worker count, and synthesis itself is
//! deterministic — so the emitted bytes are identical across machines
//! and `--jobs` settings.

use crate::analysis::{self, KernelWorkload};
use crate::cost;
use crate::error::{VariantError, VariantResult};
use crate::knob::{kernel_features, KnobVector, KERNEL_FEATURES, KNOB_FEATURES};
use crate::transform::Target;
use everest_hls::accel::SynthSummary;
use everest_hls::cache;
use everest_ir::Func;
use everest_workflow::seed::splitmix64;

/// The hardware-knob values the sampler draws from. Wider than
/// [`crate::space::DesignSpace`]'s defaults on purpose: a table of the
/// sweep corners only would say nothing about the interior the DSE
/// actually explores.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobDomains {
    /// Attachment targets.
    pub targets: Vec<Target>,
    /// Memory-bank counts.
    pub banks: Vec<usize>,
    /// Processing-element counts.
    pub pes: Vec<usize>,
    /// Pipelining options.
    pub pipeline: Vec<bool>,
    /// DIFT hardening options.
    pub dift: Vec<bool>,
}

impl Default for KnobDomains {
    fn default() -> KnobDomains {
        KnobDomains {
            targets: vec![Target::FpgaBus, Target::FpgaNetwork],
            banks: vec![1, 2, 4, 8, 16, 32, 64],
            pes: vec![1, 2, 4, 8, 16, 32, 64, 128],
            pipeline: vec![true, false],
            dift: vec![false, true],
        }
    }
}

impl KnobDomains {
    /// Draws the `index`-th hardware point of the `seed` stream — a pure
    /// function of its arguments, so row `i` is the same knob vector no
    /// matter which worker draws it or how many points surround it.
    pub fn sample(&self, seed: u64, index: usize) -> KnobVector {
        let mut state = seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut draw = |n: usize| (splitmix64(&mut state) % n as u64) as usize;
        KnobVector::Hardware {
            target: self.targets[draw(self.targets.len())],
            banks: self.banks[draw(self.banks.len())],
            pe: self.pes[draw(self.pes.len())],
            pipeline: self.pipeline[draw(self.pipeline.len())],
            dift: self.dift[draw(self.dift.len())],
        }
    }

    fn validate(&self) -> VariantResult<()> {
        let dims = [
            ("targets", self.targets.is_empty()),
            ("banks", self.banks.is_empty()),
            ("pes", self.pes.is_empty()),
            ("pipeline", self.pipeline.is_empty()),
            ("dift", self.dift.is_empty()),
        ];
        if let Some((name, _)) = dims.iter().find(|(_, empty)| *empty) {
            return Err(VariantError::Space(format!(
                "dataset knob domain '{name}' is empty: nothing to sample"
            )));
        }
        Ok(())
    }
}

/// Configuration of one dataset production run.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Sampling seed (part of every row's provenance).
    pub seed: u64,
    /// Points to sample (rows may come out fewer: unsynthesizable points
    /// are skipped, deterministically).
    pub points: usize,
    /// Pool workers to fan synthesis across. Any value produces
    /// bit-identical rows.
    pub jobs: usize,
    /// Knob values to sample from.
    pub domains: KnobDomains,
}

impl Default for DatasetConfig {
    fn default() -> DatasetConfig {
        DatasetConfig { seed: 7, points: 256, jobs: 1, domains: KnobDomains::default() }
    }
}

/// One produced point: provenance + features + targets.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetRow {
    /// Kernel the point was synthesized for.
    pub kernel: String,
    /// Name-independent IR fingerprint of that kernel
    /// ([`cache::func_fingerprint`]).
    pub fingerprint: u64,
    /// Seed of the sampling stream that drew this row.
    pub seed: u64,
    /// Index within the stream (row `i` is reproducible from
    /// `(seed, i)` alone).
    pub index: usize,
    /// The sampled design point.
    pub knob: KnobVector,
    /// Feature columns, in [`Dataset::feature_names`] order.
    pub features: Vec<f64>,
    /// Target columns, in [`Dataset::target_names`] order.
    pub targets: Vec<f64>,
}

/// A produced table of synthesized points.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature column names: [`KERNEL_FEATURES`] then [`KNOB_FEATURES`].
    pub feature_names: Vec<String>,
    /// Target column names: [`SynthSummary::TARGET_NAMES`].
    pub target_names: Vec<String>,
    /// The rows, in sample-index order.
    pub rows: Vec<DatasetRow>,
}

/// The full feature encoding of one (kernel, knob) point: kernel
/// features, knob features, then a `log_*` copy (`ln(1 + x)`) of every
/// base column, matching [`Dataset::feature_names`]. The log copies
/// matter: synthesis targets follow power laws in PE and bank counts
/// (`latency ≈ work / pe`, `area ≈ pe · unit`), which are *linear* in
/// log-feature/log-target space.
pub fn features_for(workload: &KernelWorkload, knob: &KnobVector) -> Vec<f64> {
    let mut features = Vec::with_capacity(2 * (KERNEL_FEATURES.len() + KNOB_FEATURES.len()));
    features.extend_from_slice(&kernel_features(workload));
    features.extend_from_slice(&knob.to_features());
    for i in 0..features.len() {
        features.push(features[i].max(0.0).ln_1p());
    }
    features
}

/// The stable feature-column names, matching [`features_for`].
pub fn feature_names() -> Vec<String> {
    let base = KERNEL_FEATURES.iter().chain(KNOB_FEATURES.iter());
    base.clone().map(|s| (*s).to_string()).chain(base.map(|s| format!("log_{s}"))).collect()
}

impl Dataset {
    /// A table over `rows` with the stock feature and target schema.
    pub(crate) fn from_rows(rows: Vec<DatasetRow>) -> Dataset {
        Dataset {
            feature_names: feature_names(),
            target_names: SynthSummary::TARGET_NAMES.iter().map(|s| (*s).to_string()).collect(),
            rows,
        }
    }

    /// Renders the table as CSV: a header row, then one line per point.
    /// Byte-identical for a given (kernels, config) on any machine at any
    /// job count — the golden-file tests pin exactly this property.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("kernel,fingerprint,seed,index");
        for name in self.feature_names.iter().chain(&self.target_names) {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!(
                "{},{:016x},{},{}",
                row.kernel, row.fingerprint, row.seed, row.index
            ));
            for v in row.features.iter().chain(&row.targets) {
                out.push(',');
                out.push_str(&format_num(*v));
            }
            out.push('\n');
        }
        out
    }
}

/// Formats a feature/target value: integers without a decimal point,
/// everything else through the shortest round-trip `f64` rendering.
/// Both are locale-free and bit-stable.
fn format_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Produces a dataset: samples `cfg.points` hardware points across the
/// kernels (round-robin: row `i` uses kernel `i % funcs.len()`),
/// synthesizes each through the shared [`cache`] with `cfg.jobs` pool
/// workers (memoized at any job count), and tabulates features and
/// targets. Points the HLS flow rejects (e.g. more banks than buffer
/// elements) are skipped — deterministically, since synthesis errors are
/// a pure function of the (kernel, config) pair.
///
/// # Errors
///
/// Returns [`VariantError::Space`] for an empty kernel list or knob
/// domain, never for individual unsynthesizable points.
pub fn produce(funcs: &[&Func], cfg: &DatasetConfig) -> VariantResult<Dataset> {
    if funcs.is_empty() {
        return Err(VariantError::Space("dataset production needs at least one kernel".into()));
    }
    cfg.domains.validate()?;
    let mut span = everest_telemetry::span("dse.dataset", "variants");
    span.attr("kernels", funcs.len());
    span.attr("points", cfg.points);
    span.attr("jobs", cfg.jobs.max(1));

    let workloads: Vec<KernelWorkload> = funcs.iter().map(|f| analysis::analyze(f)).collect();
    let knobs: Vec<KnobVector> = (0..cfg.points).map(|i| cfg.domains.sample(cfg.seed, i)).collect();
    let pairs: Vec<(usize, usize)> = (0..cfg.points).map(|i| (i % funcs.len(), i)).collect();
    let memo = Some(cache::global());
    let batch = cost::summarize_batch("dse.dataset.worker", cfg.jobs, memo, funcs, &knobs, &pairs);

    let mut rows = Vec::with_capacity(cfg.points);
    for (i, summary) in batch.summaries.into_iter().enumerate() {
        let Ok(summary) = summary else {
            everest_telemetry::metrics().counter_inc("dse.dataset.skipped");
            continue;
        };
        let f = i % funcs.len();
        rows.push(DatasetRow {
            kernel: funcs[f].name.clone(),
            fingerprint: batch.fingerprints[f],
            seed: cfg.seed,
            index: i,
            knob: knobs[i],
            features: features_for(&workloads[f], &knobs[i]),
            targets: summary.targets().to_vec(),
        });
    }
    everest_telemetry::metrics().counter_add("dse.dataset.points", rows.len() as u64);
    Ok(Dataset::from_rows(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernels() -> Vec<Func> {
        let src = "
            kernel mm(a: tensor<16x16xf64>, b: tensor<16x16xf64>) -> tensor<16x16xf64> { return a @ b; }
            kernel ax(a: tensor<256xf64>, b: tensor<256xf64>) -> tensor<256xf64> { return a + b; }
        ";
        let m = everest_dsl::compile_kernels(src).unwrap();
        vec![m.func("mm").unwrap().clone(), m.func("ax").unwrap().clone()]
    }

    #[test]
    fn sampling_is_pure_in_seed_and_index() {
        let domains = KnobDomains::default();
        for i in 0..50 {
            assert_eq!(domains.sample(7, i), domains.sample(7, i));
        }
        // Different seeds must not replay the same stream.
        let a: Vec<KnobVector> = (0..50).map(|i| domains.sample(7, i)).collect();
        let b: Vec<KnobVector> = (0..50).map(|i| domains.sample(8, i)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn production_is_bit_identical_across_job_counts() {
        let funcs = kernels();
        let refs: Vec<&Func> = funcs.iter().collect();
        let base = DatasetConfig { points: 24, ..DatasetConfig::default() };
        let seq = produce(&refs, &DatasetConfig { jobs: 1, ..base.clone() }).unwrap();
        let par = produce(&refs, &DatasetConfig { jobs: 4, ..base }).unwrap();
        assert_eq!(seq.to_csv(), par.to_csv());
    }

    #[test]
    fn rows_carry_provenance_and_schema() {
        let funcs = kernels();
        let refs: Vec<&Func> = funcs.iter().collect();
        let cfg = DatasetConfig { points: 16, ..DatasetConfig::default() };
        let data = produce(&refs, &cfg).unwrap();
        assert!(!data.rows.is_empty());
        assert_eq!(data.feature_names.len(), 2 * (KERNEL_FEATURES.len() + KNOB_FEATURES.len()));
        assert_eq!(data.target_names, SynthSummary::TARGET_NAMES);
        for row in &data.rows {
            assert_eq!(row.seed, cfg.seed);
            assert_eq!(row.features.len(), data.feature_names.len());
            assert_eq!(row.targets.len(), data.target_names.len());
            // Row is reproducible from provenance alone.
            assert_eq!(cfg.domains.sample(row.seed, row.index), row.knob);
            assert!(row.targets.iter().all(|t| *t >= 0.0));
        }
        // The CSV header matches the schema.
        let header = data.to_csv().lines().next().unwrap().to_string();
        assert!(header.starts_with("kernel,fingerprint,seed,index,flops,"));
        assert!(header.ends_with("latency_cycles,luts,ffs,dsps,brams"));
    }

    #[test]
    fn unsynthesizable_points_are_skipped_not_fatal() {
        let funcs = kernels();
        let refs: Vec<&Func> = vec![&funcs[1]];
        // A zero-bank config is rejected by the HLS flow (over-banked
        // configs are merely clamped), so half the sampled points fail.
        let domains = KnobDomains { banks: vec![4, 0], ..KnobDomains::default() };
        let cfg = DatasetConfig { points: 20, domains, ..DatasetConfig::default() };
        let data = produce(&refs, &cfg).unwrap();
        assert!(data.rows.len() < 20, "zero-bank points must be skipped");
        assert!(!data.rows.is_empty(), "4-bank points must survive");
    }

    #[test]
    fn empty_inputs_are_space_errors() {
        assert!(matches!(produce(&[], &DatasetConfig::default()), Err(VariantError::Space(_))));
        let funcs = kernels();
        let refs: Vec<&Func> = funcs.iter().collect();
        let cfg = DatasetConfig {
            domains: KnobDomains { pes: Vec::new(), ..KnobDomains::default() },
            ..DatasetConfig::default()
        };
        assert!(matches!(produce(&refs, &cfg), Err(VariantError::Space(_))));
    }
}
