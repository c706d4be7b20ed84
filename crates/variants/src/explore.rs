//! The design-space exploration engine.
//!
//! One engine serves every entry point. It enumerates the space once,
//! keeps one table of exact synthesis summaries indexed `kernel × point`,
//! fills it through the batch evaluator ([`cost`]'s `summarize_batch`, the
//! crate's only pool fan-out), and assembles [`Variant`]s from the table
//! in one place. Software points never enter the table: the roofline
//! model is arithmetic, evaluated during assembly.
//!
//! What differs between callers is only *which hardware pairs are asked
//! for*:
//!
//! * exhaustive ([`crate::generate_all`]) asks for all of them;
//! * surrogate-pruned ([`generate_all_pruned`]) asks for a deterministic
//!   training sample, fits a [`SurrogateModel`] on it, predicts the rest,
//!   and asks only for the points within a configurable margin of the
//!   *predicted* Pareto front.
//!
//! Safety valve: when the model's held-out validation error exceeds
//! [`PruneConfig::max_val_mape`] (or there are too few hardware points to
//! learn from), the pruned policy asks for every remaining pair — the
//! training points it already paid for stay in the table — so a bad fit
//! can cost time but never front quality.
//!
//! Memoization is decided here, once: two or more workers synthesize
//! through the shared [`everest_hls::cache`], one worker is the memo-free
//! direct-synthesis reference the parallel engine is tested against.
//!
//! Determinism: training-set selection is a pure function of
//! `(seed, point count)`, the fit and the predictions are deterministic,
//! and the batch evaluator returns results in request order — so variant
//! ids, ordering, metrics and reports are bit-identical at any `--jobs`
//! count, and a failure is always the lowest-indexed failing pair of the
//! batch that hit it.

use crate::analysis::{self, KernelWorkload};
use crate::dataset::{features_for, Dataset, DatasetRow};
use crate::error::{VariantError, VariantResult};
use crate::knob::KnobVector;
use crate::model::{FitConfig, SurrogateModel};
use crate::space::DesignSpace;
use crate::variant::{Metrics, Variant};
use crate::{cost, pareto};
use everest_hls::accel::SynthSummary;
use everest_hls::AreaReport;
use everest_ir::Func;
use everest_workflow::seed::splitmix64;

/// Configuration of the surrogate-pruned exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneConfig {
    /// Pareto margin: a predicted point survives pruning when shrinking
    /// its objectives by this fraction leaves it non-dominated by the
    /// predicted front. 0 keeps only the predicted front itself; larger
    /// values keep a thicker band (more exact synthesis, more safety).
    pub margin: f64,
    /// Fraction of the hardware points synthesized exactly for training.
    pub train_fraction: f64,
    /// Floor on the training-set size (small spaces train on everything
    /// and the explorer falls back to exhaustive).
    pub min_train: usize,
    /// Width of the near-duplicate collapse grid: survivors whose
    /// predicted objectives all land in the same multiplicative cell
    /// (relative width `dedup_eps`) share one exact synthesis. 0
    /// disables the collapse.
    pub dedup_eps: f64,
    /// Fall back to exhaustive exploration when the model's worst
    /// per-target held-out MAPE exceeds this.
    pub max_val_mape: f64,
    /// Seed of the training-set selection (part of the reproducibility
    /// contract, like the dataset factory's seed).
    pub seed: u64,
    /// Surrogate training configuration.
    pub fit: FitConfig,
}

impl Default for PruneConfig {
    fn default() -> PruneConfig {
        PruneConfig {
            margin: 0.15,
            train_fraction: 0.08,
            min_train: 24,
            dedup_eps: 0.05,
            max_val_mape: 0.35,
            seed: 7,
            fit: FitConfig::default(),
        }
    }
}

impl PruneConfig {
    fn validate(&self) -> VariantResult<()> {
        if !(0.0..1.0).contains(&self.margin) {
            return Err(VariantError::Space(format!(
                "prune margin {} out of range [0, 1)",
                self.margin
            )));
        }
        if !(self.train_fraction > 0.0 && self.train_fraction <= 1.0) {
            return Err(VariantError::Space(format!(
                "train fraction {} out of range (0, 1]",
                self.train_fraction
            )));
        }
        if !(0.0..1.0).contains(&self.dedup_eps) {
            return Err(VariantError::Space(format!(
                "dedup epsilon {} out of range [0, 1)",
                self.dedup_eps
            )));
        }
        Ok(())
    }
}

/// What the explorer did, for telemetry, benches and the CLI.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// Total (kernel × point) pairs in the space.
    pub points: usize,
    /// Software pairs (always exact).
    pub software: usize,
    /// Hardware pairs synthesized exactly for training.
    pub train: usize,
    /// Hardware pairs the surrogate predicted.
    pub predicted: usize,
    /// Hardware pairs evaluated exactly (training + margin survivors).
    pub exact: usize,
    /// Hardware pairs pruned away on the model's word.
    pub pruned: usize,
    /// Whether the pruned policy gave up and asked for every pair.
    pub fallback: bool,
    /// Worst per-target held-out MAPE of the fitted model (0 when no
    /// model was fit).
    pub val_mape: f64,
}

/// Strict domination over bare `f64` objective triples (minimization).
fn dominates3(a: (f64, f64, f64), b: (f64, f64, f64)) -> bool {
    let no_worse = a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2;
    let better = a.0 < b.0 || a.1 < b.1 || a.2 < b.2;
    no_worse && better
}

/// Deterministic choice of `n` training pairs out of `total`: a partial
/// Fisher–Yates shuffle driven by a splitmix64 stream seeded from
/// `seed`, returned in ascending order. Pure in `(seed, total, n)`.
fn training_indices(seed: u64, total: usize, n: usize) -> Vec<usize> {
    let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
    let mut pool: Vec<usize> = (0..total).collect();
    let n = n.min(total);
    for i in 0..n {
        let j = i + (splitmix64(&mut state) % (total - i) as u64) as usize;
        pool.swap(i, j);
    }
    let mut chosen = pool[..n].to_vec();
    chosen.sort_unstable();
    chosen
}

/// Builds a [`SynthSummary`]-shaped value from the surrogate's predicted
/// targets, so predicted points flow through the exact path's
/// [`cost`] bridge (`metrics_from_summary`) and land in the same
/// objective space as synthesized ones.
fn predicted_summary(pred: &[f64], knob: &KnobVector) -> SynthSummary {
    let KnobVector::Hardware { pe, .. } = knob else {
        unreachable!("predictions are only made for hardware points");
    };
    let at = |i: usize| pred.get(i).copied().unwrap_or(0.0).max(0.0).round();
    SynthSummary {
        latency_cycles: at(0) as u64,
        innermost_ii: 1,
        pe: *pe,
        area: AreaReport {
            luts: at(1) as u64,
            ffs: at(2) as u64,
            dsps: at(3) as u64,
            brams: at(4) as u64,
        },
        clock_mhz: knob.hls_config().clock_mhz,
    }
}

/// One `(kernel, point)` pair, as indices into the engine's kernel list
/// and enumeration order.
type Pair = (usize, usize);

/// The state of one exploration: the enumerated space, the per-kernel
/// workloads, and the table of exact synthesis summaries.
struct Engine<'a> {
    funcs: &'a [&'a Func],
    knobs: Vec<KnobVector>,
    workloads: Vec<KernelWorkload>,
    jobs: usize,
    /// Exact summaries indexed `kernel × point`; `None` for software
    /// points and for hardware points nobody asked for.
    table: Vec<Option<SynthSummary>>,
}

impl Engine<'_> {
    fn slot(&self, (k, i): Pair) -> usize {
        k * self.knobs.len() + i
    }

    fn exact(&self, pair: Pair) -> Option<&SynthSummary> {
        self.table[self.slot(pair)].as_ref()
    }

    /// Synthesizes the requested hardware pairs that are not in the table
    /// yet and stores their summaries. On failure the lowest-indexed
    /// failing pair's error is returned.
    fn request(&mut self, label: &str, pairs: &[Pair]) -> VariantResult<()> {
        let missing: Vec<Pair> =
            pairs.iter().copied().filter(|&pair| self.exact(pair).is_none()).collect();
        let batch: Vec<(&Func, KnobVector)> =
            missing.iter().map(|&(k, i)| (self.funcs[k], self.knobs[i])).collect();
        let memoize = self.jobs >= 2;
        let summaries = cost::summarize_batch(label, self.jobs, memoize, &batch);
        for (pair, summary) in missing.into_iter().zip(summaries) {
            let slot = self.slot(pair);
            self.table[slot] = Some(summary?);
        }
        Ok(())
    }

    /// The variant sets: every software point plus every hardware point
    /// with an exact summary, under their enumeration ids.
    fn assemble(&self) -> Vec<Vec<Variant>> {
        let mut sets = Vec::with_capacity(self.funcs.len());
        for (k, (func, workload)) in self.funcs.iter().zip(&self.workloads).enumerate() {
            let mut span = everest_telemetry::span("variants.generate", "variants");
            span.attr("kernel", &func.name);
            span.attr("space", self.knobs.len());
            let mut variants = Vec::with_capacity(self.knobs.len());
            for (i, knob) in self.knobs.iter().enumerate() {
                let metrics = if knob.is_hardware() {
                    let Some(summary) = self.exact((k, i)) else {
                        continue; // pruned
                    };
                    cost::metrics_from_summary(summary, workload, knob.target())
                } else {
                    cost::software_metrics_knob(workload, knob)
                };
                variants.push(Variant {
                    id: format!("{}#{}", func.name, i),
                    kernel: func.name.clone(),
                    transforms: knob.to_transforms(),
                    metrics,
                });
            }
            sets.push(variants);
        }
        sets
    }

    /// The surrogate-pruned selection policy: train, fit, predict, and
    /// ask for the margin survivors — or for everything when the model
    /// cannot be trusted. `all` is the keep-everything report.
    fn prune(
        &mut self,
        cfg: &PruneConfig,
        hw_pairs: &[Pair],
        all: ExploreReport,
    ) -> VariantResult<ExploreReport> {
        let metrics = everest_telemetry::metrics();
        let want = ((hw_pairs.len() as f64 * cfg.train_fraction).ceil() as usize)
            .max(cfg.min_train)
            .min(hw_pairs.len());
        // Too few hardware points for the model to earn its keep: every
        // pair would be a training pair anyway.
        if want >= hw_pairs.len() {
            metrics.counter_inc("dse.model.fallback");
            self.request("dse.worker", hw_pairs)?;
            return Ok(ExploreReport { fallback: true, ..all });
        }

        // --- Phase 1: exact synthesis of the training sample. ---
        let train_at = training_indices(cfg.seed, hw_pairs.len(), want);
        let train_pairs: Vec<Pair> = train_at.iter().map(|&t| hw_pairs[t]).collect();
        self.request("dse.explore.train", &train_pairs)?;
        let rows = train_at
            .iter()
            .zip(&train_pairs)
            .map(|(&t, &(k, i))| {
                let summary = self.exact((k, i)).expect("training pair was just synthesized");
                DatasetRow::new(
                    self.funcs[k],
                    &self.workloads[k],
                    cfg.seed,
                    t,
                    self.knobs[i],
                    summary,
                )
            })
            .collect();
        let dataset = Dataset::from_rows(rows);
        metrics.counter_add("dse.model.train_points", dataset.rows.len() as u64);

        // --- Phase 2: fit, with the accuracy safety valve. ---
        let model = SurrogateModel::fit(&dataset, &cfg.fit);
        let val_mape = model.validation.worst_mape();
        if val_mape > cfg.max_val_mape {
            metrics.counter_inc("dse.model.fallback");
            self.request("dse.worker", hw_pairs)?;
            return Ok(ExploreReport { train: want, fallback: true, val_mape, ..all });
        }

        // --- Phase 3: predict every hardware pair, prune against the
        // predicted front. ---
        let survivors = self.margin_survivors(cfg, hw_pairs, &model);
        metrics.counter_add("dse.model.predicted", (hw_pairs.len() - want) as u64);

        // --- Phase 4: exact evaluation of the survivors. ---
        self.request("dse.explore.exact", &survivors)?;
        let exact = want + survivors.len();
        let pruned = hw_pairs.len() - exact;
        metrics.counter_add("dse.model.kept", exact as u64);
        metrics.counter_add("dse.model.pruned", pruned as u64);
        Ok(ExploreReport {
            train: want,
            predicted: hw_pairs.len() - want,
            exact,
            pruned,
            val_mape,
            ..all
        })
    }

    /// The untrained hardware pairs worth exact synthesis: those whose
    /// predicted objectives sit within `cfg.margin` of the predicted
    /// per-kernel Pareto front, one representative per `cfg.dedup_eps`
    /// cell.
    fn margin_survivors(
        &self,
        cfg: &PruneConfig,
        hw_pairs: &[Pair],
        model: &SurrogateModel,
    ) -> Vec<Pair> {
        let trained = |p: usize| self.exact(hw_pairs[p]).is_some();
        let predicted: Vec<Metrics> = hw_pairs
            .iter()
            .map(|&(k, i)| {
                let (workload, knob) = (&self.workloads[k], &self.knobs[i]);
                let summary = match self.exact((k, i)) {
                    // Training points contribute their exact summaries:
                    // free accuracy right where the front is decided.
                    Some(exact) => *exact,
                    None => predicted_summary(&model.predict(&features_for(workload, knob)), knob),
                };
                cost::metrics_from_summary(&summary, workload, knob.target())
            })
            .collect();

        // Per kernel: front over exact software metrics + (predicted |
        // exact) hardware metrics, then the margin test.
        let mut keep = vec![false; hw_pairs.len()];
        for (k, workload) in self.workloads.iter().enumerate() {
            let sw_objs: Vec<(f64, f64, u64)> = self
                .knobs
                .iter()
                .filter(|kn| !kn.is_hardware())
                .map(|kn| {
                    let m = cost::software_metrics_knob(workload, kn);
                    (m.total_us(), m.energy_mj, m.area_luts)
                })
                .collect();
            let hw_at: Vec<usize> = (0..hw_pairs.len()).filter(|&p| hw_pairs[p].0 == k).collect();
            let mut objs = sw_objs.clone();
            objs.extend(hw_at.iter().map(|&p| {
                let m = &predicted[p];
                (m.total_us(), m.energy_mj, m.area_luts)
            }));
            let dominated = pareto::dominated_objective_flags(&objs);
            let front: Vec<(f64, f64, f64)> = objs
                .iter()
                .zip(&dominated)
                .filter(|(_, d)| !**d)
                .map(|(&(t, e, a), _)| (t, e, a as f64))
                .collect();
            for (slot, &p) in hw_at.iter().enumerate() {
                let (t, e, a) = objs[sw_objs.len() + slot];
                let shrunk =
                    (t * (1.0 - cfg.margin), e * (1.0 - cfg.margin), a as f64 * (1.0 - cfg.margin));
                keep[p] = !front.iter().any(|&q| dominates3(q, shrunk));
            }

            // Near-duplicate collapse: snap predicted objectives to a
            // multiplicative grid of width `dedup_eps` and keep one
            // representative per occupied cell (lowest enumeration index;
            // training pairs seed their cells first — they are already
            // paid for). Without this, clouds of points the model cannot
            // tell apart (e.g. banks beyond the port clamp) all survive
            // the margin test and exact synthesis re-learns their
            // equivalence the expensive way.
            if cfg.dedup_eps > 0.0 {
                let cell_of =
                    |x: f64| (x.max(1e-12).ln() / (1.0 + cfg.dedup_eps).ln()).floor() as i64;
                let cell = |p: usize| {
                    let m = &predicted[p];
                    (cell_of(m.total_us()), cell_of(m.energy_mj), cell_of(m.area_luts as f64 + 1.0))
                };
                let kept: Vec<usize> = hw_at.iter().copied().filter(|&p| keep[p]).collect();
                let mut seen: Vec<(i64, i64, i64)> =
                    kept.iter().filter(|&&p| trained(p)).map(|&p| cell(p)).collect();
                for &p in kept.iter().filter(|&&p| !trained(p)) {
                    let c = cell(p);
                    if seen.contains(&c) {
                        keep[p] = false;
                    } else {
                        seen.push(c);
                    }
                }
            }
        }
        (0..hw_pairs.len()).filter(|&p| keep[p] && !trained(p)).map(|p| hw_pairs[p]).collect()
    }
}

/// Runs one exploration of `funcs` over `space` with `jobs` workers.
/// `policy` selects the hardware pairs synthesized exactly: `None` keeps
/// them all, `Some` prunes on a surrogate's word.
pub(crate) fn explore(
    funcs: &[&Func],
    space: &DesignSpace,
    jobs: usize,
    policy: Option<&PruneConfig>,
) -> VariantResult<(Vec<Vec<Variant>>, ExploreReport)> {
    space.validate()?;
    if let Some(cfg) = policy {
        cfg.validate()?;
    }
    let knobs = space.enumerate_knobs();
    // Flattened hardware (kernel, point) pairs in enumeration order.
    let hw_pairs: Vec<Pair> = (0..funcs.len())
        .flat_map(|k| {
            knobs.iter().enumerate().filter(|(_, kn)| kn.is_hardware()).map(move |(i, _)| (k, i))
        })
        .collect();
    let points = funcs.len() * knobs.len();

    let name = if policy.is_some() { "dse.explore" } else { "dse.evaluate" };
    let mut span = everest_telemetry::span(name, "variants");
    span.attr("kernels", funcs.len());
    span.attr("points", points);
    span.attr("jobs", jobs.max(1));

    let mut engine = Engine {
        funcs,
        workloads: funcs.iter().map(|f| analysis::analyze(f)).collect(),
        jobs,
        table: vec![None; points],
        knobs,
    };
    let all = ExploreReport {
        points,
        software: points - hw_pairs.len(),
        train: 0,
        predicted: 0,
        exact: hw_pairs.len(),
        pruned: 0,
        fallback: false,
        val_mape: 0.0,
    };
    let report = match policy {
        None => {
            engine.request("dse.worker", &hw_pairs)?;
            all
        }
        Some(cfg) => engine.prune(cfg, &hw_pairs, all)?,
    };
    span.attr("exact", report.exact);
    span.attr("pruned", report.pruned);
    Ok((engine.assemble(), report))
}

/// Surrogate-pruned counterpart of [`crate::generate_all`]: returns the
/// exactly-evaluated variants (software points, training points and
/// margin survivors — ids keep their exhaustive enumeration indices) plus
/// a report of what was predicted, kept and pruned.
///
/// # Errors
///
/// Returns [`VariantError::Space`] for a malformed space or prune
/// configuration, and [`VariantError::Hls`] when an exactly-evaluated
/// point fails to synthesize (lowest enumeration index wins, like the
/// exhaustive engine).
pub fn generate_all_pruned(
    funcs: &[&Func],
    space: &DesignSpace,
    jobs: usize,
    cfg: &PruneConfig,
) -> VariantResult<(Vec<Vec<Variant>>, ExploreReport)> {
    explore(funcs, space, jobs, Some(cfg))
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

    fn wide_space() -> DesignSpace {
        DesignSpace {
            banks: vec![1, 2, 4, 8, 16],
            pes: vec![1, 2, 4, 8, 16, 32],
            pipeline: vec![true, false],
            dift: vec![false, true],
            ..DesignSpace::default()
        }
    }

    #[test]
    fn small_spaces_fall_back_to_exhaustive() {
        let funcs = kernels();
        let refs: Vec<&Func> = funcs.iter().collect();
        let space = DesignSpace::small();
        let (sets, report) =
            generate_all_pruned(&refs, &space, 1, &PruneConfig::default()).unwrap();
        assert!(report.fallback);
        assert_eq!(sets, explore(&refs, &space, 1, None).unwrap().0);
    }

    #[test]
    fn pruned_sets_are_subsets_with_stable_ids() {
        let funcs = kernels();
        let refs: Vec<&Func> = funcs.iter().collect();
        let space = wide_space();
        let (pruned, report) =
            generate_all_pruned(&refs, &space, 2, &PruneConfig::default()).unwrap();
        let full = explore(&refs, &space, 2, None).unwrap().0;
        assert!(!report.fallback, "wide space should engage the model");
        assert!(report.pruned > 0, "nothing pruned: {report:?}");
        for (p_set, f_set) in pruned.iter().zip(&full) {
            assert!(p_set.len() < f_set.len());
            for v in p_set {
                let exact = f_set.iter().find(|f| f.id == v.id).expect("id from enumeration");
                assert_eq!(exact, v, "kept variants carry exact metrics");
            }
        }
    }

    #[test]
    fn pruned_exploration_is_bit_identical_across_job_counts() {
        let funcs = kernels();
        let refs: Vec<&Func> = funcs.iter().collect();
        let space = wide_space();
        let cfg = PruneConfig::default();
        let (seq, r1) = generate_all_pruned(&refs, &space, 1, &cfg).unwrap();
        let (par, r4) = generate_all_pruned(&refs, &space, 4, &cfg).unwrap();
        assert_eq!(seq, par);
        assert_eq!(r1, r4);
    }

    #[test]
    fn front_quality_matches_exhaustive_within_one_percent() {
        let funcs = kernels();
        let refs: Vec<&Func> = funcs.iter().collect();
        let space = wide_space();
        let (pruned, _) = generate_all_pruned(&refs, &space, 2, &PruneConfig::default()).unwrap();
        let full = explore(&refs, &space, 2, None).unwrap().0;
        for (p_set, f_set) in pruned.iter().zip(&full) {
            let reference = pareto::reference_point(f_set);
            let hv_full = pareto::hypervolume(&pareto::pareto_front(f_set), reference);
            let hv_pruned = pareto::hypervolume(&pareto::pareto_front(p_set), reference);
            assert!(
                hv_pruned >= hv_full * 0.99,
                "front quality dropped: pruned {hv_pruned} vs full {hv_full}"
            );
        }
    }

    #[test]
    fn training_selection_is_pure_and_sorted() {
        let a = training_indices(7, 100, 20);
        let b = training_indices(7, 100, 20);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a.len(), 20);
        let c = training_indices(8, 100, 20);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn invalid_prune_config_is_rejected() {
        let funcs = kernels();
        let refs: Vec<&Func> = funcs.iter().collect();
        let bad = PruneConfig { margin: 1.5, ..PruneConfig::default() };
        assert!(matches!(
            generate_all_pruned(&refs, &DesignSpace::default(), 1, &bad),
            Err(VariantError::Space(_))
        ));
        let bad = PruneConfig { train_fraction: 0.0, ..PruneConfig::default() };
        assert!(matches!(
            generate_all_pruned(&refs, &DesignSpace::default(), 1, &bad),
            Err(VariantError::Space(_))
        ));
    }
}
