//! The HYPPO system facade (§IV-A): parser → augmenter → plan generator →
//! executor → monitor → history manager, wired end-to-end.

use crate::augment::{self, AugmentOptions, Augmentation};
use crate::cost::PriceModel;
use crate::durable::DurabilityHook;
use crate::engine::{self, PlannedBatch};
use crate::estimator::CostEstimator;
use crate::executor::{execute_plan, ExecError, ExecMode};
use crate::history::History;
use crate::materialize::PlanLocality;
use crate::optimizer::batch::BatchPlanStats;
use crate::optimizer::bounds::{BoundsCacheStats, PlannerBoundsCache};
use crate::optimizer::{Plan, Planner};
use crate::store::ArtifactStore;
use hyppo_pipeline::{build_pipeline, ArtifactName, Dictionary, PipelineSpec};
use hyppo_tensor::Dataset;
use std::collections::HashMap;
use std::time::Instant;

/// System configuration.
#[derive(Clone, Debug)]
pub struct HyppoConfig {
    /// Storage budget in bytes (0 disables materialization).
    pub budget_bytes: u64,
    /// Plan-search configuration (queue kind, worker count, exploration
    /// knob — see the [`Planner`] builder).
    pub search: Planner,
    /// The operator dictionary.
    pub dictionary: Dictionary,
    /// Augmentation options.
    pub augment: AugmentOptions,
    /// Materialization locality variant.
    pub locality: PlanLocality,
    /// Pricing model for monetary cost reporting.
    pub price: PriceModel,
    /// Execution mode (real computation vs virtual clock).
    pub mode: ExecMode,
}

impl Default for HyppoConfig {
    fn default() -> Self {
        HyppoConfig {
            budget_bytes: 0,
            search: Planner::exact(),
            dictionary: Dictionary::full(),
            augment: AugmentOptions::default(),
            locality: PlanLocality::PaperInverse,
            price: PriceModel::default(),
            mode: ExecMode::Real,
        }
    }
}

/// What one pipeline submission cost and did.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Estimated cost of the chosen plan (seconds).
    pub planned_cost: f64,
    /// Executed cost (seconds) — the run's contribution to cumulative
    /// execution time.
    pub execution_seconds: f64,
    /// Time spent in augmentation + plan search (the optimization
    /// overhead of paper Fig. 9b).
    pub optimize_seconds: f64,
    /// Number of hyperedges executed.
    pub tasks_executed: usize,
    /// How many of them were loads of materialized artifacts / datasets.
    pub loads: usize,
    /// Number of new tasks the augmentation contained.
    pub new_tasks: usize,
    /// Plan-search expansions (search effort).
    pub expansions: usize,
    /// Plan-search queue pops, including pruned/deduplicated plans popped
    /// without being expanded (total search effort; `pops - expansions` is
    /// the pruning overhead).
    pub pops: usize,
    /// Artifacts stored / evicted by this round's materialization.
    pub stored: usize,
    /// Artifacts evicted by this round's materialization.
    pub evicted: usize,
    /// Scalar evaluation results, by artifact name.
    pub values: HashMap<ArtifactName, f64>,
}

/// What one *batch* submission cost and did, beyond the per-pipeline
/// [`RunReport`]s.
#[derive(Clone, Debug, Default)]
pub struct BatchRunReport {
    /// Per-pipeline reports, in submission order.
    pub reports: Vec<RunReport>,
    /// Planner-side batch statistics: dedup groups, shared-prefix bound
    /// computations, leaf repairs, total search effort.
    pub batch: BatchPlanStats,
    /// Bounds-cache counter *delta* attributable to this batch (computed
    /// via [`BoundsCacheStats::delta_since`] around the call), so callers
    /// see per-batch amortization rather than only cumulative totals.
    pub bounds_delta: BoundsCacheStats,
    /// Artifacts the batch planner identified as shared across plans — the
    /// joint materialization decision: heads of plan edges used by two or
    /// more of the batch's plans.
    pub shared_artifacts: Vec<ArtifactName>,
    /// Items that fell back to a full sequential re-submission because the
    /// store changed under them (e.g. an earlier item's materialization
    /// evicted an artifact their plan wanted to load).
    pub replans: usize,
}

/// Submission failure.
#[derive(Debug)]
pub enum SubmitError {
    /// No executable plan derives the targets (e.g. a requested artifact
    /// is unknown or underivable).
    NoPlan,
    /// Plan execution failed.
    Exec(ExecError),
    /// The submission executed but its events could not be made durable
    /// (the attached [`DurabilityHook`] failed). In-memory state is
    /// updated and the events stay queued for the next drain; a crash
    /// before the next successful append loses this submission's history.
    Durability(std::io::Error),
    /// A serving-layer failure outside the submission itself — admission
    /// rejection, cancellation, or runtime shutdown. Produced by
    /// `hyppo-serve` clients driving a backend through the
    /// [`Session`](crate::Session) trait.
    Serving(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::NoPlan => write!(f, "no executable plan for the requested targets"),
            SubmitError::Exec(e) => write!(f, "execution failed: {e}"),
            SubmitError::Durability(e) => write!(f, "durability hook failed: {e}"),
            SubmitError::Serving(e) => write!(f, "serving layer failed: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<ExecError> for SubmitError {
    fn from(e: ExecError) -> Self {
        SubmitError::Exec(e)
    }
}

/// The HYPPO system.
#[derive(Debug)]
pub struct Hyppo {
    /// Configuration.
    pub config: HyppoConfig,
    /// The history hypergraph `H`.
    pub history: History,
    /// The learned cost estimator.
    pub estimator: CostEstimator,
    /// The artifact store behind the source node `s`.
    pub store: ArtifactStore,
    /// Cumulative execution seconds across all submissions.
    pub cumulative_seconds: f64,
    /// Memoized planner lower-bound tables, keyed by augmentation-graph
    /// structure: repeated submissions over an unchanged history reuse the
    /// SBT relaxations instead of recomputing them per plan call.
    pub bounds_cache: std::sync::Arc<PlannerBoundsCache>,
    durability: Option<Box<dyn DurabilityHook>>,
}

impl Hyppo {
    /// Create a system with the given configuration.
    pub fn new(config: HyppoConfig) -> Self {
        Hyppo {
            config,
            history: History::new(),
            estimator: CostEstimator::new(),
            store: ArtifactStore::new(),
            cumulative_seconds: 0.0,
            bounds_cache: std::sync::Arc::new(PlannerBoundsCache::new()),
            durability: None,
        }
    }

    /// Attach a durability hook and start journaling history mutations and
    /// estimator observations. Events drain into the hook at the end of
    /// every submission (and on [`Hyppo::flush_durability`]). Attach while
    /// the state matches the hook's durable base: a fresh system for an
    /// empty log, or right after recovery for an existing one.
    pub fn attach_durability(&mut self, hook: Box<dyn DurabilityHook>) {
        self.history.enable_event_journal();
        self.durability = Some(hook);
    }

    /// Detach and return the durability hook, if any. Journaled events not
    /// yet flushed stay queued in the history journal.
    pub fn detach_durability(&mut self) -> Option<Box<dyn DurabilityHook>> {
        self.durability.take()
    }

    /// Whether a durability hook is attached.
    pub fn has_durability(&self) -> bool {
        self.durability.is_some()
    }

    /// Drain journaled events into the attached durability hook. No-op
    /// without a hook or without pending events.
    pub fn flush_durability(&mut self) -> std::io::Result<()> {
        match self.durability.as_mut() {
            Some(hook) => engine::drain_journal(&mut self.history, hook.as_mut()),
            None => Ok(()),
        }
    }

    /// Register a raw dataset as loadable from the source.
    pub fn register_dataset(&mut self, id: &str, dataset: Dataset) {
        let size = dataset.size_bytes() as u64;
        self.store.register_dataset(id, dataset);
        self.history.record_dataset(id, size);
    }

    /// Current monetary cost: `cet × price_per_second + B × price_per_MB`.
    pub fn price(&self) -> f64 {
        self.config.price.price(self.cumulative_seconds, self.config.budget_bytes)
    }

    /// Bounds-cache counters: hits, from-scratch recomputes, and
    /// journal-repaired patch-forwards across all submissions so far.
    pub fn bounds_stats(&self) -> BoundsCacheStats {
        self.bounds_cache.stats()
    }

    /// Persist the catalog (history + learned statistics) and spill the
    /// materialized artifacts under `dir`, so a later session can resume
    /// with full across-experiment reuse.
    pub fn save_catalog(&self, dir: &std::path::Path) -> std::io::Result<()> {
        // hyppo-lint: allow(direct-fs-write-outside-persist) legacy snapshot helper: directory creation is idempotent and carries no payload
        std::fs::create_dir_all(dir)?;
        let json = crate::persist::catalog_to_json(&self.history, &self.estimator);
        crate::persist::atomic_write(&dir.join("catalog.json"), json.as_bytes())?;
        crate::persist::save_store(&self.store, &dir.join("artifacts"))?;
        Ok(())
    }

    /// Restore a catalog previously written by [`Hyppo::save_catalog`].
    /// Raw datasets are not persisted — re-register them after loading.
    /// Returns the artifact-store load report (skipped directory entries).
    pub fn load_catalog(
        &mut self,
        dir: &std::path::Path,
    ) -> std::io::Result<crate::persist::StoreLoadReport> {
        let json = std::fs::read_to_string(dir.join("catalog.json"))?;
        let (history, estimator) = crate::persist::catalog_from_json(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let journaled = self.history.journal_enabled();
        self.history = history;
        self.estimator = estimator;
        // The restored history replaced the journaled one wholesale; keep
        // journaling if a durability hook expects the event stream.
        if journaled || self.durability.is_some() {
            self.history.enable_event_journal();
        }
        let report = crate::persist::load_store(&mut self.store, &dir.join("artifacts"))
            .map_err(std::io::Error::from)?;
        // Drop materialization flags for artifacts whose payloads did not
        // survive the round trip (defensive consistency).
        for name in self.history.materialized().collect::<Vec<_>>() {
            if !self.store.contains(name) {
                self.history.evict(name);
            }
        }
        Ok(report)
    }

    /// Submit a pipeline: augment, optimize, execute, record, materialize.
    pub fn submit(&mut self, spec: PipelineSpec) -> Result<RunReport, SubmitError> {
        let opt_start = Instant::now();
        let pipeline = build_pipeline(spec);
        let aug = augment::augment(
            &pipeline,
            &self.history,
            &self.config.dictionary,
            self.config.augment,
        );
        self.run_augmentation(aug, opt_start)
    }

    /// Retrieve previously computed artifacts by name (paper Scenario 2):
    /// plan over the history's alternatives only.
    pub fn retrieve(&mut self, names: &[ArtifactName]) -> Result<RunReport, SubmitError> {
        let opt_start = Instant::now();
        let aug = augment::augment_request(&self.history, names).ok_or(SubmitError::NoPlan)?;
        self.run_augmentation(aug, opt_start)
    }

    /// Submit K pipelines as one batch: augment all against the current
    /// history snapshot, plan them jointly via
    /// [`Planner::plan_batch`](crate::optimizer::Planner::plan_batch)
    /// (deduplicating indistinguishable problems and amortizing lower-bound
    /// computation over shared prefixes), then execute and record each item
    /// in submission order.
    ///
    /// Each emitted plan is bit-identical to what a sequential
    /// [`Hyppo::submit`] would have planned *against the same snapshot*; the
    /// batch differs from K sequential submits only in that later items'
    /// augmentations do not see earlier items' recorded runs (that is the
    /// point — shared work is planned once, not rediscovered K times).
    ///
    /// Planning is all-or-nothing: if any item is unplannable the batch
    /// fails with [`SubmitError::NoPlan`] before anything executes. During
    /// execution, an item whose plan references an artifact the store no
    /// longer holds (an earlier item's materialization evicted it) falls
    /// back to a full sequential re-submission, counted in
    /// [`BatchRunReport::replans`].
    pub fn submit_batch(
        &mut self,
        specs: Vec<PipelineSpec>,
    ) -> Result<BatchRunReport, SubmitError> {
        if specs.is_empty() {
            return Ok(BatchRunReport::default());
        }
        let stats_before = self.bounds_stats();
        let opt_start = Instant::now();
        let pipelines: Vec<_> = specs.into_iter().map(build_pipeline).collect();
        let PlannedBatch { augs, costs, plans, stats, shared_artifacts, optimize_share } =
            engine::plan_batch(
                &pipelines,
                &self.history,
                &self.estimator,
                &self.store,
                &self.config,
                &self.bounds_cache,
                opt_start,
            )?;

        let mut reports = Vec::with_capacity(augs.len());
        let mut replans = 0usize;
        for (i, (aug, plan)) in augs.iter().zip(&plans).enumerate() {
            match self.finish_submission(aug, &costs[i], plan, optimize_share) {
                Ok(report) => reports.push(report),
                Err(SubmitError::Exec(ExecError::MissingArtifact(_))) => {
                    // The store changed under this item (an earlier item's
                    // materialization evicted something its plan loads).
                    // Re-submit it sequentially against the current state.
                    replans += 1;
                    let restart = Instant::now();
                    let aug = augment::augment(
                        &pipelines[i],
                        &self.history,
                        &self.config.dictionary,
                        self.config.augment,
                    );
                    reports.push(self.run_augmentation(aug, restart)?);
                }
                Err(e) => return Err(e),
            }
        }
        let bounds_delta = self.bounds_stats().delta_since(&stats_before);
        Ok(BatchRunReport { reports, batch: stats, bounds_delta, shared_artifacts, replans })
    }

    fn run_augmentation(
        &mut self,
        aug: Augmentation,
        opt_start: Instant,
    ) -> Result<RunReport, SubmitError> {
        let (costs, plan) = engine::plan_augmentation(
            &aug,
            &self.estimator,
            &self.store,
            &self.config.search,
            &self.bounds_cache,
        )?;
        let optimize_seconds = opt_start.elapsed().as_secs_f64();
        self.finish_submission(&aug, &costs, &plan, optimize_seconds)
    }

    /// Execute a planned augmentation, commit the outcome through
    /// [`engine::commit_outcome`] and drain the journal. Shared by the
    /// sequential path ([`Hyppo::submit`]/[`Hyppo::retrieve`]) and the batch
    /// path ([`Hyppo::submit_batch`]), which plans up front and finishes each
    /// item in submission order.
    fn finish_submission(
        &mut self,
        aug: &Augmentation,
        costs: &[f64],
        plan: &Plan,
        optimize_seconds: f64,
    ) -> Result<RunReport, SubmitError> {
        let outcome = execute_plan(aug, &plan.edges, &self.store, self.config.mode, costs)?;
        let materialized = engine::commit_outcome(
            aug,
            &outcome,
            &mut self.history,
            &mut self.estimator,
            &mut self.store,
            &self.config,
        );
        self.cumulative_seconds += outcome.total_seconds;
        self.flush_durability().map_err(SubmitError::Durability)?;
        Ok(engine::run_report(aug, plan, &outcome, optimize_seconds, &materialized))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::PlanRequest;
    use hyppo_ml::{Config, LogicalOp};
    use hyppo_tensor::{Matrix, SeededRng, TaskKind};

    fn dataset(n: usize) -> Dataset {
        let mut rng = SeededRng::new(3);
        let mut x = Matrix::zeros(n, 4);
        let mut y = Vec::new();
        for r in 0..n {
            for c in 0..4 {
                x.set(r, c, rng.uniform(-1.0, 1.0));
            }
            y.push(if x.get(r, 0) + x.get(r, 1) > 0.0 { 1.0 } else { 0.0 });
        }
        Dataset::new(x, y, (0..4).map(|i| format!("f{i}")).collect(), TaskKind::Classification)
    }

    fn svm_spec(seed: i64) -> PipelineSpec {
        let mut spec = PipelineSpec::new();
        let d = spec.load("data");
        let (train, test) = spec.split(d, Config::new().with_i("seed", seed));
        let scaler = spec.fit(LogicalOp::StandardScaler, 0, Config::new(), &[train]);
        let train_s = spec.transform(LogicalOp::StandardScaler, 0, Config::new(), scaler, train);
        let test_s = spec.transform(LogicalOp::StandardScaler, 0, Config::new(), scaler, test);
        let model = spec.fit(LogicalOp::LinearSvm, 0, Config::new(), &[train_s]);
        let preds = spec.predict(LogicalOp::LinearSvm, 0, Config::new(), model, test_s);
        spec.evaluate(LogicalOp::Accuracy, preds, test_s);
        spec
    }

    fn system(budget: u64) -> Hyppo {
        let mut h = Hyppo::new(HyppoConfig { budget_bytes: budget, ..Default::default() });
        h.register_dataset("data", dataset(300));
        h
    }

    #[test]
    fn submit_executes_end_to_end() {
        let mut sys = system(0);
        let report = sys.submit(svm_spec(0)).unwrap();
        assert!(report.execution_seconds > 0.0);
        assert_eq!(report.values.len(), 1);
        let acc = *report.values.values().next().unwrap();
        assert!(acc > 0.8, "accuracy {acc}");
        assert!(sys.history.artifact_count() >= 7);
        assert!(sys.cumulative_seconds > 0.0);
        assert!(sys.price() > 0.0);
    }

    /// A pipeline whose model fit dominates everything else, so loading
    /// the materialized op-state beats re-fitting by a wide margin.
    fn forest_spec(seed: i64) -> PipelineSpec {
        let mut spec = PipelineSpec::new();
        let d = spec.load("data");
        let (train, test) = spec.split(d, Config::new().with_i("seed", seed));
        let fcfg = Config::new().with_i("n_trees", 40).with_i("max_depth", 8).with_i("seed", 7);
        let model = spec.fit(LogicalOp::RandomForest, 0, fcfg.clone(), &[train]);
        let preds = spec.predict(LogicalOp::RandomForest, 0, fcfg, model, test);
        spec.evaluate(LogicalOp::Accuracy, preds, test);
        spec
    }

    #[test]
    fn repeat_submission_reuses_via_materialization() {
        let mut sys = system(64 * 1024 * 1024);
        sys.register_dataset("data", dataset(2000));
        let first = sys.submit(forest_spec(0)).unwrap();
        assert!(first.stored > 0, "first run must materialize artifacts");
        let second = sys.submit(forest_spec(0)).unwrap();
        // The expensive fit is bypassed via a load; the run gets much
        // cheaper.
        assert!(second.loads >= 1, "second run must load something");
        assert!(
            second.execution_seconds < 0.5 * first.execution_seconds,
            "second {} vs first {}",
            second.execution_seconds,
            first.execution_seconds
        );
    }

    #[test]
    fn equivalence_reuse_without_materialization_shares_nothing_but_still_plans() {
        let mut sys = system(0);
        let r1 = sys.submit(svm_spec(0)).unwrap();
        // With zero budget nothing is stored...
        assert_eq!(r1.stored, 0);
        assert!(sys.store.is_empty());
        // ...but history still records the tasks: on resubmission only the
        // never-executed dictionary alternatives remain "new".
        let r2 = sys.submit(svm_spec(0)).unwrap();
        assert!(
            r2.new_tasks < r1.new_tasks,
            "recorded tasks must stop being new ({} vs {})",
            r2.new_tasks,
            r1.new_tasks
        );
    }

    #[test]
    fn retrieve_replans_from_history() {
        let mut sys = system(64 * 1024 * 1024);
        sys.submit(svm_spec(0)).unwrap();
        // Ask for the accuracy artifact again by name.
        let names: Vec<ArtifactName> = sys
            .history
            .artifact_names()
            .filter(|&n| {
                let node = sys.history.node_of(n).unwrap();
                sys.history.graph.node(node).role == hyppo_pipeline::ArtifactRole::Value
            })
            .collect();
        assert!(!names.is_empty());
        let report = sys.retrieve(&names).unwrap();
        assert!(report.tasks_executed >= 1);
        assert_eq!(report.values.len(), names.len());
    }

    #[test]
    fn retrieve_unknown_artifact_fails() {
        let mut sys = system(0);
        assert!(matches!(sys.retrieve(&[ArtifactName(42)]), Err(SubmitError::NoPlan)));
    }

    #[test]
    fn exploration_mode_executes_new_tasks() {
        let mut sys = system(64 * 1024 * 1024);
        sys.submit(svm_spec(0)).unwrap();
        sys.config.search = sys.config.search.clone().c_exp(1.0);
        // A variant pipeline with a different model; exploration forces the
        // new fit even though much is reusable.
        let mut spec = PipelineSpec::new();
        let d = spec.load("data");
        let (train, test) = spec.split(d, Config::new().with_i("seed", 0));
        let scaler = spec.fit(LogicalOp::StandardScaler, 0, Config::new(), &[train]);
        let train_s = spec.transform(LogicalOp::StandardScaler, 0, Config::new(), scaler, train);
        let test_s = spec.transform(LogicalOp::StandardScaler, 0, Config::new(), scaler, test);
        let model = spec.fit(LogicalOp::LogisticRegression, 0, Config::new(), &[train_s]);
        let preds = spec.predict(LogicalOp::LogisticRegression, 0, Config::new(), model, test_s);
        spec.evaluate(LogicalOp::Accuracy, preds, test_s);
        let report = sys.submit(spec).unwrap();
        assert!(report.new_tasks > 0);
        assert!(report.tasks_executed > 0);
    }

    #[test]
    fn catalog_survives_a_restart() {
        let dir = std::env::temp_dir().join(format!("hyppo_catalog_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut first = system(64 * 1024 * 1024);
        first.register_dataset("data", dataset(2000));
        let cold = first.submit(forest_spec(0)).unwrap();
        first.save_catalog(&dir).unwrap();

        // A "new session": fresh system, catalog loaded, dataset
        // re-registered (sources are not persisted).
        let mut second =
            Hyppo::new(HyppoConfig { budget_bytes: 64 * 1024 * 1024, ..Default::default() });
        second.load_catalog(&dir).unwrap();
        second.register_dataset("data", dataset(2000));
        let warm = second.submit(forest_spec(0)).unwrap();
        assert!(warm.loads >= 1, "restored catalog must enable loads");
        assert!(
            warm.execution_seconds < 0.5 * cold.execution_seconds,
            "warm {} vs cold {}",
            warm.execution_seconds,
            cold.execution_seconds
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn augmentation_renders_to_dot() {
        let mut sys = system(0);
        let pipeline = hyppo_pipeline::build_pipeline(svm_spec(0));
        let aug = crate::augment::augment(
            &pipeline,
            &sys.history,
            &sys.config.dictionary,
            sys.config.augment,
        );
        let costs = crate::augment::annotate_costs(&aug, &sys.estimator, &sys.store);
        let plan = sys
            .config
            .search
            .plan(&aug.graph, PlanRequest::new(&costs, aug.source, &aug.targets))
            .unwrap();
        let dot = aug.to_dot(&plan.edges);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("style=bold"), "plan edges must be highlighted");
        let _ = sys.submit(svm_spec(0));
    }

    /// `svm_spec` with a configurable model hyperparameter — a sweep axis
    /// the cost model distinguishes (`epochs` scales the LinearSvm fit).
    fn svm_sweep_spec(epochs: i64) -> PipelineSpec {
        let mut spec = PipelineSpec::new();
        let d = spec.load("data");
        let (train, test) = spec.split(d, Config::new().with_i("seed", 0));
        let scaler = spec.fit(LogicalOp::StandardScaler, 0, Config::new(), &[train]);
        let train_s = spec.transform(LogicalOp::StandardScaler, 0, Config::new(), scaler, train);
        let test_s = spec.transform(LogicalOp::StandardScaler, 0, Config::new(), scaler, test);
        let cfg = Config::new().with_f("c", 1.0).with_i("epochs", epochs);
        let model = spec.fit(LogicalOp::LinearSvm, 0, cfg.clone(), &[train_s]);
        let preds = spec.predict(LogicalOp::LinearSvm, 0, cfg, model, test_s);
        spec.evaluate(LogicalOp::Accuracy, preds, test_s);
        spec
    }

    #[test]
    fn submit_batch_plans_match_sequential_and_amortize_bounds() {
        let specs: Vec<PipelineSpec> = [8, 12, 16, 24].iter().map(|&e| svm_sweep_spec(e)).collect();

        // Sequential reference: plan each spec against the same initial
        // snapshot (fresh systems), collecting planned costs.
        let seq_costs: Vec<f64> =
            specs.iter().map(|s| system(0).submit(s.clone()).unwrap().planned_cost).collect();

        let mut sys = system(0);
        let before = sys.bounds_stats();
        let batch = sys.submit_batch(specs).unwrap();
        assert_eq!(batch.reports.len(), 4);
        for (r, seq) in batch.reports.iter().zip(&seq_costs) {
            assert_eq!(r.planned_cost.to_bits(), seq.to_bits(), "bit-identical planned cost");
            assert!(r.execution_seconds > 0.0);
            assert_eq!(r.values.len(), 1);
        }
        assert_eq!(batch.replans, 0);
        assert_eq!(batch.batch.items, 4);
        assert_eq!(batch.batch.groups, 4, "epochs axis is cost-distinguishable");
        assert!(
            batch.batch.shared_prefixes >= 1 || batch.batch.shared_hits == 0,
            "fresh systems share no journal prefix; sanity only"
        );
        // Per-batch delta is well-formed and reflects this call only.
        let after = sys.bounds_stats();
        assert_eq!(after.delta_since(&before).misses, batch.bounds_delta.misses);
        assert_eq!(batch.bounds_delta.batch_leaf_repairs, sys.bounds_stats().batch_leaf_repairs);
    }

    #[test]
    fn submit_batch_dedups_cost_identical_configs() {
        // The estimator ignores LinearSvm `c`, so these three specs are
        // indistinguishable planning problems: one group, two clones.
        let specs: Vec<PipelineSpec> = [0.1, 1.0, 10.0]
            .iter()
            .map(|&c| {
                let mut spec = PipelineSpec::new();
                let d = spec.load("data");
                let (train, test) = spec.split(d, Config::new().with_i("seed", 0));
                let cfg = Config::new().with_f("c", c).with_i("epochs", 12);
                let model = spec.fit(LogicalOp::LinearSvm, 0, cfg.clone(), &[train]);
                let preds = spec.predict(LogicalOp::LinearSvm, 0, cfg, model, test);
                spec.evaluate(LogicalOp::Accuracy, preds, test);
                spec
            })
            .collect();
        let mut sys = system(0);
        let batch = sys.submit_batch(specs).unwrap();
        assert_eq!(batch.batch.items, 3);
        assert_eq!(batch.batch.groups, 1);
        assert_eq!(batch.batch.deduped, 2);
        let costs: Vec<u64> = batch.reports.iter().map(|r| r.planned_cost.to_bits()).collect();
        assert_eq!(costs[0], costs[1]);
        assert_eq!(costs[1], costs[2]);
        // All three executed and recorded.
        for r in &batch.reports {
            assert_eq!(r.values.len(), 1);
        }
    }

    #[test]
    fn submit_batch_reports_shared_artifacts() {
        // Identical specs: every plan edge is shared, so the joint
        // materialization decision covers the common prefix artifacts.
        let specs = vec![svm_sweep_spec(12), svm_sweep_spec(12)];
        let mut sys = system(0);
        let batch = sys.submit_batch(specs).unwrap();
        assert!(!batch.shared_artifacts.is_empty(), "identical plans must share artifacts");
    }

    #[test]
    fn submit_batch_propagates_mid_batch_execution_failure() {
        // An unregistered dataset still *plans* (the load edge exists);
        // the failure surfaces at execution and aborts the batch there.
        let mut sys = system(0);
        let mut bad = PipelineSpec::new();
        bad.load("no-such-dataset");
        let specs = vec![svm_sweep_spec(12), bad];
        let err = sys.submit_batch(specs).unwrap_err();
        assert!(matches!(err, SubmitError::Exec(ExecError::MissingDataset(_))), "{err}");
        assert!(sys.cumulative_seconds > 0.0, "the first item had already executed");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut sys = system(0);
        let batch = sys.submit_batch(Vec::new()).unwrap();
        assert!(batch.reports.is_empty());
        assert_eq!(batch.batch.items, 0);
    }

    #[test]
    fn session_submit_batch_delegates_to_the_joint_planner() {
        use crate::session::Session;
        let mut sys = system(0);
        let reports =
            Session::submit_batch(&mut sys, vec![svm_sweep_spec(8), svm_sweep_spec(12)]).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.execution_seconds > 0.0));
    }

    #[test]
    fn budget_bound_is_never_exceeded() {
        let budget = 8 * 1024;
        let mut sys = system(budget as u64);
        for seed in 0..3 {
            sys.submit(svm_spec(seed)).unwrap();
            assert!(
                sys.store.used_bytes() <= budget as u64,
                "store uses {} > budget {budget}",
                sys.store.used_bytes()
            );
        }
    }
}
