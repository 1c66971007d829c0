//! Concurrent exploratory sessions over one shared HYPPO state.
//!
//! [`SharedHyppo`] is the thread-safe counterpart of the core
//! [`Hyppo`](hyppo_core::Hyppo) facade. The catalog (history hypergraph + learned cost
//! estimator) lives behind an **epoch-versioned copy-on-write cell**:
//! every committed submission produces a new immutable
//! [`CatalogVersion`] with a monotonically increasing epoch, and planners
//! read through [`SharedHyppo::snapshot`] — a cheap `Arc` clone taken
//! under a briefly held lock. A planner holding the epoch-`E` snapshot
//! is **unaffected by commits with epoch > E** (DESIGN.md §14 states and
//! proves the invariant): concurrent tenants commit augmentations while
//! other tenants plan, with no reader/writer blocking across the whole
//! plan search.
//!
//! Artifacts live in a sharded [`SharedArtifactStore`], and every
//! submission runs its plan on the wavefront executor. The serving layer
//! (`hyppo-serve`) drives many tenant sessions against one `SharedHyppo`
//! through mailbox actors; this crate remains the embedded backend.
//!
//! # Commit protocol
//!
//! Planning touches no lock beyond the snapshot grab. A commit takes the
//! catalog write lock, clones the current version only if snapshots are
//! still outstanding (`Arc::make_mut`), applies the mutation
//! (record + materialize), bumps the epoch, and drains journaled durable
//! events into the attached [`DurabilityHook`] **inside the write-lock
//! critical section** — so WAL append order is the commit (epoch) order,
//! and the epoch boundary is the WAL linearization point.
//!
//! Concurrent eviction can still invalidate a plan *between* planning and
//! execution: session A plans a load of an artifact that session B evicts
//! first. The executor surfaces this as a missing-artifact error and the
//! driver simply replans from a fresh snapshot — the eviction already
//! cleared the history flag, so the new plan routes around the evicted
//! artifact.

use crate::executor::{execute_plan_parallel, ParallelOutcome, WavefrontMetrics};
use crate::store::{SharedArtifactStore, DEFAULT_SHARDS};
use hyppo_core::augment::{self, Augmentation};
use hyppo_core::durable::DurabilityHook;
use hyppo_core::engine::{self, PlannedBatch};
use hyppo_core::executor::{execute_plan, ExecError, ExecMode};
use hyppo_core::optimizer::Plan;
use hyppo_core::system::{BatchRunReport, HyppoConfig, RunReport, SubmitError};
use hyppo_core::{ArtifactStore, CostEstimator, History, PlannerBoundsCache};
use hyppo_pipeline::{build_pipeline, ArtifactName, PipelineSpec};
use hyppo_tensor::Dataset;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// How often a submission replans after losing a race with eviction.
const MAX_REPLANS: usize = 2;

/// One immutable committed version of the catalog.
///
/// Versions are produced by [`SharedHyppo`] commits and handed to readers
/// as `Arc<CatalogVersion>` snapshots. Once a version with a higher epoch
/// exists, this value never changes again — the commit path clones before
/// mutating whenever a snapshot is still held ([`Arc::make_mut`]), which
/// is exactly the copy-on-write discipline DESIGN.md §14's consistency
/// proof rests on.
#[derive(Clone, Debug)]
pub struct CatalogVersion {
    /// Commit epoch: the number of catalog mutations committed before and
    /// including this version. Strictly monotone across versions.
    pub epoch: u64,
    /// The history hypergraph `H` as of this epoch.
    pub history: History,
    /// The learned cost estimator as of this epoch.
    pub estimator: CostEstimator,
}

/// Snapshot/commit epochs of one submission through [`SharedHyppo`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStamp {
    /// Epoch of the catalog snapshot the submission planned against.
    pub snapshot: u64,
    /// Epoch its commit produced.
    pub commit: u64,
}

impl EpochStamp {
    /// How many *other* commits landed between this submission's snapshot
    /// and its own commit — the snapshot-staleness gauge. Zero means the
    /// planner saw the latest state at commit time.
    pub fn lag(&self) -> u64 {
        self.commit.saturating_sub(self.snapshot).saturating_sub(1)
    }
}

/// Everything one shared submission produced.
#[derive(Clone, Debug)]
pub struct SharedRun {
    /// The submission report (same shape as the serial facade's).
    pub report: RunReport,
    /// What the wavefront executor saw.
    pub wave: WavefrontMetrics,
    /// Snapshot/commit epochs (staleness via [`EpochStamp::lag`]).
    pub epochs: EpochStamp,
}

/// Everything one shared *batch* submission produced.
#[derive(Clone, Debug)]
pub struct SharedBatchRun {
    /// The joint-planning batch report.
    pub batch: BatchRunReport,
    /// Snapshot epoch all items planned against, and the last item's
    /// commit epoch (each item commits its own epoch in order).
    pub epochs: EpochStamp,
}

/// Thread-safe HYPPO: epoch-versioned catalog, shared artifact store, and
/// wavefront plan execution.
#[derive(Debug)]
pub struct SharedHyppo {
    /// Configuration (shared read-only across sessions).
    pub config: HyppoConfig,
    catalog: RwLock<Arc<CatalogVersion>>,
    store: SharedArtifactStore,
    cumulative_seconds: Mutex<f64>,
    /// Wall-clock nanos spent waiting on the catalog lock.
    lock_wait_nanos: AtomicU64,
    /// Planner heuristic-bounds cache, shared across sessions — concurrent
    /// submissions over the same (unchanged) history reuse one bounds
    /// computation instead of recomputing per plan.
    bounds_cache: Arc<PlannerBoundsCache>,
    /// Durable-event sink. Drained while the catalog write lock is held,
    /// so the appended order is the commit (epoch) order.
    durability: Mutex<Option<Box<dyn DurabilityHook>>>,
}

impl SharedHyppo {
    /// Fresh shared system with [`DEFAULT_SHARDS`] store shards.
    pub fn new(config: HyppoConfig) -> Self {
        let catalog =
            CatalogVersion { epoch: 0, history: History::new(), estimator: CostEstimator::new() };
        SharedHyppo {
            config,
            catalog: RwLock::new(Arc::new(catalog)),
            store: SharedArtifactStore::new(DEFAULT_SHARDS),
            cumulative_seconds: Mutex::new(0.0),
            lock_wait_nanos: AtomicU64::new(0),
            bounds_cache: Arc::new(PlannerBoundsCache::new()),
            durability: Mutex::new(None),
        }
    }

    /// The current catalog version — an immutable epoch-stamped snapshot.
    ///
    /// The lock is held only for the `Arc` clone; planning against the
    /// returned version proceeds with **no** lock held, and commits with a
    /// higher epoch never mutate it (copy-on-write).
    pub fn snapshot(&self) -> Arc<CatalogVersion> {
        let start = Instant::now();
        let snap = Arc::clone(&self.catalog.read().unwrap_or_else(|e| e.into_inner()));
        self.record_wait(start);
        snap
    }

    /// The latest committed epoch.
    pub fn current_epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Commit one catalog mutation: clone-on-write the current version,
    /// apply `mutate`, bump the epoch, and drain journaled events into the
    /// attached durability hook while the write lock is still held (WAL
    /// order = epoch order). Returns the mutation's result, the new epoch,
    /// and the durability outcome.
    fn commit<R>(
        &self,
        mutate: impl FnOnce(&mut History, &mut CostEstimator) -> R,
    ) -> (R, u64, std::io::Result<()>) {
        let start = Instant::now();
        let mut guard = self.catalog.write().unwrap_or_else(|e| e.into_inner());
        self.record_wait(start);
        let version = Arc::make_mut(&mut guard);
        let result = mutate(&mut version.history, &mut version.estimator);
        version.epoch += 1;
        let epoch = version.epoch;
        // hyppo-lint: allow(blocking-in-critical-section) draining the WAL
        // inside the commit critical section is what makes WAL order equal
        // epoch order (DESIGN.md §14); moving it outside would reorder
        let durable = self.drain_events(&mut version.history);
        (result, epoch, durable)
    }

    /// Attach a durability hook and start journaling history mutations and
    /// estimator observations. Every commit drains its events into the
    /// hook inside the catalog write-lock critical section, so replaying
    /// the log serially rebuilds the state this concurrent system reached.
    pub fn attach_durability(&self, hook: Box<dyn DurabilityHook>) {
        *self.durability.lock().unwrap_or_else(|e| e.into_inner()) = Some(hook);
        let (_, _, durable) = self.commit(|history, _| history.enable_event_journal());
        debug_assert!(durable.is_ok(), "journal enablement emits no events");
    }

    /// Detach and return the durability hook, if any. Journaled events not
    /// yet flushed stay queued in the history journal.
    pub fn detach_durability(&self) -> Option<Box<dyn DurabilityHook>> {
        self.durability.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    /// Drain queued events (e.g. from [`SharedHyppo::register_dataset`])
    /// into the attached durability hook.
    pub fn flush_durability(&self) -> std::io::Result<()> {
        let start = Instant::now();
        let mut guard = self.catalog.write().unwrap_or_else(|e| e.into_inner());
        self.record_wait(start);
        let version = Arc::make_mut(&mut guard);
        // hyppo-lint: allow(blocking-in-critical-section) same invariant as
        // `commit`: the drain must happen under the catalog write lock so
        // the append order is the commit order
        self.drain_events(&mut version.history)
    }

    /// Drain the history journal into the hook. Callers hold the catalog
    /// write lock (`history` proves it), which makes the append order the
    /// commit order.
    fn drain_events(&self, history: &mut History) -> std::io::Result<()> {
        let mut guard = self.durability.lock().unwrap_or_else(|e| e.into_inner());
        let Some(hook) = guard.as_mut() else {
            return Ok(());
        };
        // hyppo-lint: allow(blocking-in-critical-section) appends must retire
        // in commit order, which the durability mutex guarantees; the hook's
        // IO (buffer or fsync) is the point of holding it
        engine::drain_journal(history, hook.as_mut())
    }

    /// Tear down into `(history, estimator, store, cumulative_seconds)`.
    pub fn into_parts(self) -> (History, CostEstimator, ArtifactStore, f64) {
        let version = self.catalog.into_inner().unwrap_or_else(|e| e.into_inner());
        let version = Arc::try_unwrap(version).unwrap_or_else(|arc| (*arc).clone());
        let cumulative = *self.cumulative_seconds.lock().unwrap_or_else(|e| e.into_inner());
        (version.history, version.estimator, self.store.into_store(), cumulative)
    }

    /// Register a raw dataset as loadable from the source.
    pub fn register_dataset(&self, id: &str, dataset: Dataset) {
        let size = dataset.size_bytes() as u64;
        self.store.register_dataset(id, dataset);
        let (_, _, durable) = self.commit(|history, _| history.record_dataset(id, size));
        // On hook failure the drain requeues the registration events at the
        // front of the journal; the next successful drain appends them
        // first, so the log keeps epoch order.
        let _ = durable;
    }

    /// Cumulative execution seconds across all submissions so far.
    pub fn cumulative_seconds(&self) -> f64 {
        *self.cumulative_seconds.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Bounds-cache counters across all sessions sharing this system:
    /// hits, from-scratch recomputes, and journal-repaired patch-forwards.
    pub fn bounds_stats(&self) -> hyppo_core::BoundsCacheStats {
        self.bounds_cache.stats()
    }

    /// Wall-clock seconds spent waiting on any lock (store shards plus the
    /// catalog cell).
    pub fn lock_wait_seconds(&self) -> f64 {
        // hyppo-lint: allow(relaxed-ordering-justified) contention gauge; a torn
        // sum across in-flight adds is acceptable for metrics
        self.store.lock_wait_seconds() + self.lock_wait_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    fn record_wait(&self, start: Instant) {
        let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        // hyppo-lint: allow(relaxed-ordering-justified) contention gauge only
        self.lock_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Submit one pipeline, executing its plan on `workers` wavefront
    /// threads. Safe to call from many threads at once.
    pub fn submit_shared(
        &self,
        spec: PipelineSpec,
        workers: usize,
    ) -> Result<SharedRun, SubmitError> {
        let pipeline = build_pipeline(spec);
        self.run_shared(workers, |history| {
            Some(augment::augment(&pipeline, history, &self.config.dictionary, self.config.augment))
        })
    }

    /// Retrieve previously computed artifacts by name (paper Scenario 2),
    /// planning over the shared history's alternatives only. Safe to call
    /// from many threads at once.
    pub fn retrieve_shared(
        &self,
        names: &[ArtifactName],
        workers: usize,
    ) -> Result<SharedRun, SubmitError> {
        self.run_shared(workers, |history| augment::augment_request(history, names))
    }

    /// The shared plan → execute → commit loop behind [`submit_shared`] and
    /// [`retrieve_shared`]. `build` constructs the augmentation against an
    /// epoch snapshot (returning `None` when no plan can exist).
    ///
    /// [`submit_shared`]: SharedHyppo::submit_shared
    /// [`retrieve_shared`]: SharedHyppo::retrieve_shared
    fn run_shared(
        &self,
        workers: usize,
        build: impl Fn(&History) -> Option<Augmentation>,
    ) -> Result<SharedRun, SubmitError> {
        let mut replans = 0;
        loop {
            let opt_start = Instant::now();

            // Plan against an immutable snapshot: no lock held past the
            // Arc clone, commits from other tenants proceed concurrently.
            let snap = self.snapshot();
            let aug = build(&snap.history).ok_or(SubmitError::NoPlan)?;
            let (costs, plan) = engine::plan_augmentation(
                &aug,
                &snap.estimator,
                &self.store,
                &self.config.search,
                &self.bounds_cache,
            )?;
            let optimize_seconds = opt_start.elapsed().as_secs_f64();

            match self.execute_and_commit(&aug, &costs, &plan, workers, optimize_seconds) {
                // Lost a race with another session's eviction: the
                // artifact this plan meant to load is gone. Its history
                // flag was cleared by the same eviction, so replanning
                // from a fresh snapshot routes around it.
                Err(SubmitError::Exec(ExecError::MissingArtifact(_))) if replans < MAX_REPLANS => {
                    replans += 1;
                    continue;
                }
                Ok((report, wave, commit)) => {
                    return Ok(SharedRun {
                        report,
                        wave,
                        epochs: EpochStamp { snapshot: snap.epoch, commit },
                    })
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Execute a planned augmentation and commit its outcome: run the plan
    /// on the wavefront executor (or the virtual clock) with no lock held,
    /// then commit one catalog epoch through [`engine::commit_outcome`] —
    /// record, journal and materialize inside the catalog write-lock
    /// critical section, so budget accounting is never interleaved between
    /// sessions. Shared by [`run_shared`](SharedHyppo::run_shared) (which
    /// wraps it in the eviction-race replan loop) and
    /// [`submit_batch_shared`](SharedHyppo::submit_batch_shared) (which
    /// plans the whole batch up front and finishes items in order).
    fn execute_and_commit(
        &self,
        aug: &Augmentation,
        costs: &[f64],
        plan: &Plan,
        workers: usize,
        optimize_seconds: f64,
    ) -> Result<(RunReport, WavefrontMetrics, u64), SubmitError> {
        // Execute without holding any coarse lock.
        let ParallelOutcome { outcome, metrics } = if self.config.mode == ExecMode::Real {
            execute_plan_parallel(aug, &plan.edges, &self.store, workers)?
        } else {
            let outcome = execute_plan(aug, &plan.edges, &self.store, ExecMode::Simulated, costs)?;
            let metrics = WavefrontMetrics {
                workers: 1,
                dispatched: outcome.metrics.len(),
                peak_concurrency: 1,
                wall_seconds: outcome.total_seconds,
                task_seconds: outcome.total_seconds,
            };
            ParallelOutcome { outcome, metrics }
        };
        let (materialized, commit_epoch, durable) = self.commit(|history, estimator| {
            engine::commit_outcome(
                aug,
                &outcome,
                history,
                estimator,
                &mut self.store.clone(),
                &self.config,
            )
        });
        // The epoch is committed whatever the hook said, so the run counts.
        *self.cumulative_seconds.lock().unwrap_or_else(|e| e.into_inner()) += outcome.total_seconds;
        durable.map_err(SubmitError::Durability)?;
        let report = engine::run_report(aug, plan, &outcome, optimize_seconds, &materialized);
        Ok((report, metrics, commit_epoch))
    }

    /// Submit K pipelines as one jointly planned batch (the concurrent
    /// counterpart of [`Hyppo::submit_batch`](hyppo_core::Hyppo::submit_batch)): augment and cost-annotate
    /// all K against one epoch snapshot, plan them together via
    /// [`Planner::plan_batch`](hyppo_core::optimizer::Planner::plan_batch)
    /// (dedup + shared-prefix bound amortization through the shared bounds
    /// cache), then execute and commit each item in order on `workers`
    /// wavefront threads.
    ///
    /// Planning is all-or-nothing ([`SubmitError::NoPlan`] before anything
    /// executes). An item that loses a race with eviction — its own batch's
    /// materialization or a concurrent session's — falls back to a full
    /// [`submit_shared`](SharedHyppo::submit_shared) replan, counted in
    /// [`BatchRunReport::replans`].
    pub fn submit_batch_shared(
        &self,
        specs: Vec<PipelineSpec>,
        workers: usize,
    ) -> Result<SharedBatchRun, SubmitError> {
        if specs.is_empty() {
            let epoch = self.current_epoch();
            return Ok(SharedBatchRun {
                batch: BatchRunReport::default(),
                epochs: EpochStamp { snapshot: epoch, commit: epoch },
            });
        }
        let stats_before = self.bounds_stats();
        let opt_start = Instant::now();
        let pipelines: Vec<_> = specs.into_iter().map(build_pipeline).collect();

        // Augment + annotate every item against ONE epoch snapshot.
        let snap = self.snapshot();
        let PlannedBatch { augs, costs, plans, stats, shared_artifacts, optimize_share } =
            engine::plan_batch(
                &pipelines,
                &snap.history,
                &snap.estimator,
                &self.store,
                &self.config,
                &self.bounds_cache,
                opt_start,
            )?;

        let mut reports = Vec::with_capacity(augs.len());
        let mut replans = 0usize;
        let mut last_commit = snap.epoch;
        for (i, (aug, plan)) in augs.iter().zip(&plans).enumerate() {
            match self.execute_and_commit(aug, &costs[i], plan, workers, optimize_share) {
                Ok((report, _, commit)) => {
                    last_commit = commit;
                    reports.push(report);
                }
                Err(SubmitError::Exec(ExecError::MissingArtifact(_))) => {
                    // Eviction (this batch's own materialization or a
                    // concurrent session's) invalidated the snapshot plan;
                    // fall back to the full replan loop.
                    replans += 1;
                    let run = self.run_shared(workers, |history| {
                        Some(augment::augment(
                            &pipelines[i],
                            history,
                            &self.config.dictionary,
                            self.config.augment,
                        ))
                    })?;
                    last_commit = run.epochs.commit;
                    reports.push(run.report);
                }
                Err(e) => return Err(e),
            }
        }
        let bounds_delta = self.bounds_stats().delta_since(&stats_before);
        Ok(SharedBatchRun {
            batch: BatchRunReport {
                reports,
                batch: stats,
                bounds_delta,
                shared_artifacts,
                replans,
            },
            epochs: EpochStamp { snapshot: snap.epoch, commit: last_commit },
        })
    }
}

/// One analyst's session against a [`SharedHyppo`], behind the core
/// [`Session`](hyppo_core::Session) trait — so harnesses written against
/// `Session` (the baselines crate's `SessionMethod`, benches, examples)
/// drive the concurrent backend exactly like the serial one.
///
/// Generic over how the backend is held: own it (`SharedSession<SharedHyppo>`,
/// the default), or share it (`SharedSession<Arc<SharedHyppo>>`) so several
/// sessions hit one state — the collaborative setting. For multi-tenant
/// serving with admission control and mailbox actors, use `hyppo-serve`'s
/// `Client` instead.
#[derive(Debug)]
pub struct SharedSession<T = SharedHyppo> {
    backend: T,
    workers: usize,
}

impl<T: std::borrow::Borrow<SharedHyppo>> SharedSession<T> {
    /// Drive `backend`, executing each plan on `workers` wavefront threads.
    pub fn new(backend: T, workers: usize) -> Self {
        SharedSession { backend, workers: workers.max(1) }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &SharedHyppo {
        self.backend.borrow()
    }

    /// Unwrap the backend.
    pub fn into_inner(self) -> T {
        self.backend
    }
}

impl<T: std::borrow::Borrow<SharedHyppo>> hyppo_core::Session for SharedSession<T> {
    fn backend_name(&self) -> &'static str {
        "HYPPO-shared"
    }

    fn register_dataset(&mut self, id: &str, dataset: Dataset) {
        self.backend().register_dataset(id, dataset);
    }

    fn submit(&mut self, spec: PipelineSpec) -> Result<RunReport, SubmitError> {
        self.backend().submit_shared(spec, self.workers).map(|run| run.report)
    }

    fn submit_batch(&mut self, specs: Vec<PipelineSpec>) -> Result<Vec<RunReport>, SubmitError> {
        self.backend().submit_batch_shared(specs, self.workers).map(|b| b.batch.reports)
    }

    fn retrieve(&mut self, names: &[ArtifactName]) -> Result<RunReport, SubmitError> {
        self.backend().retrieve_shared(names, self.workers).map(|run| run.report)
    }

    fn cumulative_seconds(&self) -> f64 {
        self.backend().cumulative_seconds()
    }

    fn budget_bytes(&self) -> u64 {
        self.backend().config.budget_bytes
    }

    fn history_artifacts(&self) -> usize {
        self.backend().snapshot().history.artifact_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppo_core::Session;
    use hyppo_workloads::ensemble_wl::wide_ensemble_spec;
    use hyppo_workloads::taxi;

    fn config(budget: u64) -> HyppoConfig {
        HyppoConfig { budget_bytes: budget, ..Default::default() }
    }

    #[test]
    fn snapshots_are_epoch_stamped_and_immutable_under_commits() {
        let shared = SharedHyppo::new(config(64 * 1024 * 1024));
        shared.register_dataset("taxi", taxi::generate(200, 5));
        let before = shared.snapshot();
        let artifacts_before = before.history.artifact_count();

        let run = shared.submit_shared(wide_ensemble_spec("taxi", 3, 7), 2).unwrap();
        assert!(run.report.tasks_executed > 0);
        assert!(run.epochs.commit > before.epoch, "commit must bump the epoch");
        assert_eq!(run.epochs.snapshot, before.epoch, "planned against the old snapshot");
        assert_eq!(run.epochs.lag(), 0, "no other tenant committed in between");

        // The old snapshot is frozen: the commit went into a new version.
        assert_eq!(before.history.artifact_count(), artifacts_before);
        let after = shared.snapshot();
        assert!(after.history.artifact_count() > artifacts_before);
        assert_eq!(after.epoch, run.epochs.commit);
    }

    #[test]
    fn concurrent_submissions_interleave_and_observe_lag() {
        let shared = Arc::new(SharedHyppo::new(config(64 * 1024 * 1024)));
        shared.register_dataset("taxi", taxi::generate(300, 5));
        let runs: Vec<SharedRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    scope.spawn(move || {
                        shared
                            .submit_shared(
                                wide_ensemble_spec("taxi", 3 + i % 2, 7 + i as u64 % 2),
                                2,
                            )
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("submission panicked")).collect()
        });
        // Commit epochs are distinct (one commit each) and lag accounts for
        // exactly the commits that landed in between.
        let mut commits: Vec<u64> = runs.iter().map(|r| r.epochs.commit).collect();
        commits.sort_unstable();
        commits.dedup();
        assert_eq!(commits.len(), 4, "every submission commits its own epoch");
        for run in &runs {
            assert_eq!(
                run.epochs.lag(),
                runs.iter()
                    .filter(|o| o.epochs.commit > run.epochs.snapshot
                        && o.epochs.commit < run.epochs.commit)
                    .count() as u64
            );
        }

        // No lost materializations: every artifact the history believes is
        // materialized must actually be in the store.
        let shared = Arc::try_unwrap(shared).expect("all threads joined");
        let (history, _, store, cumulative) = shared.into_parts();
        for name in history.materialized() {
            assert!(store.contains(name), "history says {name} is materialized; store disagrees");
        }
        assert!(cumulative > 0.0);
    }

    #[test]
    fn budget_is_respected_under_concurrency() {
        let budget = 32 * 1024;
        let shared = Arc::new(SharedHyppo::new(config(budget)));
        shared.register_dataset("taxi", taxi::generate(200, 5));
        std::thread::scope(|scope| {
            for i in 0..4 {
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    shared
                        .submit_shared(wide_ensemble_spec("taxi", 3 + i % 2, 7 + i as u64 % 2), 2)
                        .unwrap();
                });
            }
        });
        let shared = Arc::try_unwrap(shared).expect("all threads joined");
        let (_, _, store, _) = shared.into_parts();
        assert!(
            store.used_bytes() <= budget,
            "store uses {} > budget {budget}",
            store.used_bytes()
        );
    }

    #[test]
    fn shared_session_drives_the_concurrent_backend() {
        let mut session = SharedSession::new(SharedHyppo::new(config(64 * 1024 * 1024)), 2);
        session.register_dataset("taxi", taxi::generate(300, 5));
        let report = session.submit(wide_ensemble_spec("taxi", 3, 7)).unwrap();
        assert!(report.tasks_executed > 0);
        assert_eq!(session.backend_name(), "HYPPO-shared");
        assert!(session.cumulative_seconds() > 0.0);
        assert!(session.history_artifacts() > 0);

        // Scenario 2 against the shared backend: retrieve recorded value
        // artifacts by name.
        let names: Vec<ArtifactName> = {
            let snap = session.backend().snapshot();
            snap.history
                .artifact_names()
                .filter(|&n| {
                    let node = snap.history.node_of(n).unwrap();
                    snap.history.graph.node(node).role == hyppo_pipeline::ArtifactRole::Value
                })
                .collect()
        };
        assert!(!names.is_empty());
        let report = session.retrieve(&names).unwrap();
        assert!(report.tasks_executed >= 1);
        assert_eq!(report.values.len(), names.len());
    }

    #[test]
    fn shared_sessions_can_share_one_backend_through_an_arc() {
        let shared = Arc::new(SharedHyppo::new(config(64 * 1024 * 1024)));
        shared.register_dataset("taxi", taxi::generate(300, 5));
        let mut a = SharedSession::new(Arc::clone(&shared), 2);
        let mut b = SharedSession::new(Arc::clone(&shared), 2);
        a.submit(wide_ensemble_spec("taxi", 3, 7)).unwrap();
        let report = b.submit(wide_ensemble_spec("taxi", 3, 7)).unwrap();
        assert!(report.loads >= 1, "second session should reuse the first's artifacts");
    }

    #[test]
    fn bounds_cache_is_shared_and_counters_account_for_every_lookup() {
        let shared = Arc::new(SharedHyppo::new(config(64 * 1024 * 1024)));
        shared.register_dataset("taxi", taxi::generate(300, 5));
        let mut a = SharedSession::new(Arc::clone(&shared), 2);
        let mut b = SharedSession::new(Arc::clone(&shared), 2);
        a.submit(wide_ensemble_spec("taxi", 3, 7)).unwrap();
        b.submit(wide_ensemble_spec("taxi", 3, 7)).unwrap();
        let stats = shared.bounds_stats();
        // Every plan call consulted the shared cache: at least one lookup
        // ran the relaxations, and each lookup landed in exactly one bucket
        // (an identical resubmission over an unchanged history hits; a grown
        // history with unchanged costs on the old prefix repairs; estimator
        // drift recomputes — all three are legitimate here).
        assert!(stats.misses >= 1);
        assert!(stats.hits + stats.misses + stats.repairs >= 2);
    }

    #[test]
    fn batch_submission_plans_jointly_and_executes_in_order() {
        let shared = SharedHyppo::new(config(64 * 1024 * 1024));
        shared.register_dataset("taxi", taxi::generate(300, 5));
        // Duplicates in the batch: items 0 and 2 are the same spec, so the
        // joint planner collapses them into one group.
        let specs = vec![
            wide_ensemble_spec("taxi", 3, 7),
            wide_ensemble_spec("taxi", 4, 8),
            wide_ensemble_spec("taxi", 3, 7),
        ];
        let snapshot_before = shared.current_epoch();
        let run = shared.submit_batch_shared(specs, 2).unwrap();
        let batch = run.batch;
        assert_eq!(batch.reports.len(), 3);
        assert_eq!(batch.batch.items, 3);
        assert_eq!(batch.batch.groups, 2, "duplicate specs dedup into one group");
        assert_eq!(batch.batch.deduped, 1);
        assert_eq!(
            batch.reports[0].planned_cost.to_bits(),
            batch.reports[2].planned_cost.to_bits(),
            "deduped items carry the identical plan"
        );
        assert!(batch.reports.iter().all(|r| r.tasks_executed > 0));
        // Each item committed one epoch, in order, from one snapshot.
        assert_eq!(run.epochs.snapshot, snapshot_before);
        assert_eq!(run.epochs.commit, snapshot_before + 3);
        // The per-batch delta never exceeds the cumulative counters.
        let total = shared.bounds_stats();
        assert!(batch.bounds_delta.misses <= total.misses);
        assert!(batch.bounds_delta.batch_leaf_repairs <= total.batch_leaf_repairs);
    }

    #[test]
    fn shared_session_batch_submission_matches_sequential_plans() {
        // Same specs through both paths, against equally fresh backends:
        // planner bit-identity lifts to identical planned costs.
        let specs = || vec![wide_ensemble_spec("taxi", 3, 7), wide_ensemble_spec("taxi", 4, 8)];
        let mut sequential = SharedSession::new(SharedHyppo::new(config(0)), 2);
        sequential.register_dataset("taxi", taxi::generate(300, 5));
        let seq: Vec<f64> = specs()
            .into_iter()
            .map(|s| {
                let fresh = SharedSession::new(SharedHyppo::new(config(0)), 2);
                fresh.backend().register_dataset("taxi", taxi::generate(300, 5));
                fresh.backend().submit_shared(s, 2).unwrap().report.planned_cost
            })
            .collect();
        let mut batched = SharedSession::new(SharedHyppo::new(config(0)), 2);
        batched.register_dataset("taxi", taxi::generate(300, 5));
        let reports = Session::submit_batch(&mut batched, specs()).unwrap();
        assert_eq!(reports.len(), 2);
        for (r, s) in reports.iter().zip(&seq) {
            assert_eq!(r.planned_cost.to_bits(), s.to_bits());
        }
    }

    #[test]
    fn simulated_mode_runs_on_the_virtual_clock() {
        let shared = SharedHyppo::new(HyppoConfig { mode: ExecMode::Simulated, ..config(0) });
        shared.register_dataset("taxi", taxi::generate(100, 5));
        let run = shared.submit_shared(wide_ensemble_spec("taxi", 3, 7), 4).unwrap();
        assert!(run.report.values.is_empty());
        assert!(run.report.execution_seconds > 0.0);
    }
}
