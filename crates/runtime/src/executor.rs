//! Concurrent wavefront plan execution.
//!
//! [`execute_plan_parallel`] runs a plan's hyperedges on a pool of
//! `hyppo-sched` service-mode workers, dispatching every edge whose inputs
//! are available — the *ready frontier* of [`InDegreeTracker`] — instead
//! of firing edges one at a time. The coordinator (on the calling thread)
//! injects each wave as a batch; workers pull jobs from the scheduler —
//! injector first, then batch steals between siblings — run them, and send
//! results back over a channel. Independent branches of a plan (e.g. the
//! member fits of an ensemble) execute concurrently; joins wait for all
//! their inputs, exactly as B-connectivity prescribes.
//!
//! # Determinism
//!
//! The parallel executor produces artifacts **bit-identical** to the serial
//! [`execute_plan`](hyppo_core::execute_plan) on the same plan. Two plan
//! edges may cover the same node (equivalent alternatives); serially, the
//! first edge in execution order wins. The wavefront scheduler enforces the
//! same outcome with a *designated producer* per node — the first edge in
//! the serial order whose head contains it:
//!
//! - only a node's designated producer publishes its artifact;
//! - an edge is dispatched only once every tail artifact has been
//!   *published* (not merely when the tracker says some producer finished).
//!
//! The extra gate cannot deadlock: every designated producer of an edge's
//! tails precedes that edge in the serial order, so the earliest incomplete
//! edge always becomes dispatchable. Completion order still varies between
//! runs — only metric *ordering* (sorted by serial position) and artifact
//! *contents* are pinned. Which *worker* runs an edge is irrelevant to all
//! of this, which is why work stealing cannot perturb the outcome
//! (`DESIGN.md` §16).

use hyppo_core::augment::Augmentation;
use hyppo_core::executor::{execute_edge, ExecError, ExecOutcome, TaskMetric};
use hyppo_core::ArtifactStorage;
use hyppo_hypergraph::{execution_order, EdgeId, InDegreeTracker, NodeId};
use hyppo_ml::Artifact;
use hyppo_sched::{Scheduler, Step};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// What the wavefront scheduler observed while executing one plan.
#[derive(Clone, Copy, Debug, Default)]
pub struct WavefrontMetrics {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Hyperedges dispatched (= executed when the plan succeeds).
    pub dispatched: usize,
    /// High-water mark of edges in flight (dispatched, not yet completed) —
    /// the plan's exploitable parallelism; equals achieved concurrency
    /// whenever the pool has at least that many workers.
    pub peak_concurrency: usize,
    /// Measured wall-clock seconds of the parallel section.
    pub wall_seconds: f64,
    /// Summed per-task seconds (what a serial run would accumulate).
    pub task_seconds: f64,
}

impl WavefrontMetrics {
    /// `task_seconds / wall_seconds` — how much faster than a serial replay
    /// of the same tasks the wavefront finished.
    pub fn speedup(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.task_seconds / self.wall_seconds
        } else {
            1.0
        }
    }
}

/// A serial-equivalent [`ExecOutcome`] plus scheduler observations.
#[derive(Debug, Default)]
pub struct ParallelOutcome {
    /// Artifacts and metrics, bit-identical to the serial executor's.
    pub outcome: ExecOutcome,
    /// What the scheduler saw.
    pub metrics: WavefrontMetrics,
}

struct Job {
    edge: EdgeId,
    inputs: Vec<Arc<Artifact>>,
}

type TaskResult = Result<(Vec<Artifact>, f64, u64), ExecError>;

/// Execute `plan_edges` concurrently on `workers` threads (Real mode).
///
/// The result's [`ExecOutcome`] — artifacts, metric order, summed seconds —
/// matches what the serial executor would produce (see the module docs for
/// why); [`WavefrontMetrics`] reports what parallelism the plan exposed and
/// the wall-clock the pool actually took.
pub fn execute_plan_parallel<S: ArtifactStorage + Sync>(
    aug: &Augmentation,
    plan_edges: &[EdgeId],
    store: &S,
    workers: usize,
) -> Result<ParallelOutcome, ExecError> {
    let workers = workers.max(1);
    let serial = execution_order(&aug.graph, plan_edges, &[aug.source])?;
    // Designated producer of each node: first serial edge covering it.
    let mut designated: HashMap<NodeId, EdgeId> = HashMap::new();
    for &e in &serial {
        for &h in aug.graph.head(e) {
            designated.entry(h).or_insert(e);
        }
    }
    let serial_pos: HashMap<EdgeId, usize> =
        serial.iter().enumerate().map(|(i, &e)| (e, i)).collect();

    let start = Instant::now();
    let mut tracker = InDegreeTracker::new(&aug.graph, plan_edges, &[aug.source]);
    let mut produced: HashMap<NodeId, Arc<Artifact>> = HashMap::new();
    let mut indexed_metrics: Vec<(usize, TaskMetric)> = Vec::with_capacity(serial.len());
    let mut outcome = ExecOutcome::default();
    let mut wave = WavefrontMetrics { workers, ..Default::default() };

    let sched: Scheduler<Job> = Scheduler::new(workers);
    let (done_tx, done_rx) = mpsc::channel::<(EdgeId, TaskResult)>();

    let mut first_err: Option<ExecError> = None;
    sched.run_with_driver(
        // Coordinator, on the calling thread. An edge is dispatchable when
        // the tracker says it is ready AND every tail artifact has been
        // published by its designated producer (loads draw on the store,
        // not on published artifacts). Each round's dispatchable edges are
        // injected as one batch; workers spread them by stealing.
        || {
            let mut waiting: Vec<EdgeId> = tracker.ready();
            let mut jobs: Vec<Job> = Vec::new();
            let mut in_flight = 0usize;
            loop {
                if first_err.is_none() {
                    let mut deferred = Vec::new();
                    for e in waiting.drain(..) {
                        let publishable = aug.graph.edge(e).is_load()
                            || aug.graph.tail(e).iter().all(|v| produced.contains_key(v));
                        if publishable {
                            let inputs: Vec<Arc<Artifact>> = if aug.graph.edge(e).is_load() {
                                Vec::new()
                            } else {
                                aug.graph.tail(e).iter().map(|v| produced[v].clone()).collect()
                            };
                            jobs.push(Job { edge: e, inputs });
                        } else {
                            deferred.push(e);
                        }
                    }
                    waiting = deferred;
                    in_flight += jobs.len();
                    wave.dispatched += jobs.len();
                    wave.peak_concurrency = wave.peak_concurrency.max(in_flight);
                    sched.inject_batch(jobs.drain(..));
                }
                if in_flight == 0 {
                    break;
                }
                let Ok((e, result)) = done_rx.recv() else { break };
                in_flight -= 1;
                match result {
                    Err(err) => {
                        // Remember the first failure, stop dispatching, and
                        // drain what is already running.
                        first_err.get_or_insert(err);
                    }
                    Ok((outputs, cost_seconds, input_cells)) => {
                        for (artifact, &head) in outputs.into_iter().zip(aug.graph.head(e)) {
                            if designated.get(&head) == Some(&e) {
                                let name = aug.graph.node(head).name;
                                let artifact = Arc::new(artifact);
                                outcome
                                    .artifacts
                                    .entry(name)
                                    .or_insert_with(|| artifact.as_ref().clone());
                                produced.insert(head, artifact);
                            }
                        }
                        indexed_metrics.push((
                            serial_pos[&e],
                            TaskMetric::of(aug, e, cost_seconds, input_cells),
                        ));
                        waiting.extend(tracker.complete(&aug.graph, e));
                    }
                }
            }
            // run_with_driver shuts the scheduler down on return (also on
            // unwind), releasing any parked worker.
        },
        // Service-mode worker: run jobs until shutdown; results flow back
        // over the channel (`Sender` is `Sync`, shared by reference).
        |mut w| loop {
            match w.next_step() {
                Step::Task(job) => {
                    let inputs: Vec<&Artifact> = job.inputs.iter().map(Arc::as_ref).collect();
                    let result = execute_edge(aug, job.edge, &inputs, store);
                    if done_tx.send((job.edge, result)).is_err() {
                        return;
                    }
                }
                Step::Idle(token) => w.park(token),
                Step::Shutdown => return,
            }
        },
    );

    if let Some(err) = first_err {
        return Err(err);
    }
    debug_assert!(tracker.is_done(), "wavefront drained with an incomplete plan");
    wave.wall_seconds = start.elapsed().as_secs_f64();

    // Serial-equivalent metric order (and therefore an identical f64
    // summation order for the total).
    indexed_metrics.sort_by_key(|&(pos, _)| pos);
    for (_, m) in indexed_metrics {
        outcome.total_seconds += m.cost_seconds;
        outcome.metrics.push(m);
    }
    wave.task_seconds = outcome.total_seconds;
    Ok(ParallelOutcome { outcome, metrics: wave })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppo_core::augment::{augment, AugmentOptions};
    use hyppo_core::codec;
    use hyppo_core::executor::ExecMode;
    use hyppo_core::{execute_plan, ArtifactStore, History};
    use hyppo_pipeline::{build_pipeline, Dictionary};
    use hyppo_workloads::ensemble_wl::wide_ensemble_spec;
    use hyppo_workloads::taxi;

    fn wide_fixture(members: usize) -> (Augmentation, ArtifactStore) {
        let spec = wide_ensemble_spec("taxi", members, 11);
        let pipeline = build_pipeline(spec);
        let history = History::new();
        let opts = AugmentOptions { dictionary_alternatives: false, use_history: false };
        let aug = augment(&pipeline, &history, &Dictionary::full(), opts);
        let mut store = ArtifactStore::new();
        store.register_dataset("taxi", taxi::generate(300, 5));
        (aug, store)
    }

    fn plan_of(aug: &Augmentation) -> Vec<EdgeId> {
        aug.graph.edge_ids().collect()
    }

    #[test]
    fn parallel_artifacts_are_bit_identical_to_serial() {
        let (aug, store) = wide_fixture(4);
        let plan = plan_of(&aug);
        let costs = vec![0.0; aug.graph.edge_bound()];
        let serial = execute_plan(&aug, &plan, &store, ExecMode::Real, &costs).unwrap();
        let parallel = execute_plan_parallel(&aug, &plan, &store, 4).unwrap();

        assert_eq!(serial.artifacts.len(), parallel.outcome.artifacts.len());
        for (name, artifact) in &serial.artifacts {
            let other = parallel.outcome.artifacts.get(name).expect("artifact missing");
            assert_eq!(
                codec::encode(artifact),
                codec::encode(other),
                "artifact {name} differs between serial and parallel execution"
            );
        }
    }

    #[test]
    fn metric_order_matches_serial_execution_order() {
        let (aug, store) = wide_fixture(3);
        let plan = plan_of(&aug);
        let costs = vec![0.0; aug.graph.edge_bound()];
        let serial = execute_plan(&aug, &plan, &store, ExecMode::Real, &costs).unwrap();
        let parallel = execute_plan_parallel(&aug, &plan, &store, 8).unwrap();
        let serial_edges: Vec<EdgeId> = serial.metrics.iter().map(|m| m.edge).collect();
        let parallel_edges: Vec<EdgeId> = parallel.outcome.metrics.iter().map(|m| m.edge).collect();
        assert_eq!(serial_edges, parallel_edges);
        assert_eq!(parallel.metrics.dispatched, plan.len());
    }

    #[test]
    fn wide_plan_exposes_concurrency() {
        let (aug, store) = wide_fixture(6);
        let plan = plan_of(&aug);
        let parallel = execute_plan_parallel(&aug, &plan, &store, 4).unwrap();
        assert!(
            parallel.metrics.peak_concurrency >= 2,
            "six independent member fits must overlap (peak {})",
            parallel.metrics.peak_concurrency
        );
        assert!(parallel.metrics.wall_seconds > 0.0);
        assert!(parallel.metrics.task_seconds > 0.0);
    }

    #[test]
    fn single_worker_degenerates_to_serial() {
        let (aug, store) = wide_fixture(2);
        let plan = plan_of(&aug);
        let parallel = execute_plan_parallel(&aug, &plan, &store, 1).unwrap();
        assert_eq!(parallel.outcome.metrics.len(), plan.len());
        assert_eq!(parallel.metrics.workers, 1);
    }

    #[test]
    fn missing_dataset_fails_cleanly_without_hanging() {
        let (aug, _) = wide_fixture(3);
        let empty = ArtifactStore::new();
        let plan = plan_of(&aug);
        let err = execute_plan_parallel(&aug, &plan, &empty, 4).unwrap_err();
        assert!(matches!(err, ExecError::MissingDataset(_)));
    }

    #[test]
    fn incomplete_plan_is_a_topo_error() {
        let (aug, store) = wide_fixture(2);
        let plan: Vec<EdgeId> =
            aug.graph.edge_ids().filter(|&e| !aug.graph.edge(e).is_load()).collect();
        let err = execute_plan_parallel(&aug, &plan, &store, 2).unwrap_err();
        assert!(matches!(err, ExecError::Topo(_)));
    }

    #[test]
    fn empty_plan_is_a_noop() {
        let (aug, store) = wide_fixture(2);
        let out = execute_plan_parallel(&aug, &[], &store, 4).unwrap();
        assert!(out.outcome.artifacts.is_empty());
        assert_eq!(out.metrics.dispatched, 0);
    }
}
