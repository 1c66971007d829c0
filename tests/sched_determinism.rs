//! Steal-heavy scheduler determinism gate (DESIGN.md §16).
//!
//! Every concurrent layer — plan search, wavefront execution, tenant
//! serving — runs on `hyppo-sched`'s work-stealing deques, and the repo's
//! headline guarantee is that results stay **bit-identical** to serial at
//! any thread count under any steal schedule. This suite forces the worst
//! schedule it can: `HYPPO_SCHED_CAPACITY=2` shrinks every worker deque to
//! two slots, so nearly every spawn spills to the shared injector and
//! nearly every claim crosses worker boundaries (a single core still
//! interleaves workers preemptively; `scripts/ci.sh` runs this suite
//! under `HYPPO_PLANNER_THREADS=4` as the `== sched ==` stage). Two-slot
//! deques never expose more than one item to a thief, so the planner case
//! also runs at capacity 8, where steals take batches.
//!
//! The scheduler's own shutdown/empty-steal regression pair (mirroring the
//! old central-lock `SharedPlanQueue` tests) lives in `crates/sched`; this
//! file checks the three consumers end to end.

use hyppo::core::augment::{augment, AugmentOptions};
use hyppo::core::codec;
use hyppo::core::executor::ExecMode;
use hyppo::core::optimizer::{PlanRequest, Planner, QueueKind};
use hyppo::core::{execute_plan, ArtifactStore, History, HyppoConfig};
use hyppo::hypergraph::{HyperGraph, NodeId};
use hyppo::pipeline::{build_pipeline, Dictionary, PipelineSpec};
use hyppo::runtime::{execute_plan_parallel, SharedHyppo, SharedRun};
use hyppo::sched::SCHED_CAPACITY_ENV;
use hyppo::serve::{ServeConfig, ServeRuntime};
use hyppo::tensor::SeededRng;
use hyppo::workloads::ensemble_wl::wide_ensemble_spec;
use hyppo::workloads::{generator::generate_sequence, taxi, SequenceConfig, UseCase};
use std::sync::{Mutex, MutexGuard};

/// Held by every test in this binary for its whole run: the deque
/// capacity is a process-wide variable, and tests set different values.
/// Integration test binaries are separate processes, so nothing leaks into
/// other suites.
static CAPACITY_LOCK: Mutex<()> = Mutex::new(());

/// Set every new scheduler's deque capacity until the guard drops.
fn force_deque_capacity(capacity: usize) -> MutexGuard<'static, ()> {
    let guard = CAPACITY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var(SCHED_CAPACITY_ENV, capacity.to_string());
    guard
}

/// Shrink every deque to two slots.
fn force_tiny_deques() -> MutexGuard<'static, ()> {
    force_deque_capacity(2)
}

type G = HyperGraph<u32, ()>;

/// Random layered DAG with AND-tails, OR-alternatives, and multi-output
/// split edges — the same instance family `planner_parallel_equivalence.rs`
/// sweeps at default deque capacity.
fn random_instance(seed: u64) -> (G, Vec<f64>, NodeId, Vec<NodeId>) {
    let mut rng = SeededRng::new(seed);
    let mut g = G::new();
    let s = g.add_node(0);
    let mut nodes = vec![s];
    let mut costs = Vec::new();
    let mut add = |g: &mut G, t: Vec<NodeId>, h: Vec<NodeId>, c: f64| {
        let e = g.add_edge(t, h, ());
        costs.resize(e.index() + 1, 0.0);
        costs[e.index()] = c;
    };
    let n_rounds = 3 + rng.index(4);
    for i in 0..n_rounds {
        let tail_from = |rng: &mut SeededRng, nodes: &[NodeId]| {
            let n_tail = 1 + rng.index(2.min(nodes.len()));
            let mut tail: Vec<NodeId> =
                (0..n_tail).map(|_| nodes[rng.index(nodes.len())]).collect();
            tail.sort_unstable();
            tail.dedup();
            tail
        };
        let v = g.add_node(i as u32 + 1);
        if rng.index(4) == 0 {
            let w = g.add_node(100 + i as u32);
            let tail = tail_from(&mut rng, &nodes);
            add(&mut g, tail, vec![v, w], (1 + rng.index(20)) as f64);
            let tail = tail_from(&mut rng, &nodes);
            add(&mut g, tail, vec![v], (1 + rng.index(20)) as f64);
            nodes.push(v);
            nodes.push(w);
        } else {
            let n_alts = 1 + rng.index(2);
            for _ in 0..n_alts {
                let tail = tail_from(&mut rng, &nodes);
                add(&mut g, tail, vec![v], (1 + rng.index(20)) as f64);
            }
            nodes.push(v);
        }
    }
    let target = *nodes.last().unwrap();
    (g, costs, s, vec![target])
}

/// Plan search: under two-slot deques every expansion batch spills and the
/// frontier circulates through the injector and sibling steals — and the
/// returned plan still matches serial bit for bit at every thread count.
#[test]
fn planner_is_bit_identical_under_steal_heavy_schedules() {
    let _capacity = force_tiny_deques();
    assert_planner_matches_serial();
}

/// A two-slot deque never shows a thief more than one item, so the test
/// above cannot reach a batch steal. At capacity 8 a steal claims up to
/// half a victim's deque: plans must still match serial bit for bit.
#[test]
fn planner_is_bit_identical_under_batch_steals() {
    let _capacity = force_deque_capacity(8);
    assert_planner_matches_serial();
}

fn assert_planner_matches_serial() {
    let mut feasible = 0usize;
    for seed in 0..60u64 {
        let (g, costs, s, t) = random_instance(seed);
        for queue in [QueueKind::Stack, QueueKind::Priority] {
            let req = PlanRequest::new(&costs, s, &t);
            let serial = Planner::exact().threads(1).queue(queue).plan(&g, req);
            for threads in [1usize, 2, 4, 8] {
                let par = Planner::exact().threads(threads).queue(queue).plan(&g, req);
                match (&serial, &par) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.edges, b.edges, "seed {seed} {queue:?} threads {threads}");
                        assert_eq!(
                            a.cost.to_bits(),
                            b.cost.to_bits(),
                            "seed {seed} {queue:?} threads {threads}"
                        );
                        assert_eq!(a.optimal, b.optimal, "seed {seed} {queue:?} threads {threads}");
                    }
                    (None, None) => {}
                    other => {
                        panic!("seed {seed} {queue:?} threads {threads}: feasibility {other:?}")
                    }
                }
            }
            if serial.is_some() {
                feasible += 1;
            }
        }
    }
    assert!(feasible >= 100, "only {feasible}/120 instances were feasible");
}

/// Wavefront execution: every artifact byte matches serial execution at
/// every worker count, even when ready tasks bounce between tiny deques.
#[test]
fn executor_artifacts_are_bit_identical_under_steal_heavy_schedules() {
    let _capacity = force_tiny_deques();
    let spec = wide_ensemble_spec("taxi", 4, 11);
    let pipeline = build_pipeline(spec);
    let history = History::new();
    let opts = AugmentOptions { dictionary_alternatives: false, use_history: false };
    let aug = augment(&pipeline, &history, &Dictionary::full(), opts);
    let mut store = ArtifactStore::new();
    store.register_dataset("taxi", taxi::generate(300, 5));
    let plan: Vec<_> = aug.graph.edge_ids().collect();
    let costs = vec![0.0; aug.graph.edge_bound()];

    let serial = execute_plan(&aug, &plan, &store, ExecMode::Real, &costs).unwrap();
    for workers in [1usize, 2, 4, 8] {
        let parallel = execute_plan_parallel(&aug, &plan, &store, workers).unwrap();
        assert_eq!(serial.artifacts.len(), parallel.outcome.artifacts.len(), "workers {workers}");
        for (name, artifact) in &serial.artifacts {
            let other = parallel.outcome.artifacts.get(name).expect("artifact missing");
            assert_eq!(
                codec::encode(artifact),
                codec::encode(other),
                "workers {workers}: artifact {name} differs from serial execution"
            );
        }
    }
}

fn tenant_sequence(seed: u64) -> Vec<PipelineSpec> {
    let templates = generate_sequence(&SequenceConfig {
        use_case: UseCase::Taxi,
        dataset_id: "taxi".to_string(),
        n_pipelines: 4,
        seed,
    });
    templates.iter().map(|t| t.to_spec()).collect()
}

fn serve_replay(seed: u64, workers: usize) -> Vec<SharedRun> {
    // Simulated execution: costs come off the virtual clock, so the entire
    // report is deterministic and comparable bit for bit (in real mode the
    // estimator learns from measured wall time and search numbers drift).
    // Serial plan search (explicit, so `HYPPO_PLANNER_THREADS` cannot
    // override it): the report's `expansions`/`pops` are search-effort
    // counters, and under multi-threaded search they are legitimately
    // schedule-dependent — only the *plan* is invariant, and the first
    // test in this file owns that guarantee. Serial search keeps every
    // report field deterministic so the serving layer's turn scheduling
    // is the only variable.
    let config = HyppoConfig {
        budget_bytes: 24 * 1024,
        mode: ExecMode::Simulated,
        search: Planner::exact().threads(1),
        ..Default::default()
    };
    let runtime = ServeRuntime::new(
        SharedHyppo::new(config),
        ServeConfig { workers, plan_workers: 2, ..ServeConfig::default() },
    );
    let client = runtime.client();
    runtime.backend().register_dataset("taxi", taxi::generate(150, seed % 7));
    let handles: Vec<_> =
        tenant_sequence(seed).into_iter().map(|s| client.submit(s).unwrap()).collect();
    let runs: Vec<SharedRun> =
        handles.into_iter().map(|h| h.wait_completed().unwrap().run).collect();
    runtime.shutdown().unwrap();
    runs
}

/// Serving: a tenant's mailbox turns circulate through the same tiny
/// deques, and the per-tenant reports still match a single-worker runtime
/// bit for bit (simulated mode, so every report field is deterministic).
#[test]
fn serve_reports_are_bit_identical_under_steal_heavy_schedules() {
    let _capacity = force_tiny_deques();
    for seed in [3u64, 8, 15] {
        let wide = serve_replay(seed, 4);
        let narrow = serve_replay(seed, 1);
        assert_eq!(wide.len(), narrow.len(), "seed {seed}");
        for (i, (w, n)) in wide.iter().zip(&narrow).enumerate() {
            assert_eq!(w.epochs, n.epochs, "seed {seed} submission {i}: epochs diverged");
            assert_eq!(
                w.report.planned_cost.to_bits(),
                n.report.planned_cost.to_bits(),
                "seed {seed} submission {i}: planned cost bits diverged"
            );
            assert_eq!(w.report.tasks_executed, n.report.tasks_executed, "seed {seed} sub {i}");
            assert_eq!(w.report.loads, n.report.loads, "seed {seed} sub {i}");
            assert_eq!(w.report.new_tasks, n.report.new_tasks, "seed {seed} sub {i}");
            assert_eq!(w.report.expansions, n.report.expansions, "seed {seed} sub {i}");
            assert_eq!(w.report.pops, n.report.pops, "seed {seed} sub {i}");
            assert_eq!(w.report.stored, n.report.stored, "seed {seed} sub {i}");
            assert_eq!(w.report.evicted, n.report.evicted, "seed {seed} sub {i}");
        }
    }
}
