//! The traced runner is the program: on seeded Simulated-mode streams,
//! `phases::run_traced` yields the same `RunReport`s as `Hyppo::submit` /
//! `Hyppo::retrieve` in every non-timing field, the same durable event
//! stream, the same stored artifacts and the same final catalog JSON.

use hyppo::core::executor::ExecMode;
use hyppo::core::persist::catalog_to_json;
use hyppo::core::system::SubmitError;
use hyppo::core::{DurabilityHook, DurableEvent, Hyppo, HyppoConfig, RunReport};
use hyppo::tensor::SeededRng;
use hyppo_perfbench::inputs::{self, Pickable};
use hyppo_perfbench::phases::{self, Op, Phases};
use std::sync::{Arc, Mutex};

#[derive(Clone, Debug, Default)]
struct Collect(Arc<Mutex<Vec<DurableEvent>>>);

impl DurabilityHook for Collect {
    fn append(&mut self, events: &[DurableEvent]) -> std::io::Result<()> {
        self.0.lock().expect("collector lock").extend_from_slice(events);
        Ok(())
    }
}

fn system(seed: u64, budget_frac: f64) -> (Hyppo, Collect) {
    let datasets = inputs::datasets(seed, (300, 300));
    let bytes: usize = datasets.iter().map(|(_, d)| d.size_bytes()).sum();
    let mut sys = Hyppo::new(HyppoConfig {
        budget_bytes: (bytes as f64 * budget_frac) as u64,
        mode: ExecMode::Simulated,
        ..Default::default()
    });
    let hook = Collect::default();
    sys.attach_durability(Box::new(hook.clone()));
    for (uc, d) in datasets {
        sys.register_dataset(inputs::dataset_id(uc), d);
    }
    (sys, hook)
}

/// Submissions from two pool sequences (one per use case), interleaved,
/// with every third op a retrieval over what was submitted so far.
fn stream(seed: u64, n: usize) -> Vec<Op> {
    let seqs: Vec<_> =
        (0..2u64).map(|k| inputs::pool_sequence(inputs::use_case_of(k), n, k, seed)).collect();
    let mut rng = SeededRng::new(inputs::mix(seed, 9));
    let mut pickable: Vec<Pickable> = Vec::new();
    let mut ops = Vec::new();
    for i in 0..n {
        if i % 3 == 2 {
            ops.push(Op::Retrieve(inputs::request(&pickable, &mut rng).names));
        }
        let spec = seqs[i % 2][i / 2].to_spec();
        pickable.push(Pickable::of(&spec));
        ops.push(Op::Submit(spec));
    }
    ops
}

fn values(r: &RunReport) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = r.values.iter().map(|(n, x)| (n.0, x.to_bits())).collect();
    v.sort_unstable();
    v
}

fn assert_same(i: usize, a: &Result<RunReport, SubmitError>, b: &Result<RunReport, SubmitError>) {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.planned_cost.to_bits(), b.planned_cost.to_bits(), "op {i}: planned_cost");
            assert_eq!(
                a.execution_seconds.to_bits(),
                b.execution_seconds.to_bits(),
                "op {i}: execution_seconds"
            );
            assert_eq!(a.tasks_executed, b.tasks_executed, "op {i}: tasks_executed");
            assert_eq!(a.loads, b.loads, "op {i}: loads");
            assert_eq!(a.new_tasks, b.new_tasks, "op {i}: new_tasks");
            assert_eq!(a.expansions, b.expansions, "op {i}: expansions");
            assert_eq!(a.pops, b.pops, "op {i}: pops");
            assert_eq!(a.stored, b.stored, "op {i}: stored");
            assert_eq!(a.evicted, b.evicted, "op {i}: evicted");
            assert_eq!(values(a), values(b), "op {i}: values");
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "op {i}: error"),
        (a, b) => panic!("op {i}: facade {a:?} vs traced {b:?}"),
    }
}

#[test]
fn traced_runner_matches_the_facade() {
    for seed in 0..4 {
        for budget_frac in [0.0, 0.05, 1.0] {
            let (mut facade, facade_log) = system(seed, budget_frac);
            let (mut traced, traced_log) = system(seed, budget_frac);
            let mut ph = Phases::default();
            let mut submitted = 0;
            for (i, op) in stream(seed, 24).into_iter().enumerate() {
                submitted += usize::from(matches!(op, Op::Submit(_)));
                let a = phases::run(&mut facade, op.clone());
                let b = phases::run_traced(&mut traced, op, &mut ph);
                assert_same(i, &a, &b);
            }
            assert_eq!(submitted, 24);
            assert_eq!(ph.ops, 24 + 8, "every op is traced");
            assert_eq!(
                catalog_to_json(&facade.history, &facade.estimator),
                catalog_to_json(&traced.history, &traced.estimator),
                "seed {seed}, budget {budget_frac}: catalog"
            );
            assert_eq!(
                *facade_log.0.lock().expect("lock"),
                *traced_log.0.lock().expect("lock"),
                "seed {seed}, budget {budget_frac}: durable events"
            );
            let names = |s: &Hyppo| {
                let mut v: Vec<u64> = s.store.names().map(|n| n.0).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(names(&facade), names(&traced), "stored artifacts");
            assert_eq!(
                facade.cumulative_seconds.to_bits(),
                traced.cumulative_seconds.to_bits(),
                "cumulative seconds"
            );
        }
    }
}

#[test]
fn stream_plans_submissions_and_retrievals() {
    // Guard against a vacuous equivalence: every op succeeds, retrievals
    // are part of the stream, and plans execute real task sequences.
    let (mut sys, _) = system(1, 0.05);
    let mut ph = Phases::default();
    let mut retrievals = 0;
    for op in stream(1, 24) {
        let is_retrieve = matches!(op, Op::Retrieve(_));
        let report = phases::run_traced(&mut sys, op, &mut ph).expect("simulated ops succeed");
        if is_retrieve {
            assert!(report.tasks_executed > 0, "a retrieval executes a plan");
            retrievals += 1;
        }
    }
    assert_eq!(retrievals, 8);
    assert!(ph.tasks > ph.ops && ph.expansions > 0, "{ph:?}");
}
