//! Cross-driver equivalence gate: the serial `Hyppo` and the concurrent
//! `SharedHyppo` run the same submission engine (`hyppo_core::engine`), so
//! one operation stream through either must leave the same trace.
//!
//! Each seed drives submits, retrieves and one `submit_batch` through both
//! drivers in Simulated mode (virtual clock, so every non-timing report
//! field is deterministic) with a serial planner and one wavefront worker,
//! and asserts bit-identity of every report field except
//! `optimize_seconds`, of the durable event stream each driver appended,
//! and of the final catalog JSON. `scripts/ci.sh` runs this suite under
//! `HYPPO_PLANNER_THREADS=4`; the explicit `threads(1)` keeps the search
//! effort counters deterministic regardless.

use hyppo::core::executor::ExecMode;
use hyppo::core::persist::catalog_to_json;
use hyppo::core::system::SubmitError;
use hyppo::core::{
    BatchRunReport, DurabilityHook, DurableEvent, Hyppo, HyppoConfig, Planner, RunReport,
};
use hyppo::pipeline::{ArtifactName, ArtifactRole, PipelineSpec};
use hyppo::runtime::SharedHyppo;
use hyppo::workloads::generator::generate_sequence;
use hyppo::workloads::{taxi, SequenceConfig, UseCase};
use std::sync::{Arc, Mutex};

/// Records every appended event, shared with the test through an `Arc`.
#[derive(Clone, Debug, Default)]
struct Recorder(Arc<Mutex<Vec<DurableEvent>>>);

impl DurabilityHook for Recorder {
    fn append(&mut self, events: &[DurableEvent]) -> std::io::Result<()> {
        self.0.lock().unwrap().extend_from_slice(events);
        Ok(())
    }
}

impl Recorder {
    fn json(&self) -> String {
        serde_json::to_string(&*self.0.lock().unwrap()).unwrap()
    }
}

enum Op {
    Submit(PipelineSpec),
    /// Retrieve the first `n` recorded value artifacts (sorted by name).
    Retrieve(usize),
    Batch(Vec<PipelineSpec>),
}

fn ops(seed: u64) -> Vec<Op> {
    let mut specs = generate_sequence(&SequenceConfig {
        use_case: UseCase::Taxi,
        dataset_id: "taxi".to_string(),
        n_pipelines: 7,
        seed,
    })
    .into_iter()
    .map(|t| t.to_spec());
    let mut next = || specs.next().unwrap();
    vec![
        Op::Submit(next()),
        Op::Submit(next()),
        Op::Retrieve(1),
        Op::Batch(vec![next(), next(), next()]),
        Op::Submit(next()),
        Op::Retrieve(3),
        Op::Submit(next()),
    ]
}

fn config() -> HyppoConfig {
    HyppoConfig {
        budget_bytes: 24 * 1024,
        mode: ExecMode::Simulated,
        search: Planner::exact().threads(1),
        ..Default::default()
    }
}

/// Every non-timing field of a report, floats as bits.
fn fields(r: &RunReport) -> String {
    let mut values: Vec<(ArtifactName, u64)> =
        r.values.iter().map(|(&n, v)| (n, v.to_bits())).collect();
    values.sort();
    format!(
        "planned {} exec {} tasks {} loads {} new {} exp {} pops {} stored {} evicted {} values {values:?}",
        r.planned_cost.to_bits(),
        r.execution_seconds.to_bits(),
        r.tasks_executed,
        r.loads,
        r.new_tasks,
        r.expansions,
        r.pops,
        r.stored,
        r.evicted,
    )
}

fn batch_fields(b: &BatchRunReport) -> String {
    let reports: Vec<String> = b.reports.iter().map(fields).collect();
    format!(
        "{reports:?} stats {:?} bounds {:?} shared {:?} replans {}",
        b.batch, b.bounds_delta, b.shared_artifacts, b.replans
    )
}

fn value_artifacts(history: &hyppo::core::History, n: usize) -> Vec<ArtifactName> {
    let mut names: Vec<ArtifactName> = history
        .artifact_names()
        .filter(|&a| {
            let node = history.node_of(a).unwrap();
            history.graph.node(node).role == ArtifactRole::Value
        })
        .collect();
    names.sort();
    names.truncate(n);
    names
}

/// One driver's trace: a line per operation, the durable event stream,
/// and the final catalog.
struct Trace {
    ops: Vec<String>,
    events: String,
    catalog: String,
}

fn outcome<T>(r: Result<T, SubmitError>, show: impl Fn(&T) -> String) -> String {
    match r {
        Ok(v) => show(&v),
        Err(e) => format!("error {e}"),
    }
}

fn run_serial(seed: u64) -> Trace {
    let recorder = Recorder::default();
    let mut sys = Hyppo::new(config());
    sys.attach_durability(Box::new(recorder.clone()));
    sys.register_dataset("taxi", taxi::generate(150, seed % 7));
    let mut lines = Vec::new();
    for op in ops(seed) {
        lines.push(match op {
            Op::Submit(spec) => outcome(sys.submit(spec), fields),
            Op::Retrieve(n) => {
                let names = value_artifacts(&sys.history, n);
                outcome(sys.retrieve(&names), fields)
            }
            Op::Batch(specs) => outcome(sys.submit_batch(specs), batch_fields),
        });
    }
    sys.flush_durability().unwrap();
    Trace {
        ops: lines,
        events: recorder.json(),
        catalog: catalog_to_json(&sys.history, &sys.estimator),
    }
}

fn run_shared(seed: u64) -> Trace {
    let recorder = Recorder::default();
    let sys = SharedHyppo::new(config());
    sys.attach_durability(Box::new(recorder.clone()));
    sys.register_dataset("taxi", taxi::generate(150, seed % 7));
    let mut lines = Vec::new();
    for op in ops(seed) {
        lines.push(match op {
            Op::Submit(spec) => outcome(sys.submit_shared(spec, 1), |run| fields(&run.report)),
            Op::Retrieve(n) => {
                let names = value_artifacts(&sys.snapshot().history, n);
                outcome(sys.retrieve_shared(&names, 1), |run| fields(&run.report))
            }
            Op::Batch(specs) => {
                outcome(sys.submit_batch_shared(specs, 1), |run| batch_fields(&run.batch))
            }
        });
    }
    sys.flush_durability().unwrap();
    let snap = sys.snapshot();
    Trace {
        ops: lines,
        events: recorder.json(),
        catalog: catalog_to_json(&snap.history, &snap.estimator),
    }
}

#[test]
fn serial_and_shared_drivers_leave_identical_traces() {
    let mut succeeded = 0;
    for seed in 0..24u64 {
        let serial = run_serial(seed);
        let shared = run_shared(seed);
        assert_eq!(serial.ops.len(), shared.ops.len());
        for (i, (a, b)) in serial.ops.iter().zip(&shared.ops).enumerate() {
            assert_eq!(a, b, "seed {seed} op {i}: reports differ");
        }
        assert_eq!(serial.events, shared.events, "seed {seed}: durable event streams differ");
        assert_eq!(serial.catalog, shared.catalog, "seed {seed}: catalogs differ");
        succeeded += serial.ops.iter().filter(|l| !l.starts_with("error")).count();
    }
    // The stream is not vacuous: nearly every operation succeeded.
    assert!(succeeded >= 24 * 6, "only {succeeded} operations succeeded");
}
