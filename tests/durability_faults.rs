//! Injected WAL append failures (DESIGN.md §12, §14).
//!
//! A durability hook that fails its k-th append must not open a gap in
//! the log: the drain puts the events back at the front of the journal,
//! and the next successful drain appends them ahead of anything newer.
//! For every k, both drivers run a Simulated session whose k-th append
//! fails; after a final successful flush, replaying the hook's log onto a
//! fresh catalog must yield the live catalog byte for byte.

use hyppo::core::durable::replay_events;
use hyppo::core::executor::ExecMode;
use hyppo::core::persist::catalog_to_json;
use hyppo::core::system::SubmitError;
use hyppo::core::{CostEstimator, DurabilityHook, DurableEvent, History, Hyppo, HyppoConfig};
use hyppo::core::{Planner, RunReport};
use hyppo::pipeline::PipelineSpec;
use hyppo::runtime::SharedHyppo;
use hyppo::workloads::generator::generate_sequence;
use hyppo::workloads::{taxi, SequenceConfig, UseCase};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Log {
    events: Vec<DurableEvent>,
    appends: usize,
}

/// Appends to a shared in-memory log, except that append number
/// `fail_at` (1-based) fails and writes nothing.
#[derive(Clone, Debug)]
struct FlakyHook {
    log: Arc<Mutex<Log>>,
    fail_at: usize,
}

impl FlakyHook {
    fn new(fail_at: usize) -> Self {
        FlakyHook { log: Arc::default(), fail_at }
    }

    fn replayed(&self) -> String {
        let (mut history, mut estimator) = (History::new(), CostEstimator::new());
        replay_events(&self.log.lock().unwrap().events, &mut history, &mut estimator);
        catalog_to_json(&history, &estimator)
    }

    fn appends(&self) -> usize {
        self.log.lock().unwrap().appends
    }
}

impl DurabilityHook for FlakyHook {
    fn append(&mut self, events: &[DurableEvent]) -> std::io::Result<()> {
        let mut log = self.log.lock().unwrap();
        log.appends += 1;
        if log.appends == self.fail_at {
            return Err(std::io::Error::other("injected append failure"));
        }
        log.events.extend_from_slice(events);
        Ok(())
    }
}

fn config() -> HyppoConfig {
    HyppoConfig {
        budget_bytes: 24 * 1024,
        mode: ExecMode::Simulated,
        search: Planner::exact().threads(1),
        ..Default::default()
    }
}

fn specs() -> Vec<PipelineSpec> {
    let templates = generate_sequence(&SequenceConfig {
        use_case: UseCase::Taxi,
        dataset_id: "taxi".to_string(),
        n_pipelines: 5,
        seed: 4,
    });
    templates.iter().map(|t| t.to_spec()).collect()
}

/// How many of a session's submissions failed on durability (and that
/// no other failure occurred).
fn durability_failures(results: &[Result<RunReport, SubmitError>]) -> usize {
    for r in results {
        assert!(matches!(r, Ok(_) | Err(SubmitError::Durability(_))), "{:?}", r.as_ref().err());
    }
    results.iter().filter(|r| r.is_err()).count()
}

#[test]
fn serial_driver_requeues_events_of_a_failed_append() {
    for fail_at in 1..=5 {
        let hook = FlakyHook::new(fail_at);
        let mut sys = Hyppo::new(config());
        sys.attach_durability(Box::new(hook.clone()));
        sys.register_dataset("taxi", taxi::generate(150, 2));
        let results: Vec<_> = specs().into_iter().map(|s| sys.submit(s)).collect();
        assert_eq!(durability_failures(&results), 1, "fail_at {fail_at}");
        sys.flush_durability().unwrap();
        assert!(hook.appends() > fail_at, "fail_at {fail_at}: no append after the failure");
        assert_eq!(
            hook.replayed(),
            catalog_to_json(&sys.history, &sys.estimator),
            "fail_at {fail_at}: WAL replay diverges from the live catalog"
        );
    }
}

#[test]
fn shared_driver_requeues_events_of_a_failed_append() {
    // Append 1 is the dataset registration's commit, whose durability
    // error `register_dataset` swallows; 2..=6 are the submissions.
    for fail_at in 1..=6 {
        let hook = FlakyHook::new(fail_at);
        let sys = SharedHyppo::new(config());
        sys.attach_durability(Box::new(hook.clone()));
        sys.register_dataset("taxi", taxi::generate(150, 2));
        let results: Vec<_> =
            specs().into_iter().map(|s| sys.submit_shared(s, 1).map(|run| run.report)).collect();
        assert_eq!(durability_failures(&results), usize::from(fail_at > 1), "fail_at {fail_at}");
        sys.flush_durability().unwrap();
        let snap = sys.snapshot();
        assert_eq!(
            hook.replayed(),
            catalog_to_json(&snap.history, &snap.estimator),
            "fail_at {fail_at}: WAL replay diverges from the live catalog"
        );
    }
}
