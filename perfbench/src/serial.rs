//! The `explore` and `retrieve` workloads: serial sessions on the `Hyppo`
//! facade in Real mode with the exact planner.

use crate::guard::Progress;
use crate::inputs::{self, Pickable, Request, HIGGS_ROWS, TAXI_ROWS};
use crate::layers::{push, push_phases, push_rounds};
use crate::phases::{self, Op, Phases};
use crate::report::{mean, ratio, timed_rounds, Outcome, Round};
use crate::RunConfig;
use hyppo::core::{BoundsCacheStats, Hyppo, HyppoConfig, RunReport};
use hyppo::pipeline::PipelineSpec;
use hyppo::tensor::{Dataset, SeededRng};
use hyppo::workloads::UseCase;
use std::time::Instant;

/// Pipelines per `explore` session (one fresh system each).
pub const SESSION_PIPELINES: usize = 20;
/// The pool sequences an `explore` round runs as sessions (even: HIGGS,
/// odd: TAXI). A run repeats identical rounds. About half of an edit-model
/// session's submissions are answered by loading one stored value (an
/// equivalent pipeline ran before), so latency is bimodal; these four
/// sessions put 43 of 80 submissions in the fast mode, keeping the median
/// off the gap between the modes, where one changed plan choice would
/// flip it.
pub const ROUND_SESSIONS: [u64; 4] = [0, 1, 2, 5];
/// Requests per `retrieve` round. A run repeats the same block of requests.
pub const ROUND_REQUESTS: usize = 400;
/// `explore` budget as a share of the session dataset's bytes (paper Fig. 3).
pub const EXPLORE_BUDGET_FRAC: f64 = 0.1;
/// History pipelines per use case that `retrieve` set-up builds.
pub const HISTORY_PIPELINES: usize = 50;
/// `retrieve` budget as a share of the dataset's bytes (paper Fig. 8).
pub const RETRIEVE_BUDGET_FRAC: f64 = 1.0;
/// Set-ups per `explore` run; `setup_s` is their median.
const EXPLORE_SETUPS: usize = 9;
/// Set-ups per `retrieve` run (each builds two full histories).
const RETRIEVE_SETUPS: usize = 3;

/// A fresh Real-mode system over one use case's dataset.
pub fn system(use_case: UseCase, dataset: &Dataset, budget_frac: f64) -> Hyppo {
    let budget_bytes = (dataset.size_bytes() as f64 * budget_frac) as u64;
    let mut sys = Hyppo::new(HyppoConfig { budget_bytes, ..Default::default() });
    sys.register_dataset(inputs::dataset_id(use_case), dataset.clone());
    sys
}

/// Check one report: `values` evaluation results, all finite.
pub fn check_report(report: &RunReport, values: usize) -> Result<(), String> {
    if report.values.len() != values {
        return Err(format!("expected {values} evaluation values, got {}", report.values.len()));
    }
    match report.values.values().find(|v| !v.is_finite()) {
        Some(v) => Err(format!("evaluation value {v} is not finite")),
        None => Ok(()),
    }
}

/// Run one op untraced, time it, check it, count it, and log it in `round`.
fn timed_op(
    o: &mut Outcome,
    progress: &Progress,
    round: &mut Round,
    sys: &mut Hyppo,
    op: Op,
    values: usize,
) {
    o.attempted += 1;
    progress.attempt();
    let start = Instant::now();
    let result = phases::run(sys, op);
    let elapsed = start.elapsed().as_secs_f64();
    let checked = result.map_err(|e| e.to_string()).and_then(|r| {
        check_report(&r, values)?;
        Ok(r)
    });
    progress.complete(checked.is_ok());
    match checked {
        Ok(r) => {
            round.latency_ms.push(elapsed * 1e3);
            round.cet_s.push(r.execution_seconds);
        }
        Err(e) => {
            o.failed += 1;
            o.problem(format!("op {}: {e}", o.attempted));
        }
    }
}

/// Mean seconds per op over all rounds (the untraced side of
/// `trace.overhead_frac`).
fn mean_latency_s(rounds: &[Round]) -> f64 {
    let all: Vec<f64> = rounds.iter().flat_map(|r| r.latency_ms.iter().copied()).collect();
    mean(&all) / 1e3
}

fn hit_frac(before: &BoundsCacheStats, after: &BoundsCacheStats) -> f64 {
    let d = after.delta_since(before);
    ratio(d.hits as f64, (d.hits + d.misses + d.repairs) as f64)
}

/// Layers the serial workloads never reach report 0.
fn push_unreached_layers(o: &mut Outcome) {
    for name in [
        "persist.fsyncs_per_commit",
        "persist.events_per_commit",
        "persist.replay_s",
        "runtime.lock_wait_ms",
        "runtime.epoch_lag_mean",
        "serve.mailbox_wait_ms",
        "serve.service_ms",
        "serve.peak_queue_depth",
        "serve.commit_frac",
        "sched.steals",
        "sched.parks",
        "sched.local_claim_frac",
    ] {
        push(o, name, 0.0, None);
    }
}

/// Paper Scenario 1: edit-model sessions of [`SESSION_PIPELINES`]
/// pipelines, alternating HIGGS and TAXI, each on a fresh system at
/// B = 0.1 × dataset bytes, in identical rounds of the
/// [`ROUND_SESSIONS`] until the run's seconds are up.
pub fn explore(cfg: &RunConfig, progress: &Progress) -> Outcome {
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    let mut data = None;
    for _ in 0..EXPLORE_SETUPS {
        let start = Instant::now();
        let datasets = inputs::datasets(cfg.seed, (HIGGS_ROWS, TAXI_ROWS));
        let systems: Vec<Hyppo> =
            datasets.iter().map(|(uc, d)| system(*uc, d, EXPLORE_BUDGET_FRAC)).collect();
        setups.push(start.elapsed().as_secs_f64());
        drop(systems);
        data = Some(datasets);
    }
    let data = data.expect("at least one set-up");
    let session = |k: u64| -> (Hyppo, Vec<PipelineSpec>) {
        let (uc, dataset) = &data[(k % 2) as usize];
        let specs = inputs::pool_sequence(*uc, SESSION_PIPELINES, k, cfg.seed)
            .iter()
            .map(|t| t.to_spec())
            .collect();
        (system(*uc, dataset, EXPLORE_BUDGET_FRAC), specs)
    };

    let rounds = timed_rounds(cfg.seconds, || {
        let mut round = Round::default();
        let start = Instant::now();
        for &k in &ROUND_SESSIONS {
            let (mut sys, specs) = session(k);
            for spec in specs {
                timed_op(&mut o, progress, &mut round, &mut sys, Op::Submit(spec), 1);
            }
        }
        round.wall = start.elapsed().as_secs_f64();
        round
    });
    push_rounds(&mut o, &rounds, &setups);

    if cfg.trace {
        // The same rounds again, phase by phase.
        let mut ph = Phases::default();
        let mut used_frac = Vec::new();
        let mut hits = Vec::new();
        for &k in ROUND_SESSIONS.iter().cycle().take(rounds.len() * ROUND_SESSIONS.len()) {
            let (mut sys, specs) = session(k);
            let before = sys.bounds_stats();
            for spec in specs {
                traced_op(&mut o, progress, &mut sys, Op::Submit(spec), 1, &mut ph);
            }
            used_frac.push(ratio(sys.store.used_bytes() as f64, sys.config.budget_bytes as f64));
            hits.push(hit_frac(&before, &sys.bounds_stats()));
        }
        push_phases(&mut o, &ph, mean(&used_frac), mean(&hits), 0.0);
        push_unreached_layers(&mut o);
        let traced = ratio(ph.wall, ph.ops as f64);
        push(&mut o, "trace.overhead_frac", ratio(traced, mean_latency_s(&rounds)) - 1.0, None);
    }
    push(&mut o, "peak_rss_mib", crate::report::peak_rss_mib(), None);
    o
}

fn traced_op(
    o: &mut Outcome,
    progress: &Progress,
    sys: &mut Hyppo,
    op: Op,
    values: usize,
    ph: &mut Phases,
) {
    o.attempted += 1;
    progress.attempt();
    let checked = phases::run_traced(sys, op, ph)
        .map_err(|e| e.to_string())
        .and_then(|r| check_report(&r, values));
    progress.complete(checked.is_ok());
    if let Err(e) = checked {
        o.failed += 1;
        o.problem(format!("traced op {}: {e}", o.attempted));
    }
}

/// `retrieve` set-up: per use case, a system at B = 1 × dataset bytes
/// holding a steady-state history of [`HISTORY_PIPELINES`] edit-model
/// pipelines, plus what each of them lets a user ask back for.
fn retrieve_setup(seed: u64, o: &mut Outcome) -> Vec<(Hyppo, Vec<Pickable>)> {
    inputs::datasets(seed, (HIGGS_ROWS, TAXI_ROWS))
        .iter()
        .enumerate()
        .map(|(i, (uc, dataset))| {
            let mut sys = system(*uc, dataset, RETRIEVE_BUDGET_FRAC);
            let mut pickable = Vec::new();
            for t in inputs::pool_sequence(*uc, HISTORY_PIPELINES, 1000 + i as u64, seed) {
                let spec = t.to_spec();
                pickable.push(Pickable::of(&spec));
                if let Err(e) =
                    sys.submit(spec).map_err(|e| e.to_string()).and_then(|r| check_report(&r, 1))
                {
                    o.problem(format!("retrieve set-up: history pipeline failed: {e}"));
                }
            }
            (sys, pickable)
        })
        .collect()
}

/// Paper Scenario 2: a seeded stream of retrievals of 1, 2, 4 or 8
/// earlier artifacts (models and others mixed), alternating between the
/// two use cases' histories.
pub fn retrieve(cfg: &RunConfig, progress: &Progress) -> Outcome {
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    let mut systems = Vec::new();
    for _ in 0..RETRIEVE_SETUPS {
        let start = Instant::now();
        systems = retrieve_setup(cfg.seed, &mut o);
        setups.push(start.elapsed().as_secs_f64());
    }
    // One round's requests, alternating between the two histories, drawn
    // from the fixed pool like the histories themselves.
    let mut rng = SeededRng::new(inputs::mix(inputs::POOL_SEED, 7));
    let block: Vec<(usize, Request)> = (0..ROUND_REQUESTS)
        .map(|j| (j % 2, inputs::request(&systems[j % 2].1, &mut rng)))
        .collect();

    let rounds = timed_rounds(cfg.seconds, || {
        let mut round = Round::default();
        let start = Instant::now();
        for (i, req) in &block {
            let op = Op::Retrieve(req.names.clone());
            timed_op(&mut o, progress, &mut round, &mut systems[*i].0, op, req.values);
        }
        round.wall = start.elapsed().as_secs_f64();
        round
    });
    push_rounds(&mut o, &rounds, &setups);

    if cfg.trace {
        // The same rounds again, phase by phase, on the same
        // (steady-state) histories.
        let mut ph = Phases::default();
        let before: Vec<BoundsCacheStats> = systems.iter().map(|(s, _)| s.bounds_stats()).collect();
        for (i, req) in block.iter().cycle().take(rounds.len() * block.len()) {
            let op = Op::Retrieve(req.names.clone());
            traced_op(&mut o, progress, &mut systems[*i].0, op, req.values, &mut ph);
        }
        let used: Vec<f64> = systems
            .iter()
            .map(|(s, _)| ratio(s.store.used_bytes() as f64, s.config.budget_bytes as f64))
            .collect();
        let hits: Vec<f64> =
            systems.iter().zip(&before).map(|((s, _), b)| hit_frac(b, &s.bounds_stats())).collect();
        push_phases(&mut o, &ph, mean(&used), mean(&hits), 0.0);
        push_unreached_layers(&mut o);
        let traced = ratio(ph.wall, ph.ops as f64);
        push(&mut o, "trace.overhead_frac", ratio(traced, mean_latency_s(&rounds)) - 1.0, None);
    }
    push(&mut o, "peak_rss_mib", crate::report::peak_rss_mib(), None);
    o
}
