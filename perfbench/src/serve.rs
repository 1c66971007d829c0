//! The `serve` workload: a closed loop of tenants through `hyppo-serve`
//! into one `SharedHyppo`, with a group-commit WAL, and the checks on its
//! commit order and durable log.

use crate::guard::Progress;
use crate::inputs::{self, SERVE_ROWS};
use crate::layers::{push, push_phases, push_rounds};
use crate::phases::{self, Op, Phases};
use crate::report::{mean, ratio, timed_rounds, Outcome, Round};
use crate::serial::check_report;
use crate::RunConfig;
use hyppo::core::executor::ExecMode;
use hyppo::core::persist::catalog_to_json;
use hyppo::core::{replay_events, CostEstimator, History, Hyppo, HyppoConfig, Planner};
use hyppo::persist::{read_wal, GroupCommitStats, GroupCommitWal, WalWriter};
use hyppo::pipeline::PipelineSpec;
use hyppo::runtime::SharedHyppo;
use hyppo::sched::SchedStats;
use hyppo::serve::{Client, ServeConfig, ServeMetrics, ServeRuntime, SubmissionHandle};
use hyppo::tensor::Dataset;
use hyppo::workloads::UseCase;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Closed-loop tenants. Chosen so that commit-side work (record,
/// materializer round, copy-on-write clone, WAL) is more than half of
/// service time in the traced split, and a round's shared history grows
/// past a thousand commits (see README.md).
pub const TENANTS: usize = 256;
/// Budget as a share of both datasets' bytes: small enough that the
/// materializer evicts.
pub const SERVE_BUDGET_FRAC: f64 = 1.0;
/// Submissions per tenant and round.
pub const SUBMISSIONS_PER_TENANT: usize = 6;
/// Scratch directory, relative to the working directory, for WAL files.
pub const SCRATCH_DIR: &str = ".perfbench_tmp";

/// Fault the `serve` checks must catch (exercised by `tests/wal_check.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Remove one record from the middle of the WAL before the replay check.
    DropWalRecord,
}

/// The backend configuration: Real mode, greedy search (the planner a
/// high-traffic server runs), budget from the dataset bytes.
pub fn backend_config(datasets: &[(UseCase, Dataset)]) -> HyppoConfig {
    let bytes: usize = datasets.iter().map(|(_, d)| d.size_bytes()).sum();
    HyppoConfig {
        budget_bytes: (bytes as f64 * SERVE_BUDGET_FRAC) as u64,
        mode: ExecMode::Real,
        search: Planner::greedy(),
        ..Default::default()
    }
}

/// Serving configuration: the defaults, with worker counts capped at the
/// host's CPUs.
pub fn serve_config(cpus: usize) -> ServeConfig {
    let d = ServeConfig::default();
    ServeConfig { workers: cpus, plan_workers: d.plan_workers.min(cpus), ..d }
}

/// A WAL path in the scratch directory, removed if present.
pub fn wal_path(tag: &str) -> PathBuf {
    let dir = Path::new(SCRATCH_DIR);
    std::fs::create_dir_all(dir).expect("create the benchmark scratch directory");
    let path = dir.join(format!("{tag}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Remove a scratch file. The (ignored) scratch directory stays: another
/// run may be creating a file in it.
pub fn remove_scratch(path: &Path) {
    let _ = std::fs::remove_file(path);
}

struct Setup {
    runtime: ServeRuntime,
    wal: GroupCommitWal,
    wal_path: PathBuf,
    clients: Vec<Client>,
    /// Each tenant's remaining submissions, next first.
    queues: Vec<VecDeque<PipelineSpec>>,
    datasets: [(UseCase, Dataset); 2],
}

/// Build the runtime, attach the WAL before anything commits (so the log
/// replays from an empty catalog), register the datasets, and open a
/// client per tenant with its edit-model sequence from the fixed pool.
fn setup(seed: u64, cpus: usize) -> Setup {
    let datasets = inputs::datasets(seed, (SERVE_ROWS, SERVE_ROWS));
    let runtime =
        ServeRuntime::new(SharedHyppo::new(backend_config(&datasets)), serve_config(cpus));
    let wal_path = wal_path("serve");
    let (writer, _) = WalWriter::open(&wal_path).expect("open the serve WAL");
    let wal = GroupCommitWal::new(writer);
    runtime.attach_durability(wal.clone());
    for (uc, d) in &datasets {
        runtime.backend().register_dataset(inputs::dataset_id(*uc), d.clone());
    }
    let clients = (0..TENANTS).map(|_| runtime.client()).collect();
    let queues = (0..TENANTS as u64)
        .map(|t| {
            let seq = inputs::pool_sequence(
                inputs::use_case_of(t),
                SUBMISSIONS_PER_TENANT,
                2000 + t,
                seed,
            );
            seq.iter().map(|t| t.to_spec()).collect()
        })
        .collect();
    Setup { runtime, wal, wal_path, clients, queues, datasets }
}

struct Pending {
    tenant: usize,
    spec: PipelineSpec,
    handle: SubmissionHandle,
}

/// One completed submission.
#[derive(Clone, Debug)]
pub struct Done {
    /// Submitting tenant.
    pub tenant: usize,
    /// Its commit epoch.
    pub commit: u64,
    /// What was submitted.
    pub spec: PipelineSpec,
}

/// Commit epochs must be unique and contiguous (`first..=last`), and each
/// tenant's commits must follow its submission order.
pub fn check_epochs(done: &[Done], first: u64, last: u64) -> Result<(), String> {
    let mut epochs: Vec<u64> = done.iter().map(|d| d.commit).collect();
    epochs.sort_unstable();
    let expected: Vec<u64> = (first..=last).collect();
    if epochs != expected {
        return Err(format!(
            "commit epochs are not unique and contiguous: {} commits over {first}..={last}",
            epochs.len()
        ));
    }
    let mut last_by_tenant = std::collections::HashMap::new();
    for d in done {
        if let Some(prev) = last_by_tenant.insert(d.tenant, d.commit) {
            if d.commit <= prev {
                return Err(format!("tenant {} committed out of submission order", d.tenant));
            }
        }
    }
    Ok(())
}

/// Rewrite the WAL at `path` without its middle record.
pub fn drop_wal_record(path: &Path) -> std::io::Result<()> {
    let contents = read_wal(path)?;
    let b = &contents.boundaries;
    if b.len() < 2 {
        return Err(std::io::Error::other("WAL holds no record to drop"));
    }
    let k = (b.len() - 1) / 2;
    let bytes = std::fs::read(path)?;
    let (start, end) = (b[k] as usize, b[k + 1] as usize);
    let mut kept = bytes[..start].to_vec();
    kept.extend_from_slice(&bytes[end..]);
    std::fs::write(path, kept)
}

/// Replay the WAL at `path` into a fresh catalog (`read_wal` +
/// `replay_events`) and compare its `catalog_to_json` byte for byte with
/// `expected`. Returns the replay seconds.
pub fn check_wal(path: &Path, expected: &str) -> Result<f64, String> {
    let start = Instant::now();
    let contents = read_wal(path).map_err(|e| format!("reading the WAL: {e}"))?;
    let (mut history, mut estimator) = (History::new(), CostEstimator::new());
    replay_events(&contents.events, &mut history, &mut estimator);
    let replay_s = start.elapsed().as_secs_f64();
    if contents.torn_bytes > 0 {
        return Err(format!("WAL has a torn tail of {} bytes", contents.torn_bytes));
    }
    if catalog_to_json(&history, &estimator) != expected {
        return Err(format!(
            "replaying the WAL's {} events does not rebuild the served catalog",
            contents.events.len()
        ));
    }
    Ok(replay_s)
}

/// What one closed-loop round measured.
struct ServeRound {
    ops: Round,
    wait_s: Vec<f64>,
    service_s: Vec<f64>,
    stored: u64,
    evicted: u64,
    done: Vec<Done>,
    metrics: ServeMetrics,
    sched: SchedStats,
    lock_wait_s: f64,
    wal: GroupCommitStats,
    replay_s: f64,
    datasets: [(UseCase, Dataset); 2],
}

/// One closed-loop round on a fresh runtime: every tenant submits
/// [`SUBMISSIONS_PER_TENANT`] pipelines, one at a time (submit, wait for
/// the result, edit, resubmit). One generator thread drives all tenants
/// and never spins: when no handle has completed it blocks on the oldest
/// outstanding one. Then the commit-order and WAL checks run.
fn round(s: Setup, o: &mut Outcome, progress: &Progress, fault: Option<Fault>) -> ServeRound {
    let Setup { runtime, wal, wal_path, clients, mut queues, datasets } = s;
    let first_epoch = runtime.backend().current_epoch() + 1;
    let mut submit = |tenant: usize, o: &mut Outcome| {
        let spec = queues[tenant].pop_front()?;
        o.attempted += 1;
        progress.attempt();
        let handle = clients[tenant].submit(spec.clone()).expect("blocking admission admits");
        Some(Pending { tenant, spec, handle })
    };

    let start = Instant::now();
    let mut outstanding: VecDeque<Pending> = (0..TENANTS).filter_map(|t| submit(t, o)).collect();
    let mut r = ServeRound {
        ops: Round::default(),
        wait_s: Vec::new(),
        service_s: Vec::new(),
        stored: 0,
        evicted: 0,
        done: Vec::new(),
        metrics: Default::default(),
        sched: Default::default(),
        lock_wait_s: 0.0,
        wal: Default::default(),
        replay_s: f64::NAN,
        datasets,
    };
    while !outstanding.is_empty() {
        let mut finished: Vec<Pending> = Vec::new();
        let mut i = 0;
        while i < outstanding.len() {
            if outstanding[i].handle.try_report().is_some() {
                finished.push(outstanding.remove(i).expect("index in range"));
            } else {
                i += 1;
            }
        }
        if finished.is_empty() {
            finished.push(outstanding.pop_front().expect("non-empty"));
        }
        for p in finished {
            let checked = p.handle.wait_completed().map_err(|e| e.to_string()).and_then(|c| {
                check_report(&c.run.report, 1)?;
                Ok(c)
            });
            progress.complete(checked.is_ok());
            match checked {
                Ok(c) => {
                    r.ops.latency_ms.push(c.stats.latency_seconds * 1e3);
                    r.wait_s.push(c.stats.mailbox_wait_seconds);
                    r.service_s.push(c.stats.service_seconds);
                    r.ops.cet_s.push(c.run.report.execution_seconds);
                    r.stored += c.run.report.stored as u64;
                    r.evicted += c.run.report.evicted as u64;
                    r.done.push(Done {
                        tenant: p.tenant,
                        commit: c.run.epochs.commit,
                        spec: p.spec,
                    });
                }
                Err(e) => {
                    o.failed += 1;
                    o.problem(format!("tenant {}: {e}", p.tenant));
                }
            }
            outstanding.extend(submit(p.tenant, o));
        }
    }
    r.ops.wall = start.elapsed().as_secs_f64();

    r.metrics = runtime.metrics();
    r.sched = runtime.scheduler_stats();
    r.lock_wait_s = runtime.backend().lock_wait_seconds();
    drop(clients);
    let backend = runtime.shutdown().expect("shutdown flushes the WAL");
    r.wal = wal.stats();
    drop(wal);

    if let Err(e) = check_epochs(&r.done, first_epoch, backend.current_epoch()) {
        o.problem(e);
    }
    if fault == Some(Fault::DropWalRecord) {
        drop_wal_record(&wal_path).expect("drop a WAL record");
    }
    let snap = backend.snapshot();
    match check_wal(&wal_path, &catalog_to_json(&snap.history, &snap.estimator)) {
        Ok(secs) => r.replay_s = secs,
        Err(e) => o.problem(e),
    }
    remove_scratch(&wal_path);
    r
}

/// Closed-loop rounds on fresh runtimes until the run's seconds are up;
/// each end-to-end metric is the median over rounds.
pub fn serve(cfg: &RunConfig, progress: &Progress, fault: Option<Fault>) -> Outcome {
    let mut o = Outcome::default();
    let cpus = crate::report::host_cpus();
    let mut setups = Vec::new();
    let mut rounds = timed_rounds(cfg.seconds, || {
        let start = Instant::now();
        let s = setup(cfg.seed, cpus);
        setups.push(start.elapsed().as_secs_f64());
        round(s, &mut o, progress, fault)
    });
    let ops: Vec<Round> = rounds.iter().map(|r| r.ops.clone()).collect();
    push_rounds(&mut o, &ops, &setups);
    o.push("tenants", TENANTS as f64, "count", None);
    o.push("workers", serve_config(cpus).workers as f64, "count", None);

    if cfg.trace {
        // Counters of the last round, and the phase split of its
        // submissions replayed serially.
        let r = rounds.last_mut().expect("at least one round");
        let n = r.ops.latency_ms.len();
        let commits = n as f64;
        let service_ms = mean(&r.service_s) * 1e3;
        push(&mut o, "persist.fsyncs_per_commit", r.wal.fsyncs as f64 / commits, None);
        push(&mut o, "persist.events_per_commit", r.wal.events as f64 / commits, None);
        push(&mut o, "persist.replay_s", r.replay_s, None);
        push(&mut o, "runtime.lock_wait_ms", r.lock_wait_s * 1e3 / commits, Some(n));
        push(&mut o, "runtime.epoch_lag_mean", r.metrics.epoch_lag_mean, Some(n));
        push(&mut o, "serve.mailbox_wait_ms", mean(&r.wait_s) * 1e3, Some(n));
        push(&mut o, "serve.service_ms", service_ms, Some(n));
        push(&mut o, "serve.peak_queue_depth", r.metrics.peak_queue_depth as f64, None);
        let s = &r.sched;
        let claims = (s.local_pops + s.injector_claims + s.steals) as f64;
        push(&mut o, "sched.steals", s.steals as f64 / commits, None);
        push(&mut o, "sched.parks", s.parks as f64 / commits, None);
        push(&mut o, "sched.local_claim_frac", ratio(s.local_pops as f64, claims), None);
        o.push("serve.stored", r.stored as f64 / commits, "1/op", Some(n));
        o.push("serve.evicted", r.evicted as f64 / commits, "1/op", Some(n));

        // The phase split at the same history sizes: the same submissions,
        // in commit order, serially through the phase-by-phase runner.
        r.done.sort_by_key(|d| d.commit);
        let (ph, used_frac, hit_frac, wal_s) =
            replay_serially(&mut o, progress, &r.done, &r.datasets);
        push_phases(&mut o, &ph, used_frac, hit_frac, wal_s);
        // Commit-side work: record + materializer round + WAL, plus the
        // copy-on-write clone and write-lock wait, which show only as the
        // service time the serial phases do not account for.
        let per_op_ms = |s: f64| ratio(s, ph.ops as f64) * 1e3;
        let phase_ms = per_op_ms(ph.spans() + wal_s);
        let commit_ms = per_op_ms(ph.record + ph.materialize + ph.flush + wal_s)
            + (service_ms - phase_ms).max(0.0);
        push(&mut o, "serve.commit_frac", ratio(commit_ms, service_ms), None);
        // The closed loop runs untouched in both modes; the trace adds only
        // the serial replay after it.
        push(&mut o, "trace.overhead_frac", 0.0, None);
    }
    push(&mut o, "peak_rss_mib", crate::report::peak_rss_mib(), None);
    o
}

/// Replay `done` (in commit order) on a serial `Hyppo` with the backend's
/// configuration and a group-commit WAL flushed every `commit_group`
/// submissions, as the serving runtime does. Returns the phase spans, the
/// store's final budget share, the bounds-cache hit share and the
/// group-flush seconds.
fn replay_serially(
    o: &mut Outcome,
    progress: &Progress,
    done: &[Done],
    datasets: &[(UseCase, Dataset); 2],
) -> (Phases, f64, f64, f64) {
    let mut sys = Hyppo::new(backend_config(datasets));
    let path = wal_path("replay");
    let (writer, _) = WalWriter::open(&path).expect("open the replay WAL");
    let wal = GroupCommitWal::new(writer);
    sys.attach_durability(Box::new(wal.clone()));
    for (uc, d) in datasets {
        sys.register_dataset(inputs::dataset_id(*uc), d.clone());
    }
    let group = ServeConfig::default().commit_group;
    // The dataset registrations are set-up, not part of any submission.
    wal.flush_group().expect("flush the replay WAL");
    let mut ph = Phases::default();
    let mut wal_s = 0.0;
    let flush = |wal_s: &mut f64| {
        let start = Instant::now();
        wal.flush_group().expect("flush the replay WAL");
        *wal_s += start.elapsed().as_secs_f64();
    };
    for (i, d) in done.iter().enumerate() {
        o.attempted += 1;
        progress.attempt();
        let checked = phases::run_traced(&mut sys, Op::Submit(d.spec.clone()), &mut ph)
            .map_err(|e| e.to_string())
            .and_then(|r| check_report(&r, 1));
        progress.complete(checked.is_ok());
        if let Err(e) = checked {
            o.failed += 1;
            o.problem(format!("serial replay of epoch {}: {e}", d.commit));
        }
        if (i + 1) % group == 0 {
            flush(&mut wal_s);
        }
    }
    flush(&mut wal_s);
    remove_scratch(&path);
    let used = ratio(sys.store.used_bytes() as f64, sys.config.budget_bytes as f64);
    let b = sys.bounds_stats();
    let hits = ratio(b.hits as f64, (b.hits + b.misses + b.repairs) as f64);
    (ph, used, hits, wal_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(tenant: usize, commit: u64) -> Done {
        Done { tenant, commit, spec: PipelineSpec::new() }
    }

    #[test]
    fn epoch_check_needs_unique_contiguous_in_order_commits() {
        let ok = [done(0, 4), done(1, 5), done(0, 6)];
        assert!(check_epochs(&ok, 4, 6).is_ok());
        assert!(check_epochs(&[done(0, 4), done(1, 6)], 4, 6).is_err(), "gap");
        assert!(check_epochs(&[done(0, 4), done(1, 4), done(2, 5)], 4, 5).is_err(), "duplicate");
        assert!(check_epochs(&[done(0, 5), done(0, 4)], 4, 5).is_err(), "tenant order");
    }
}
