//! The metric catalogue: the end-to-end metrics of an untraced run and the
//! per-layer metrics of a traced one, with their units. `BENCHMARK.json`
//! lists the same names; `tests/contract.rs` keeps the two in step.

use crate::phases::Phases;
use crate::report::{mean, median, quantile, ratio, Outcome, Round};

/// End-to-end metrics a user of the system sees, in `--trace 0` output.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cet_per_op_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, in `--trace 1` output. Times and counts are means
/// per operation unless the unit says otherwise.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("pipeline.build_ms", "ms/op"),
    ("augment.self_ms", "ms/op"),
    ("augment.edges", "edges/op"),
    ("annotate.self_ms", "ms/op"),
    ("optimizer.self_ms", "ms/op"),
    ("optimizer.expansions", "1/op"),
    ("optimizer.pops", "1/op"),
    ("optimizer.bounds_hit_frac", "1"),
    ("executor.self_ms", "ms/op"),
    ("executor.compute_ms", "ms/op"),
    ("executor.load_ms", "ms/op"),
    ("executor.load_frac", "1"),
    ("executor.tasks", "tasks/op"),
    ("monitor.self_ms", "ms/op"),
    ("materialize.self_ms", "ms/op"),
    ("materialize.stored", "1/op"),
    ("materialize.evicted", "1/op"),
    ("materialize.used_frac", "1"),
    ("persist.wal_ms", "ms/op"),
    ("persist.fsyncs_per_commit", "1"),
    ("persist.events_per_commit", "1"),
    ("persist.replay_s", "s"),
    ("runtime.lock_wait_ms", "ms/op"),
    ("runtime.epoch_lag_mean", "commits"),
    ("serve.mailbox_wait_ms", "ms/op"),
    ("serve.service_ms", "ms/op"),
    ("serve.peak_queue_depth", "count"),
    ("serve.commit_frac", "1"),
    ("sched.steals", "1/op"),
    ("sched.parks", "1/op"),
    ("sched.local_claim_frac", "1"),
    ("trace.coverage_frac", "1"),
    ("trace.overhead_frac", "1"),
];

/// Unit of a catalogued metric.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not catalogued"))
}

/// Push a catalogued metric.
pub fn push(o: &mut Outcome, name: &str, value: f64, samples: Option<usize>) {
    o.push(name, value, unit(name), samples);
}

/// Push the end-to-end metrics of a run's timed `rounds`. Throughput and
/// `cet_per_op_ms` are medians over rounds of each round's own value, so a
/// round slowed by a burst of host interference does not move them; the
/// latency quantiles are taken over every operation of every round, so
/// each has at least ten samples beyond it. `setup_s` is the median
/// set-up.
pub fn push_rounds(o: &mut Outcome, rounds: &[Round], setups: &[f64]) {
    let mut latency: Vec<f64> = rounds.iter().flat_map(|r| r.latency_ms.iter().copied()).collect();
    if rounds.is_empty() || rounds.iter().any(|r| r.latency_ms.is_empty()) {
        o.problem("a round completed no operation");
        return;
    }
    latency.sort_by(f64::total_cmp);
    let n = latency.len();
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let throughput = per_round(&|r| r.latency_ms.len() as f64 / r.wall);
    push(o, "throughput_per_s", throughput, Some(n));
    push(o, "latency_p50_ms", quantile(&latency, 0.5), Some(n));
    push(o, "latency_p90_ms", quantile(&latency, 0.9), Some(n));
    if n >= 1000 {
        o.push("latency_p99_ms", quantile(&latency, 0.99), "ms", Some(n));
    }
    push(o, "cet_per_op_ms", per_round(&|r| mean(&r.cet_s) * 1e3), Some(n));
    push(o, "setup_s", median(setups), Some(setups.len()));
    o.push("rounds", rounds.len() as f64, "count", None);
}

/// Push every phase-derived per-layer metric from a traced replay, as
/// means over its `ph.ops` operations. `used_frac` is the store's final
/// share of the budget; `bounds_hit_frac` comes from the bounds-cache
/// counters over the same operations; `wal` is group-flush seconds beyond
/// the `flush_durability` span (0 where no WAL is attached).
pub fn push_phases(o: &mut Outcome, ph: &Phases, used_frac: f64, bounds_hit_frac: f64, wal: f64) {
    let n = ph.ops as usize;
    let per_op = |x: f64| ratio(x, ph.ops as f64);
    let ms = |s: f64| per_op(s) * 1e3;
    push(o, "pipeline.build_ms", ms(ph.build), Some(n));
    push(o, "augment.self_ms", ms(ph.augment), Some(n));
    push(o, "augment.edges", per_op(ph.edges as f64), Some(n));
    push(o, "annotate.self_ms", ms(ph.annotate), Some(n));
    push(o, "optimizer.self_ms", ms(ph.plan), Some(n));
    push(o, "optimizer.expansions", per_op(ph.expansions as f64), Some(n));
    push(o, "optimizer.pops", per_op(ph.pops as f64), Some(n));
    push(o, "optimizer.bounds_hit_frac", bounds_hit_frac, Some(n));
    // Executor self time: its span minus the kernel seconds it reports,
    // i.e. loads, decode, artifact clones and ordering.
    push(o, "executor.self_ms", ms((ph.execute - ph.compute).max(0.0)), Some(n));
    push(o, "executor.compute_ms", ms(ph.compute), Some(n));
    push(o, "executor.load_ms", ms(ph.load), Some(n));
    push(o, "executor.load_frac", ratio(ph.load, ph.load + ph.compute), Some(n));
    push(o, "executor.tasks", per_op(ph.tasks as f64), Some(n));
    push(o, "monitor.self_ms", ms(ph.record), Some(n));
    push(o, "materialize.self_ms", ms(ph.materialize), Some(n));
    push(o, "materialize.stored", per_op(ph.stored as f64), Some(n));
    push(o, "materialize.evicted", per_op(ph.evicted as f64), Some(n));
    push(o, "materialize.used_frac", used_frac, None);
    push(o, "persist.wal_ms", ms(ph.flush + wal), Some(n));
    push(o, "trace.coverage_frac", ratio(ph.spans(), ph.wall), Some(n));
    if !ph.coverage.is_empty() {
        let mut cov = ph.coverage.clone();
        cov.sort_by(f64::total_cmp);
        o.push("trace.coverage_p10", quantile(&cov, 0.1), "1", Some(n));
        o.push("trace.coverage_min", cov[0], "1", Some(n));
    }
}
