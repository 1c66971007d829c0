//! Kernel-layer micro-benchmarks: the hypergraph substrate (B-closure,
//! backward relevance, execution ordering, plan minimization on synthetic
//! graphs), the physical-implementation cost asymmetries the equivalence
//! optimizer exploits (each logical operator fitted every available way on
//! identical data), and the artifact codec.
//!
//! Run under `cargo bench --bench kernels` for the full measurement, which
//! writes `BENCH_kernels.json` (seconds per call for every kernel, schema
//! in EXPERIMENTS.md). Without `--bench` in the arguments (e.g. when
//! `cargo test` smoke-runs harness-less bench targets) every kernel runs
//! once on small inputs and nothing is written.

use hyppo_hypergraph::{b_closure, connectivity, execution_order, minimize_plan};
use hyppo_ml::{execute, Artifact, Config, LogicalOp, TaskType};
use hyppo_workloads::{generate_synthetic, higgs};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// Wall time one sample aims for; a sample repeats the kernel until it
/// takes at least this long.
const SAMPLE_SECONDS: f64 = 0.02;

#[derive(Serialize)]
struct KernelResult {
    group: String,
    name: String,
    /// Calls per sample.
    iters: u64,
    samples: usize,
    /// Fastest sample, seconds per call.
    min_seconds: f64,
    /// Median sample, seconds per call.
    median_seconds: f64,
}

#[derive(Serialize)]
struct BenchReport {
    benchmark: String,
    host_cpus: usize,
    sample_seconds: f64,
    results: Vec<KernelResult>,
}

struct Bench {
    full: bool,
    samples: usize,
    results: Vec<KernelResult>,
}

impl Bench {
    /// Time `f`: one warm-up call sizes the sample, then `samples` samples
    /// of `iters` calls each. Smoke mode makes the single warm-up call.
    fn run<T>(&mut self, group: &str, name: &str, mut f: impl FnMut() -> T) {
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().as_secs_f64();
        if !self.full {
            return;
        }
        let iters = (SAMPLE_SECONDS / once.max(1e-9)).ceil().max(1.0) as u64;
        let mut per_call: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_secs_f64() / iters as f64
            })
            .collect();
        per_call.sort_by(f64::total_cmp);
        let result = KernelResult {
            group: group.to_string(),
            name: name.to_string(),
            iters,
            samples: self.samples,
            min_seconds: per_call[0],
            median_seconds: per_call[per_call.len() / 2],
        };
        println!(
            "kernels: {group}/{name}: {:.3e} s/call (min {:.3e}, {iters} calls × {} samples)",
            result.median_seconds, result.min_seconds, self.samples
        );
        self.results.push(result);
    }
}

fn bench_hypergraph(b: &mut Bench) {
    let sizes: &[usize] = if b.full { &[50, 200, 800] } else { &[50] };
    for &n in sizes {
        let g = generate_synthetic(n, 2, 11);
        b.run("b_closure", &n.to_string(), || b_closure(black_box(&g.graph), &[g.source]));
    }
    for &n in sizes {
        let g = generate_synthetic(n, 2, 13);
        b.run("backward_relevant", &n.to_string(), || {
            connectivity::backward_relevant(black_box(&g.graph), &g.targets)
        });
    }
    let g = generate_synthetic(60, 2, 17);
    let all: Vec<_> = g.graph.edge_ids().collect();
    let plan = minimize_plan(&g.graph, &all, &[g.source], &g.targets);
    b.run("plan", "execution_order_60", || {
        execution_order(black_box(&g.graph), &plan, &[g.source]).unwrap()
    });
    b.run("plan", "minimize_plan_60", || {
        minimize_plan(black_box(&g.graph), &all, &[g.source], &g.targets)
    });
}

fn imputed_higgs(rows: usize) -> Artifact {
    let raw = Artifact::Data(higgs::generate(rows, 5));
    let cfg = Config::new();
    let imp = &execute(LogicalOp::ImputerMean, TaskType::Fit, 0, &cfg, &[&raw]).unwrap()[0];
    execute(LogicalOp::ImputerMean, TaskType::Transform, 0, &cfg, &[imp, &raw]).unwrap().remove(0)
}

fn bench_ml(b: &mut Bench) {
    let data = imputed_higgs(if b.full { 2000 } else { 200 });
    let cfg = Config::new()
        .with_i("n_trees", 10)
        .with_i("n_rounds", 10)
        .with_i("n_components", 5)
        .with_i("seed", 3);
    for op in [
        LogicalOp::StandardScaler,
        LogicalOp::RobustScaler,
        LogicalOp::Pca,
        LogicalOp::RandomForest,
        LogicalOp::GradientBoosting,
    ] {
        for imp in op.impls() {
            b.run(&format!("{}_fit", op.name()), imp.name, || {
                execute(op, TaskType::Fit, imp.index, &cfg, &[black_box(&data)]).unwrap()
            });
        }
    }
    b.run("codec", "encode", || hyppo_core::codec::encode(black_box(&data)));
    let bytes = hyppo_core::codec::encode(&data);
    b.run("codec", "decode", || hyppo_core::codec::decode(black_box(&bytes)).unwrap());
}

fn main() {
    let full = std::env::args().any(|a| a == "--bench");
    let mut bench = Bench { full, samples: 10, results: Vec::new() };
    bench_hypergraph(&mut bench);
    bench_ml(&mut bench);

    if full {
        let report = BenchReport {
            benchmark: "kernels".to_string(),
            host_cpus: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            sample_seconds: SAMPLE_SECONDS,
            results: bench.results,
        };
        let json = serde_json::to_string_pretty(&report).expect("serialize report");
        // Anchor at the workspace root regardless of cargo's bench CWD.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
        std::fs::write(path, json).expect("write BENCH_kernels.json");
        println!("kernels: wrote {path}");
    }
}
