//! Seeded input generation. Everything the program receives — datasets,
//! pipeline specs, retrieval requests — is derived here from the run's
//! `--seed`, so one seed always gives the same inputs.

use hyppo::ml::TaskType;
use hyppo::pipeline::{ArtifactName, PipelineSpec};
use hyppo::tensor::{Dataset, SeededRng};
use hyppo::workloads::generator::{generate_sequence, PipelineTemplate, SequenceConfig, UseCase};
use hyppo::workloads::{higgs, taxi};

/// HIGGS rows of the `explore` and `retrieve` datasets: the paper
/// experiments' default laptop scale (`hyppo-bench` `ExperimentScale`).
pub const HIGGS_ROWS: usize = 4000;
/// TAXI rows at the same scale (keeps the HIGGS:TAXI cell ratio ≈ 2.2:1).
pub const TAXI_ROWS: usize = 5200;
/// Rows of the `serve` datasets: the tiny tables the serving layer's own
/// traffic bench uses, so commit work rather than kernels dominates.
pub const SERVE_ROWS: usize = 150;

/// A 64-bit mix of `seed` and a stream index (splitmix64 finaliser), used
/// to give every session, tenant and stream its own seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z =
        seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The dataset id a use case registers under.
pub fn dataset_id(use_case: UseCase) -> &'static str {
    match use_case {
        UseCase::Higgs => "higgs",
        UseCase::Taxi => "taxi",
    }
}

/// Both use cases' datasets at `rows = (higgs, taxi)`.
pub fn datasets(seed: u64, rows: (usize, usize)) -> [(UseCase, Dataset); 2] {
    [
        (UseCase::Higgs, higgs::generate(rows.0, mix(seed, 1))),
        (UseCase::Taxi, taxi::generate(rows.1, mix(seed, 2))),
    ]
}

/// The use case of the `k`-th session or stream item: strictly
/// alternating, so every run mixes both use cases evenly.
pub fn use_case_of(k: u64) -> UseCase {
    if k.is_multiple_of(2) {
        UseCase::Higgs
    } else {
        UseCase::Taxi
    }
}

/// Seed of the fixed pool that `explore` sessions, `retrieve` histories
/// and request blocks, and `serve` tenants draw their edit-model sequences
/// and requests from. The pool is fixed so that every run times the same
/// operation mix: the model a sequence happens to draw, or whether a
/// request hits a materialized artifact, changes an operation's cost many
/// times over, and a run holds too few operations to average that out.
/// The run's seed varies the datasets and the train/test split instead.
pub const POOL_SEED: u64 = 0x5EED_0001;

/// Sequence `k` of the fixed pool: an edit-model sequence
/// (`workloads::generator`) of `n` pipelines over `use_case`, with its
/// train/test split drawn from `seed`.
pub fn pool_sequence(use_case: UseCase, n: usize, k: u64, seed: u64) -> Vec<PipelineTemplate> {
    let mut seq = generate_sequence(&SequenceConfig {
        use_case,
        dataset_id: dataset_id(use_case).to_string(),
        n_pipelines: n,
        seed: mix(POOL_SEED, k),
    });
    let split_seed = (mix(seed, 3) % 1000) as i64;
    for t in &mut seq {
        t.split_seed = split_seed;
    }
    seq
}

/// A `retrieve` request: artifact names plus how many of them are
/// evaluation values (each must come back as a finite number).
#[derive(Clone, Debug)]
pub struct Request {
    /// Distinct artifact names to retrieve.
    pub names: Vec<ArtifactName>,
    /// Requested names that are evaluation results.
    pub values: usize,
}

/// Artifacts of one history pipeline that a user may ask back for.
#[derive(Clone, Debug)]
pub struct Pickable {
    models: Vec<ArtifactName>,
    others: Vec<(ArtifactName, bool)>,
}

impl Pickable {
    /// Every non-load output of `spec`, split into fitted models and the
    /// rest (data, op-states, predictions, values).
    pub fn of(spec: &PipelineSpec) -> Self {
        let names = spec.output_names();
        let mut out = Pickable { models: Vec::new(), others: Vec::new() };
        for (step, outs) in spec.steps.iter().zip(&names) {
            if step.task == TaskType::Load {
                continue; // raw data retrieval is trivial
            }
            for &name in outs {
                if step.task == TaskType::Fit && step.op.is_model() {
                    out.models.push(name);
                } else {
                    out.others.push((name, step.task == TaskType::Evaluate));
                }
            }
        }
        out
    }
}

/// Request sizes of paper Figs. 7–8.
pub const REQUEST_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Draw one request over `history`: a size from [`REQUEST_SIZES`], then
/// distinct targets, each a model or another artifact with equal odds.
pub fn request(history: &[Pickable], rng: &mut SeededRng) -> Request {
    let size = REQUEST_SIZES[rng.index(REQUEST_SIZES.len())];
    let mut req = Request { names: Vec::with_capacity(size), values: 0 };
    while req.names.len() < size {
        let p = &history[rng.index(history.len())];
        let (name, is_value) = if rng.chance(0.5) && !p.models.is_empty() {
            (p.models[rng.index(p.models.len())], false)
        } else {
            p.others[rng.index(p.others.len())]
        };
        if !req.names.contains(&name) {
            req.names.push(name);
            req.values += usize::from(is_value);
        }
    }
    req
}
