//! HYPPO's benchmark: the paper's iterative session (`explore`), its
//! retrieval of earlier artifacts (`retrieve`), and multi-tenant serving
//! (`serve`), each reporting end-to-end metrics untraced and a per-layer
//! split traced. See README.md for why each workload exists and which
//! layer metric should move which end-to-end metric.

pub mod guard;
pub mod inputs;
pub mod layers;
pub mod phases;
pub mod report;
pub mod serial;
pub mod serve;

use std::time::Duration;

/// What one invocation runs.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Whether to add the traced per-layer run.
    pub trace: bool,
}
