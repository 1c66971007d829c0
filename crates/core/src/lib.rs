//! HYPPO core: the Hypergraph Pipeline Optimizer (Kontaxakis et al.,
//! ICDE 2024).
//!
//! The crate implements the system of the paper's §IV:
//!
//! - [`history`] — the history hypergraph `H`, a *dual cache* archiving
//!   every task and artifact observed across pipeline executions, with
//!   pointers to materialized copies;
//! - [`mod@augment`] — the augmenter, which enriches a submitted pipeline `P`
//!   with the equivalent alternatives recorded in `H` (and with the
//!   dictionary's alternative physical implementations), yielding the
//!   augmentation `A`;
//! - [`optimizer`] — the plan generator: the exact `OPTIMIZE`/`EXPAND`
//!   backward search (Algorithms 1–2) with LIFO-stack and priority-queue
//!   frontiers, the linear-time greedy variant, and the
//!   exploration/exploitation knob `c_exp`;
//! - [`cost`] / [`estimator`] — the cost model (time and money) and the
//!   bucketed-statistics cost estimator;
//! - [`executor`] — plan execution against the ML substrate (real
//!   computation) or against the cost model (simulated clock);
//! - [`monitor`] — execution tracing feeding the estimator and history;
//! - [`materialize`] — the Problem-2 materializer: greedy selection by
//!   `pl(v) × gain(v)` under a storage budget, with eviction;
//! - [`store`] — the artifact store backing materialization, with a
//!   bandwidth-modelled load cost;
//! - [`durable`] — the durable event vocabulary and [`durable::DurabilityHook`]
//!   trait behind the `hyppo-persist` write-ahead log;
//! - [`engine`] — the submission engine: planning one augmentation or a
//!   batch, committing an executed outcome, assembling the report, and
//!   draining the journal, shared by both session drivers;
//! - [`system`] — the [`system::Hyppo`] facade tying everything together:
//!   `submit(spec) → augment → optimize → execute → record → materialize`.

#![deny(missing_docs)]

pub mod augment;
pub mod codec;
pub mod cost;
pub mod durable;
pub mod engine;
pub mod estimator;
pub mod executor;
pub mod explain;
pub mod history;
pub mod materialize;
pub mod monitor;
pub mod optimizer;
pub mod persist;
pub mod session;
pub mod store;
pub mod system;

pub use augment::{augment, Augmentation};
pub use cost::PriceModel;
pub use durable::{replay_event, replay_events, DurabilityHook, DurableEvent};
pub use estimator::CostEstimator;
pub use executor::{execute_plan, ExecMode, ExecOutcome};
pub use explain::{explain, Explanation};
pub use history::History;
pub use materialize::{MaterializeConfig, Materializer, PlanLocality};
pub use optimizer::batch::{BatchItem, BatchPlan, BatchPlanStats};
pub use optimizer::bounds::{BoundsCacheStats, PlannerBounds, PlannerBoundsCache};
pub use optimizer::{Plan, PlanRequest, Planner, QueueKind};
pub use persist::{atomic_write, StoreLoadError, StoreLoadReport};
pub use session::Session;
pub use store::{ArtifactStorage, ArtifactStore};
pub use system::{BatchRunReport, Hyppo, HyppoConfig, RunReport};
