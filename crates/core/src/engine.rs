//! The submission engine (§IV-A): plan, execute and commit as plain
//! functions over the parts each step touches.
//!
//! [`Hyppo`](crate::Hyppo) calls them on its own fields. The concurrent
//! `SharedHyppo` (`hyppo-runtime`) calls the same functions on an epoch
//! snapshot and inside its catalog commit, and its wavefront workers run
//! [`execute_edge`](crate::executor::execute_edge). No step exists twice,
//! so a fix to planning, commit or durability reaches both drivers.

use crate::augment::{self, annotate_costs, Augmentation};
use crate::durable::{DurabilityHook, DurableEvent};
use crate::estimator::CostEstimator;
use crate::executor::ExecOutcome;
use crate::history::History;
use crate::materialize::{MaterializeConfig, MaterializeReport, Materializer};
use crate::monitor::record_outcome;
use crate::optimizer::batch::{BatchItem, BatchPlanStats};
use crate::optimizer::bounds::PlannerBoundsCache;
use crate::optimizer::{Plan, PlanRequest, Planner};
use crate::store::ArtifactStorage;
use crate::system::{HyppoConfig, RunReport, SubmitError};
use hyppo_pipeline::{ArtifactName, Pipeline};
use std::sync::Arc;
use std::time::Instant;

/// Annotate `aug` with estimated costs and plan it through the shared
/// bounds cache. The costs are returned too: they are Simulated mode's
/// clock.
pub fn plan_augmentation(
    aug: &Augmentation,
    estimator: &CostEstimator,
    store: &impl ArtifactStorage,
    search: &Planner,
    bounds_cache: &Arc<PlannerBoundsCache>,
) -> Result<(Vec<f64>, Plan), SubmitError> {
    let costs = annotate_costs(aug, estimator, store);
    let plan = search
        .clone()
        .bounds_cache(Arc::clone(bounds_cache))
        .plan(
            &aug.graph,
            PlanRequest::new(&costs, aug.source, &aug.targets).with_new_tasks(&aug.new_tasks),
        )
        .ok_or(SubmitError::NoPlan)?;
    Ok((costs, plan))
}

/// K submissions planned jointly against one catalog snapshot.
#[derive(Debug)]
pub struct PlannedBatch {
    /// Per-item augmentations, in submission order.
    pub augs: Vec<Augmentation>,
    /// Per-item edge costs.
    pub costs: Vec<Vec<f64>>,
    /// Per-item plans.
    pub plans: Vec<Plan>,
    /// Planner-side batch statistics.
    pub stats: BatchPlanStats,
    /// Heads of plan edges two or more plans share (the joint
    /// materialization decision).
    pub shared_artifacts: Vec<ArtifactName>,
    /// Each item's share of the batch's optimization seconds.
    pub optimize_share: f64,
}

/// Augment and annotate every pipeline against one snapshot
/// (`history`, `estimator`), plan them together via
/// [`Planner::plan_batch`], and split the optimization time since
/// `opt_start` evenly across items. One unplannable item fails the whole
/// batch with [`SubmitError::NoPlan`]. `pipelines` must be non-empty.
pub fn plan_batch(
    pipelines: &[Pipeline],
    history: &History,
    estimator: &CostEstimator,
    store: &impl ArtifactStorage,
    config: &HyppoConfig,
    bounds_cache: &Arc<PlannerBoundsCache>,
    opt_start: Instant,
) -> Result<PlannedBatch, SubmitError> {
    let augs: Vec<Augmentation> = pipelines
        .iter()
        .map(|p| augment::augment(p, history, &config.dictionary, config.augment))
        .collect();
    let costs: Vec<Vec<f64>> = augs.iter().map(|a| annotate_costs(a, estimator, store)).collect();
    let planner = config.search.clone().bounds_cache(Arc::clone(bounds_cache));
    let items: Vec<BatchItem<'_, _, _>> = augs
        .iter()
        .zip(&costs)
        .map(|(a, c)| {
            BatchItem::new(
                &a.graph,
                PlanRequest::new(c, a.source, &a.targets).with_new_tasks(&a.new_tasks),
            )
        })
        .collect();
    let batch = planner.plan_batch(&items);
    drop(items);
    let plans: Vec<Plan> = batch
        .plans
        .iter()
        .map(|p| p.clone().ok_or(SubmitError::NoPlan))
        .collect::<Result<_, _>>()?;
    let graph = &augs[0].graph;
    let shared_artifacts: Vec<ArtifactName> = batch
        .shared_edges
        .iter()
        .filter(|e| e.index() < graph.edge_bound())
        .flat_map(|&e| graph.edge_ref(e).head.iter())
        .map(|&n| graph.node(n).name)
        .collect();
    let optimize_share = opt_start.elapsed().as_secs_f64() / augs.len() as f64;
    Ok(PlannedBatch { augs, costs, plans, stats: batch.stats, shared_artifacts, optimize_share })
}

/// Absorb an executed outcome into the catalog: record it into history
/// and estimator, journal the estimator observations, and run one
/// materialization round under the budget (none when the budget is 0).
///
/// The history journals its own mutations; estimator state lives outside
/// it, so this is the one place that mirrors observations into the durable
/// stream. Their order relative to the history events is free — the two
/// replay into disjoint state.
pub fn commit_outcome(
    aug: &Augmentation,
    outcome: &ExecOutcome,
    history: &mut History,
    estimator: &mut CostEstimator,
    store: &mut impl ArtifactStorage,
    config: &HyppoConfig,
) -> MaterializeReport {
    let target_names: Vec<ArtifactName> =
        aug.targets.iter().map(|&t| aug.graph.node(t).name).collect();
    record_outcome(aug, outcome, &target_names, history, estimator);
    if history.journal_enabled() {
        for m in outcome.metrics.iter().filter(|m| !m.is_load) {
            history.journal_event(DurableEvent::Observe {
                op: m.op,
                task: m.task,
                impl_index: m.impl_index,
                input_cells: m.input_cells,
                seconds: m.cost_seconds,
            });
        }
    }
    if config.budget_bytes == 0 {
        return MaterializeReport::default();
    }
    Materializer::new(MaterializeConfig {
        budget_bytes: config.budget_bytes,
        locality: config.locality,
    })
    .run(history, store, estimator, &outcome.artifacts)
}

/// The [`RunReport`] of one committed submission.
pub fn run_report(
    aug: &Augmentation,
    plan: &Plan,
    outcome: &ExecOutcome,
    optimize_seconds: f64,
    materialized: &MaterializeReport,
) -> RunReport {
    RunReport {
        planned_cost: plan.cost,
        execution_seconds: outcome.total_seconds,
        optimize_seconds,
        tasks_executed: outcome.metrics.len(),
        loads: outcome.metrics.iter().filter(|m| m.is_load).count(),
        new_tasks: aug.new_tasks.len(),
        expansions: plan.expansions,
        pops: plan.pops,
        stored: materialized.stored.len(),
        evicted: materialized.evicted.len(),
        values: aug
            .targets
            .iter()
            .map(|&t| aug.graph.node(t).name)
            .filter_map(|n| outcome.value(n).map(|v| (n, v)))
            .collect(),
    }
}

/// Drain the history's journaled events into `hook`.
///
/// On a failed append the events go back to the front of the journal, so
/// the next successful drain appends them, in order, ahead of anything
/// journaled since: the log never skips an event whose effect is already
/// in memory. A failed append should leave nothing of its batch behind,
/// or the retry logs part of it twice.
pub fn drain_journal(history: &mut History, hook: &mut dyn DurabilityHook) -> std::io::Result<()> {
    let events = history.take_events();
    if events.is_empty() {
        return Ok(());
    }
    let appended = hook.append(&events);
    if appended.is_err() {
        history.requeue_events(events);
    }
    appended
}
