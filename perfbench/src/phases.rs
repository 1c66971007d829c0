//! The phase-by-phase runner behind the traced runs.
//!
//! [`run_traced`] performs one `Hyppo::submit`/`Hyppo::retrieve` through
//! the same public calls, in the same order, that the facade makes —
//! `build_pipeline`, `augment`/`augment_request`, `annotate_costs`,
//! `Planner::plan` (with the system's shared bounds cache),
//! `execute_plan`, `record_outcome`, `Materializer::run` and
//! `flush_durability` — and records a span around each call. No library
//! code is instrumented. `tests/equivalence.rs` proves the runner yields
//! the facade's reports and catalog, so its spans time the program rather
//! than a fork of it.

use hyppo::core::augment::{self, annotate_costs};
use hyppo::core::monitor::record_outcome;
use hyppo::core::system::SubmitError;
use hyppo::core::{
    execute_plan, DurableEvent, Hyppo, MaterializeConfig, Materializer, PlanRequest, RunReport,
};
use hyppo::pipeline::{build_pipeline, ArtifactName, PipelineSpec};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One operation of a serial session.
#[derive(Clone, Debug)]
pub enum Op {
    /// Scenario 1: submit a pipeline.
    Submit(PipelineSpec),
    /// Scenario 2: retrieve earlier artifacts by name.
    Retrieve(Vec<ArtifactName>),
}

/// Run `op` through the facade, untraced.
pub fn run(sys: &mut Hyppo, op: Op) -> Result<RunReport, SubmitError> {
    match op {
        Op::Submit(spec) => sys.submit(spec),
        Op::Retrieve(names) => sys.retrieve(&names),
    }
}

/// Span totals (seconds) and counters summed over traced operations.
#[derive(Clone, Debug, Default)]
pub struct Phases {
    /// Traced operations.
    pub ops: u64,
    /// Wall seconds of the traced operations, end to end.
    pub wall: f64,
    /// `build_pipeline`.
    pub build: f64,
    /// `augment` / `augment_request`.
    pub augment: f64,
    /// `annotate_costs`.
    pub annotate: f64,
    /// `Planner::plan`.
    pub plan: f64,
    /// `execute_plan`.
    pub execute: f64,
    /// `record_outcome` plus the estimator-observation journaling.
    pub record: f64,
    /// `Materializer::run`.
    pub materialize: f64,
    /// `flush_durability`.
    pub flush: f64,
    /// Kernel seconds the executor reported (non-load tasks).
    pub compute: f64,
    /// Load seconds the executor reported (measured decode plus the
    /// store's modelled IO).
    pub load: f64,
    /// Executed tasks.
    pub tasks: u64,
    /// Hyperedges of the augmented graphs.
    pub edges: u64,
    /// Plan-search expansions.
    pub expansions: u64,
    /// Plan-search queue pops.
    pub pops: u64,
    /// Artifacts stored by materialization rounds.
    pub stored: u64,
    /// Artifacts evicted by materialization rounds.
    pub evicted: u64,
    /// Per operation: the share of its wall time its spans cover.
    pub coverage: Vec<f64>,
}

impl Phases {
    /// Sum of the spans: the share of `wall` the trace accounts for.
    pub fn spans(&self) -> f64 {
        self.build
            + self.augment
            + self.annotate
            + self.plan
            + self.execute
            + self.record
            + self.materialize
            + self.flush
    }
}

fn span<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// Run `op` phase by phase, adding each call's span to `ph`. Mirrors
/// `Hyppo::submit`/`retrieve` (`core/system.rs`) call for call.
pub fn run_traced(sys: &mut Hyppo, op: Op, ph: &mut Phases) -> Result<RunReport, SubmitError> {
    let spans_before = ph.spans();
    let op_start = Instant::now();
    let result = traced(sys, op, ph);
    let wall = op_start.elapsed().as_secs_f64();
    ph.ops += 1;
    ph.wall += wall;
    ph.coverage.push((ph.spans() - spans_before) / wall);
    result
}

fn traced(sys: &mut Hyppo, op: Op, ph: &mut Phases) -> Result<RunReport, SubmitError> {
    let opt_start = Instant::now();
    let aug = match op {
        Op::Submit(spec) => {
            let pipeline = span(&mut ph.build, || build_pipeline(spec));
            span(&mut ph.augment, || {
                augment::augment(
                    &pipeline,
                    &sys.history,
                    &sys.config.dictionary,
                    sys.config.augment,
                )
            })
        }
        Op::Retrieve(names) => span(&mut ph.augment, || {
            augment::augment_request(&sys.history, &names).ok_or(SubmitError::NoPlan)
        })?,
    };
    ph.edges += aug.graph.edge_count() as u64;
    let costs = span(&mut ph.annotate, || annotate_costs(&aug, &sys.estimator, &sys.store));
    let plan = span(&mut ph.plan, || {
        sys.config.search.clone().bounds_cache(Arc::clone(&sys.bounds_cache)).plan(
            &aug.graph,
            PlanRequest::new(&costs, aug.source, &aug.targets).with_new_tasks(&aug.new_tasks),
        )
    })
    .ok_or(SubmitError::NoPlan)?;
    let optimize_seconds = opt_start.elapsed().as_secs_f64();
    ph.expansions += plan.expansions as u64;
    ph.pops += plan.pops as u64;

    let outcome = span(&mut ph.execute, || {
        execute_plan(&aug, &plan.edges, &sys.store, sys.config.mode, &costs)
    })?;
    for m in &outcome.metrics {
        if m.is_load {
            ph.load += m.cost_seconds;
        } else {
            ph.compute += m.cost_seconds;
        }
    }
    ph.tasks += outcome.metrics.len() as u64;

    let target_names: Vec<ArtifactName> =
        aug.targets.iter().map(|&t| aug.graph.node(t).name).collect();
    span(&mut ph.record, || {
        record_outcome(&aug, &outcome, &target_names, &mut sys.history, &mut sys.estimator);
        if sys.history.journal_enabled() {
            for m in &outcome.metrics {
                if !m.is_load {
                    sys.history.journal_event(DurableEvent::Observe {
                        op: m.op,
                        task: m.task,
                        impl_index: m.impl_index,
                        input_cells: m.input_cells,
                        seconds: m.cost_seconds,
                    });
                }
            }
        }
    });

    let report_mat = span(&mut ph.materialize, || {
        if sys.config.budget_bytes > 0 {
            Materializer::new(MaterializeConfig {
                budget_bytes: sys.config.budget_bytes,
                locality: sys.config.locality,
            })
            .run(&mut sys.history, &mut sys.store, &sys.estimator, &outcome.artifacts)
        } else {
            Default::default()
        }
    });
    ph.stored += report_mat.stored.len() as u64;
    ph.evicted += report_mat.evicted.len() as u64;

    sys.cumulative_seconds += outcome.total_seconds;
    span(&mut ph.flush, || sys.flush_durability()).map_err(SubmitError::Durability)?;
    let values: HashMap<ArtifactName, f64> =
        target_names.iter().filter_map(|&n| outcome.value(n).map(|v| (n, v))).collect();
    Ok(RunReport {
        planned_cost: plan.cost,
        execution_seconds: outcome.total_seconds,
        optimize_seconds,
        tasks_executed: outcome.metrics.len(),
        loads: outcome.metrics.iter().filter(|m| m.is_load).count(),
        new_tasks: aug.new_tasks.len(),
        expansions: plan.expansions,
        pops: plan.pops,
        stored: report_mat.stored.len(),
        evicted: report_mat.evicted.len(),
        values,
    })
}
