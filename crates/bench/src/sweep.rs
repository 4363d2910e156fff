//! The parallel experiment sweep runner.
//!
//! The paper's evaluation is a cartesian product: workflows × sizing methods
//! (× seeds × scheduling policies, now that the simulator has a real
//! scheduler). Each cell of that product is an independent replay, so the
//! sweep fans the cells out across the [`sizey_ml::parallel`] thread pool
//! and collects one flat table — replacing the serial per-bin loops that
//! used to walk the product one replay at a time.
//!
//! The product is described by an [`ExperimentSpec`], and its public entry
//! points are that spec's [`run`](ExperimentSpec::run) and
//! [`run_checkpointed`](ExperimentSpec::run_checkpointed), which validate
//! before anything here runs. Methods are described by [`MethodSpec`]s (the
//! config-driven registry), not names: a sweep over two differently
//! configured Sizey variants is as natural as the paper's six-method
//! comparison, and every cell can hand back the trained predictor's
//! [`PredictorState`] for the checkpoint directory of the spec-driven
//! `experiment` binary.

use crate::experiment::ExperimentSpec;
use crate::recovery::RecoveryTracker;
use crate::registry::MethodSpec;
use sizey_ml::parallel::{default_parallelism, parallel_map};
use sizey_provenance::TaskRecord;
use sizey_sim::{
    replay_workflow_streaming, schedule_workflows_streaming, AttemptContext, AttemptSink,
    CheckpointPredictor, MemoryPredictor, NullRecordSink, NullSink, Prediction, PredictorState,
    SchedulePolicy, StreamingTenant, TaskSubmission,
};
use sizey_workflows::{stream_workflow, workflow_by_name, GeneratorConfig};
use std::sync::{Arc, Mutex};

/// Result of one sweep cell: one workflow replayed with one method under one
/// policy and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Workflow name.
    pub workflow: String,
    /// Sizing method.
    pub method: MethodSpec,
    /// Workload seed.
    pub seed: u64,
    /// Scheduling policy.
    pub policy: SchedulePolicy,
    /// Total memory wastage in GBh.
    pub wastage_gbh: f64,
    /// Number of failed attempts.
    pub failures: usize,
    /// Instances that never finished.
    pub unfinished: usize,
    /// Simulated makespan in hours.
    pub makespan_hours: f64,
    /// Mean queue delay per attempt in seconds.
    pub mean_queue_delay_seconds: f64,
    /// Total task runtime in hours.
    pub runtime_hours: f64,
    /// Seconds from the drift changepoint until the method's rolling wastage
    /// re-entered its pre-drift band ([`f64::INFINITY`] = never recovered).
    /// `None` when the experiment has no [`ExperimentSpec::drift`] axis.
    pub time_to_recover_seconds: Option<f64>,
    /// Attempts requeued by injected faults without consuming retry budget.
    pub requeued_attempts: usize,
    /// Retry-ledger entries still marked in flight at the end of the replay;
    /// must stay 0 even when faults strand attempts mid-run.
    pub leaked_inflight_retries: usize,
}

/// Shares one cell's checkpoint predictor with the multi-tenant engine.
/// Faults and a submission cadence exist only in the event-driven engine
/// (the sequential replay is untimed), so such a cell runs its workflow as
/// the sole tenant of [`schedule_workflows_streaming`]; the tenant consumes
/// its predictor box, so the cell keeps the real one behind this handle and
/// unwraps it after the run for checkpointing.
struct SharedCellPredictor(Arc<Mutex<Box<dyn CheckpointPredictor>>>);

impl MemoryPredictor for SharedCellPredictor {
    fn name(&self) -> String {
        self.0.lock().expect("cell predictor lock").name()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        self.0
            .lock()
            .expect("cell predictor lock")
            .predict(task, ctx)
    }

    fn observe(&mut self, record: &TaskRecord) {
        self.0.lock().expect("cell predictor lock").observe(record)
    }
}

/// Replays one sweep cell and returns its result row plus the trained
/// predictor (for checkpointing).
fn run_cell(
    spec: &ExperimentSpec,
    workflow: &str,
    method: &MethodSpec,
    seed: u64,
    policy: SchedulePolicy,
) -> (SweepCell, Box<dyn CheckpointPredictor>) {
    let wf_spec = workflow_by_name(workflow).expect("a validated spec names known workflows");
    let sim = spec.sim.clone().with_policy(policy);
    let generator = GeneratorConfig {
        scale: spec.scale,
        seed,
        drift: spec.drift,
        ..GeneratorConfig::default()
    };
    let mut tracker = spec
        .drift
        .map(|drift| RecoveryTracker::with_defaults(drift.changepoint));
    // Attempt events feed the recovery tracker when the spec has a drift
    // axis, and go nowhere otherwise.
    let mut null = NullSink;
    let sink: &mut dyn AttemptSink = match tracker.as_mut() {
        Some(tracker) => tracker,
        None => &mut null,
    };
    let faulted = sim.faults.as_ref().is_some_and(|plan| !plan.is_empty());
    let timed = sim.submit_interval_seconds > 0.0;
    let (aggregates, requeued, leaked, predictor) = if faulted || timed || spec.drift.is_some() {
        // Faults and a submission cadence need the event-driven engine's
        // virtual clock, and so do drift cells: the untimed replay starts
        // every first attempt at t=0, which would collapse the
        // time-to-recover axis to zero. Run the workflow as the sole tenant
        // and hand the shared predictor back out afterwards.
        let shared: Arc<Mutex<Box<dyn CheckpointPredictor>>> = Arc::new(Mutex::new(method.build()));
        let tenant = StreamingTenant::new(
            workflow.to_string(),
            stream_workflow(&wf_spec, &generator),
            Box::new(SharedCellPredictor(Arc::clone(&shared))),
        );
        let result = schedule_workflows_streaming(vec![tenant], &sim, sink, &mut NullRecordSink);
        let report = result
            .reports
            .into_iter()
            .next()
            .expect("one tenant, one report");
        let predictor = match Arc::try_unwrap(shared) {
            Ok(mutex) => mutex.into_inner().expect("cell predictor lock"),
            Err(_) => unreachable!("the engine dropped its tenants"),
        };
        (
            report.aggregates,
            result.stats.requeued_attempts,
            result.stats.leaked_inflight_retries,
            predictor,
        )
    } else {
        let mut predictor = method.build();
        // Streaming replay: instances are generated lazily and attempt events
        // fold into the aggregates online, so a cell's memory is bounded by
        // the in-flight working set — the differential suite pins the
        // aggregates bit-identical to the materialised replay's.
        let report = replay_workflow_streaming(
            workflow,
            stream_workflow(&wf_spec, &generator),
            predictor.as_mut(),
            &sim,
            sink,
        );
        (report.aggregates, 0, 0, predictor)
    };
    let cell = SweepCell {
        workflow: workflow.to_string(),
        method: method.clone(),
        seed,
        policy,
        wastage_gbh: aggregates.total_wastage_gbh,
        failures: aggregates.failures as usize,
        unfinished: aggregates.unfinished_instances,
        makespan_hours: aggregates.makespan_seconds / 3600.0,
        mean_queue_delay_seconds: aggregates.mean_queue_delay_seconds(),
        runtime_hours: aggregates.total_runtime_hours(),
        time_to_recover_seconds: tracker.map(|t| t.time_to_recover_seconds()),
        requeued_attempts: requeued,
        leaked_inflight_retries: leaked,
    };
    (cell, predictor)
}

fn product(spec: &ExperimentSpec) -> Vec<(String, MethodSpec, u64, SchedulePolicy)> {
    let mut cells = Vec::with_capacity(spec.len());
    for wf in &spec.profiles {
        for method in &spec.methods {
            for &seed in &spec.seeds {
                for &policy in &spec.policies {
                    cells.push((wf.clone(), method.clone(), seed, policy));
                }
            }
        }
    }
    cells
}

/// Runs the sweep, fanning the cells out across `threads` workers. Results
/// come back in cartesian order: profiles-major, then methods, seeds,
/// policies.
fn run_sweep_with_threads(spec: &ExperimentSpec, threads: usize) -> Vec<SweepCell> {
    parallel_map(&product(spec), threads, |(wf, method, seed, policy)| {
        run_cell(spec, wf, method, *seed, *policy).0
    })
}

/// Runs the sweep of an already validated spec on the default thread pool.
pub(crate) fn run_sweep(spec: &ExperimentSpec) -> Vec<SweepCell> {
    run_sweep_with_threads(spec, default_parallelism())
}

/// Like [`run_sweep`], but each cell also hands back the trained predictor's
/// checkpoint (see [`sizey_sim::lifecycle`]): the state a later run restores
/// through [`MethodSpec::restore`] to warm-start from this cell's learned
/// models.
pub(crate) fn run_sweep_with_states(spec: &ExperimentSpec) -> Vec<(SweepCell, PredictorState)> {
    parallel_map(
        &product(spec),
        default_parallelism(),
        |(wf, method, seed, policy)| {
            let (cell, predictor) = run_cell(spec, wf, method, *seed, *policy);
            let state = predictor.snapshot();
            (cell, state)
        },
    )
}

/// One aggregated row of a sweep: a (method, policy) pair summed over
/// workflows and averaged over seeds.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Sizing method.
    pub method: MethodSpec,
    /// Scheduling policy.
    pub policy: SchedulePolicy,
    /// Mean (over seeds) of the total wastage across workflows, GBh.
    pub wastage_gbh: f64,
    /// Mean total failures.
    pub failures: f64,
    /// Mean of the summed per-workflow makespans, hours.
    pub makespan_hours: f64,
    /// Mean queue delay per attempt, seconds (averaged over cells).
    pub mean_queue_delay_seconds: f64,
}

/// Aggregates sweep cells into one row per (method, policy).
///
/// The rows come back in a **deterministic order** regardless of the cell
/// order: methods sort by [`MethodSpec::sort_key`] (the paper's figure
/// order, parameterisation as tiebreak) and policies by their position in
/// [`SchedulePolicy::ALL`] — so sweep tables diff cleanly across runs and
/// thread counts.
pub fn aggregate_sweep(cells: &[SweepCell]) -> Vec<SweepRow> {
    let mut order: Vec<(MethodSpec, SchedulePolicy)> = Vec::new();
    for cell in cells {
        if !order.contains(&(cell.method.clone(), cell.policy)) {
            order.push((cell.method.clone(), cell.policy));
        }
    }
    order.sort_by(|(method_a, policy_a), (method_b, policy_b)| {
        method_a.sort_key().cmp(&method_b.sort_key()).then(
            policy_a
                .comparison_order()
                .cmp(&policy_b.comparison_order()),
        )
    });
    order
        .into_iter()
        .map(|(method, policy)| {
            let group: Vec<&SweepCell> = cells
                .iter()
                .filter(|c| c.method == method && c.policy == policy)
                .collect();
            let seeds: Vec<u64> = {
                let mut s: Vec<u64> = group.iter().map(|c| c.seed).collect();
                s.sort_unstable();
                s.dedup();
                s
            };
            let n_seeds = seeds.len().max(1) as f64;
            let n_cells = group.len().max(1) as f64;
            SweepRow {
                method,
                policy,
                wastage_gbh: group.iter().map(|c| c.wastage_gbh).sum::<f64>() / n_seeds,
                failures: group.iter().map(|c| c.failures as f64).sum::<f64>() / n_seeds,
                makespan_hours: group.iter().map(|c| c.makespan_hours).sum::<f64>() / n_seeds,
                mean_queue_delay_seconds: group
                    .iter()
                    .map(|c| c.mean_queue_delay_seconds)
                    .sum::<f64>()
                    / n_cells,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_core::SizeyConfig;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            profiles: vec!["iwd".to_string()],
            methods: vec![MethodSpec::Preset],
            seeds: vec![3, 4],
            policies: vec![SchedulePolicy::FirstFit, SchedulePolicy::BestFit],
            scale: 0.02,
            ..ExperimentSpec::default()
        }
    }

    #[test]
    fn sweep_produces_one_cell_per_product_entry() {
        let spec = tiny_spec();
        let cells = run_sweep(&spec);
        assert_eq!(cells.len(), spec.len());
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|c| c.wastage_gbh >= 0.0));
        assert!(cells.iter().all(|c| c.unfinished == 0));
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let spec = tiny_spec();
        let serial = run_sweep_with_threads(&spec, 1);
        let parallel = run_sweep_with_threads(&spec, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sweep_states_checkpoint_each_cell_predictor() {
        let spec = ExperimentSpec {
            methods: vec![MethodSpec::Preset, MethodSpec::sizey_defaults()],
            seeds: vec![3],
            policies: vec![SchedulePolicy::FirstFit],
            ..tiny_spec()
        };
        let with_states = run_sweep_with_states(&spec);
        assert_eq!(with_states.len(), 2);
        // The cells match the plain sweep bit for bit.
        let plain = run_sweep(&spec);
        for ((cell, _), reference) in with_states.iter().zip(&plain) {
            assert_eq!(cell.method, reference.method);
            assert_eq!(cell.wastage_gbh, reference.wastage_gbh);
        }
        // The preset predictor is stateless; the Sizey cell journals every
        // attempt of the replay and restores bit-identically.
        let (preset_cell, preset_state) = &with_states[0];
        assert_eq!(preset_cell.method, MethodSpec::Preset);
        assert!(preset_state.journal.is_empty());
        let (sizey_cell, sizey_state) = &with_states[1];
        assert!(!sizey_state.journal.is_empty());
        let restored = sizey_cell.method.restore(sizey_state).unwrap();
        assert_eq!(restored.snapshot(), *sizey_state);
    }

    /// Regression: a `[sim] submit_interval_seconds` cadence used to be
    /// ignored unless the cell also had faults or drift, because only those
    /// went to the event-driven engine; the untimed replay started every
    /// instance at t = 0.
    #[test]
    fn submit_cadence_reaches_the_event_driven_engine() {
        let mut spec = ExperimentSpec {
            seeds: vec![3],
            policies: vec![SchedulePolicy::FirstFit],
            ..tiny_spec()
        };
        spec.sim.submit_interval_seconds = 600.0;
        let instances = stream_workflow(
            &workflow_by_name("iwd").unwrap(),
            &GeneratorConfig::scaled(spec.scale, 3),
        )
        .count();
        let cells = run_sweep(&spec);
        let last_arrival = (instances - 1) as f64 * 600.0;
        assert!(
            cells[0].makespan_hours * 3600.0 >= last_arrival,
            "makespan {} h ends before the last arrival at {last_arrival} s",
            cells[0].makespan_hours
        );
    }

    #[test]
    fn aggregate_groups_by_method_and_policy() {
        let spec = tiny_spec();
        let cells = run_sweep(&spec);
        let rows = aggregate_sweep(&cells);
        assert_eq!(rows.len(), 2, "one row per (method, policy)");
        for row in &rows {
            assert_eq!(row.method, MethodSpec::Preset);
            assert!(row.wastage_gbh > 0.0);
        }
    }

    /// Satellite regression: aggregate rows used to come back in
    /// first-encounter order, so reordering the cells (e.g. a different
    /// sweep nesting) reordered the table. The order is now pinned to
    /// (figure order, parameter tiebreak, policy order) regardless of the
    /// cell order.
    #[test]
    fn aggregate_order_is_deterministic_and_pinned() {
        fn cell(method: MethodSpec, policy: SchedulePolicy) -> SweepCell {
            SweepCell {
                workflow: "iwd".to_string(),
                method,
                seed: 1,
                policy,
                wastage_gbh: 1.0,
                failures: 0,
                unfinished: 0,
                makespan_hours: 1.0,
                mean_queue_delay_seconds: 0.0,
                runtime_hours: 1.0,
                time_to_recover_seconds: None,
                requeued_attempts: 0,
                leaked_inflight_retries: 0,
            }
        }
        let alpha_sizey = MethodSpec::Sizey(SizeyConfig::default().with_alpha(0.5));
        // Deliberately scrambled: presets before Sizey, best-fit before
        // first-fit, the non-default Sizey variant before the default.
        let cells = vec![
            cell(MethodSpec::Preset, SchedulePolicy::BestFit),
            cell(alpha_sizey.clone(), SchedulePolicy::FirstFit),
            cell(MethodSpec::Preset, SchedulePolicy::FirstFit),
            cell(MethodSpec::sizey_defaults(), SchedulePolicy::FirstFit),
            cell(
                MethodSpec::WittPercentile(Default::default()),
                SchedulePolicy::FirstFit,
            ),
        ];
        let rows = aggregate_sweep(&cells);
        let order: Vec<(String, &str)> = rows
            .iter()
            .map(|r| {
                (
                    format!(
                        "{}(α={})",
                        r.method.name(),
                        matches!(&r.method, MethodSpec::Sizey(c) if c.alpha > 0.0) as u8
                    ),
                    r.policy.name(),
                )
            })
            .collect();
        assert_eq!(
            order,
            vec![
                ("Sizey(α=0)".to_string(), "first-fit"),
                ("Sizey(α=1)".to_string(), "first-fit"),
                ("Witt-Percentile(α=0)".to_string(), "first-fit"),
                ("Workflow-Presets(α=0)".to_string(), "first-fit"),
                ("Workflow-Presets(α=0)".to_string(), "best-fit"),
            ]
        );
        // Reversing the cells must not change the row order.
        let mut reversed = cells;
        reversed.reverse();
        let rows_reversed = aggregate_sweep(&reversed);
        for (a, b) in rows.iter().zip(&rows_reversed) {
            assert_eq!(a.method, b.method);
            assert_eq!(a.policy, b.policy);
        }
    }
}
