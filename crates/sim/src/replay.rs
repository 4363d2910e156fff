//! The online replay engine.
//!
//! The engine replays the task instances of a workflow in submission order
//! against a [`MemoryPredictor`], exactly like the paper's simulated online
//! environment: the predictor sizes each attempt, the engine checks the
//! allocation against the ground-truth peak under strict limits (assumption
//! A3), failed attempts cost `time_to_failure × runtime` and are retried with
//! the predictor's own failure-handling policy, and every finished attempt is
//! fed back to the predictor as a provenance record for online learning.
//! That per-attempt rule is the crate's one private attempt model, which the
//! event-driven engine in [`scheduler`](crate::scheduler) costs its attempts
//! with too.
//!
//! The replay is untimed, like the paper's (assumption A2 puts scheduling
//! out of scope): nothing queues, so a first attempt starts at t = 0 and a
//! retry when its failed predecessor finishes, every attempt with zero queue
//! delay and every record with zero concurrent tasks. The makespan is the
//! end of the latest attempt. Queueing, placement and contention belong to
//! the event-driven engine in [`scheduler`](crate::scheduler). The
//! allocation *decisions* — and with them wastage and failure counts, the
//! paper's Fig. 8 aggregates — depend only on the strict per-instance
//! predict→observe sequence, so of the cluster only the largest node (the
//! allocation clamp) matters here.

use crate::accounting::{AttemptEvent, AttemptSink, ReplayAggregates, ReplayReport};
use crate::attempt::Attempt;
pub use crate::attempt::MIN_ALLOCATION_BYTES;
use crate::config::SimulationConfig;
use crate::predictor::{AttemptContext, MemoryPredictor, TaskSubmission};
use sizey_workflows::TaskInstance;
use std::borrow::Borrow;

/// Replays one workflow against one sizing method and keeps every attempt
/// event in the report.
///
/// All first attempts start at virtual time zero in instance order (the
/// paper replays a finished trace, not a timed arrival process); a retry
/// starts when its failed predecessor finishes. The report's makespan is
/// therefore the longest retry chain.
///
/// This is [`replay_workflow_streaming`] with a collecting sink: both entry
/// points return the same [`ReplayReport`], aggregates included.
pub fn replay_workflow(
    workflow: &str,
    instances: &[TaskInstance],
    predictor: &mut dyn MemoryPredictor,
    config: &SimulationConfig,
) -> ReplayReport {
    let mut events: Vec<AttemptEvent> = Vec::with_capacity(instances.len());
    let mut report = replay_workflow_streaming(workflow, instances, predictor, config, &mut events);
    report.events = events;
    report
}

/// Replays one workflow, consuming instances lazily from any iterator (e.g.
/// a [`WorkflowStream`](sizey_workflows::WorkflowStream)), and folds every
/// attempt into the report's [`ReplayAggregates`] online.
///
/// The report retains **no** per-attempt events (`events` is empty), so
/// memory stays `O(#task_types)` however long the trace is. Each event is
/// offered to `sink` instead, in replay order: pass
/// [`NullSink`](crate::accounting::NullSink) to discard, a
/// `Vec<AttemptEvent>` to collect, or a closure to forward events to e.g. an
/// incremental trace writer.
///
/// ```
/// use sizey_sim::{replay_workflow_streaming, NullSink, PresetPredictor, SimulationConfig};
/// use sizey_workflows::{profiles, stream_workflow, GeneratorConfig};
///
/// let instances = stream_workflow(&profiles::iwd(), &GeneratorConfig::scaled(0.02, 1));
/// let config = SimulationConfig::default();
/// let report =
///     replay_workflow_streaming("iwd", instances, &mut PresetPredictor, &config, &mut NullSink);
/// assert!(report.events.is_empty());
/// assert_eq!(report.aggregates.unfinished_instances, 0);
/// assert!(report.total_wastage_gbh() > 0.0);
/// ```
pub fn replay_workflow_streaming<I>(
    workflow: &str,
    instances: I,
    predictor: &mut dyn MemoryPredictor,
    config: &SimulationConfig,
    sink: &mut dyn AttemptSink,
) -> ReplayReport
where
    I: IntoIterator,
    I::Item: Borrow<TaskInstance>,
{
    let largest_node = config.largest_node_memory_bytes();
    let mut aggregates = ReplayAggregates::new();

    for inst in instances {
        let inst = inst.borrow();
        let submission = TaskSubmission::from(inst);

        let mut attempt = 0u32;
        let mut finished = false;
        // First attempts arrive at time zero; retries arrive when the failed
        // attempt finishes.
        let mut submit_time = 0.0_f64;
        // Engine-owned retry state: the allocation the previous (failed)
        // attempt actually ran with. A stack local suffices here — the
        // sequential loop retires it with the instance, so terminal failures
        // cannot leak per-task entries anywhere.
        let mut last_allocation: Option<f64> = None;
        while attempt < config.max_attempts {
            let ctx = AttemptContext {
                attempt,
                last_allocation_bytes: last_allocation,
            };
            let prediction = predictor.predict(&submission, ctx);
            let run = Attempt::size(inst, &prediction, largest_node, config.time_to_failure);
            last_allocation = Some(run.allocation_bytes);

            let event = run.event(inst, attempt, submit_time, 0.0);
            aggregates.observe_event(&event);
            sink.record(&event);
            predictor.observe(&run.record(inst, workflow, 0, 0.0));

            if run.success {
                finished = true;
                break;
            }
            submit_time += run.duration_seconds;
            attempt += 1;
        }
        aggregates.observe_instance(finished);
    }

    ReplayReport {
        method: predictor.name(),
        workflow: workflow.to_string(),
        time_to_failure: config.time_to_failure,
        events: Vec::new(),
        instances: aggregates.instances,
        aggregates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{Prediction, PresetPredictor};
    use sizey_provenance::{MachineId, TaskOutcome, TaskRecord, TaskTypeId};

    fn instance(seq: u64, input: f64, peak: f64, runtime: f64, preset: f64) -> TaskInstance {
        TaskInstance {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: seq,
            input_bytes: input,
            true_peak_bytes: peak,
            base_runtime_seconds: runtime,
            preset_memory_bytes: preset,
            cpu_utilization_pct: 100.0,
            io_read_bytes: input,
            io_write_bytes: input,
        }
    }

    /// A predictor that always allocates a fixed amount (doubling on retry).
    struct Fixed {
        bytes: f64,
    }

    impl MemoryPredictor for Fixed {
        fn name(&self) -> String {
            "fixed".to_string()
        }
        fn predict(&self, _task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
            Prediction {
                allocation_bytes: self.bytes * 2.0_f64.powi(ctx.attempt as i32),
                raw_estimate_bytes: Some(self.bytes),
                selected_model: Some("fixed"),
            }
        }
        fn observe(&mut self, _record: &TaskRecord) {}
    }

    #[test]
    fn perfectly_sized_tasks_waste_nothing() {
        let instances = vec![instance(0, 1e9, 4e9, 3600.0, 8e9)];
        let mut p = Fixed { bytes: 4e9 };
        let report = replay_workflow("wf", &instances, &mut p, &SimulationConfig::default());
        assert_eq!(report.total_failures(), 0);
        assert!(report.total_wastage_gbh() < 1e-9);
        assert!((report.aggregates.total_runtime_hours() - 1.0).abs() < 1e-9);
        assert_eq!(report.aggregates.finished_instances(), 1);
    }

    #[test]
    fn overprovisioning_wastes_the_surplus() {
        let instances = vec![instance(0, 1e9, 2e9, 3600.0, 8e9)];
        let mut p = PresetPredictor;
        let report = replay_workflow("wf", &instances, &mut p, &SimulationConfig::default());
        // 8 GB allocated, 2 GB used, 1 hour => 6 GBh wasted.
        assert!((report.total_wastage_gbh() - 6.0).abs() < 1e-9);
        assert_eq!(report.total_failures(), 0);
    }

    #[test]
    fn underprovisioning_fails_then_retries_until_success() {
        let instances = vec![instance(0, 1e9, 7e9, 3600.0, 8e9)];
        let mut p = Fixed { bytes: 2e9 };
        let report = replay_workflow("wf", &instances, &mut p, &SimulationConfig::default());
        // Attempts: 2 GB (fail), 4 GB (fail), 8 GB (success).
        assert_eq!(report.events.len(), 3);
        assert_eq!(report.total_failures(), 2);
        assert_eq!(report.aggregates.unfinished_instances, 0);
        // Failed attempts waste the whole allocation for the full runtime
        // (ttf = 1.0): 2 + 4 GBh, success wastes 1 GBh.
        assert!((report.total_wastage_gbh() - 7.0).abs() < 1e-6);
        // Runtime: 1h + 1h + 1h.
        assert!((report.aggregates.total_runtime_hours() - 3.0).abs() < 1e-9);
        // The retry chain serializes on the virtual clock: 3 back-to-back
        // attempts of one hour each.
        assert!((report.aggregates.makespan_seconds - 3.0 * 3600.0).abs() < 1e-6);
    }

    #[test]
    fn time_to_failure_halves_failed_attempt_cost() {
        let instances = vec![instance(0, 1e9, 7e9, 3600.0, 8e9)];
        let config = SimulationConfig::default().with_time_to_failure(0.5);
        let mut p = Fixed { bytes: 2e9 };
        let report = replay_workflow("wf", &instances, &mut p, &config);
        // Failed attempts now cost half an hour each: 1 + 2 GBh, success 1 GBh.
        assert!((report.total_wastage_gbh() - 4.0).abs() < 1e-6);
        assert!((report.aggregates.total_runtime_hours() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn allocations_are_clamped_to_node_memory() {
        let instances = vec![instance(0, 1e9, 2e9, 3600.0, 500e9)];
        let mut p = PresetPredictor;
        let config = SimulationConfig::default();
        let report = replay_workflow("wf", &instances, &mut p, &config);
        assert!(report.events[0].allocated_bytes <= config.node_memory_bytes);
    }

    #[test]
    fn allocations_are_clamped_to_the_largest_heterogeneous_node() {
        let instances = vec![instance(0, 1e9, 2e9, 3600.0, 500e9)];
        let mut p = PresetPredictor;
        let config = SimulationConfig::default().with_extra_pool(crate::config::NodePoolSpec {
            count: 1,
            memory_bytes: 256e9,
            slots: 8,
        });
        let report = replay_workflow("wf", &instances, &mut p, &config);
        // The big-memory node raises the clamp from 128 GB to 256 GB.
        assert_eq!(report.events[0].allocated_bytes, 256e9);
    }

    #[test]
    fn impossible_tasks_exhaust_attempts_and_are_reported() {
        // True peak larger than a node: can never succeed.
        let instances = vec![instance(0, 1e9, 200e9, 60.0, 1e9)];
        let mut p = Fixed { bytes: 1e9 };
        let config = SimulationConfig {
            max_attempts: 3,
            ..SimulationConfig::default()
        };
        let report = replay_workflow("wf", &instances, &mut p, &config);
        assert_eq!(report.aggregates.unfinished_instances, 1);
        assert_eq!(report.events.len(), 3);
        assert_eq!(report.aggregates.finished_instances(), 0);
    }

    #[test]
    fn observe_receives_failure_then_success_records() {
        struct Recorder {
            records: Vec<TaskRecord>,
        }
        impl MemoryPredictor for Recorder {
            fn name(&self) -> String {
                "recorder".into()
            }
            fn predict(&self, _t: &TaskSubmission, ctx: AttemptContext) -> Prediction {
                Prediction::simple(if ctx.attempt == 0 { 1e9 } else { 10e9 })
            }
            fn observe(&mut self, record: &TaskRecord) {
                self.records.push(record.clone());
            }
        }
        let instances = vec![instance(0, 1e9, 5e9, 600.0, 8e9)];
        let mut p = Recorder { records: vec![] };
        let _ = replay_workflow("wf", &instances, &mut p, &SimulationConfig::default());
        assert_eq!(p.records.len(), 2);
        assert_eq!(p.records[0].outcome, TaskOutcome::FailedOutOfMemory);
        // The failed attempt's observed peak is its allocation, not the truth.
        assert_eq!(p.records[0].peak_memory_bytes, 1e9);
        assert_eq!(p.records[1].outcome, TaskOutcome::Succeeded);
        assert_eq!(p.records[1].peak_memory_bytes, 5e9);
    }

    #[test]
    fn makespan_and_concurrency_are_tracked() {
        let instances: Vec<TaskInstance> = (0..20)
            .map(|i| instance(i, 1e9, 1e9, 3600.0, 2e9))
            .collect();
        let mut p = PresetPredictor;
        let report = replay_workflow("wf", &instances, &mut p, &SimulationConfig::default());
        // Plenty of capacity: all 20 tasks fit concurrently, makespan is one
        // task runtime, while total runtime is 20 task-hours.
        assert!((report.aggregates.makespan_seconds - 3600.0).abs() < 1e-6);
        assert!((report.aggregates.total_runtime_hours() - 20.0).abs() < 1e-9);
        assert!(report.aggregates.total_queue_delay_seconds < 1e-9);
    }

    #[test]
    fn replay_is_untimed_whatever_the_capacity() {
        // 4 tasks of 8 GB / 1 h on a single 10 GB node would serialize in
        // the event-driven engine; the replay queues nothing.
        let instances: Vec<TaskInstance> =
            (0..4).map(|i| instance(i, 1e9, 1e9, 3600.0, 8e9)).collect();
        let config = SimulationConfig::default().with_nodes(1, 10e9, 32);
        let mut p = PresetPredictor;
        let report = replay_workflow("wf", &instances, &mut p, &config);
        assert!((report.aggregates.makespan_seconds - 3600.0).abs() < 1e-6);
        assert!(report
            .events
            .iter()
            .all(|e| e.submit_time_seconds == 0.0 && e.queue_delay_seconds == 0.0));
        assert_eq!(report.total_failures(), 0);
    }

    #[test]
    fn streaming_replay_matches_materialised_report() {
        use crate::accounting::NullSink;
        let instances: Vec<TaskInstance> = (0..15)
            .map(|i| instance(i, 1e9 * (i + 1) as f64, 3e9 + i as f64 * 1e8, 600.0, 4e9))
            .collect();
        let config = SimulationConfig::default().with_nodes(1, 10e9, 4);
        let mut a = Fixed { bytes: 2e9 };
        let report = replay_workflow("wf", &instances, &mut a, &config);

        let mut b = Fixed { bytes: 2e9 };
        let mut sink = NullSink;
        let streamed =
            replay_workflow_streaming("wf", instances.iter(), &mut b, &config, &mut sink);
        assert!(streamed.events.is_empty());
        assert_eq!(streamed.aggregates, report.aggregates);
        assert_eq!(report.aggregates, ReplayAggregates::from_report(&report));
        assert_eq!(streamed.instances, report.aggregates.instances);

        // A collecting sink reproduces the full event trace.
        let mut c = Fixed { bytes: 2e9 };
        let mut events: Vec<AttemptEvent> = Vec::new();
        let _ = replay_workflow_streaming("wf", instances.iter(), &mut c, &config, &mut events);
        assert_eq!(events, report.events);
    }

    /// An empty replay reports +0.0 wastage, the fold's starting value, not
    /// the −0.0 an empty `f64` sum starts at.
    #[test]
    fn empty_replay_reports_positive_zero_wastage() {
        let report = replay_workflow(
            "wf",
            &[],
            &mut PresetPredictor,
            &SimulationConfig::default(),
        );
        assert_eq!(report.total_wastage_gbh().to_bits(), 0);
        assert_eq!(report.total_failures(), 0);
        assert_eq!(report.aggregates.instances, 0);
    }

    /// The clamp of the attempt model is total: a NaN prediction is sized to
    /// the 64 MB floor instead of carrying NaN into the wastage sums, and a
    /// hand-built cluster whose largest node is below the floor clamps to
    /// the node instead of panicking inside `f64::clamp`.
    #[test]
    fn nan_predictions_and_tiny_nodes_replay_with_finite_wastage() {
        // The first instance fits the floor, the second never does.
        let instances = vec![
            instance(0, 1e9, 32e6, 60.0, 4e9),
            instance(1, 1e9, 1e9, 60.0, 4e9),
        ];
        let config = SimulationConfig::default();
        let mut nan = Fixed { bytes: f64::NAN };
        let report = replay_workflow("wf", &instances, &mut nan, &config);
        assert_eq!(report.events.len(), 1 + config.max_attempts as usize);
        assert!(report
            .events
            .iter()
            .all(|e| e.allocated_bytes == MIN_ALLOCATION_BYTES));
        assert_eq!(report.aggregates.unfinished_instances, 1);
        assert!(report.total_wastage_gbh().is_finite());

        let tiny = SimulationConfig::default().with_nodes(1, 32e6, 4);
        let report = replay_workflow("wf", &instances[..1], &mut PresetPredictor, &tiny);
        assert_eq!(report.events[0].allocated_bytes, 32e6);
        assert!(report.events[0].success);
        assert!(report.total_wastage_gbh().is_finite());
    }
}
