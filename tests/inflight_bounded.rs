//! End-to-end regression for the Sizey in-flight allocation leak
//! (`SizeyPredictor::inflight_allocations` used to evict only on
//! `TaskOutcome::Succeeded`, so tasks that exhausted `max_attempts` leaked
//! one entry each, forever).
//!
//! The retry baseline is engine-owned now; replaying a workload of
//! never-satisfiable tasks with the real Sizey predictor must (a) terminate
//! with every instance reported unfinished, (b) leave no retry baseline in
//! the event-driven engine's in-flight set, and (c) leave the predictor
//! itself free of any per-task retry state — its retry decisions depend only
//! on learned pools plus the context the engine hands in.

use sizey_suite::prelude::*;
use std::sync::{Arc, Mutex};

fn impossible(seq: u64) -> TaskInstance {
    TaskInstance {
        workflow: "wf".into(),
        task_type: TaskTypeId::new("hungry"),
        machine: MachineId::new("m"),
        sequence: seq,
        input_bytes: 2e9,
        // Beyond the 128 GB largest node: every clamped attempt fails.
        true_peak_bytes: 400e9,
        base_runtime_seconds: 30.0,
        preset_memory_bytes: 8e9,
        cpu_utilization_pct: 100.0,
        io_read_bytes: 2e9,
        io_write_bytes: 2e9,
    }
}

#[test]
fn sizey_retry_state_stays_bounded_when_tasks_terminally_fail() {
    let n = 40u64;
    let instances: Vec<TaskInstance> = (0..n).map(impossible).collect();
    let config = SimulationConfig {
        max_attempts: 5,
        ..SimulationConfig::default()
    };

    // Sequential engine: the retry baseline is a stack local per instance.
    let mut sizey = SizeyPredictor::with_defaults();
    let report = replay_workflow("wf", &instances, &mut sizey, &config);
    assert_eq!(report.aggregates.unfinished_instances, n as usize);
    assert_eq!(report.events.len(), 5 * n as usize);
    // The predictor accumulated learned artifacts only: one pool for the
    // single (task type, machine) key and one provenance record per attempt
    // — bounded by observations, not by abandoned in-flight tasks.
    assert_eq!(sizey.n_pools(), 1);
    assert_eq!(sizey.provenance().len(), report.events.len());

    // Event-driven engine: no baseline may stay in flight despite zero
    // successes.
    let instances: Vec<TaskInstance> = (0..n).map(impossible).collect();
    let result = schedule_workflows(
        vec![WorkflowTenant::new(
            "wf",
            instances,
            Box::new(SizeyPredictor::with_defaults()),
        )],
        &config,
    );
    assert_eq!(
        result.reports[0].aggregates.unfinished_instances,
        n as usize
    );
    assert!(result.stats.peak_inflight_retries >= 1);
    assert_eq!(
        result.stats.leaked_inflight_retries, 0,
        "terminal failures must evict their in-flight retry entries"
    );

    // The shared concurrent service is equally stateless per task: after the
    // carnage above, a retry with no engine context starts from the preset
    // escalation base for an unknown key, same as a fresh service.
    let service = ConcurrentSizey::sizey(SizeyConfig::default(), 4);
    let task = TaskSubmission {
        workflow: "wf".into(),
        task_type: TaskTypeId::new("unseen"),
        machine: MachineId::new("m"),
        sequence: 0,
        input_bytes: 1e9,
        preset_memory_bytes: 8e9,
    };
    let ctx = AttemptContext {
        attempt: 1,
        last_allocation_bytes: None,
    };
    assert_eq!(service.predict(&task, ctx).allocation_bytes, 8e9);
}

/// Fault-injection satellite: tasks lost to node crashes (including ones
/// whose node never comes back) must not strand retry baselines in either
/// event-driven entry point. The crash-requeue path deliberately leaves the
/// baseline alone — a killed attempt is resubmitted with its original
/// attempt number — so baselines must drain exactly as in a fault-free run
/// even when a crash interleaves with genuine OOM retry chains.
#[test]
fn crash_lost_tasks_leak_no_inflight_retries_in_either_engine() {
    let n = 30u64;
    // A mix of first-try successes and never-satisfiable tasks so the retry
    // baselines are genuinely set while the crashes fire.
    let mk = || -> Vec<TaskInstance> {
        (0..n)
            .map(|seq| {
                let mut inst = impossible(seq);
                inst.base_runtime_seconds = 60.0;
                if seq % 3 == 0 {
                    inst.true_peak_bytes = 4e9;
                }
                inst
            })
            .collect()
    };
    let config = SimulationConfig {
        max_attempts: 4,
        node_count: 4,
        slots_per_node: 4,
        ..SimulationConfig::default()
    }
    .with_faults(
        FaultPlan::default()
            .with_storm(CrashStorm {
                time_seconds: 45.0,
                nodes: 2,
                down_seconds: 120.0,
                seed: 9,
            })
            // This node never comes back: its victims must still finish (or
            // terminally fail) elsewhere without leaking retry baselines.
            .with_node_crash(NodeCrash {
                time_seconds: 100.0,
                node: 1,
                down_seconds: f64::INFINITY,
            }),
    );

    let materialised = schedule_workflows(
        vec![WorkflowTenant::new(
            "wf",
            mk(),
            Box::new(SizeyPredictor::with_defaults()),
        )],
        &config,
    );
    assert!(
        materialised.stats.crash_lost_attempts > 0,
        "the crashes must actually kill running attempts"
    );
    assert!(materialised.stats.peak_inflight_retries >= 1);
    assert_eq!(materialised.stats.leaked_inflight_retries, 0);

    let streaming = schedule_workflows_streaming(
        vec![StreamingTenant::new(
            "wf",
            mk().into_iter(),
            Box::new(SizeyPredictor::with_defaults()),
        )],
        &config,
        &mut NullSink,
        &mut NullRecordSink,
    );
    assert_eq!(streaming.stats.leaked_inflight_retries, 0);
    assert_eq!(streaming.leaked_inflight_instances, 0);
    // Both entry points run the same engine over the identical fault
    // schedule and workload, so the fault accounting matches exactly.
    assert_eq!(
        streaming.stats.crash_lost_attempts,
        materialised.stats.crash_lost_attempts
    );
    assert_eq!(
        streaming.stats.requeued_attempts,
        materialised.stats.requeued_attempts
    );
}

/// A predictor handle shared with the test so the streaming replay (which
/// consumes its tenants) can be inspected afterwards.
struct Shared(Arc<Mutex<SizeyPredictor>>);

impl MemoryPredictor for Shared {
    fn name(&self) -> String {
        self.0.lock().expect("predictor lock").name()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        self.0.lock().expect("predictor lock").predict(task, ctx)
    }

    fn observe(&mut self, record: &TaskRecord) {
        self.0.lock().expect("predictor lock").observe(record)
    }
}

/// Streaming-engine regression: instances that exhaust `max_attempts` are
/// evicted from the in-flight working set, retry baseline and all, at their
/// terminal failure — before any record could be compacted away — so a long
/// stream of hopeless tasks leaves no stranded entries. With arrivals spaced
/// wider than a full retry cascade, the working set never holds more than
/// one instance, and a bounded predictor's provenance store stays at its
/// retention window while still having seen every record.
#[test]
fn streaming_replay_evicts_terminal_failures_and_stays_bounded() {
    let n = 40u64;
    let window = 8usize;
    let config = SimulationConfig {
        max_attempts: 5,
        // Five failed attempts take 5 x 30 s; arrivals every 200 s mean each
        // instance reaches its terminal failure before the next arrives.
        submit_interval_seconds: 200.0,
        ..SimulationConfig::default()
    };
    let predictor = Arc::new(Mutex::new(SizeyPredictor::new(
        SizeyConfig::default().with_history_window(window),
    )));
    let mut observed_records = 0usize;
    let mut record_sink = |_: &TaskRecord| observed_records += 1;

    let result = schedule_workflows_streaming(
        vec![StreamingTenant::new(
            "wf",
            (0..n).map(impossible),
            Box::new(Shared(Arc::clone(&predictor))),
        )],
        &config,
        &mut NullSink,
        &mut record_sink,
    );

    let aggregates = &result.reports[0].aggregates;
    assert_eq!(aggregates.instances, n as usize);
    assert_eq!(aggregates.unfinished_instances, n as usize);
    assert_eq!(aggregates.attempts, 5 * n);

    // No stranded in-flight state, and the working set stayed at one
    // instance despite 40 terminally failing ones streaming through.
    assert_eq!(result.leaked_inflight_instances, 0);
    assert_eq!(result.stats.leaked_inflight_retries, 0);
    assert_eq!(result.peak_inflight_instances, 1);
    assert_eq!(result.stats.peak_inflight_retries, 1);

    // Every finished record reached the sink and the predictor, but the
    // bounded provenance store retained only its window.
    assert_eq!(observed_records, 5 * n as usize);
    let sizey = predictor.lock().expect("predictor lock");
    assert_eq!(sizey.provenance().total_inserted(), 5 * n);
    assert_eq!(sizey.provenance().len(), window);
}
