//! Regression suite for the in-flight allocation leak.
//!
//! Predictors used to own the per-task retry baseline and evicted it only
//! on success, so every task that exhausted `max_attempts` leaked one map
//! entry — unbounded memory for a long-running service. The state now lives
//! in the engine's [`RetryLedger`](sizey_sim::RetryLedger) with eviction on
//! success *and* terminal failure; these tests replay workloads where tasks
//! terminally fail and assert the ledger drains to empty (while having
//! genuinely been used, per its high-water mark).

use sizey_sim::{
    schedule_workflows, FaultPlan, PresetPredictor, SchedulePolicy, SimulationConfig,
    TaskKillBurst, WorkflowTenant,
};
use sizey_workflows::TaskInstance;

fn instance(seq: u64, peak: f64, runtime: f64, preset: f64) -> TaskInstance {
    TaskInstance {
        workflow: "wf".into(),
        task_type: sizey_provenance::TaskTypeId::new("t"),
        machine: sizey_provenance::MachineId::new("m"),
        sequence: seq,
        input_bytes: 1e9,
        true_peak_bytes: peak,
        base_runtime_seconds: runtime,
        preset_memory_bytes: preset,
        cpu_utilization_pct: 100.0,
        io_read_bytes: 1e9,
        io_write_bytes: 1e9,
    }
}

/// Every task is never satisfiable (true peak beyond the largest node, so
/// clamped attempts always fail): the worst case for the old leak — one
/// stranded entry per task, forever. The replacement state must end empty.
#[test]
fn never_satisfiable_tasks_leave_the_retry_ledger_empty() {
    let n = 50u64;
    let instances: Vec<TaskInstance> = (0..n).map(|i| instance(i, 500e9, 30.0, 4e9)).collect();
    let config = SimulationConfig {
        max_attempts: 4,
        ..SimulationConfig::default()
    };
    let result = schedule_workflows(
        vec![WorkflowTenant::new(
            "wf",
            instances,
            Box::new(PresetPredictor),
        )],
        &config,
    );
    let report = &result.reports[0];
    assert_eq!(report.aggregates.unfinished_instances, n as usize);
    assert_eq!(report.events.len(), 4 * n as usize);
    // The ledger was actually exercised by the retry chains...
    assert!(
        result.stats.peak_inflight_retries >= 1,
        "retry chains must flow through the ledger"
    );
    // ...and terminal failures evicted every entry: nothing leaked. Before
    // the fix the equivalent map held one entry per task here (50), growing
    // without bound in a long-running service.
    assert_eq!(result.stats.leaked_inflight_retries, 0);
}

/// Mixed outcome workload across two tenants: some tasks succeed first try,
/// some succeed after retries, some exhaust the budget. All three paths must
/// retire their ledger entries.
#[test]
fn mixed_success_retry_and_terminal_failure_all_evict() {
    let mk = |offset: u64| -> Vec<TaskInstance> {
        (0..30)
            .map(|i| {
                let seq = offset + i;
                match i % 3 {
                    // Succeeds immediately (preset covers the peak).
                    0 => instance(seq, 1e9, 20.0, 2e9),
                    // Fails, then succeeds on the doubled retry.
                    1 => instance(seq, 3e9, 20.0, 2e9),
                    // Never satisfiable.
                    _ => instance(seq, 500e9, 20.0, 2e9),
                }
            })
            .collect()
    };
    let config = SimulationConfig {
        max_attempts: 3,
        ..SimulationConfig::default().with_policy(SchedulePolicy::Backfill)
    };
    let result = schedule_workflows(
        vec![
            WorkflowTenant::new("a", mk(0), Box::new(PresetPredictor)),
            WorkflowTenant::new("b", mk(1000), Box::new(PresetPredictor)),
        ],
        &config,
    );
    let unfinished: usize = result
        .reports
        .iter()
        .map(|r| r.aggregates.unfinished_instances)
        .sum();
    assert_eq!(unfinished, 20, "10 impossible tasks per tenant");
    assert!(result.stats.peak_inflight_retries >= 1);
    assert_eq!(result.stats.leaked_inflight_retries, 0);
}

/// Fault-injection regression: a fault-killed attempt is requeued with an
/// unchanged attempt number and must NOT look like an OOM — no retry budget
/// consumed, no max-observed-then-double escalation, no failure recorded.
/// Before the fault layer's requeue path bypassed the retry ledger, the
/// killed attempts would have re-entered as doubled attempt-1 retries here.
#[test]
fn fault_killed_attempts_requeue_without_consuming_budget_or_doubling() {
    let n = 20u64;
    // Every task succeeds first try (preset 4 GB covers the 1 GB peak) and
    // runs for 60 s; the kill burst at t=30 lands mid-flight.
    let instances: Vec<TaskInstance> = (0..n).map(|i| instance(i, 1e9, 60.0, 4e9)).collect();
    let config = SimulationConfig {
        max_attempts: 3,
        ..SimulationConfig::default()
    }
    .with_faults(FaultPlan::default().with_task_kills(TaskKillBurst {
        time_seconds: 30.0,
        tasks: 5,
    }));
    let result = schedule_workflows(
        vec![WorkflowTenant::new(
            "wf",
            instances,
            Box::new(PresetPredictor),
        )],
        &config,
    );
    let report = &result.reports[0];
    assert_eq!(result.stats.requeued_attempts, 5);
    assert_eq!(report.aggregates.unfinished_instances, 0);
    // The engine records one event per *dispatch*, so each killed attempt
    // shows up twice: once for the interrupted run and once for the requeue.
    // Crucially every event — including the five re-dispatches — is attempt
    // 0 at the original preset allocation; a doubling escalation would show
    // 8 GB attempt-1 events here, and a budget leak would drop instances.
    assert_eq!(report.events.len(), n as usize + 5);
    assert!(report.events.iter().all(|e| e.attempt == 0 && e.success));
    assert!(report.events.iter().all(|e| e.allocated_bytes == 4e9));
    assert_eq!(report.total_failures(), 0, "a fault kill is not a failure");
    assert_eq!(result.stats.leaked_inflight_retries, 0);
}
