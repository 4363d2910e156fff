//! Property tests for the event-driven scheduler invariants.
//!
//! Three families of properties, for any workload, cluster shape and policy:
//!
//! 1. **Capacity safety** — per-node `allocated_bytes ≤ memory_bytes` and
//!    `used_slots ≤ slots` at every event. Allocation only changes at
//!    placements, so the per-node high-water marks recorded by the cluster
//!    witness every instant of the simulation.
//! 2. **Liveness** — every submitted task eventually finishes or exhausts
//!    its retry budget; nothing is lost in the queue or double-counted.
//! 3. **The sequential replay is untimed** — the same workload on any two
//!    clusters with the same largest node (the allocation clamp) replays to
//!    the same `ReplayReport`, timing included: nothing queues, and the
//!    makespan is the longest retry chain.

use proptest::prelude::*;
use sizey_provenance::{MachineId, TaskRecord, TaskTypeId};
use sizey_sim::{
    replay_workflow, schedule_workflows, AttemptContext, MemoryPredictor, Prediction,
    PresetPredictor, SchedulePolicy, SimulationConfig, TaskSubmission, WorkflowTenant,
};
use sizey_workflows::TaskInstance;

fn instance(seq: u64, peak_gb: f64, runtime: f64, preset_gb: f64) -> TaskInstance {
    TaskInstance {
        workflow: "wf".into(),
        task_type: TaskTypeId::new(format!("t{}", seq % 3)),
        machine: MachineId::new("m"),
        sequence: seq,
        input_bytes: 1e9,
        true_peak_bytes: peak_gb * 1e9,
        base_runtime_seconds: runtime,
        preset_memory_bytes: preset_gb * 1e9,
        cpu_utilization_pct: 100.0,
        io_read_bytes: 1e9,
        io_write_bytes: 1e9,
    }
}

/// (peak GB, runtime s, preset GB) tuples — peaks may exceed presets (forcing
/// retries) and node capacity (forcing exhaustion).
fn workload_strategy() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    prop::collection::vec((0.1f64..24.0, 1.0f64..500.0, 0.1f64..16.0), 1..40)
}

fn build(tasks: &[(f64, f64, f64)]) -> Vec<TaskInstance> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, &(peak, runtime, preset))| instance(i as u64, peak, runtime, preset))
        .collect()
}

fn policy_from(idx: usize) -> SchedulePolicy {
    SchedulePolicy::ALL[idx % SchedulePolicy::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Invariant 1: per-node capacity is respected at every event, for every
    // policy, on a small cluster where contention is guaranteed.
    #[test]
    fn node_capacity_is_never_exceeded(
        tasks in workload_strategy(),
        policy_idx in 0usize..3,
        node_count in 1usize..4,
        slots in 1usize..5,
    ) {
        let config = SimulationConfig::default()
            .with_nodes(node_count, 16e9, slots)
            .with_policy(policy_from(policy_idx));
        let result = schedule_workflows(
            vec![WorkflowTenant::new("wf", build(&tasks), Box::new(PresetPredictor))],
            &config,
        );
        prop_assert_eq!(result.stats.forced_placements, 0,
            "clamped allocations must always be schedulable");
        for node in &result.nodes {
            prop_assert!(
                node.peak_allocated_bytes <= node.memory_bytes * (1.0 + 1e-9),
                "node {} peaked at {} of {} bytes",
                node.id, node.peak_allocated_bytes, node.memory_bytes
            );
            prop_assert!(node.peak_used_slots <= node.slots);
            // End state: everything released.
            prop_assert!(node.allocated_bytes.abs() < 1.0);
            prop_assert_eq!(node.used_slots, 0);
        }
    }

    // Invariant 2: every submitted task finishes or exhausts its retries.
    #[test]
    fn every_task_finishes_or_exhausts_retries(
        tasks in workload_strategy(),
        policy_idx in 0usize..3,
    ) {
        let config = SimulationConfig::default()
            .with_nodes(2, 16e9, 3)
            .with_policy(policy_from(policy_idx));
        let instances = build(&tasks);
        let n = instances.len();
        let result = schedule_workflows(
            vec![WorkflowTenant::new("wf", instances, Box::new(PresetPredictor))],
            &config,
        );
        let report = &result.reports[0];
        prop_assert_eq!(report.instances, n);
        prop_assert_eq!(
            report.finished_instances() + report.unfinished_instances,
            n
        );
        // One success per finished instance, max_attempts failures per
        // unfinished one, nothing else.
        let successes = report.events.iter().filter(|e| e.success).count();
        prop_assert_eq!(successes, report.finished_instances());
        prop_assert!(report.events.len() <= n * config.max_attempts as usize);
        for e in &report.events {
            prop_assert!(e.attempt < config.max_attempts);
            prop_assert!(e.queue_delay_seconds >= 0.0);
        }
        // An unfinished instance burned its whole budget.
        let failures = report.total_failures();
        prop_assert!(failures >= report.unfinished_instances * config.max_attempts as usize);
    }

    // Invariant 2b, sequential replay: it conserves instances, queues
    // nothing, and its makespan is the longest retry chain — first attempts
    // start at t = 0 and each retry when its predecessor ends.
    #[test]
    fn sync_replay_conserves_instances(
        tasks in workload_strategy(),
        policy_idx in 0usize..3,
    ) {
        let config = SimulationConfig::default()
            .with_nodes(2, 16e9, 3)
            .with_policy(policy_from(policy_idx));
        let instances = build(&tasks);
        let mut p = PresetPredictor;
        let report = replay_workflow("wf", &instances, &mut p, &config);
        prop_assert_eq!(report.instances, instances.len());
        let first_attempts = report.events.iter().filter(|e| e.attempt == 0).count();
        prop_assert_eq!(first_attempts, instances.len());
        let mut chain_end = vec![0.0_f64; instances.len()];
        for e in &report.events {
            prop_assert_eq!(e.queue_delay_seconds, 0.0);
            prop_assert_eq!(e.submit_time_seconds, chain_end[e.sequence as usize]);
            chain_end[e.sequence as usize] += e.duration_seconds;
        }
        let longest_chain = chain_end.iter().copied().fold(0.0, f64::max);
        prop_assert_eq!(report.makespan_seconds, longest_chain);
    }

    // Invariant 3: capacity changes nothing in the sequential replay. A
    // cluster with the same largest node (so the same clamp) but room for
    // two tasks at a time replays to the same report as the default one,
    // timing included.
    #[test]
    fn capacity_changes_timing_never_decisions(
        tasks in workload_strategy(),
    ) {
        let instances = build(&tasks);
        let roomy_config = SimulationConfig::default();
        let tight_config =
            SimulationConfig::default().with_nodes(1, roomy_config.node_memory_bytes, 2);
        let roomy = replay_workflow("wf", &instances, &mut PresetPredictor, &roomy_config);
        let tight = replay_workflow("wf", &instances, &mut PresetPredictor, &tight_config);
        // Bit-identical, not approximately equal.
        prop_assert_eq!(roomy, tight);
    }

    // The same under every policy: a one-node, two-slot 16 GB cluster and
    // eight roomy 16 GB nodes replay to the same report.
    #[test]
    fn finite_capacity_never_shrinks_makespan(
        tasks in workload_strategy(),
        policy_idx in 0usize..3,
    ) {
        let instances = build(&tasks);
        let finite_config = SimulationConfig::default()
            .with_nodes(1, 16e9, 2)
            .with_policy(policy_from(policy_idx));
        let mut a = PresetPredictor;
        let finite = replay_workflow("wf", &instances, &mut a, &finite_config);
        let roomy_config = SimulationConfig::default().with_nodes(8, 16e9, 32);
        let mut b = PresetPredictor;
        let roomy = replay_workflow("wf", &instances, &mut b, &roomy_config);
        prop_assert_eq!(finite, roomy);
    }
}

/// A doubling predictor whose base sits near the node-capacity boundary —
/// the regression case for retry clamping.
struct DoublingFrom {
    base: f64,
}

impl MemoryPredictor for DoublingFrom {
    fn name(&self) -> String {
        "doubling".into()
    }
    fn predict(&self, _task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        Prediction::simple(self.base * 2.0_f64.powi(ctx.attempt as i32))
    }
    fn observe(&mut self, _record: &TaskRecord) {}
}

// Satellite regression: retry allocations at the clamp boundary. A 96 GB
// base doubles to 192 GB on the first retry, which must clamp to the 128 GB
// node — and stay clamped (monotone in attempt), never exceeding the largest
// node.
#[test]
fn retry_allocations_clamp_at_the_largest_node_and_stay_monotone() {
    let config = SimulationConfig {
        max_attempts: 5,
        ..SimulationConfig::default()
    };
    // Impossible task: every attempt fails, exercising the whole chain.
    let inst = instance(0, 200.0, 60.0, 1.0);
    let mut p = DoublingFrom { base: 96e9 };
    let report = replay_workflow("wf", &[inst], &mut p, &config);
    assert_eq!(report.events.len(), 5);
    let allocs: Vec<f64> = report.events.iter().map(|e| e.allocated_bytes).collect();
    assert_eq!(allocs[0], 96e9);
    assert_eq!(allocs[1], 128e9, "192 GB must clamp to the node capacity");
    let largest = config.largest_node_memory_bytes();
    for pair in allocs.windows(2) {
        assert!(pair[1] >= pair[0], "retry allocation shrank: {allocs:?}");
    }
    for a in &allocs {
        assert!(*a <= largest, "allocation exceeded the largest node");
    }
}

// The same boundary through the event-driven engine.
#[test]
fn event_engine_clamps_retries_to_the_largest_node() {
    let config = SimulationConfig {
        max_attempts: 4,
        ..SimulationConfig::default()
    };
    let result = schedule_workflows(
        vec![WorkflowTenant::new(
            "wf",
            vec![instance(0, 200.0, 60.0, 1.0)],
            Box::new(DoublingFrom { base: 100e9 }),
        )],
        &config,
    );
    let allocs: Vec<f64> = result.reports[0]
        .events
        .iter()
        .map(|e| e.allocated_bytes)
        .collect();
    assert_eq!(allocs.len(), 4);
    for pair in allocs.windows(2) {
        assert!(pair[1] >= pair[0]);
    }
    assert!(allocs.iter().all(|&a| a <= 128e9));
    assert_eq!(allocs[1], 128e9);
    assert_eq!(result.stats.forced_placements, 0);
}
