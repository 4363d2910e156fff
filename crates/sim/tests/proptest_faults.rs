//! Property suite for the fault-injection determinism contract
//! (see the module docs of `sizey_sim::faults`).
//!
//! For any workload, fault plan and scheduling policy:
//!
//! 1. **Replay determinism** — running the same faulted scenario twice
//!    produces bit-identical attempt events and scheduler stats.
//! 2. **Adapter routing** — `schedule_workflows` (materialised tenants,
//!    events collected per tenant) and `schedule_workflows_streaming` (flat
//!    sink) are two entry points of one engine: for the same faulted
//!    scenario the tenant's event list is exactly the sequence the sink saw,
//!    with identical stats.
//! 3. **Conservation** — faults never strand work: every instance finishes
//!    or exhausts its retry budget, no retry baseline is left in flight, and
//!    every requeue is accounted to exactly one fault counter.

use proptest::prelude::*;
use sizey_provenance::{MachineId, TaskTypeId};
use sizey_sim::{
    schedule_workflows, schedule_workflows_streaming, AttemptEvent, AttemptSink, CrashStorm,
    FaultPlan, NodeCrash, NodePoolSpec, NullRecordSink, PoolPreemption, PresetPredictor,
    SchedulePolicy, SimulationConfig, StreamingTenant, TaskKillBurst, WorkflowTenant,
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

/// (peak GB, runtime s, preset GB) — peaks may exceed presets (forcing OOM
/// retry chains that interleave with fault requeues) and node capacity
/// (forcing budget exhaustion).
fn workload_strategy() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    prop::collection::vec((0.1f64..24.0, 10.0f64..400.0, 0.1f64..16.0), 1..30)
}

fn build(tasks: &[(f64, f64, f64)]) -> Vec<TaskInstance> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, &(peak, runtime, preset))| instance(i as u64, peak, runtime, preset))
        .collect()
}

/// Downtime: mostly finite, occasionally "never comes back".
fn downtime_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => 5.0f64..500.0,
        1 => Just(f64::INFINITY),
    ]
}

/// Arbitrary fault plans, including out-of-range node/pool targets (which
/// the compiler must skip, not fear) and same-time collisions.
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    let crash =
        (0.0f64..2000.0, 0usize..8, downtime_strategy()).prop_map(|(t, node, down)| NodeCrash {
            time_seconds: t,
            node,
            down_seconds: down,
        });
    let storm =
        (0.0f64..2000.0, 1usize..4, 5.0f64..500.0, 0u64..64).prop_map(|(t, nodes, down, seed)| {
            CrashStorm {
                time_seconds: t,
                nodes,
                down_seconds: down,
                seed,
            }
        });
    let preemption =
        (0usize..3, 0.0f64..2000.0, downtime_strategy()).prop_map(|(pool, t, back)| {
            PoolPreemption {
                pool,
                time_seconds: t,
                return_after_seconds: back,
            }
        });
    let kills = (0.0f64..2000.0, 1usize..6).prop_map(|(t, tasks)| TaskKillBurst {
        time_seconds: t,
        tasks,
    });
    (
        prop::collection::vec(crash, 0..3),
        prop::collection::vec(storm, 0..2),
        prop::collection::vec(preemption, 0..2),
        prop::collection::vec(kills, 0..3),
    )
        .prop_map(
            |(node_crashes, storms, pool_preemptions, task_kills)| FaultPlan {
                node_crashes,
                storms,
                pool_preemptions,
                task_kills,
            },
        )
}

/// A small heterogeneous cluster (4 + 2 nodes) with spaced arrivals so
/// faults genuinely interleave with dispatches, retries and submissions.
fn config(plan: &FaultPlan, policy: SchedulePolicy) -> SimulationConfig {
    SimulationConfig {
        max_attempts: 4,
        submit_interval_seconds: 5.0,
        ..SimulationConfig::default()
            .with_nodes(4, 16e9, 3)
            .with_extra_pool(NodePoolSpec {
                count: 2,
                memory_bytes: 32e9,
                slots: 2,
            })
            .with_policy(policy)
            .with_faults(plan.clone())
    }
}

fn policy_from(idx: usize) -> SchedulePolicy {
    SchedulePolicy::ALL[idx % SchedulePolicy::ALL.len()]
}

/// Collects every attempt event the streaming entry point emits.
#[derive(Default)]
struct Collect(Vec<AttemptEvent>);

impl AttemptSink for Collect {
    fn record(&mut self, event: &AttemptEvent) {
        self.0.push(event.clone());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Properties 1 + 2: the same faulted scenario is bit-identical across
    // runs and across the engine's two entry points, for every policy.
    #[test]
    fn fault_replay_is_bit_identical_across_runs_and_entry_points(
        tasks in workload_strategy(),
        plan in plan_strategy(),
        policy_idx in 0usize..3,
    ) {
        let config = config(&plan, policy_from(policy_idx));

        let run = || schedule_workflows(
            vec![WorkflowTenant::new("wf", build(&tasks), Box::new(PresetPredictor))],
            &config,
        );
        let first = run();
        let second = run();
        prop_assert_eq!(&first.stats, &second.stats,
            "stats must be identical across runs");
        prop_assert_eq!(&first.reports[0].events, &second.reports[0].events,
            "events must be bit-identical across runs");
        prop_assert_eq!(first.makespan_seconds, second.makespan_seconds);

        let mut sink = Collect::default();
        let streaming = schedule_workflows_streaming(
            vec![StreamingTenant::new(
                "wf",
                build(&tasks).into_iter(),
                Box::new(PresetPredictor),
            )],
            &config,
            &mut sink,
            &mut NullRecordSink,
        );
        prop_assert_eq!(&streaming.stats, &first.stats,
            "stats must be identical across entry points");
        prop_assert_eq!(&sink.0, &first.reports[0].events,
            "the adapter's tenant events must be the sink's sequence");
        prop_assert_eq!(
            streaming.reports[0].aggregates.unfinished_instances,
            first.reports[0].aggregates.unfinished_instances
        );
        prop_assert_eq!(streaming.makespan_seconds, first.makespan_seconds);
    }

    // Property 3: faults never strand work or leak retry state, and the
    // requeue accounting is internally consistent.
    #[test]
    fn faults_never_strand_work_or_leak_retry_state(
        tasks in workload_strategy(),
        plan in plan_strategy(),
        policy_idx in 0usize..3,
    ) {
        let config = config(&plan, policy_from(policy_idx));
        let instances = build(&tasks);
        let n = instances.len();
        let result = schedule_workflows(
            vec![WorkflowTenant::new("wf", instances, Box::new(PresetPredictor))],
            &config,
        );
        let report = &result.reports[0];
        let agg = &report.aggregates;
        prop_assert_eq!(agg.instances, n);
        prop_assert_eq!(agg.finished_instances() + agg.unfinished_instances, n);
        prop_assert_eq!(result.stats.leaked_inflight_retries, 0);
        // A fault requeue never consumes attempt budget: attempts stay below
        // the cap no matter how often an attempt was killed and re-dispatched.
        for e in &report.events {
            prop_assert!(e.attempt < config.max_attempts);
        }
        // Crash and preemption losses are disjoint subsets of the requeues;
        // the remainder (if any) came from task-kill bursts.
        prop_assert!(
            result.stats.crash_lost_attempts + result.stats.preempted_attempts
                <= result.stats.requeued_attempts
        );
        // Dispatches = recorded events: the kill path re-dispatches through
        // the same bookkeeping as every other attempt.
        prop_assert_eq!(result.stats.dispatched_attempts, report.events.len());
    }
}
