//! End-to-end tests for the event-driven scheduler on real generated
//! workloads: queueing under finite capacity, the cost of over-allocation in
//! makespan, and multi-tenant contention.

use sizey_suite::prelude::*;
use std::sync::Arc;

fn workload(name: &str, scale: f64, seed: u64) -> Vec<TaskInstance> {
    let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
    generate_workflow(&spec, &GeneratorConfig::scaled(scale, seed))
}

/// A cluster where memory (not slots) is the binding resource, so sizing
/// quality decides how many tasks run concurrently.
fn constrained() -> SimulationConfig {
    SimulationConfig::default().with_nodes(1, 128e9, 64)
}

/// `instances` as the sole tenant of `sim`, one arriving every `cadence`
/// seconds, so that an online method learns from completions before later
/// tasks arrive.
fn one_tenant(
    name: &str,
    instances: Vec<TaskInstance>,
    predictor: Box<dyn MemoryPredictor>,
    sim: &SimulationConfig,
    cadence: f64,
) -> ReplayReport {
    let sim = SimulationConfig {
        submit_interval_seconds: cadence,
        ..sim.clone()
    };
    let result = schedule_workflows(vec![WorkflowTenant::new(name, instances, predictor)], &sim);
    assert_eq!(result.stats.forced_placements, 0);
    result.reports.into_iter().next().expect("one tenant")
}

/// The sizing decisions of a report — allocation, outcome and wastage per
/// (instance, attempt) — independent of the order attempts were dispatched
/// in.
fn decisions(report: &ReplayReport) -> Vec<(u64, u32, f64, bool, f64)> {
    let mut out: Vec<_> = report
        .events
        .iter()
        .map(|e| {
            (
                e.sequence,
                e.attempt,
                e.allocated_bytes,
                e.success,
                e.wastage_gbh,
            )
        })
        .collect();
    out.sort_by_key(|d| (d.0, d.1));
    out
}

// Acceptance criterion: finite-capacity queueing strictly increases makespan
// for an over-allocating predictor compared to Sizey on the same workload —
// over-allocation costs time, not just GB·h.
#[test]
fn overallocation_strictly_increases_makespan_under_queueing() {
    let instances = workload("eager", 0.04, 17);
    let sim = constrained();

    let preset = one_tenant(
        "eager",
        instances.clone(),
        Box::new(PresetPredictor),
        &sim,
        60.0,
    );
    let sizey = one_tenant(
        "eager",
        instances,
        Box::new(SizeyPredictor::with_defaults()),
        &sim,
        60.0,
    );

    assert_eq!(preset.aggregates.unfinished_instances, 0);
    assert_eq!(sizey.aggregates.unfinished_instances, 0);
    assert!(
        sizey.events.iter().any(|e| e.selected_model.is_some()),
        "Sizey must learn from completions before later arrivals"
    );
    assert!(
        preset.aggregates.makespan_seconds > sizey.aggregates.makespan_seconds,
        "presets makespan {} s should exceed Sizey makespan {} s on a \
         memory-constrained cluster",
        preset.aggregates.makespan_seconds,
        sizey.aggregates.makespan_seconds
    );
    assert!(
        preset.aggregates.total_queue_delay_seconds > sizey.aggregates.total_queue_delay_seconds,
        "over-allocation should also show up as queue delay"
    );
}

// Queueing itself stretches the replay: the same predictor on the same
// workload finishes strictly later on a constrained cluster than on an
// unbounded one.
#[test]
fn finite_capacity_strictly_increases_makespan_vs_unbounded() {
    let instances = workload("iwd", 0.06, 17);
    let finite = one_tenant(
        "iwd",
        instances.clone(),
        Box::new(PresetPredictor),
        &constrained(),
        1.0,
    );
    let unbounded = one_tenant(
        "iwd",
        instances,
        Box::new(PresetPredictor),
        &SimulationConfig::unbounded(),
        1.0,
    );
    assert!(
        finite.aggregates.makespan_seconds > unbounded.aggregates.makespan_seconds,
        "finite {} s vs unbounded {} s",
        finite.aggregates.makespan_seconds,
        unbounded.aggregates.makespan_seconds
    );
    assert_eq!(unbounded.aggregates.total_queue_delay_seconds, 0.0);
    // Decisions are identical either way — only timing changes.
    assert_eq!(decisions(&finite), decisions(&unbounded));
}

// Multi-tenant contention on real workloads: a preset-sized tenant sharing
// the cluster delays a lean tenant relative to running alone.
#[test]
fn multi_tenant_replay_completes_and_contention_is_visible() {
    let iwd = workload("iwd", 0.04, 5);
    let rnaseq = workload("rnaseq", 0.02, 5);
    let sim = constrained();

    let shared = schedule_workflows(
        vec![
            WorkflowTenant::new("iwd", iwd.clone(), Box::new(PresetPredictor)),
            WorkflowTenant::new("rnaseq", rnaseq, Box::new(PresetPredictor)),
        ],
        &sim,
    );
    assert_eq!(shared.reports.len(), 2);
    for report in &shared.reports {
        assert_eq!(
            report.aggregates.unfinished_instances, 0,
            "{} unfinished",
            report.workflow
        );
        assert!(report.total_wastage_gbh() > 0.0);
    }
    assert_eq!(shared.stats.forced_placements, 0);

    let alone = schedule_workflows(
        vec![WorkflowTenant::new("iwd", iwd, Box::new(PresetPredictor))],
        &sim,
    );
    assert!(
        shared.reports[0].aggregates.total_queue_delay_seconds
            >= alone.reports[0].aggregates.total_queue_delay_seconds,
        "sharing the cluster cannot reduce a tenant's queue delay"
    );
    assert!(shared.makespan_seconds >= alone.makespan_seconds);
}

// Scheduling policies only move tasks in time: for a method that does not
// learn, the allocation decisions, and with them wastage and failures, are
// identical across policies, while the timing differs.
#[test]
fn policies_change_timing_but_not_decisions() {
    let instances = workload("rnaseq", 0.03, 11);
    let reports: Vec<ReplayReport> = SchedulePolicy::ALL
        .into_iter()
        .map(|policy| {
            one_tenant(
                "rnaseq",
                instances.clone(),
                Box::new(PresetPredictor),
                &constrained().with_policy(policy),
                10.0,
            )
        })
        .collect();
    for report in &reports[1..] {
        assert_eq!(decisions(report), decisions(&reports[0]));
    }
    assert!(
        reports
            .iter()
            .any(|r| r.aggregates.total_queue_delay_seconds
                != reports[0].aggregates.total_queue_delay_seconds),
        "some policy must change the timing"
    );
}

// Heterogeneous pools end to end: adding a big-memory node lets allocations
// exceed the default node size.
#[test]
fn heterogeneous_pool_raises_the_allocation_ceiling() {
    let instances = workload("iwd", 0.03, 7);
    let hetero = SimulationConfig::default().with_extra_pool(NodePoolSpec {
        count: 1,
        memory_bytes: 512e9,
        slots: 16,
    });
    assert_eq!(hetero.largest_node_memory_bytes(), 512e9);
    let mut p = PresetPredictor;
    let report = replay_workflow("iwd", &instances, &mut p, &hetero);
    assert_eq!(report.aggregates.unfinished_instances, 0);
    for e in &report.events {
        assert!(e.allocated_bytes <= 512e9);
    }
}

// The async serving front-end is a drop-in for the locked shared service at
// the engine level: two workflows as tenants of one `ConcurrentSizey`, then of
// one `AsyncSizey` whose tenants flush after every observe (keeping the
// simulator's observe-then-predict contract), make the same decisions event
// for event — each tenant's completions training what the other predicts from.
#[test]
fn async_and_shared_tenants_make_identical_decisions() {
    struct FlushedAsyncTenant(Arc<AsyncSizey>);
    impl MemoryPredictor for FlushedAsyncTenant {
        fn name(&self) -> String {
            self.0.service().name()
        }
        fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
            // The lock-free snapshot path — what the service serves live.
            self.0.predict(task, ctx)
        }
        fn observe(&mut self, record: &TaskRecord) {
            self.0.observe(record);
            self.0.flush();
        }
    }

    let mut sim = constrained();
    sim.submit_interval_seconds = 10.0;
    let run = |predictor: &dyn Fn() -> Box<dyn MemoryPredictor>| {
        schedule_workflows(
            vec![
                WorkflowTenant::new("iwd", workload("iwd", 0.02, 3), predictor()),
                WorkflowTenant::new("mag", workload("mag", 0.02, 3), predictor()),
            ],
            &sim,
        )
    };

    let shared = ConcurrentSizey::sizey(SizeyConfig::default(), 4);
    let locked = run(&|| Box::new(shared.clone()));
    let handle = Arc::new(AsyncSizey::sizey(
        SizeyConfig::default(),
        4,
        ServiceConfig::default(),
    ));
    let asynced = run(&|| Box::new(FlushedAsyncTenant(Arc::clone(&handle))));

    assert_eq!(locked.stats, asynced.stats);
    for (l, a) in locked.reports.iter().zip(&asynced.reports) {
        assert!(
            l.events.iter().any(|e| e.selected_model.is_some()),
            "{}: the shared models must take over from the presets",
            l.workflow
        );
        assert_eq!(l.events, a.events, "{}", l.workflow);
        assert_eq!(
            l.aggregates.unfinished_instances,
            a.aggregates.unfinished_instances
        );
    }
}
