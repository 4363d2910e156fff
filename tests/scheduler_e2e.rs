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

// Acceptance criterion: finite-capacity queueing strictly increases makespan
// for an over-allocating predictor compared to Sizey on the same workload —
// over-allocation now costs time, not just GB·h.
#[test]
fn overallocation_strictly_increases_makespan_under_queueing() {
    let instances = workload("eager", 0.04, 17);
    let sim = constrained();

    let mut presets = PresetPredictor;
    let preset_report = replay_workflow("eager", &instances, &mut presets, &sim);
    let mut sizey = SizeyPredictor::with_defaults();
    let sizey_report = replay_workflow("eager", &instances, &mut sizey, &sim);

    assert_eq!(preset_report.unfinished_instances, 0);
    assert_eq!(sizey_report.unfinished_instances, 0);
    assert!(
        preset_report.makespan_seconds > sizey_report.makespan_seconds,
        "presets makespan {} s should exceed Sizey makespan {} s on a \
         memory-constrained cluster",
        preset_report.makespan_seconds,
        sizey_report.makespan_seconds
    );
    assert!(
        preset_report.total_queue_delay_seconds() > sizey_report.total_queue_delay_seconds(),
        "over-allocation should also show up as queue delay"
    );
}

// Queueing itself stretches the replay: the same predictor on the same
// workload finishes strictly later on a constrained cluster than on an
// unbounded one.
#[test]
fn finite_capacity_strictly_increases_makespan_vs_unbounded() {
    let instances = workload("iwd", 0.06, 17);
    let mut a = PresetPredictor;
    let finite = replay_workflow("iwd", &instances, &mut a, &constrained());
    let mut b = PresetPredictor;
    let unbounded = replay_workflow("iwd", &instances, &mut b, &SimulationConfig::unbounded());
    assert!(
        finite.makespan_seconds > unbounded.makespan_seconds,
        "finite {} s vs unbounded {} s",
        finite.makespan_seconds,
        unbounded.makespan_seconds
    );
    // Decisions are identical either way — only timing changes.
    assert_eq!(finite.total_wastage_gbh(), unbounded.total_wastage_gbh());
    assert_eq!(finite.total_failures(), unbounded.total_failures());
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
            report.unfinished_instances, 0,
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
        shared.reports[0].total_queue_delay_seconds()
            >= alone.reports[0].total_queue_delay_seconds(),
        "sharing the cluster cannot reduce a tenant's queue delay"
    );
    assert!(shared.makespan_seconds >= alone.makespan_seconds);
}

// Scheduling policies only move tasks in time: the allocation decisions, and
// with them wastage and failures, are identical across policies for the
// sequential replay.
#[test]
fn policies_change_timing_but_not_decisions() {
    let instances = workload("rnaseq", 0.03, 11);
    let mut reference: Option<ReplayReport> = None;
    for policy in SchedulePolicy::ALL {
        let mut p = PresetPredictor;
        let report = replay_workflow(
            "rnaseq",
            &instances,
            &mut p,
            &constrained().with_policy(policy),
        );
        if let Some(r) = &reference {
            assert_eq!(r.total_wastage_gbh(), report.total_wastage_gbh());
            assert_eq!(r.total_failures(), report.total_failures());
            assert_eq!(r.events.len(), report.events.len());
        } else {
            reference = Some(report);
        }
    }
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
    assert_eq!(report.unfinished_instances, 0);
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
        assert_eq!(l.unfinished_instances, a.unfinished_instances);
    }
}
