//! Property tests for the streaming pipeline, for any workload, seed,
//! arrival layout and scheduling policy (`generate_workflow` is the collected
//! `stream_workflow`; the generated instances themselves are pinned by
//! `GOLDEN_GENERATED` in `lint_fix_equivalence`):
//!
//! * the single-workflow streaming replay reproduces `replay_workflow`'s
//!   report — same attempt events, same aggregates (exact `f64` equality),
//!   same learned predictor state;
//! * the two entry points of the one event-driven engine agree.
//!   `schedule_workflows` is an adapter that streams materialised tenants
//!   through the loop behind `schedule_workflows_streaming` and routes each
//!   attempt event to its tenant, so this checks the adapter: a tenant built
//!   from a `Vec` and one built from a generator iterator see the same
//!   scheduling decisions, the per-tenant event lists fold to the engine's
//!   online aggregates, and together they hold every event the flat sink saw.
//!   Cross-commit drift of the engine itself is pinned by the golden digests
//!   in `lint_fix_equivalence`.

use proptest::prelude::*;
use sizey_sim::AttemptEvent;
use sizey_suite::prelude::*;
use std::sync::{Arc, Mutex};

fn workload(wf_idx: usize, seed: u64) -> (WorkflowSpec, GeneratorConfig) {
    let name = sizey_workflows::WORKFLOW_NAMES[wf_idx % 6];
    let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
    let config = GeneratorConfig {
        scale: 0.01,
        seed,
        min_instances: 10,
        drift: None,
    };
    (spec, config)
}

/// A predictor handle that survives the replay consuming its tenant, so the
/// test can compare the learned state of both runs afterwards. The
/// replay itself is single-threaded; the mutex only satisfies the ownership
/// story.
struct SharedCheckpoint(Arc<Mutex<SizeyPredictor>>);

impl MemoryPredictor for SharedCheckpoint {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The single-workflow streaming replay reproduces the materialised
    /// report exactly: same attempt events, same aggregates, and the two
    /// online-learning predictors end in bit-identical state.
    #[test]
    fn streaming_replay_matches_materialised_report(
        seed in 0u64..5000,
        wf_idx in 0usize..6,
    ) {
        let (spec, config) = workload(wf_idx, seed);
        let sim = SimulationConfig::default();

        let instances = generate_workflow(&spec, &config);
        let mut materialised_predictor = SizeyPredictor::with_defaults();
        let report = replay_workflow(&spec.name, &instances, &mut materialised_predictor, &sim);

        let mut streaming_predictor = SizeyPredictor::with_defaults();
        let mut events: Vec<AttemptEvent> = Vec::new();
        let aggregates = replay_workflow_streaming(
            &spec.name,
            stream_workflow(&spec, &config),
            &mut streaming_predictor,
            &sim,
            &mut events,
        );

        prop_assert_eq!(&aggregates, &ReplayAggregates::from_report(&report));
        prop_assert_eq!(events, report.events);
        prop_assert_eq!(
            streaming_predictor.snapshot(),
            materialised_predictor.snapshot(),
            "learned state diverged between the engines"
        );
    }

    /// Generator-fed streaming tenants and materialised tenants routed
    /// through the `schedule_workflows` adapter see the same scheduling
    /// decisions under every policy: makespan, telemetry, per-node peaks,
    /// per-tenant aggregates and the learned predictor state all match
    /// exactly, and no in-flight state leaks.
    #[test]
    fn streaming_scheduler_matches_materialised_scheduler(
        seed in 0u64..5000,
        policy_idx in 0usize..3,
        tenant_count in 1usize..4,
        stagger in 0usize..3,
    ) {
        let policy = SchedulePolicy::ALL[policy_idx];
        let sim = SimulationConfig::default().with_policy(policy);
        let stagger_seconds = stagger as f64 * 45.0;

        let predictors_m: Vec<Arc<Mutex<SizeyPredictor>>> = (0..tenant_count)
            .map(|_| Arc::new(Mutex::new(SizeyPredictor::with_defaults())))
            .collect();
        let predictors_s: Vec<Arc<Mutex<SizeyPredictor>>> = (0..tenant_count)
            .map(|_| Arc::new(Mutex::new(SizeyPredictor::with_defaults())))
            .collect();

        let materialised_tenants: Vec<WorkflowTenant> = (0..tenant_count)
            .map(|i| {
                let (spec, config) = workload(wf_seed(seed, i), seed + i as u64);
                WorkflowTenant::new(
                    format!("{}-{i}", spec.name),
                    generate_workflow(&spec, &config),
                    Box::new(SharedCheckpoint(Arc::clone(&predictors_m[i]))),
                )
                .with_arrival_offset(i as f64 * stagger_seconds)
            })
            .collect();
        let streaming_tenants: Vec<StreamingTenant> = (0..tenant_count)
            .map(|i| {
                let (spec, config) = workload(wf_seed(seed, i), seed + i as u64);
                StreamingTenant::new(
                    format!("{}-{i}", spec.name),
                    stream_workflow(&spec, &config),
                    Box::new(SharedCheckpoint(Arc::clone(&predictors_s[i]))),
                )
                .with_arrival_offset(i as f64 * stagger_seconds)
            })
            .collect();

        let materialised = schedule_workflows(materialised_tenants, &sim);
        let mut events: Vec<AttemptEvent> = Vec::new();
        let streaming = schedule_workflows_streaming(
            streaming_tenants,
            &sim,
            &mut events,
            &mut NullRecordSink,
        );

        prop_assert_eq!(streaming.makespan_seconds, materialised.makespan_seconds);
        prop_assert_eq!(&streaming.stats, &materialised.stats);
        prop_assert_eq!(&streaming.nodes, &materialised.nodes);
        prop_assert_eq!(streaming.leaked_inflight_instances, 0);
        for (s, m) in streaming.reports.iter().zip(&materialised.reports) {
            prop_assert_eq!(&s.workflow, &m.workflow);
            prop_assert_eq!(&s.method, &m.method);
            prop_assert_eq!(&s.aggregates, &ReplayAggregates::from_report(m));
        }
        for (ps, pm) in predictors_s.iter().zip(&predictors_m) {
            prop_assert_eq!(
                ps.lock().expect("predictor lock").snapshot(),
                pm.lock().expect("predictor lock").snapshot(),
                "learned state diverged between the entry points"
            );
        }
        let total_events: usize = materialised.reports.iter().map(|r| r.events.len()).sum();
        prop_assert_eq!(events.len(), total_events);
    }
}

/// Mixes the run seed into the workflow choice so tenant layouts vary
/// across cases without an extra proptest dimension.
fn wf_seed(seed: u64, tenant: usize) -> usize {
    seed as usize + tenant
}
