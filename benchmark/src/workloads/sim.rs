//! The three multi-tenant simulator workloads: `replay_dense`, `stream_50t`
//! and `sched_1m`. One recipe, three parameterisations — which engine, which
//! predictor, how many tenants — so each stresses a different layer.

use super::{Pass, Workload};
use crate::digest::Fnv;
use crate::micro;
use crate::trace::{self, TraceReport};
use sizey_core::{SizeyConfig, SizeyPredictor};
use sizey_provenance::TaskRecord;
use sizey_sim::{
    schedule_workflows, schedule_workflows_streaming, AttemptContext, AttemptEvent, AttemptSink,
    CrashStorm, FaultPlan, MemoryPredictor, NullRecordSink, NullSink, Prediction, RecordSink,
    ReplayAggregates, SchedulePolicy, SchedulerStats, SimulationConfig, StreamingTenant,
    TaskKillBurst, TaskSubmission, WorkflowTenant,
};
use sizey_workflows::{
    all_workflows, generate_workflow, stream_workflow, GeneratorConfig, TaskInstance,
};
use std::time::Instant;

// Span names follow the modules they time.
pub const SCHEDULER: &str = "sim.scheduler";
pub const GENERATOR: &str = "workflows.generator";
pub const PREDICT: &str = "predictor.predict";
pub const OBSERVE_RETRAIN: &str = "predictor.observe.retrain";
pub const OBSERVE_INCREMENTAL: &str = "predictor.observe.incremental";
pub const SINKS: &str = "sim.sinks";
pub const BASELINE_PREDICT: &str = "baselines.predict";
pub const BASELINE_OBSERVE: &str = "baselines.observe";
/// Counter: full model-pool retrains, summed over every traced predictor.
pub const FULL_RETRAINS: &str = "pool.full_retrains";

#[derive(Clone, Copy)]
enum Engine {
    /// `schedule_workflows` over instances materialised during set-up.
    Materialised,
    /// `schedule_workflows_streaming` pulling from `stream_workflow`.
    Streaming,
}

#[derive(Clone, Copy)]
enum Sizer {
    /// `SizeyPredictor` with the default configuration and, when given, a
    /// bounded `history_window`.
    Sizey { history_window: Option<usize> },
    /// [`HalfPreset`]: predictor cost is zero by construction.
    HalfPreset,
}

/// Half the user's preset, doubled on each retry. As free to evaluate as
/// `PresetPredictor`, but tight enough that a few percent of attempts do run
/// out of memory — so the scheduler's retry ledger runs and `oom_failures`
/// is never zero, which the presets themselves (three times the typical
/// peak) would not give.
#[derive(Clone, Copy)]
struct HalfPreset;

impl MemoryPredictor for HalfPreset {
    fn name(&self) -> String {
        "Half-Presets".to_string()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        Prediction::simple(task.preset_memory_bytes * 0.5 * 2.0_f64.powi(ctx.attempt as i32))
    }

    fn observe(&mut self, _record: &TaskRecord) {}
}

impl CountsRetrains for HalfPreset {}

pub struct SimWorkload {
    name: &'static str,
    why: &'static str,
    tenants: usize,
    scale: f64,
    engine: Engine,
    sizer: Sizer,
    policy: SchedulePolicy,
    submit_interval_seconds: f64,
    stagger_seconds: f64,
    /// Repeat a crash storm daily and a kill burst six-hourly over the run.
    faults: bool,
    /// Micro loops of the layers this workload's numbers are explained by.
    micro: &'static [micro::Group],
    /// Also time snapshot/restore of a predictor trained at this scale.
    lifecycle: bool,
    smoke: bool,
}

pub fn replay_dense(smoke: bool) -> SimWorkload {
    SimWorkload {
        name: "replay_dense",
        why: "6 tenants, unbounded-history Sizey, materialised engine: predictor and ML kernels are >95% of wall",
        tenants: 6,
        scale: if smoke { 0.05 } else { 1.2 },
        engine: Engine::Materialised,
        sizer: Sizer::Sizey {
            history_window: None,
        },
        policy: SchedulePolicy::FirstFit,
        submit_interval_seconds: 5.0,
        stagger_seconds: 600.0,
        faults: false,
        micro: &[micro::Group::Kernels],
        lifecycle: true,
        smoke,
    }
}

pub fn stream_50t(smoke: bool) -> SimWorkload {
    SimWorkload {
        name: "stream_50t",
        why: "50 tenants, window-bounded Sizey, streaming engine: every window trim forces a retrain; carries peak heap",
        tenants: 50,
        scale: if smoke { 0.01 } else { 0.3 },
        engine: Engine::Streaming,
        sizer: Sizer::Sizey {
            history_window: Some(if smoke { 16 } else { 64 }),
        },
        policy: SchedulePolicy::FirstFit,
        submit_interval_seconds: 600.0,
        stagger_seconds: 120.0,
        faults: false,
        micro: &[micro::Group::Kernels],
        lifecycle: false,
        smoke,
    }
}

pub fn sched_1m(smoke: bool) -> SimWorkload {
    SimWorkload {
        name: "sched_1m",
        why: "1.1M instances, zero-cost predictor, backfill under crash storms: generator, scheduler, cluster and faults are all of wall",
        tenants: 50,
        scale: if smoke { 0.2 } else { 10.0 },
        engine: Engine::Streaming,
        sizer: Sizer::HalfPreset,
        policy: SchedulePolicy::Backfill,
        submit_interval_seconds: 600.0,
        stagger_seconds: 120.0,
        faults: true,
        micro: &[micro::Group::Cluster],
        lifecycle: false,
        smoke,
    }
}

/// The share of attempts the fault plan of `sched_1m` must requeue for the
/// workload to exercise the fault path at all.
const MIN_REQUEUED_SHARE: f64 = 0.01;

impl SimWorkload {
    fn simulation(&self, seed: u64, horizon_seconds: f64) -> SimulationConfig {
        let sim = SimulationConfig {
            submit_interval_seconds: self.submit_interval_seconds,
            ..SimulationConfig::default().with_policy(self.policy)
        };
        if self.faults {
            sim.with_faults(fault_plan(seed, horizon_seconds))
        } else {
            sim
        }
    }

    fn predictor(&self, tenant: u32, traced: bool) -> Box<dyn MemoryPredictor> {
        match self.sizer {
            Sizer::HalfPreset if traced => Box::new(Traced::new(HalfPreset, tenant)),
            Sizer::HalfPreset => Box::new(HalfPreset),
            Sizer::Sizey { history_window } => {
                let config = match history_window {
                    Some(window) => SizeyConfig::default().with_history_window(window),
                    None => SizeyConfig::default(),
                };
                let sizey = SizeyPredictor::new(config);
                if traced {
                    Box::new(Traced::new(sizey, tenant))
                } else {
                    Box::new(sizey)
                }
            }
        }
    }
}

/// A crash storm (3 of the 8 nodes down for 900 s) once per simulated day
/// and a burst of 32 task kills every six simulated hours, over the whole
/// arrival horizon. Storm victims are drawn from the seed.
fn fault_plan(seed: u64, horizon_seconds: f64) -> FaultPlan {
    const DAY: f64 = 86_400.0;
    let mut plan = FaultPlan::default();
    let days = (horizon_seconds / DAY).ceil() as u64;
    for day in 0..days {
        plan = plan.with_storm(CrashStorm {
            time_seconds: (day as f64 + 0.5) * DAY,
            nodes: 3,
            down_seconds: 900.0,
            seed: seed.wrapping_add(day),
        });
        for quarter in 0..4 {
            plan = plan.with_task_kills(TaskKillBurst {
                time_seconds: (day as f64 + 0.125 + 0.25 * quarter as f64) * DAY,
                tasks: 32,
            });
        }
    }
    plan
}

enum Tenants {
    Materialised(Vec<WorkflowTenant>),
    Streaming(Vec<StreamingTenant>),
}

/// What either engine reports, in one shape.
struct Outcome {
    aggregates: Vec<(String, ReplayAggregates)>,
    makespan_seconds: f64,
    stats: SchedulerStats,
    peak_inflight_instances: usize,
    leaked_inflight_instances: usize,
}

impl Workload for SimWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn why(&self) -> &'static str {
        self.why
    }

    fn prepare(&self, seed: u64, traced: bool) -> Box<dyn FnOnce() -> Pass + '_> {
        // Tenant `i` is generated from `seed + i`: tenants that share a
        // workflow profile are then different executions of it, not copies,
        // which also keeps the simulated totals steadier from seed to seed.
        let generator = |i: usize| GeneratorConfig::scaled(self.scale, seed.wrapping_add(i as u64));
        let workflows = all_workflows();
        let specs = workflows.iter().cycle().take(self.tenants).enumerate();
        let mut horizon_seconds = 0.0f64;
        let mut arrival_horizon = |offset: f64, instances: usize| {
            let last = offset + instances as f64 * self.submit_interval_seconds;
            horizon_seconds = horizon_seconds.max(last);
        };
        let tenants = match self.engine {
            Engine::Materialised => Tenants::Materialised(
                specs
                    .map(|(i, wf)| {
                        let tenant = i as u32;
                        let offset = i as f64 * self.stagger_seconds;
                        let instances = trace::span(GENERATOR, tenant, 0, || {
                            generate_workflow(wf, &generator(i))
                        });
                        arrival_horizon(offset, instances.len());
                        WorkflowTenant::new(
                            format!("{}-{i}", wf.name),
                            instances,
                            self.predictor(tenant, traced),
                        )
                        .with_arrival_offset(offset)
                    })
                    .collect(),
            ),
            Engine::Streaming => Tenants::Streaming(
                specs
                    .map(|(i, wf)| {
                        let tenant = i as u32;
                        let offset = i as f64 * self.stagger_seconds;
                        let stream = stream_workflow(wf, &generator(i));
                        arrival_horizon(offset, stream.total_instances());
                        let instances: Box<dyn Iterator<Item = TaskInstance>> = if traced {
                            Box::new(TracedIter {
                                inner: stream,
                                tenant,
                                seq: 0,
                            })
                        } else {
                            Box::new(stream)
                        };
                        StreamingTenant::new(
                            format!("{}-{i}", wf.name),
                            instances,
                            self.predictor(tenant, traced),
                        )
                        .with_arrival_offset(offset)
                    })
                    .collect(),
            ),
        };
        let sim = self.simulation(seed, horizon_seconds);
        let fault_layer = match &sim.faults {
            Some(plan) if traced => vec![
                (
                    "faults.compile_us",
                    super::micro_ns(1, || {
                        std::hint::black_box(plan.compile(&sim));
                    }) / 1e3,
                ),
                ("faults.events", plan.compile(&sim).len() as f64),
            ],
            _ => Vec::new(),
        };

        Box::new(move || {
            let start = Instant::now();
            trace::begin(0, 0);
            let outcome = match tenants {
                Tenants::Materialised(tenants) => {
                    let result = schedule_workflows(tenants, &sim);
                    Outcome {
                        aggregates: result
                            .reports
                            .iter()
                            .map(|r| (r.workflow.clone(), ReplayAggregates::from_report(r)))
                            .collect(),
                        makespan_seconds: result.makespan_seconds,
                        stats: result.stats,
                        peak_inflight_instances: 0,
                        leaked_inflight_instances: 0,
                    }
                }
                Tenants::Streaming(tenants) => {
                    let result = if traced {
                        schedule_workflows_streaming(
                            tenants,
                            &sim,
                            &mut TracedAttemptSink,
                            &mut TracedRecordSink,
                        )
                    } else {
                        schedule_workflows_streaming(
                            tenants,
                            &sim,
                            &mut NullSink,
                            &mut NullRecordSink,
                        )
                    };
                    Outcome {
                        aggregates: result
                            .reports
                            .into_iter()
                            .map(|r| (r.workflow, r.aggregates))
                            .collect(),
                        makespan_seconds: result.makespan_seconds,
                        stats: result.stats,
                        peak_inflight_instances: result.peak_inflight_instances,
                        leaked_inflight_instances: result.leaked_inflight_instances,
                    }
                }
            };
            trace::end(SCHEDULER);
            let wall_s = start.elapsed().as_secs_f64();
            self.report(outcome, wall_s, fault_layer, traced.then(trace::finish))
        })
    }

    fn layers(&self, seed: u64, plain: &Pass, traced: &Pass) -> Vec<(String, f64)> {
        let trace = traced.trace.as_ref().expect("traced pass carries a trace");
        let attempts = traced.count("sched.dispatched_attempts");
        let instances = traced.count("gen.instances");
        let scheduler = trace.layer(SCHEDULER);
        let generator = trace.layer(GENERATOR);
        let mut out = vec![
            ("gen.busy_s".to_string(), generator.busy_s()),
            (
                "gen.ns_per_instance".to_string(),
                generator.busy_s() * 1e9 / instances.max(1.0),
            ),
            ("sched.self_s".to_string(), scheduler.self_s()),
            (
                "sched.ns_per_attempt".to_string(),
                scheduler.self_s() * 1e9 / attempts.max(1.0),
            ),
            ("sinks.busy_s".to_string(), trace.layer(SINKS).busy_s()),
        ];
        out.extend(traced.layer_counts());
        out.extend(predictor_layers(trace));
        let generated_in_setup = match self.engine {
            Engine::Materialised => generator.busy_s(),
            Engine::Streaming => 0.0,
        };
        out.extend(trace_cost(plain, traced, trace, generated_in_setup));
        for group in self.micro {
            micro::run(*group, seed, self.smoke, &mut out);
        }
        if self.lifecycle {
            micro::lifecycle(seed, self.scale, &mut out);
        }
        out
    }
}

impl SimWorkload {
    fn report(
        &self,
        outcome: Outcome,
        wall_s: f64,
        fault_layer: Vec<(&'static str, f64)>,
        trace: Option<TraceReport>,
    ) -> Pass {
        let stats = &outcome.stats;
        let mut digest = Fnv::default();
        let (mut instances, mut unfinished, mut failures, mut wastage) = (0u64, 0u64, 0u64, 0.0);
        for (workflow, aggregates) in &outcome.aggregates {
            digest.aggregates(workflow, aggregates);
            instances += aggregates.instances as u64;
            unfinished += aggregates.unfinished_instances as u64;
            failures += aggregates.failures;
            wastage += aggregates.total_wastage_gbh;
        }
        digest.f64(outcome.makespan_seconds);
        digest.scheduler_stats(stats);

        let attempts = stats.dispatched_attempts as f64;
        let mut broken = Vec::new();
        if self.faults && (stats.requeued_attempts as f64) < MIN_REQUEUED_SHARE * attempts {
            broken.push(format!(
                "fault plan requeued {} of {} attempts, under {}%",
                stats.requeued_attempts,
                stats.dispatched_attempts,
                MIN_REQUEUED_SHARE * 100.0
            ));
        }
        Pass {
            wall_s,
            attempted: instances,
            failed: failed_operations(unfinished, stats, outcome.leaked_inflight_instances),
            digest: digest.finish(),
            values: vec![
                ("attempts_per_s", attempts / wall_s),
                ("wastage_gbh", wastage),
                ("oom_failures", failures as f64),
                ("makespan_s", outcome.makespan_seconds),
            ],
            counts: [
                ("gen.instances", instances as f64),
                ("sched.dispatched_attempts", attempts),
                ("sched.requeued_attempts", stats.requeued_attempts as f64),
                ("sched.peak_pending_tasks", stats.peak_pending_tasks as f64),
                (
                    "sched.peak_inflight_instances",
                    outcome.peak_inflight_instances as f64,
                ),
                ("sched.mean_queue_delay_s", stats.mean_queue_delay_seconds()),
                ("faults.crash_lost", stats.crash_lost_attempts as f64),
                (
                    "faults.killed",
                    (stats.requeued_attempts - stats.crash_lost_attempts - stats.preempted_attempts)
                        as f64,
                ),
            ]
            .into_iter()
            .chain(fault_layer)
            .collect(),
            samples: Vec::new(),
            broken,
            trace,
        }
    }
}

/// A sim workload attempts its instances. Failed are the instances that
/// never finished, the in-flight or retry-ledger entries the engine leaked,
/// and the placements it forced past a full cluster.
fn failed_operations(unfinished: u64, stats: &SchedulerStats, leaked_instances: usize) -> u64 {
    unfinished + (stats.leaked_inflight_retries + leaked_instances + stats.forced_placements) as u64
}

/// `predict.*`, `observe.*` and `pool.*` from the predictor spans — shared
/// with `paper_sweep`, which wraps its predictors the same way.
pub fn predictor_layers(trace: &TraceReport) -> Vec<(String, f64)> {
    let predict = trace.layer(PREDICT);
    let retrain = trace.layer(OBSERVE_RETRAIN);
    let incremental = trace.layer(OBSERVE_INCREMENTAL);
    let observe = retrain.clone().merged(&incremental);
    let p50 = observe.durations.percentile_ns(0.5);
    let p99 = observe.durations.percentile_ns(0.99);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    [
        ("predict.count", predict.count() as f64),
        ("predict.busy_s", predict.busy_s()),
        ("predict.p50_ns", predict.durations.percentile_ns(0.5)),
        ("predict.p99_ns", predict.durations.percentile_ns(0.99)),
        ("observe.count", observe.count() as f64),
        ("observe.busy_s", observe.busy_s()),
        ("observe.p50_us", p50 / 1e3),
        ("observe.p99_us", p99 / 1e3),
        ("observe.max_us", observe.durations.max_ns() as f64 / 1e3),
        ("observe.tail_ratio", ratio(p99, p50)),
        ("pool.full_retrains", trace.counter(FULL_RETRAINS) as f64),
        ("pool.retrain_busy_s", retrain.busy_s()),
        (
            "pool.retrain_p50_ms",
            retrain.durations.percentile_ns(0.5) / 1e6,
        ),
        ("pool.incremental_busy_s", incremental.busy_s()),
        (
            "pool.incremental_p50_us",
            incremental.durations.percentile_ns(0.5) / 1e3,
        ),
        (
            "pool.retrain_share",
            ratio(retrain.busy_s(), observe.busy_s()),
        ),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect()
}

/// `trace.*`: what tracing itself cost on this workload, and how much of
/// the traced pass the layer self times account for. Spans that were open
/// outside the pass's root span (generation during set-up) are not part of
/// the pass: their time, `outside_root_s`, does not count.
pub fn trace_cost(
    plain: &Pass,
    traced: &Pass,
    trace: &TraceReport,
    outside_root_s: f64,
) -> Vec<(String, f64)> {
    let self_s: f64 = trace.layers.iter().map(|layer| layer.self_s()).sum();
    vec![
        (
            "trace.overhead_pct".to_string(),
            (traced.wall_s / plain.wall_s - 1.0) * 100.0,
        ),
        ("trace.spans".to_string(), trace.spans() as f64),
        (
            "trace.self_time_coverage".to_string(),
            (self_s - outside_root_s) / traced.wall_s,
        ),
    ]
}

/// Predictors the tracer can ask for their full-retrain count, so each
/// observe is classified by reading the count before and after the call.
pub trait CountsRetrains {
    fn full_retrains(&self) -> u64 {
        0
    }
}

impl CountsRetrains for SizeyPredictor {
    fn full_retrains(&self) -> u64 {
        self.total_full_retrains()
    }
}

/// Wraps a predictor's two public entry points in spans.
pub struct Traced<P> {
    inner: P,
    tenant: u32,
    predict: &'static str,
    /// Span name of an observe that ran no full retrain, and of one that did.
    observe: [&'static str; 2],
}

impl<P> Traced<P> {
    /// Spans named after the Sizey layers.
    pub fn new(inner: P, tenant: u32) -> Self {
        Traced {
            inner,
            tenant,
            predict: PREDICT,
            observe: [OBSERVE_INCREMENTAL, OBSERVE_RETRAIN],
        }
    }

    /// Spans named after the baselines crate, so `predict.*` and `observe.*`
    /// stay Sizey's own when a sweep runs both.
    pub fn baseline(inner: P, tenant: u32) -> Self {
        Traced {
            inner,
            tenant,
            predict: BASELINE_PREDICT,
            observe: [BASELINE_OBSERVE; 2],
        }
    }
}

impl<P: MemoryPredictor + CountsRetrains> MemoryPredictor for Traced<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        trace::span(self.predict, self.tenant, task.sequence, || {
            self.inner.predict(task, ctx)
        })
    }

    fn observe(&mut self, record: &TaskRecord) {
        let before = self.inner.full_retrains();
        trace::begin(self.tenant, record.sequence);
        self.inner.observe(record);
        let retrains = self.inner.full_retrains() - before;
        trace::end(self.observe[usize::from(retrains > 0)]);
        trace::add(FULL_RETRAINS, retrains);
    }
}

/// Wraps a tenant's instance iterator: one span per instance pulled.
struct TracedIter<I> {
    inner: I,
    tenant: u32,
    seq: u64,
}

impl<I: Iterator<Item = TaskInstance>> Iterator for TracedIter<I> {
    type Item = TaskInstance;

    fn next(&mut self) -> Option<TaskInstance> {
        let next = trace::span(GENERATOR, self.tenant, self.seq, || self.inner.next());
        self.seq += 1;
        next
    }
}

struct TracedAttemptSink;

impl AttemptSink for TracedAttemptSink {
    fn record(&mut self, event: &AttemptEvent) {
        trace::span(SINKS, 0, event.sequence, || NullSink.record(event));
    }
}

struct TracedRecordSink;

impl RecordSink for TracedRecordSink {
    fn record(&mut self, record: &TaskRecord) {
        trace::span(SINKS, 0, record.sequence, || NullRecordSink.record(record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_operations_add_unfinished_leaked_and_forced() {
        let clean = SchedulerStats::default();
        assert_eq!(failed_operations(0, &clean, 0), 0);
        let dirty = SchedulerStats {
            leaked_inflight_retries: 2,
            forced_placements: 3,
            // Requeues and OOM retries are the system working, not failing.
            requeued_attempts: 1_000,
            ..SchedulerStats::default()
        };
        assert_eq!(failed_operations(5, &dirty, 7), 17);
    }

    #[test]
    fn the_fault_plan_covers_the_horizon_and_follows_the_seed() {
        let plan = fault_plan(42, 2.5 * 86_400.0);
        assert_eq!((plan.storms.len(), plan.task_kills.len()), (3, 12));
        assert!(plan
            .storms
            .iter()
            .all(|s| s.nodes == 3 && s.down_seconds == 900.0));
        assert!(plan.task_kills.iter().all(|k| k.tasks == 32));
        assert_ne!(plan.storms[0].seed, plan.storms[1].seed);
        assert_ne!(plan.storms[0].seed, fault_plan(7, 86_400.0).storms[0].seed);
        assert!(fault_plan(42, 0.0).is_empty());
    }

    #[test]
    fn half_presets_double_per_retry_and_count_no_retrains() {
        let task = TaskSubmission {
            workflow: "w".into(),
            task_type: sizey_provenance::TaskTypeId::new("t"),
            machine: sizey_provenance::MachineId::new("m"),
            sequence: 1,
            input_bytes: 1e9,
            preset_memory_bytes: 8e9,
        };
        let first = HalfPreset.predict(&task, AttemptContext::first());
        let retry = HalfPreset.predict(&task, AttemptContext::retry(2, 8e9));
        assert_eq!(
            (first.allocation_bytes, retry.allocation_bytes),
            (4e9, 16e9)
        );
        assert_eq!(HalfPreset.full_retrains(), 0);
    }

    /// The smoke sizes of all three recipes, traced: outputs repeat, the
    /// traced pass agrees with the plain one, and the self times of the
    /// layers add up to the wall time.
    #[test]
    fn smoke_passes_repeat_and_their_layers_cover_the_wall_time() {
        for workload in [replay_dense(true), stream_50t(true), sched_1m(true)] {
            let report = crate::run::run_workload(&workload, 7, 0.01, true);
            assert!(report.correct(), "{}: {:?}", workload.name, report.broken);
            assert!(report.attempted > 0 && report.failed == 0);
            let layer = |name: &str| {
                report
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v)
            };
            let coverage = layer("trace.self_time_coverage");
            assert!(
                (0.95..=1.05).contains(&coverage),
                "{}: {coverage}",
                workload.name
            );
            assert!(layer("predict.count") >= layer("gen.instances"));
            assert!(layer("sched.self_s") > 0.0 && layer("trace.spans") > 0.0);
            assert_eq!(
                layer("sched.requeued_attempts") > 0.0,
                workload.faults,
                "{}",
                workload.name
            );
        }
    }
}
