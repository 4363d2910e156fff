//! Bit-equality pin for the mechanical fixes the `cargo xtask lint` rules
//! forced through the tree (PR 8): `partial_cmp` → `total_cmp` conversions,
//! the `HashMap` → `BTreeMap` migration of Sizey's pool index, and the
//! allocation-free predict-path rework (scratch-buffer gating/offset/model
//! kernels).
//!
//! The other equivalence suites (`perf_equivalence`, `streaming_equivalence`,
//! `concurrent_equivalence`) compare two *current* engines against each
//! other, so a numeric change that hits both sides equally slips through
//! them. This suite pins replay output across **commits**: the golden
//! digests below were computed on the tree immediately before the lint
//! fixes landed (`GOLDEN_PRINT=1 cargo test --release --test
//! lint_fix_equivalence -- --nocapture` prints the current values), so any
//! bit-level drift introduced by a "mechanical" migration fails loudly.
//!
//! The digest is FNV-1a over the exact bit patterns (`f64::to_bits`) of
//! every attempt event and aggregate the scenarios produce — if a single
//! allocation, estimate, queue delay or model-selection string changes
//! anywhere, the digest changes.

use sizey_core::{select_dynamic_offset_with, OffsetScratch};
use sizey_ml::RandomForestRegression;
use sizey_suite::prelude::*;

/// FNV-1a, 64 bit: simple, dependency-free, stable across platforms.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf29ce484222325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bytes(&mut self, s: &[u8]) {
        for &byte in s {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.f64(v);
            }
            None => self.u64(0),
        }
    }
}

/// Digests a report; `timed = false` leaves out the makespan and each
/// event's start time and queue delay, which keeps only the decisions.
fn digest_report(d: &mut Digest, report: &ReplayReport, timed: bool) {
    d.bytes(report.method.as_bytes());
    d.bytes(report.workflow.as_bytes());
    d.u64(report.aggregates.instances as u64);
    d.u64(report.aggregates.unfinished_instances as u64);
    if timed {
        d.f64(report.aggregates.makespan_seconds);
    }
    d.u64(report.events.len() as u64);
    for e in &report.events {
        d.bytes(e.task_type.as_str().as_bytes());
        d.u64(e.sequence);
        d.u64(e.attempt as u64);
        d.f64(e.allocated_bytes);
        d.f64(e.true_peak_bytes);
        d.f64(e.duration_seconds);
        d.u64(e.success as u64);
        d.f64(e.wastage_gbh);
        d.opt_f64(e.raw_estimate_bytes);
        match &e.selected_model {
            Some(m) => {
                d.u64(1);
                d.bytes(m.as_bytes());
            }
            None => d.u64(0),
        }
        if timed {
            d.f64(e.submit_time_seconds);
            d.f64(e.queue_delay_seconds);
        }
    }
}

/// Compares a freshly computed digest against its golden value, or prints it
/// when `GOLDEN_PRINT` is set (used to capture the pre-change goldens).
fn check(name: &str, digest: Digest, golden: u64) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN {name} = 0x{:016x}", digest.0);
        return;
    }
    assert_eq!(
        digest.0, golden,
        "{name}: replay output diverged from the pre-lint-fix tree \
         (got 0x{:016x}, expected 0x{golden:016x})",
        digest.0
    );
}

/// Single-tenant serial replays across two workflow profiles: exercises the
/// full Sizey predict path (gating, RAQ, offsets, all four model classes)
/// plus the `total_cmp` conversions in the accounting sorts.
///
/// Two digests: the full one, and the decisions alone (no timing terms),
/// which must hold through any change that only moves timing.
#[test]
fn serial_replay_output_is_pinned() {
    let mut d = Digest::new();
    let mut decisions = Digest::new();
    for (name, scale, seed) in [("iwd", 0.06, 17), ("chipseq", 0.05, 3)] {
        let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
        let instances = generate_workflow(&spec, &GeneratorConfig::scaled(scale, seed));
        let sim = SimulationConfig::default();
        let mut sizey = SizeyPredictor::with_defaults();
        let report = replay_workflow(&spec.name, &instances, &mut sizey, &sim);
        for (d, timed) in [(&mut d, true), (&mut decisions, false)] {
            digest_report(d, &report, timed);
            // The model-selection shares run through the descending share
            // sort (one of the partial_cmp → total_cmp conversions).
            for (model, share) in report.aggregates.model_selection_share() {
                d.bytes(model.as_bytes());
                d.f64(share);
            }
        }
    }
    check("serial_replay", d, GOLDEN_SERIAL_REPLAY);
    check(
        "serial_replay (decisions)",
        decisions,
        GOLDEN_SERIAL_DECISIONS,
    );
}

/// Multi-tenant event-driven scheduling under BestFit and Backfill:
/// exercises the event-heap ordering (`total_cmp` in `queue.rs`), the
/// scheduler's in-flight retry baselines, and the BTreeMap pool-index
/// migration under interleaved multi-pool traffic.
#[test]
fn scheduled_multi_tenant_output_is_pinned() {
    let mut d = Digest::new();
    for policy in [
        SchedulePolicy::FirstFit,
        SchedulePolicy::BestFit,
        SchedulePolicy::Backfill,
    ] {
        let config = SimulationConfig::default().with_policy(policy);
        let tenants: Vec<WorkflowTenant> = [("mag", 0.03, 9u64, 0.0), ("rnaseq", 0.04, 5, 120.0)]
            .into_iter()
            .map(|(name, scale, seed, offset)| {
                let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
                let instances = generate_workflow(&spec, &GeneratorConfig::scaled(scale, seed));
                WorkflowTenant::new(
                    spec.name.to_string(),
                    instances,
                    Box::new(SizeyPredictor::with_defaults()),
                )
                .with_arrival_offset(offset)
            })
            .collect();
        let multi = schedule_workflows(tenants, &config);
        d.f64(multi.makespan_seconds);
        d.u64(multi.stats.dispatched_attempts as u64);
        d.f64(multi.stats.total_queue_delay_seconds);
        d.f64(multi.stats.max_queue_delay_seconds);
        d.u64(multi.stats.peak_running_tasks as u64);
        d.f64(multi.stats.peak_allocated_bytes);
        d.u64(multi.stats.peak_inflight_retries as u64);
        d.u64(multi.stats.leaked_inflight_retries as u64);
        for report in &multi.reports {
            digest_report(&mut d, report, true);
        }
    }
    check("scheduled_multi_tenant", d, GOLDEN_SCHEDULED);
}

/// The faulted scenario: two Sizey tenants on a small two-pool cluster with
/// spread arrivals, under a plan with one fault of every kind placed inside
/// the busy part of the run. Task types carry a `<tenant>:` prefix so a flat
/// event stream can be split per tenant again.
fn faulted_scenario(policy: SchedulePolicy) -> (Vec<WorkflowTenant>, SimulationConfig) {
    let plan = FaultPlan::default()
        .with_task_kills(TaskKillBurst {
            time_seconds: 150.0,
            tasks: 5,
        })
        .with_node_crash(NodeCrash {
            time_seconds: 300.0,
            node: 0,
            down_seconds: 250.0,
        })
        .with_storm(CrashStorm {
            time_seconds: 700.0,
            nodes: 2,
            down_seconds: 300.0,
            seed: 11,
        })
        .with_pool_preemption(PoolPreemption {
            pool: 1,
            time_seconds: 1100.0,
            return_after_seconds: 400.0,
        });
    let mut config = SimulationConfig::default()
        .with_nodes(2, 128e9, 6)
        .with_extra_pool(NodePoolSpec {
            count: 2,
            memory_bytes: 64e9,
            slots: 4,
        })
        .with_policy(policy)
        .with_faults(plan);
    config.submit_interval_seconds = 2.0;
    let tenants = [("mag", 0.03, 9u64, 0.0), ("rnaseq", 0.04, 5, 120.0)]
        .into_iter()
        .enumerate()
        .map(|(ti, (name, scale, seed, offset))| {
            let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
            let mut instances = generate_workflow(&spec, &GeneratorConfig::scaled(scale, seed));
            for inst in &mut instances {
                inst.task_type = TaskTypeId::new(format!("{ti}:{}", inst.task_type.as_str()));
            }
            WorkflowTenant::new(
                spec.name.to_string(),
                instances,
                Box::new(SizeyPredictor::with_defaults()),
            )
            .with_arrival_offset(offset)
        })
        .collect();
    (tenants, config)
}

fn digest_faulted_run(d: &mut Digest, run: &MultiReplayReport) {
    let stats = &run.stats;
    d.f64(run.makespan_seconds);
    d.u64(stats.dispatched_attempts as u64);
    d.f64(stats.total_queue_delay_seconds);
    d.f64(stats.max_queue_delay_seconds);
    d.u64(stats.peak_running_tasks as u64);
    d.f64(stats.peak_allocated_bytes);
    d.u64(stats.peak_pending_tasks as u64);
    d.u64(stats.forced_placements as u64);
    d.u64(stats.peak_inflight_retries as u64);
    d.u64(stats.leaked_inflight_retries as u64);
    d.u64(stats.requeued_attempts as u64);
    d.u64(stats.crash_lost_attempts as u64);
    d.u64(stats.preempted_attempts as u64);
    for node in &run.nodes {
        d.f64(node.peak_allocated_bytes);
        d.u64(node.peak_used_slots as u64);
    }
    for report in &run.reports {
        digest_report(d, report, true);
    }
}

/// Multi-tenant scheduling under fault injection, from both entry points of
/// the event-driven engine. `GOLDEN_FAULTED` was captured on the commit that
/// still had a separate event loop behind `schedule_workflows`, so it pins
/// the single engine to that loop's output and pins the adapter's per-tenant
/// event routing to the flat stream a `Vec<AttemptEvent>` sink receives.
#[test]
fn faulted_multi_tenant_output_is_pinned() {
    let mut adapter = Digest::new();
    let mut streaming = Digest::new();
    for policy in SchedulePolicy::ALL {
        let (tenants, config) = faulted_scenario(policy);
        let multi = schedule_workflows(tenants, &config);
        assert!(multi.stats.crash_lost_attempts > 0, "{policy:?}");
        assert!(multi.stats.preempted_attempts > 0, "{policy:?}");
        assert!(
            multi.stats.requeued_attempts
                > multi.stats.crash_lost_attempts + multi.stats.preempted_attempts,
            "{policy:?}: the task-kill burst must hit running attempts"
        );
        digest_faulted_run(&mut adapter, &multi);

        let (tenants, config) = faulted_scenario(policy);
        let mut flat: Vec<sizey_sim::AttemptEvent> = Vec::new();
        let mut streamed = schedule_workflows_streaming(
            tenants.into_iter().map(StreamingTenant::from).collect(),
            &config,
            &mut flat,
            &mut NullRecordSink,
        );
        for event in flat {
            let (tenant, _) = event
                .task_type
                .as_str()
                .split_once(':')
                .expect("tenant-prefixed task type");
            let tenant: usize = tenant.parse().expect("tenant index");
            streamed.reports[tenant].events.push(event);
        }
        digest_faulted_run(&mut streaming, &streamed);
    }
    check(
        "faulted_multi_tenant (schedule_workflows)",
        adapter,
        GOLDEN_FAULTED,
    );
    check(
        "faulted_multi_tenant (schedule_workflows_streaming)",
        streaming,
        GOLDEN_FAULTED,
    );
}

/// The blocked-head scenario: Sizey, a baseline and the workflow presets
/// share an eight-slot cluster with every instance of a tenant arriving at its
/// offset (`submit_interval_seconds` 0), so the pending queue stays long and
/// its head is blocked most of the time. Task types carry a `<tenant>:`
/// prefix, as in the faulted scenario.
fn backfill_scenario(window: usize) -> (Vec<WorkflowTenant>, SimulationConfig) {
    let plan = FaultPlan::default()
        .with_node_crash(NodeCrash {
            time_seconds: 400.0,
            node: 1,
            down_seconds: 300.0,
        })
        .with_task_kills(TaskKillBurst {
            time_seconds: 900.0,
            tasks: 3,
        });
    let mut config = SimulationConfig::default()
        .with_nodes(2, 24e9, 3)
        .with_extra_pool(NodePoolSpec {
            count: 1,
            memory_bytes: 16e9,
            slots: 2,
        })
        .with_policy(SchedulePolicy::Backfill)
        .with_faults(plan);
    config.backfill_window = window;
    let methods: [Box<dyn MemoryPredictor>; 3] = [
        Box::new(SizeyPredictor::with_defaults()),
        Box::new(WittPercentile::new()),
        Box::new(PresetPredictor),
    ];
    let tenants = [
        ("mag", 0.03, 9u64, 0.0),
        ("rnaseq", 0.04, 5, 30.0),
        ("iwd", 0.03, 17, 60.0),
    ]
    .into_iter()
    .zip(methods)
    .enumerate()
    .map(|(ti, ((name, scale, seed, offset), method))| {
        let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
        let mut instances = generate_workflow(&spec, &GeneratorConfig::scaled(scale, seed));
        for inst in &mut instances {
            inst.task_type = TaskTypeId::new(format!("{ti}:{}", inst.task_type.as_str()));
        }
        WorkflowTenant::new(spec.name.to_string(), instances, method).with_arrival_offset(offset)
    })
    .collect();
    (tenants, config)
}

/// Backfill behind a blocked head, at windows of 1, 8 and 64, under one
/// node crash and one task-kill burst. `GOLDEN_BACKFILL` was captured on the
/// last commit that called `select_node` for every task in the backfill
/// window (54f75e2), so it pins the bound-filtered scan to that output.
#[test]
fn backfill_queue_output_is_pinned() {
    let mut d = Digest::new();
    for window in [1, 8, 64] {
        let (tenants, config) = backfill_scenario(window);
        let multi = schedule_workflows(tenants, &config);
        assert!(multi.stats.crash_lost_attempts > 0, "window {window}");
        assert!(
            multi.stats.requeued_attempts > multi.stats.crash_lost_attempts,
            "window {window}: the task-kill burst must hit running attempts"
        );
        // First submissions and fault requeues (attempt 0) join the back of
        // the queue in submission order, so without backfill none of them
        // starts before one submitted earlier. One that does proves the
        // blocked-head scan placed it.
        let starts: Vec<(f64, f64)> = multi
            .reports
            .iter()
            .flat_map(|r| &r.events)
            .filter(|e| e.attempt == 0)
            .map(|e| {
                let start = e.submit_time_seconds;
                (start - e.queue_delay_seconds, start)
            })
            .collect();
        assert!(
            starts
                .iter()
                .any(|&(submit, start)| { starts.iter().any(|&(s, t)| s < submit && start < t) }),
            "window {window}: no attempt started ahead of an earlier submission"
        );
        d.u64(window as u64);
        d.u64(multi.peak_inflight_instances as u64);
        digest_faulted_run(&mut d, &multi);
    }
    check("backfill_queue", d, GOLDEN_BACKFILL);
}

/// Kernel-level pin of the reworked predict-path pieces: the offset
/// strategies (with their percentile/median kernels) and their dynamic
/// selection — on synthetic fixtures independent of the replay engines.
#[test]
fn predict_path_kernels_are_pinned() {
    let mut d = Digest::new();

    // Offset strategies over a history with under- and over-predictions of
    // varying magnitude (windows shorter and longer than the median buffer).
    let mut history: Vec<(f64, f64)> = Vec::new();
    let mut scratch = OffsetScratch::default();
    let mut x = 1.0_f64;
    for i in 0..60 {
        x = (x * 1.3 + i as f64).rem_euclid(97.0);
        let pred = 1e9 + x * 1e8;
        let actual = pred + ((i % 7) as f64 - 3.0) * 2.5e8;
        history.push((pred, actual.max(1e6)));
        let window = &history[history.len().saturating_sub(40)..];
        for strategy in OffsetStrategy::ALL {
            d.f64(strategy.offset_with(window, &mut scratch));
        }
        let (strategy, offset) = select_dynamic_offset_with(window, &mut scratch);
        d.bytes(strategy.name().as_bytes());
        d.f64(offset);
    }

    check("predict_path_kernels", d, GOLDEN_KERNELS);
}

/// The four paper baselines, replayed serially over two small workloads:
/// every allocation, outcome and retry of Witt-LR, Witt-Percentile,
/// Witt-Wastage and Tovar-PPM. The golden was captured on the last commit
/// whose baselines refit from the whole history on every predict (6b42316),
/// so it pins the incremental per-observe learning to that output.
///
/// Raw estimates are left out: on that commit Witt-Percentile still reported
/// its preset as a model estimate below `min_history`, which it no longer
/// does. The first attempt's allocation is the raw estimate whenever there is
/// one, and `perf_equivalence` holds the raw estimates bit for bit to the
/// from-scratch estimators.
#[test]
fn baseline_replay_output_is_pinned() {
    let mut d = Digest::new();
    for (name, scale, seed) in [("iwd", 0.06, 17), ("rnaseq", 0.3, 5)] {
        let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
        let instances = generate_workflow(&spec, &GeneratorConfig::scaled(scale, seed));
        let sim = SimulationConfig::default();
        let methods: [Box<dyn MemoryPredictor>; 4] = [
            Box::new(WittLr::new()),
            Box::new(WittPercentile::new()),
            Box::new(WittWastage::new()),
            Box::new(TovarPpm::new()),
        ];
        for mut method in methods {
            let mut report = replay_workflow(&spec.name, &instances, method.as_mut(), &sim);
            for event in &mut report.events {
                event.raw_estimate_bytes = None;
            }
            digest_report(&mut d, &report, false);
        }
    }
    check("baseline_replay", d, GOLDEN_BASELINES);
}

/// The Sizey configurations beside the default one, replayed serially with
/// decisions only: full retraining with HPO (Fig. 9's "Sizey-Full"), a
/// predictor that never retrains fully, and the drift-armed predictor of
/// `specs/drift.toml` (a window of 12, a threshold of 0.6, 40 rows kept) on
/// its drifted workload. Pins each cadence and the drift response across
/// commits.
#[test]
fn sizey_variant_replay_output_is_pinned() {
    let mut d = Digest::new();
    let sim = SimulationConfig::default();
    let iwd = sizey_workflows::workflow_by_name("iwd").expect("known workflow");
    let small = generate_workflow(&iwd, &GeneratorConfig::scaled(0.04, 17));
    let never = SizeyConfig {
        retrain_interval: 0,
        ..SizeyConfig::default()
    };
    for config in [SizeyConfig::full_retraining(), never] {
        let mut sizey = SizeyPredictor::new(config);
        digest_report(
            &mut d,
            &replay_workflow("iwd", &small, &mut sizey, &sim),
            false,
        );
    }
    let drifted = generate_workflow(
        &iwd,
        &GeneratorConfig::scaled(0.2, 42).with_drift(DriftSpec {
            changepoint: 150,
            memory_scale: 2.0,
            slope_delta_bytes_per_input_byte: 1.0,
        }),
    );
    let armed = SizeyConfig::default().with_drift_policy(sizey_core::DriftPolicy::Retrain);
    let mut sizey = SizeyPredictor::new(armed);
    digest_report(
        &mut d,
        &replay_workflow("iwd", &drifted, &mut sizey, &sim),
        false,
    );
    check("sizey_variants", d, GOLDEN_SIZEY_VARIANTS);
}

/// Every field of every generated instance, bit for bit: the six workflows
/// at seeds 42 and 7 and scales 0.05 and 1.0, plus one drifted workload.
/// The generator is the repo's ground truth, so this pins the RNG draw order,
/// the wave interleaving, the sequence numbers and the drift transform.
#[test]
fn generated_workloads_are_pinned() {
    let mut d = Digest::new();
    let drifted = GeneratorConfig::scaled(0.3, 11).with_drift(DriftSpec {
        changepoint: 25,
        memory_scale: 1.4,
        slope_delta_bytes_per_input_byte: -0.2,
    });
    for spec in sizey_workflows::all_workflows() {
        let mut configs = vec![drifted];
        for seed in [42, 7] {
            for scale in [0.05, 1.0] {
                configs.push(GeneratorConfig::scaled(scale, seed));
            }
        }
        for config in &configs {
            let instances = generate_workflow(&spec, config);
            d.u64(instances.len() as u64);
            for inst in &instances {
                d.bytes(inst.workflow.as_bytes());
                d.bytes(inst.task_type.as_str().as_bytes());
                d.bytes(inst.machine.as_str().as_bytes());
                d.u64(inst.sequence);
                d.f64(inst.input_bytes);
                d.f64(inst.true_peak_bytes);
                d.f64(inst.base_runtime_seconds);
                d.f64(inst.preset_memory_bytes);
                d.f64(inst.cpu_utilization_pct);
                d.f64(inst.io_read_bytes);
                d.f64(inst.io_write_bytes);
            }
        }
    }
    check("generated", d, GOLDEN_GENERATED);
}

/// A deterministic forest row: mostly small integers (ties, including
/// duplicated rows), some ±0, continuous values and inputs near
/// ±`f64::MAX`, whose midpoints overflow to infinite thresholds.
fn forest_row(state: &mut u64) -> (f64, f64) {
    let mut next = || {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    };
    let kind = next() % 10;
    let raw = next();
    let input = match kind {
        0..=3 => (raw % 6) as f64,
        4 => [0.0, -0.0][(raw % 2) as usize],
        5 => [f64::MAX, -f64::MAX, 1e308, -1e308][(raw % 4) as usize],
        _ => (raw % 2_000_001) as f64 - 1e6 + (raw % 7) as f64 / 8.0,
    };
    let target = ((next() % 4) as f64 + 1.0) * 1e9 + (next() % 1_000) as f64 * 1e6;
    (input, target)
}

fn forest_rows(state: &mut u64, n: usize) -> Dataset {
    let mut data = Dataset::new();
    for _ in 0..n {
        let (x, y) = forest_row(state);
        data.push(x, y);
    }
    data
}

/// Every prediction of a fitted forest at `probes`, bit for bit.
fn digest_forest(d: &mut Digest, forest: &RandomForestRegression, probes: &[f64]) {
    for &x in probes {
        d.f64(forest.predict(&[x]).expect("fitted forest predicts"));
    }
}

/// The random forest on its own, across commits: full fits of 3, 30, 256
/// and 1,000 rows (each probed at every training input and a few fixed
/// points), a `fit_beside`, and 600 `partial_fit`s (one of seven rows, the
/// rest of one) after a 30-row fit that carry the history across the
/// 256-row refresh window, then a refit and 300 more. The rows hold ties,
/// duplicates, ±0 and inputs near ±`f64::MAX`.
#[test]
fn forest_predictions_are_pinned() {
    let mut d = Digest::new();
    let mut state = 0x5eed_f0e5_u64;
    let fixed = [
        -f64::MAX,
        -1e6,
        -0.0,
        0.0,
        0.5,
        2.0,
        2.5,
        5.0,
        1e5,
        1e308,
        f64::MAX,
    ];
    let probes =
        |data: &Dataset| -> Vec<f64> { data.inputs().iter().copied().chain(fixed).collect() };
    for n in [3, 30, 256, 1_000] {
        let data = forest_rows(&mut state, n);
        let mut forest = RandomForestRegression::with_defaults();
        forest.fit(&data).unwrap();
        digest_forest(&mut d, &forest, &probes(&data));
    }

    let data = forest_rows(&mut state, 100);
    let mut beside = RandomForestRegression::with_defaults();
    let mut runs = 0;
    beside.fit_beside(&data, &mut || runs += 1).unwrap();
    assert_eq!(runs, 1);
    digest_forest(&mut d, &beside, &probes(&data));

    let mut online = RandomForestRegression::with_defaults();
    online.fit(&forest_rows(&mut state, 30)).unwrap();
    for step in 0..900 {
        if step == 600 {
            online.fit(&forest_rows(&mut state, 40)).unwrap();
        }
        let rows = forest_rows(&mut state, if step == 300 { 7 } else { 1 });
        online.partial_fit(&rows).unwrap();
        let probes: Vec<f64> = rows.inputs().iter().copied().chain(fixed).collect();
        digest_forest(&mut d, &online, &probes);
    }
    check("forest", d, GOLDEN_FOREST);
}

// Golden digests captured on the tree immediately before the PR-8 lint
// fixes (see module docs for the capture command).
const GOLDEN_SCHEDULED: u64 = 0x861adc7d669c1355;
// Both serial digests moved (from 0x791ce3698f60ee62 and 0xa8588288b6132b3a)
// when the offset-selection tally they also digested was deleted; they were
// re-captured on the last commit with the tally (e59cc0e) with only its loop
// cut from this test, and the decisions they cover did not change.
const GOLDEN_SERIAL_REPLAY: u64 = 0x00b44ad293c137e5;
const GOLDEN_SERIAL_DECISIONS: u64 = 0x1b3a2974088a6321;
// Captured on the last commit with the occupancy replay (PR 16, c69b2f6),
// with only that replay's section cut from the test.
const GOLDEN_KERNELS: u64 = 0xf55545e555ed2f3d;
// Captured on the last commit with two event loops (PR 11, 36233a5), where
// both entry points already printed this value.
const GOLDEN_FAULTED: u64 = 0x989c776ac153d8f2;
// Captured on the last commit with per-predict baseline refits (6b42316).
const GOLDEN_BASELINES: u64 = 0x499b5d8198b383be;
// Captured on the last commit with the two-phase materialised generator
// beside the lazy stream (eb87959).
const GOLDEN_GENERATED: u64 = 0x758694b58a7983d1;
// Captured on the last commit with `OnlineMode` and the drift policy's
// settable fields (21b2455).
const GOLDEN_SIZEY_VARIANTS: u64 = 0xd6048d0aa8367b0f;
// Captured on the last commit that sorted each tree's bootstrap sample on
// its own (ed73b58).
const GOLDEN_FOREST: u64 = 0x421d1051830a4ec3;
// Captured on the last commit that called `select_node` for every task in
// the backfill window (54f75e2).
const GOLDEN_BACKFILL: u64 = 0x771c6a49cba79faa;
