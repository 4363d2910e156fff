//! Integration tests spanning the whole pipeline: workload generation →
//! online replay → Sizey and the baselines → accounting.

use sizey_suite::prelude::*;

fn workload(name: &str, scale: f64, seed: u64) -> (WorkflowSpec, Vec<TaskInstance>) {
    let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
    let instances = generate_workflow(&spec, &GeneratorConfig::scaled(scale, seed));
    (spec, instances)
}

#[test]
fn sizey_beats_presets_on_every_workflow() {
    for name in ["iwd", "rnaseq"] {
        let (spec, instances) = workload(name, 0.06, 17);
        let sim = SimulationConfig::default();

        let mut presets = PresetPredictor;
        let preset = replay_workflow(&spec.name, &instances, &mut presets, &sim);
        let mut sizey = SizeyPredictor::with_defaults();
        let learned = replay_workflow(&spec.name, &instances, &mut sizey, &sim);

        assert!(
            learned.total_wastage_gbh() < preset.total_wastage_gbh(),
            "{name}: Sizey {} GBh vs presets {} GBh",
            learned.total_wastage_gbh(),
            preset.total_wastage_gbh()
        );
        assert_eq!(
            learned.aggregates.unfinished_instances, 0,
            "{name}: tasks left unfinished"
        );
        assert_eq!(learned.aggregates.instances, instances.len());
    }
}

#[test]
fn every_method_completes_the_replay_without_unfinished_tasks() {
    let (spec, instances) = workload("chipseq", 0.04, 3);
    let sim = SimulationConfig::default();
    let mut methods: Vec<Box<dyn MemoryPredictor>> = vec![
        Box::new(SizeyPredictor::with_defaults()),
        Box::new(WittWastage::new()),
        Box::new(WittLr::new()),
        Box::new(TovarPpm::new()),
        Box::new(WittPercentile::new()),
        Box::new(PresetPredictor),
    ];
    for method in methods.iter_mut() {
        let report = replay_workflow(&spec.name, &instances, method.as_mut(), &sim);
        assert_eq!(
            report.aggregates.unfinished_instances, 0,
            "{} left tasks unfinished",
            report.method
        );
        assert!(report.total_wastage_gbh() >= 0.0);
        assert!(report.aggregates.total_runtime_hours() > 0.0);
        // Every successful first attempt plus retries must at least cover all
        // instances.
        assert!(report.events.len() >= instances.len());
    }
}

#[test]
fn lower_time_to_failure_never_increases_wastage() {
    let (spec, instances) = workload("mag", 0.03, 9);
    let mut sizey_full = SizeyPredictor::with_defaults();
    let full = replay_workflow(
        &spec.name,
        &instances,
        &mut sizey_full,
        &SimulationConfig::default().with_time_to_failure(1.0),
    );
    let mut sizey_half = SizeyPredictor::with_defaults();
    let half = replay_workflow(
        &spec.name,
        &instances,
        &mut sizey_half,
        &SimulationConfig::default().with_time_to_failure(0.5),
    );
    // Failed attempts are charged for a shorter time, so total wastage with
    // ttf = 0.5 must not exceed the ttf = 1.0 wastage (Fig. 8a vs 8b).
    assert!(
        half.total_wastage_gbh() <= full.total_wastage_gbh() + 1e-9,
        "ttf 0.5 wastage {} should not exceed ttf 1.0 wastage {}",
        half.total_wastage_gbh(),
        full.total_wastage_gbh()
    );
}

#[test]
fn allocations_never_exceed_node_memory() {
    let (spec, instances) = workload("methylseq", 0.04, 5);
    let sim = SimulationConfig::default();
    let mut sizey = SizeyPredictor::with_defaults();
    let report = replay_workflow(&spec.name, &instances, &mut sizey, &sim);
    for event in &report.events {
        assert!(event.allocated_bytes <= sim.node_memory_bytes + 1e-6);
        assert!(event.allocated_bytes > 0.0);
    }
}

#[test]
fn model_telemetry_is_populated_once_history_exists() {
    let (spec, instances) = workload("mag", 0.05, 23);
    let mut sizey = SizeyPredictor::with_defaults();
    let report = replay_workflow(
        &spec.name,
        &instances,
        &mut sizey,
        &SimulationConfig::default(),
    );
    let with_model = report
        .events
        .iter()
        .filter(|e| e.attempt == 0 && e.selected_model.is_some())
        .count();
    assert!(
        with_model * 2 > report.aggregates.instances,
        "most first attempts should be model-based ({with_model}/{})",
        report.aggregates.instances
    );
    // The model-selection share sums to ~1.
    let share_sum: f64 = report
        .aggregates
        .model_selection_share()
        .iter()
        .map(|(_, s)| s)
        .sum();
    assert!((share_sum - 1.0).abs() < 1e-9);
}

#[test]
fn provenance_trace_round_trips_through_the_store_and_file_format() {
    let (spec, instances) = workload("iwd", 0.03, 31);
    let mut sizey = SizeyPredictor::with_defaults();
    let _ = replay_workflow(
        &spec.name,
        &instances,
        &mut sizey,
        &SimulationConfig::default(),
    );

    let records: Vec<TaskRecord> = sizey
        .provenance()
        .all_records()
        .iter()
        .map(|r| (**r).clone())
        .collect();
    assert!(records.len() >= instances.len());

    let text = sizey_provenance::to_trace_string(&records);
    let parsed = sizey_provenance::from_trace_string(&text).expect("parse trace");
    assert_eq!(records, parsed);

    // Rebuild a store from the parsed trace: it journals the same records.
    let store = ProvenanceStore::new();
    for r in parsed {
        store.insert(r);
    }
    assert_eq!(store.len(), records.len());
    let journal: Vec<TaskRecord> = store.all_records().iter().map(|r| (**r).clone()).collect();
    assert_eq!(journal, records);
}

#[test]
fn sizey_prediction_error_decreases_with_experience() {
    // Replay the mag workflow (the Fig. 12 setting) without offsets and check
    // that the mean relative error over the last third of Prokka executions
    // is no worse than over the first third. A single seed makes this a coin
    // flip on workload noise, so the errors are pooled over several seeds.
    let mut early_sum = 0.0;
    let mut late_sum = 0.0;
    let mut pooled = 0usize;
    for seed in [2, 3, 5, 7, 11] {
        let (spec, instances) = workload("mag", 0.12, seed);
        let config = SizeyConfig {
            offset: OffsetMode::None,
            ..SizeyConfig::default()
        };
        let mut sizey = SizeyPredictor::new(config);
        let report = replay_workflow(
            &spec.name,
            &instances,
            &mut sizey,
            &SimulationConfig::default(),
        );
        let errors = report.prediction_error_over_time("Prokka");
        assert!(
            errors.len() > 30,
            "need enough Prokka executions, got {}",
            errors.len()
        );
        let third = errors.len() / 3;
        early_sum += errors[..third].iter().map(|(_, e)| e).sum::<f64>() / third as f64;
        late_sum += errors[errors.len() - third..]
            .iter()
            .map(|(_, e)| e)
            .sum::<f64>()
            / third as f64;
        pooled += 1;
    }
    let early = early_sum / pooled as f64;
    let late = late_sum / pooled as f64;
    assert!(
        late < early * 1.05,
        "error should not grow with experience: early {early:.3}, late {late:.3}"
    );
}
