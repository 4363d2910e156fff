//! Smoke test: every workflow profile replays to completion under every
//! predictor. This is the cheapest possible end-to-end sweep — a tiny
//! workload per profile — meant to catch wiring regressions (a profile whose
//! generated tasks can never finish, a predictor that panics on some task
//! type) rather than to measure quality.

use sizey_suite::prelude::*;

/// One small deterministic workload per profile: a couple of instances per
/// task type, interleaved like the real replays.
fn tiny_config() -> GeneratorConfig {
    GeneratorConfig {
        scale: 0.02,
        seed: 1234,
        min_instances: 2,
        drift: None,
    }
}

fn predictors() -> Vec<Box<dyn MemoryPredictor>> {
    vec![
        Box::new(SizeyPredictor::with_defaults()),
        Box::new(WittLr::new()),
        Box::new(WittPercentile::new()),
        Box::new(WittWastage::new()),
        Box::new(TovarPpm::new()),
    ]
}

#[test]
fn every_profile_replays_clean_under_every_predictor() {
    let specs = all_workflows();
    assert_eq!(
        specs.len(),
        sizey_workflows::WORKFLOW_NAMES.len(),
        "all_workflows and WORKFLOW_NAMES disagree"
    );

    for spec in &specs {
        let instances = generate_workflow(spec, &tiny_config());
        assert!(
            !instances.is_empty(),
            "{}: profile generated no instances",
            spec.name
        );

        for predictor in predictors().iter_mut() {
            let report = replay_workflow(
                &spec.name,
                &instances,
                predictor.as_mut(),
                &SimulationConfig::default(),
            );
            assert_eq!(
                report.aggregates.unfinished_instances, 0,
                "{} / {}: unfinished instances",
                spec.name, report.method
            );
            assert_eq!(report.aggregates.instances, instances.len());
            assert!(
                report.total_wastage_gbh().is_finite() && report.total_wastage_gbh() >= 0.0,
                "{} / {}: wastage {} not finite and nonnegative",
                spec.name,
                report.method,
                report.total_wastage_gbh()
            );
            assert!(
                report.aggregates.total_runtime_hours().is_finite()
                    && report.aggregates.total_runtime_hours() > 0.0,
                "{} / {}: runtime {} not finite and positive",
                spec.name,
                report.method,
                report.aggregates.total_runtime_hours()
            );
        }
    }
}

#[test]
fn preset_predictor_also_survives_every_profile() {
    // The preset baseline is the reference everything is compared against;
    // keep it in the sweep even though it is not one of the four learned
    // baselines.
    for spec in &all_workflows() {
        let instances = generate_workflow(spec, &tiny_config());
        let mut presets = PresetPredictor;
        let report = replay_workflow(
            &spec.name,
            &instances,
            &mut presets,
            &SimulationConfig::default(),
        );
        assert_eq!(
            report.aggregates.unfinished_instances, 0,
            "{}: unfinished",
            spec.name
        );
        assert!(report.total_wastage_gbh().is_finite());
    }
}
