//! Integration tests for the spec-driven experiment entry point: an
//! `ExperimentSpec` loaded from TOML and one written as a struct literal are
//! the same value and run to the same cells, and its checkpoints must
//! restore bit-identically — the contract the `experiment` binary relies on.

use sizey_suite::prelude::*;

const SMOKE_TOML: &str = r#"
name = "parity"
scale = 0.02
seeds = [3, 4]
profiles = ["iwd"]
policies = ["first-fit", "best-fit"]

[[method]]
kind = "sizey"

[[method]]
kind = "preset"
"#;

/// The TOML format and the struct literal are two spellings of one
/// description: they compare equal, so the one runner gives both the same
/// cells, one per entry of the cartesian product.
#[test]
fn experiment_spec_reproduces_run_sweep() {
    let parsed = ExperimentSpec::from_toml(SMOKE_TOML).unwrap();
    let literal = ExperimentSpec {
        name: "parity".to_string(),
        methods: vec![MethodSpec::sizey_defaults(), MethodSpec::Preset],
        profiles: vec!["iwd".to_string()],
        seeds: vec![3, 4],
        policies: vec![SchedulePolicy::FirstFit, SchedulePolicy::BestFit],
        scale: 0.02,
        ..ExperimentSpec::default()
    };
    assert_eq!(parsed, literal);

    let cells = parsed.run().unwrap();
    assert_eq!(
        cells.len(),
        8,
        "1 profile x 2 methods x 2 seeds x 2 policies"
    );
    assert_eq!(cells, literal.run().unwrap());
}

/// The checkpointed variant returns the same cells plus states that restore
/// bit-identically through the registry — what the `experiment` binary
/// writes to its checkpoint directory.
#[test]
fn experiment_checkpoints_restore_bit_identically() {
    let spec = ExperimentSpec::from_toml(SMOKE_TOML).unwrap();
    let plain = spec.run().unwrap();
    let checkpointed = spec.run_checkpointed().unwrap();
    let cells: Vec<SweepCell> = checkpointed.iter().map(|(c, _)| c.clone()).collect();
    assert_eq!(cells, plain);
    for (cell, state) in &checkpointed {
        // Codec + registry restore round trip, exactly as the binary does.
        let text = state.to_state_string();
        let parsed = PredictorState::from_state_string(&text).unwrap();
        assert_eq!(&parsed, state);
        let restored = cell.method.restore(&parsed).unwrap();
        assert_eq!(
            restored.snapshot(),
            *state,
            "{} checkpoint did not restore bit-identically",
            cell.method.id()
        );
    }
}

/// The aggregate table over an experiment's cells is deterministically
/// ordered (method figure order, then policy order) — sweep tables diff
/// cleanly across runs.
#[test]
fn experiment_aggregate_rows_are_ordered() {
    let spec = ExperimentSpec::from_toml(SMOKE_TOML).unwrap();
    let rows = aggregate_sweep(&spec.run().unwrap());
    let order: Vec<(&str, &str)> = rows
        .iter()
        .map(|r| (r.method.name(), r.policy.name()))
        .collect();
    assert_eq!(
        order,
        vec![
            ("Sizey", "first-fit"),
            ("Sizey", "best-fit"),
            ("Workflow-Presets", "first-fit"),
            ("Workflow-Presets", "best-fit"),
        ]
    );
}

/// The five checked-in fault, drift and contention scenario specs stay
/// loadable, and each actually exercises the axis it is named for.
#[test]
fn checked_in_scenario_specs_parse() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/bench/specs");
    let drift = ExperimentSpec::from_toml_file(format!("{dir}/drift.toml")).unwrap();
    assert!(drift.drift.is_some(), "drift.toml carries a [drift] table");
    assert_eq!(
        ExperimentSpec::from_toml(&drift.to_toml()).unwrap(),
        drift,
        "drift spec round-trips"
    );
    for name in ["crash_storm", "spot_pool", "diurnal"] {
        let spec = ExperimentSpec::from_toml_file(format!("{dir}/{name}.toml")).unwrap();
        let faults = spec
            .sim
            .faults
            .as_ref()
            .unwrap_or_else(|| panic!("{name}.toml injects faults"));
        assert!(!faults.is_empty(), "{name}.toml has a non-empty fault plan");
        assert_eq!(
            ExperimentSpec::from_toml(&spec.to_toml()).unwrap(),
            spec,
            "{name} spec round-trips"
        );
    }
    let contention = ExperimentSpec::from_toml_file(format!("{dir}/contention.toml")).unwrap();
    assert_eq!(contention.policies, SchedulePolicy::ALL.to_vec());
    assert!(
        contention.sim.submit_interval_seconds > 0.0,
        "a cadence routes contention.toml to the event-driven engine"
    );
    assert_eq!(
        ExperimentSpec::from_toml(&contention.to_toml()).unwrap(),
        contention,
        "contention spec round-trips"
    );
}

/// The checked-in CI smoke spec stays loadable and small.
#[test]
fn checked_in_smoke_spec_parses() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/bench/specs/smoke.toml");
    let spec = ExperimentSpec::from_toml_file(path).unwrap();
    assert_eq!(spec.name, "smoke");
    assert_eq!(spec.methods.len(), 2);
    assert_eq!(spec.profiles, vec!["iwd".to_string()]);
    assert_eq!(spec.seeds.len(), 2);
    assert_eq!(spec.len(), 4);
    // Round-trip: the spec the `experiment` bin stamps into its checkpoint
    // directory reparses to the same spec.
    assert_eq!(ExperimentSpec::from_toml(&spec.to_toml()).unwrap(), spec);
}
