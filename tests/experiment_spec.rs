//! Integration tests for the spec-driven experiment entry point: an
//! `ExperimentSpec` loaded from TOML and one written as a struct literal are
//! the same value and run to the same cells, and its checkpoints must
//! restore bit-identically — the contract the `experiment` binary relies on.

use proptest::prelude::*;
use sizey_bench::toml_lite::TomlDocument;
use sizey_suite::prelude::*;
use std::sync::OnceLock;

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
    assert!(
        drift.methods.iter().any(|m| matches!(
            m,
            MethodSpec::Sizey(c) if c.drift == sizey_core::DriftPolicy::Retrain
        )),
        "drift.toml arms Sizey's drift response"
    );
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

/// Every float parameter of a `[[method]]` table must be finite: an infinite
/// `beta` turns Sizey's gating weights into NaN. The same table with a
/// finite value parses, so the key is refused for its value alone.
#[test]
fn method_parameters_reject_non_finite_values() {
    for key in ["alpha", "beta"] {
        let (finite, text) = parse_sizey(key, "0.5");
        assert!(finite.is_ok(), "{text} was refused: {finite:?}");
        for value in ["inf", "-inf"] {
            assert_invalid(key, parse_sizey(key, value));
        }
    }
}

/// Finite values outside a parameter's domain are refused too, naming the
/// key: α outside §II-C's [0, 1] (the RAQ score would clamp it silently),
/// and a model class listed twice (both members would be scored by the
/// first one's accuracy, and gating would weight the class twice).
#[test]
fn method_parameters_reject_values_outside_their_domain() {
    for alpha in ["0.0", "1.0"] {
        let (parsed, text) = parse_sizey("alpha", alpha);
        assert!(parsed.is_ok(), "{text} was refused: {parsed:?}");
    }
    for (key, value) in [
        ("alpha", "2.0"),
        ("alpha", "-0.1"),
        (
            "model_classes",
            r#"["linear-regression", "linear-regression"]"#,
        ),
        (
            "model_classes",
            r#"["knn-regression", "mlp-regression", "knn-regression"]"#,
        ),
    ] {
        assert_invalid(key, parse_sizey(key, value));
    }
}

/// Parses a one-key `kind = "sizey"` method table, returning the text too.
fn parse_sizey(key: &str, value: &str) -> (Result<MethodSpec, SpecError>, String) {
    let text = format!("[[method]]\nkind = \"sizey\"\n{key} = {value}\n");
    let doc = TomlDocument::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
    (MethodSpec::from_table(doc.array_of("method")[0]), text)
}

fn assert_invalid(key: &str, (parsed, text): (Result<MethodSpec, SpecError>, String)) {
    match parsed {
        Err(SpecError::InvalidValue { key: named, .. }) => assert_eq!(named, key, "{text}"),
        other => panic!("{text} parsed to {other:?}"),
    }
}

/// The committed spec files, read once, in file-name order.
fn committed_specs() -> &'static [String] {
    static SPECS: OnceLock<Vec<String>> = OnceLock::new();
    SPECS.get_or_init(|| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/bench/specs");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("spec directory")
            .map(|entry| entry.expect("spec entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|path| std::fs::read_to_string(path).expect("spec file"))
            .collect()
    })
}

/// Applies one byte edit: `kind` 0 overwrites, 1 inserts before and 2
/// deletes the byte at `pos` (modulo the length).
fn mutate(bytes: &mut Vec<u8>, (kind, pos, byte): (u8, usize, u8)) {
    if bytes.is_empty() {
        bytes.push(byte);
        return;
    }
    let at = pos % bytes.len();
    match kind {
        0 => bytes[at] = byte,
        1 => bytes.insert(at, byte),
        _ => {
            bytes.remove(at);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Byte-level fuzz of the spec parser. After 1–8 random overwrites,
    /// insertions or deletions of a committed spec file, neither
    /// `TomlDocument::parse` nor `ExperimentSpec::from_toml` panics, every
    /// TOML error names a line of the input, and whatever parses as a spec
    /// prints to a fixed point (`to_toml` of the reparsed print is the
    /// print).
    #[test]
    fn spec_parser_survives_byte_mutations(
        spec_idx in 0usize..64,
        edits in proptest::collection::vec(
            (
                0u8..3,
                0usize..1 << 16,
                prop_oneof![
                    4 => 0u8..=255,
                    2 => prop_oneof![
                        Just(b'['), Just(b']'), Just(b'"'), Just(b'='), Just(b'#'),
                        Just(b','), Just(b'_'), Just(b'.'), Just(b'-'), Just(b'e'),
                        Just(b'\\'), Just(b'\n'),
                    ],
                    1 => b'0'..=b'9',
                ],
            ),
            1..9,
        ),
    ) {
        let specs = committed_specs();
        prop_assert!(!specs.is_empty(), "no committed spec files");
        let mut bytes = specs[spec_idx % specs.len()].clone().into_bytes();
        for &edit in &edits {
            mutate(&mut bytes, edit);
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let doc = std::panic::catch_unwind(|| TomlDocument::parse(&text))
            .map_err(|_| TestCaseError::fail(format!("TOML parser panicked on {text:?}")))?;
        if let Err(e) = doc {
            let lines = text.lines().count();
            prop_assert!(
                (1..=lines).contains(&e.line),
                "error line {} outside 1..={} in {:?}",
                e.line,
                lines,
                text
            );
        }
        let parsed = std::panic::catch_unwind(|| ExperimentSpec::from_toml(&text))
            .map_err(|_| TestCaseError::fail(format!("spec parser panicked on {text:?}")))?;
        if let Ok(spec) = parsed {
            let printed = spec.to_toml();
            let reparsed = ExperimentSpec::from_toml(&printed).map_err(|e| {
                TestCaseError::fail(format!("printed spec does not parse: {e}\n{printed}"))
            })?;
            prop_assert_eq!(reparsed.to_toml(), printed);
        }
    }
}
