//! The config-driven method registry.
//!
//! [`MethodSpec`] is the single description of "a sizing method with its
//! hyper-parameters" used everywhere in the harness: the sweep runner, the
//! figure/table binaries, the ablation drivers and the spec-driven
//! [`experiment`](crate::experiment) entry point all dispatch through it
//! instead of bare strings or ad-hoc constructors. A spec
//!
//! * [`build`](MethodSpec::build)s a fresh predictor (boxed behind the
//!   checkpointable predictor interface, which upcasts to
//!   [`MemoryPredictor`](sizey_sim::MemoryPredictor) wherever a plain
//!   predictor is expected),
//! * [`restore`](MethodSpec::restore)s a predictor from a
//!   [`PredictorState`] checkpoint (warm starts, recovery),
//! * round-trips through the TOML spec format
//!   ([`from_table`](MethodSpec::from_table) /
//!   [`to_toml`](MethodSpec::to_toml)),
//! * carries stable identifiers: [`name`](MethodSpec::name) is the paper's
//!   display name, [`id`](MethodSpec::id) the kebab-case kind used in spec
//!   files and checkpoint filenames, and
//!   [`figure_order`](MethodSpec::figure_order) the canonical comparison
//!   order of the paper's figures.
//!
//! Two specs are equal iff they would build identically configured
//! predictors, so result rows keyed by `MethodSpec` compare and aggregate
//! structurally — there is no string name to go stale.

use crate::toml_lite::{write as toml_write, TomlTable, TomlValue};
use sizey_baselines::{TovarPpm, WittLr, WittPercentile, WittWastage};
use sizey_core::{DriftPolicy, GatingStrategy, OffsetMode, SizeyConfig, SizeyPredictor};
use sizey_ml::model::ModelClass;
use sizey_sim::lifecycle::{CheckpointPredictor, PredictorState, StateError};
use sizey_sim::PresetPredictor;

/// A fully configured sizing method: which algorithm, with which
/// hyper-parameters. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub enum MethodSpec {
    /// The Sizey method with an explicit configuration.
    Sizey(SizeyConfig),
    /// Witt et al. low-wastage regression.
    WittWastage,
    /// Witt et al. linear regression with offset.
    WittLr,
    /// Tovar et al. peak-probability sizing.
    TovarPpm,
    /// Witt et al. percentile predictor.
    WittPercentile,
    /// The workflow developers' memory requests.
    Preset,
}

impl MethodSpec {
    /// The Sizey method with the paper's default configuration.
    pub fn sizey_defaults() -> Self {
        MethodSpec::Sizey(SizeyConfig::default())
    }

    /// The six evaluation methods with their default configurations, in the
    /// order used by the paper's figures.
    pub fn default_suite() -> Vec<MethodSpec> {
        vec![
            MethodSpec::Sizey(SizeyConfig::default()),
            MethodSpec::WittWastage,
            MethodSpec::WittLr,
            MethodSpec::TovarPpm,
            MethodSpec::WittPercentile,
            MethodSpec::Preset,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            MethodSpec::Sizey(_) => "Sizey",
            MethodSpec::WittWastage => "Witt-Wastage",
            MethodSpec::WittLr => "Witt-LR",
            MethodSpec::TovarPpm => "Tovar-PPM",
            MethodSpec::WittPercentile => "Witt-Percentile",
            MethodSpec::Preset => "Workflow-Presets",
        }
    }

    /// The kebab-case kind identifier used in spec files and checkpoint
    /// filenames.
    pub fn id(&self) -> &'static str {
        match self {
            MethodSpec::Sizey(_) => "sizey",
            MethodSpec::WittWastage => "witt-wastage",
            MethodSpec::WittLr => "witt-lr",
            MethodSpec::TovarPpm => "tovar-ppm",
            MethodSpec::WittPercentile => "witt-percentile",
            MethodSpec::Preset => "preset",
        }
    }

    /// Position in the paper's canonical figure order (Sizey first,
    /// Workflow-Presets last).
    pub fn figure_order(&self) -> usize {
        match self {
            MethodSpec::Sizey(_) => 0,
            MethodSpec::WittWastage => 1,
            MethodSpec::WittLr => 2,
            MethodSpec::TovarPpm => 3,
            MethodSpec::WittPercentile => 4,
            MethodSpec::Preset => 5,
        }
    }

    /// A total, deterministic ordering key: figure order first, then the
    /// spec's full parameterisation as a tiebreak (so two Sizey variants in
    /// one sweep sort stably).
    pub fn sort_key(&self) -> (usize, String) {
        (self.figure_order(), format!("{self:?}"))
    }

    /// Builds a fresh predictor for this spec. The box is checkpointable;
    /// it coerces to `Box<dyn MemoryPredictor>` (or `&mut dyn
    /// MemoryPredictor`) wherever the replay engines expect one.
    pub fn build(&self) -> Box<dyn CheckpointPredictor> {
        match self {
            MethodSpec::Sizey(config) => Box::new(SizeyPredictor::new(config.clone())),
            MethodSpec::WittWastage => Box::new(WittWastage::new()),
            MethodSpec::WittLr => Box::new(WittLr::new()),
            MethodSpec::TovarPpm => Box::new(TovarPpm::new()),
            MethodSpec::WittPercentile => Box::new(WittPercentile::new()),
            MethodSpec::Preset => Box::new(PresetPredictor),
        }
    }

    /// Builds the concrete [`SizeyPredictor`] when this spec is the Sizey
    /// method — for harnesses that need Sizey-specific telemetry
    /// (full-retrain counts, pool counts) beyond the predictor traits.
    /// Returns `None` for every other method.
    pub fn build_sizey(&self) -> Option<SizeyPredictor> {
        match self {
            MethodSpec::Sizey(config) => Some(SizeyPredictor::new(config.clone())),
            _ => None,
        }
    }

    /// Builds a predictor and restores a checkpointed state into it — the
    /// warm-start path. The state must have been snapshotted from a
    /// predictor built by an equal spec; the restored predictor is then
    /// bit-identical to the one that was snapshotted.
    pub fn restore(
        &self,
        state: &PredictorState,
    ) -> Result<Box<dyn CheckpointPredictor>, StateError> {
        let mut predictor = self.build();
        predictor.restore(state)?;
        Ok(predictor)
    }
}

/// Errors produced while reading or validating an experiment spec.
#[derive(Debug)]
pub enum SpecError {
    /// The TOML layer failed.
    Toml(crate::toml_lite::TomlError),
    /// A `[[method]]` table names an unknown kind.
    UnknownMethod {
        /// The offending kind string.
        kind: String,
        /// 1-based line of the method table header.
        line: usize,
    },
    /// A table contains a key the spec format does not know (typo guard).
    UnknownKey {
        /// Which table the key appeared in.
        context: String,
        /// The offending key.
        key: String,
    },
    /// A key's value is malformed (wrong type, out of range, unknown name).
    InvalidValue {
        /// Which table the key appeared in.
        context: String,
        /// The offending key.
        key: String,
        /// What was wrong with it.
        message: String,
    },
    /// The spec references a workflow profile the workspace does not have.
    UnknownWorkflow {
        /// The offending profile name.
        name: String,
    },
    /// The spec references an unknown scheduling policy.
    UnknownPolicy {
        /// The offending policy name.
        name: String,
    },
    /// A list that must be non-empty (methods, profiles, seeds, policies)
    /// is empty, or the scale is non-positive.
    Empty {
        /// Which part of the spec is degenerate.
        what: String,
    },
    /// Reading the spec file failed.
    Io(std::io::Error),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Toml(e) => write!(f, "{e}"),
            SpecError::UnknownMethod { kind, line } => {
                write!(f, "unknown method kind {kind:?} at line {line}")
            }
            SpecError::UnknownKey { context, key } => {
                write!(f, "unknown key {key:?} in {context}")
            }
            SpecError::InvalidValue {
                context,
                key,
                message,
            } => write!(f, "invalid value for {key:?} in {context}: {message}"),
            SpecError::UnknownWorkflow { name } => write!(
                f,
                "unknown workflow profile {name:?} (known: {})",
                sizey_workflows::WORKFLOW_NAMES.join(", ")
            ),
            SpecError::UnknownPolicy { name } => write!(f, "unknown scheduling policy {name:?}"),
            SpecError::Empty { what } => write!(f, "spec has an empty/degenerate {what}"),
            SpecError::Io(e) => write!(f, "spec I/O error: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<crate::toml_lite::TomlError> for SpecError {
    fn from(e: crate::toml_lite::TomlError) -> Self {
        SpecError::Toml(e)
    }
}

pub(crate) fn invalid(context: &str, key: &str, message: impl Into<String>) -> SpecError {
    SpecError::InvalidValue {
        context: context.to_string(),
        key: key.to_string(),
        message: message.into(),
    }
}

pub(crate) fn need_float(context: &str, key: &str, value: &TomlValue) -> Result<f64, SpecError> {
    value.as_float().ok_or_else(|| {
        invalid(
            context,
            key,
            format!("expected a number, found {}", value.type_name()),
        )
    })
}

/// A `[[method]]` parameter: a number that is also finite. An infinite
/// `beta` turns the gating weights into NaN.
fn need_finite(context: &str, key: &str, value: &TomlValue) -> Result<f64, SpecError> {
    let number = need_float(context, key, value)?;
    if number.is_finite() {
        Ok(number)
    } else {
        Err(invalid(
            context,
            key,
            format!("expected a finite number, found {number}"),
        ))
    }
}

pub(crate) fn need_usize(context: &str, key: &str, value: &TomlValue) -> Result<usize, SpecError> {
    value
        .as_int()
        .filter(|i| *i >= 0)
        .map(|i| i as usize)
        .ok_or_else(|| {
            invalid(
                context,
                key,
                format!(
                    "expected a non-negative integer, found {}",
                    value.type_name()
                ),
            )
        })
}

pub(crate) fn need_str<'v>(
    context: &str,
    key: &str,
    value: &'v TomlValue,
) -> Result<&'v str, SpecError> {
    value.as_str().ok_or_else(|| {
        invalid(
            context,
            key,
            format!("expected a string, found {}", value.type_name()),
        )
    })
}

pub(crate) fn need_bool(context: &str, key: &str, value: &TomlValue) -> Result<bool, SpecError> {
    value.as_bool().ok_or_else(|| {
        invalid(
            context,
            key,
            format!("expected a boolean, found {}", value.type_name()),
        )
    })
}

impl MethodSpec {
    /// Parses one `[[method]]` table. The `kind` key selects the variant;
    /// for Sizey every other key overrides one field of the default
    /// configuration, and the fixed methods (the baselines and the presets)
    /// accept no other key. Unknown kinds and keys are errors, not silently
    /// ignored defaults.
    pub fn from_table(table: &TomlTable) -> Result<Self, SpecError> {
        let kind = match table.get("kind") {
            Some(v) => need_str("[[method]]", "kind", v)?,
            None => {
                return Err(invalid(
                    "[[method]]",
                    "kind",
                    "missing (every method table needs one)",
                ))
            }
        };
        match kind {
            "sizey" => Ok(MethodSpec::Sizey(sizey_config_from_table(table)?)),
            "witt-wastage" => fixed(table, MethodSpec::WittWastage),
            "witt-lr" => fixed(table, MethodSpec::WittLr),
            "tovar-ppm" => fixed(table, MethodSpec::TovarPpm),
            "witt-percentile" => fixed(table, MethodSpec::WittPercentile),
            "preset" => fixed(table, MethodSpec::Preset),
            other => Err(SpecError::UnknownMethod {
                kind: other.to_string(),
                line: table.line,
            }),
        }
    }

    /// Serialises the spec as one `[[method]]` TOML table (the inverse of
    /// [`from_table`](MethodSpec::from_table); the round-trip is lossless).
    pub fn to_toml(&self) -> String {
        let mut out = String::from("[[method]]\n");
        out.push_str(&format!("kind = {}\n", toml_write::string(self.id())));
        match self {
            MethodSpec::Sizey(c) => {
                out.push_str(&format!("alpha = {}\n", toml_write::float(c.alpha)));
                match c.gating {
                    GatingStrategy::Argmax => out.push_str("gating = \"argmax\"\n"),
                    GatingStrategy::Interpolation { beta } => {
                        out.push_str("gating = \"interpolation\"\n");
                        out.push_str(&format!("beta = {}\n", toml_write::float(beta)));
                    }
                }
                match c.offset {
                    OffsetMode::Dynamic => out.push_str("offset = \"dynamic\"\n"),
                    OffsetMode::None => out.push_str("offset = \"none\"\n"),
                    OffsetMode::Fixed(strategy) => {
                        out.push_str(&format!(
                            "offset = {}\n",
                            toml_write::string(strategy.name())
                        ));
                    }
                }
                out.push_str(&format!("retrain_interval = {}\n", c.retrain_interval));
                let classes: Vec<String> = c
                    .model_classes
                    .iter()
                    .map(|class| toml_write::string(class.name()))
                    .collect();
                out.push_str(&format!("model_classes = [{}]\n", classes.join(", ")));
                out.push_str(&format!(
                    "hyperparameter_optimization = {}\n",
                    c.hyperparameter_optimization
                ));
                out.push_str(&format!("seed = {}\n", c.seed));
                if let Some(window) = c.history_window {
                    out.push_str(&format!("history_window = {window}\n"));
                }
                match c.drift {
                    DriftPolicy::Off => out.push_str("drift = \"off\"\n"),
                    DriftPolicy::Retrain => out.push_str("drift = \"retrain\"\n"),
                }
            }
            MethodSpec::WittWastage
            | MethodSpec::WittLr
            | MethodSpec::TovarPpm
            | MethodSpec::WittPercentile
            | MethodSpec::Preset => {}
        }
        out
    }
}

/// A method with one fixed configuration: its table names only the `kind`.
fn fixed(table: &TomlTable, method: MethodSpec) -> Result<MethodSpec, SpecError> {
    match table.keys().find(|k| *k != "kind") {
        Some(key) => Err(SpecError::UnknownKey {
            context: format!("[[method]] kind = {}", toml_write::string(method.id())),
            key: key.to_string(),
        }),
        None => Ok(method),
    }
}

fn sizey_config_from_table(table: &TomlTable) -> Result<SizeyConfig, SpecError> {
    let context = "[[method]] kind = \"sizey\"";
    let mut config = SizeyConfig::default();
    // `gating` and `beta` are sibling keys that configure one field
    // together; collect them first so file order between them does not
    // matter.
    let mut gating: Option<&str> = None;
    let mut beta: Option<f64> = None;
    for (key, value) in &table.entries {
        match key.as_str() {
            "kind" => {}
            "alpha" => {
                // §II-C defines α on [0, 1]; the RAQ score would clamp any
                // other value silently.
                let alpha = need_finite(context, key, value)?;
                if !(0.0..=1.0).contains(&alpha) {
                    return Err(invalid(
                        context,
                        key,
                        format!("expected a value in [0, 1], found {alpha}"),
                    ));
                }
                config.alpha = alpha;
            }
            "gating" => gating = Some(need_str(context, key, value)?),
            "beta" => beta = Some(need_finite(context, key, value)?),
            "offset" => {
                config.offset = match need_str(context, key, value)? {
                    "dynamic" => OffsetMode::Dynamic,
                    "none" => OffsetMode::None,
                    name => OffsetMode::Fixed(
                        sizey_core::OffsetStrategy::ALL
                            .into_iter()
                            .find(|s| s.name() == name)
                            .ok_or_else(|| {
                                invalid(
                                    context,
                                    key,
                                    format!(
                                    "unknown offset {name:?} (dynamic, none, or a strategy name)"
                                ),
                                )
                            })?,
                    ),
                }
            }
            "retrain_interval" => config.retrain_interval = need_usize(context, key, value)?,
            "model_classes" => {
                let items = value
                    .as_array()
                    .ok_or_else(|| invalid(context, key, "expected an array of class names"))?;
                let mut classes = Vec::with_capacity(items.len());
                for item in items {
                    let name = need_str(context, key, item)?;
                    let class = ModelClass::ALL
                        .into_iter()
                        .find(|c| c.name() == name)
                        .ok_or_else(|| {
                            invalid(context, key, format!("unknown model class {name:?}"))
                        })?;
                    // Two members of one class would both be scored by the
                    // first one's accuracy, and gating would weight the
                    // class twice.
                    if classes.contains(&class) {
                        return Err(invalid(
                            context,
                            key,
                            format!("model class {name:?} is listed twice"),
                        ));
                    }
                    classes.push(class);
                }
                if classes.is_empty() {
                    return Err(invalid(context, key, "the model pool cannot be empty"));
                }
                config.model_classes = classes;
            }
            "hyperparameter_optimization" => {
                config.hyperparameter_optimization = need_bool(context, key, value)?
            }
            "seed" => {
                config.seed = value
                    .as_int()
                    .filter(|i| *i >= 0)
                    .map(|i| i as u64)
                    .ok_or_else(|| invalid(context, key, "expected a non-negative integer seed"))?
            }
            "history_window" => {
                let window = value
                    .as_int()
                    .filter(|i| *i >= 1)
                    .ok_or_else(|| invalid(context, key, "expected a positive integer window"))?;
                config.history_window = Some(window as usize);
            }
            "drift" => {
                config.drift = match need_str(context, key, value)? {
                    "off" => DriftPolicy::Off,
                    "retrain" => DriftPolicy::Retrain,
                    other => {
                        return Err(invalid(
                            context,
                            key,
                            format!("unknown drift response {other:?} (retrain or off)"),
                        ))
                    }
                }
            }
            _ => {
                return Err(SpecError::UnknownKey {
                    context: context.to_string(),
                    key: key.clone(),
                })
            }
        }
    }
    match (gating, beta) {
        (Some("argmax"), None) => config.gating = GatingStrategy::Argmax,
        (Some("argmax"), Some(_)) => {
            return Err(invalid(
                context,
                "beta",
                "beta only applies to interpolation gating",
            ))
        }
        (Some("interpolation"), b) => {
            let default_beta = match GatingStrategy::default() {
                GatingStrategy::Interpolation { beta } => beta,
                GatingStrategy::Argmax => 8.0,
            };
            config.gating = GatingStrategy::Interpolation {
                beta: b.unwrap_or(default_beta),
            };
        }
        (Some(other), _) => {
            return Err(invalid(
                context,
                "gating",
                format!("unknown gating {other:?} (argmax or interpolation)"),
            ))
        }
        (None, Some(b)) => {
            config.gating = GatingStrategy::Interpolation { beta: b };
        }
        (None, None) => {}
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toml_lite::TomlDocument;
    use sizey_provenance::{MachineId, TaskOutcome, TaskRecord, TaskTypeId};
    use sizey_sim::{AttemptContext, TaskSubmission};

    #[test]
    fn default_suite_matches_the_figure_order_and_names() {
        let suite = MethodSpec::default_suite();
        assert_eq!(suite.len(), 6);
        let names: Vec<&str> = suite.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            [
                "Sizey",
                "Witt-Wastage",
                "Witt-LR",
                "Tovar-PPM",
                "Witt-Percentile",
                "Workflow-Presets"
            ]
        );
        for (i, spec) in suite.iter().enumerate() {
            assert_eq!(spec.figure_order(), i);
            assert_eq!(spec.build().name(), spec.name());
        }
        let ids: std::collections::HashSet<&str> = suite.iter().map(|m| m.id()).collect();
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn every_spec_round_trips_through_toml() {
        let mut variants = MethodSpec::default_suite();
        variants.push(MethodSpec::Sizey(
            SizeyConfig::full_retraining()
                .with_alpha(0.3)
                .with_gating(GatingStrategy::Argmax)
                .with_model_classes(vec![ModelClass::Linear, ModelClass::Knn]),
        ));
        variants.push(MethodSpec::Sizey(SizeyConfig {
            offset: OffsetMode::Fixed(sizey_core::OffsetStrategy::MedianError),
            ..SizeyConfig::default()
        }));
        variants.push(MethodSpec::Sizey(
            SizeyConfig::default().with_history_window(128),
        ));
        variants.push(MethodSpec::Sizey(
            SizeyConfig::default().with_drift_policy(DriftPolicy::Retrain),
        ));
        variants.push(MethodSpec::Sizey(SizeyConfig {
            retrain_interval: 0,
            ..SizeyConfig::default()
        }));
        for spec in variants {
            let text = spec.to_toml();
            let doc = TomlDocument::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let tables = doc.array_of("method");
            assert_eq!(tables.len(), 1, "{text}");
            let parsed =
                MethodSpec::from_table(tables[0]).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, spec, "round-trip changed the spec:\n{text}");
        }
    }

    #[test]
    fn unknown_kinds_and_keys_are_rejected() {
        let doc = TomlDocument::parse("[[method]]\nkind = \"hal-9000\"\n").unwrap();
        assert!(matches!(
            MethodSpec::from_table(doc.array_of("method")[0]),
            Err(SpecError::UnknownMethod { .. })
        ));
        let doc = TomlDocument::parse("[[method]]\nkind = \"sizey\"\nalhpa = 0.1\n").unwrap();
        assert!(matches!(
            MethodSpec::from_table(doc.array_of("method")[0]),
            Err(SpecError::UnknownKey { .. })
        ));
        let doc =
            TomlDocument::parse("[[method]]\nkind = \"sizey\"\ngating = \"argmax\"\nbeta = 2.0\n")
                .unwrap();
        assert!(matches!(
            MethodSpec::from_table(doc.array_of("method")[0]),
            Err(SpecError::InvalidValue { .. })
        ));
        // The fixed methods take no parameters, and the Sizey parameters
        // that became constants are unknown keys like any other.
        for (kind, key) in [
            ("preset", "percentile"),
            ("witt-percentile", "percentile"),
            ("witt-lr", "min_history"),
            ("witt-wastage", "quantiles"),
            ("tovar-ppm", "headroom"),
            ("sizey", "min_history"),
            ("sizey", "cold_start_observations"),
            ("sizey", "online"),
            ("sizey", "drift_window"),
            ("sizey", "drift_threshold"),
            ("sizey", "drift_keep_recent"),
            ("sizey", "mlp_update_interval"),
        ] {
            let text = format!("[[method]]\nkind = \"{kind}\"\n{key} = 3\n");
            let doc = TomlDocument::parse(&text).unwrap();
            match MethodSpec::from_table(doc.array_of("method")[0]) {
                Err(SpecError::UnknownKey { key: named, .. }) => assert_eq!(named, key),
                other => panic!("{text}: {other:?}"),
            }
        }
    }

    #[test]
    fn partial_sizey_tables_override_only_named_fields() {
        let doc = TomlDocument::parse(
            "[[method]]\nkind = \"sizey\"\nalpha = 0.25\nretrain_interval = 7\n",
        )
        .unwrap();
        let spec = MethodSpec::from_table(doc.array_of("method")[0]).unwrap();
        match spec {
            MethodSpec::Sizey(c) => {
                assert_eq!(c.alpha, 0.25);
                assert_eq!(c.retrain_interval, 7);
                // Untouched fields keep their defaults.
                assert_eq!(c.gating, GatingStrategy::default());
                assert_eq!(c.model_classes.len(), 4);
            }
            other => panic!("expected Sizey, got {other:?}"),
        }
    }

    fn record(task_type: &str, seq: u64, input: f64, peak: f64) -> TaskRecord {
        TaskRecord {
            workflow: "wf".into(),
            task_type: TaskTypeId::new(task_type),
            machine: MachineId::new("m"),
            sequence: seq,
            input_bytes: input,
            peak_memory_bytes: peak,
            allocated_memory_bytes: peak * 1.4,
            runtime_seconds: 30.0,
            concurrent_tasks: 1,
            queue_delay_seconds: 0.0,
            outcome: TaskOutcome::Succeeded,
        }
    }

    #[test]
    fn build_then_restore_is_bit_identical_for_every_method() {
        let task = TaskSubmission {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: 99,
            input_bytes: 5e9,
            preset_memory_bytes: 20e9,
        };
        for spec in MethodSpec::default_suite() {
            let mut original = spec.build();
            for i in 1..=12u64 {
                original.observe(&record("t", i, i as f64 * 1e9, 2.0 * i as f64 * 1e9 + 1e9));
            }
            let state = original.snapshot();
            let restored = spec
                .restore(&state)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.id()));
            assert_eq!(restored.snapshot(), state, "{} state drifted", spec.id());
            assert_eq!(
                original.predict(&task, AttemptContext::first()),
                restored.predict(&task, AttemptContext::first()),
                "{} diverged after restore",
                spec.id()
            );
        }
    }

    /// A bounded Sizey history's snapshot is a journal suffix: every method
    /// refuses it through the one eviction check, Sizey, the baselines and
    /// the stateless presets alike.
    #[test]
    fn every_method_refuses_a_truncated_journal() {
        let bounded = MethodSpec::Sizey(SizeyConfig::default().with_history_window(4));
        let mut sizey = bounded.build();
        for i in 1..=12u64 {
            sizey.observe(&record("t", i, i as f64 * 1e9, 3e9));
        }
        let state = sizey.snapshot();
        assert!(state.evicted > 0);
        for spec in std::iter::once(bounded).chain(MethodSpec::default_suite()) {
            match spec.restore(&state) {
                Err(StateError::TruncatedJournal { evicted }) => {
                    assert_eq!(evicted, state.evicted, "{}", spec.id())
                }
                Err(e) => panic!("{}: {e}", spec.id()),
                Ok(_) => panic!("{} restored a truncated journal", spec.id()),
            }
        }
    }
}
