//! Extending the framework: plug a custom sizing method into the same online
//! simulator used by the evaluation, and plug a custom regression model into
//! the ML substrate.
//!
//! The paper positions Sizey as "an easily extendable interface"; this
//! example demonstrates both extension points:
//!
//! 1. a custom `Regressor` (a robust median-ratio model), and
//! 2. a custom `MemoryPredictor` built on top of it, replayed against Sizey.
//!
//! Run with `cargo run --release --example custom_model`.

use sizey_suite::prelude::*;
use std::collections::HashMap;

/// A tiny domain-specific regressor: predicts `median(peak / input) * input`.
/// It is robust to outliers and needs almost no training time, but cannot
/// capture non-linear behaviour.
#[derive(Debug, Clone, Default)]
struct MedianRatioModel {
    ratios: Vec<f64>,
}

impl Regressor for MedianRatioModel {
    fn fit(&mut self, data: &Dataset) -> Result<(), sizey_ml::ModelError> {
        self.ratios.clear();
        for (input, target) in data.iter() {
            if input > 0.0 {
                self.ratios.push(target / input);
            }
        }
        Ok(())
    }

    fn partial_fit(&mut self, data: &Dataset) -> Result<(), sizey_ml::ModelError> {
        for (input, target) in data.iter() {
            if input > 0.0 {
                self.ratios.push(target / input);
            }
        }
        Ok(())
    }

    fn predict(&self, features: &[f64]) -> Result<f64, sizey_ml::ModelError> {
        if self.ratios.is_empty() {
            return Err(sizey_ml::ModelError::NotFitted);
        }
        let mut sorted = self.ratios.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        Ok(sorted[sorted.len() / 2] * features[0])
    }

    fn is_fitted(&self) -> bool {
        !self.ratios.is_empty()
    }

    fn class(&self) -> ModelClass {
        // Behaves like a (robust) linear model for bookkeeping purposes.
        ModelClass::Linear
    }

    fn clone_box(&self) -> Box<dyn Regressor> {
        Box::new(self.clone())
    }
}

/// A complete sizing method built around the custom model: per task type it
/// keeps one `MedianRatioModel`, adds a 20% safety margin, and doubles on
/// failure. It implements the same `MemoryPredictor` trait as Sizey and every
/// baseline, so the replay engine and all accounting work unchanged.
#[derive(Default)]
struct MedianRatioSizer {
    models: HashMap<TaskMachineKey, MedianRatioModel>,
}

impl MemoryPredictor for MedianRatioSizer {
    fn name(&self) -> String {
        "MedianRatio (custom)".to_string()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        let key = TaskMachineKey {
            task_type: task.task_type.clone(),
            machine: task.machine.clone(),
        };
        let raw = self
            .models
            .get(&key)
            .and_then(|m| m.predict(&[task.input_bytes]).ok());
        let base = raw.map(|r| r * 1.2).unwrap_or(task.preset_memory_bytes);
        Prediction {
            allocation_bytes: base * 2.0_f64.powi(ctx.attempt as i32),
            raw_estimate_bytes: raw,
            selected_model: Some("median-ratio"),
        }
    }

    fn observe(&mut self, record: &TaskRecord) {
        if record.outcome != TaskOutcome::Succeeded {
            return;
        }
        let model = self.models.entry(record.key()).or_default();
        // The one feature is the input size; a model sees it as a row of one.
        let point = Dataset::from_univariate(&[record.input_bytes], &[record.peak_memory_bytes]);
        let _ = model.partial_fit(&point);
    }
}

fn main() {
    let spec = profiles::chipseq();
    let instances = generate_workflow(&spec, &GeneratorConfig::scaled(0.08, 11));
    let sim = SimulationConfig::default();
    println!(
        "Comparing sizing methods on {} ({} instances):\n",
        spec.name,
        instances.len()
    );

    let mut rows: Vec<(String, f64, usize)> = Vec::new();
    let mut custom = MedianRatioSizer::default();
    let report = replay_workflow(&spec.name, &instances, &mut custom, &sim);
    rows.push((
        report.method.clone(),
        report.total_wastage_gbh(),
        report.total_failures(),
    ));

    let mut sizey = SizeyPredictor::with_defaults();
    let report = replay_workflow(&spec.name, &instances, &mut sizey, &sim);
    rows.push((
        report.method.clone(),
        report.total_wastage_gbh(),
        report.total_failures(),
    ));

    let mut presets = PresetPredictor;
    let report = replay_workflow(&spec.name, &instances, &mut presets, &sim);
    rows.push((
        report.method.clone(),
        report.total_wastage_gbh(),
        report.total_failures(),
    ));

    println!("{:<24} {:>14} {:>10}", "method", "wastage GBh", "failures");
    for (name, wastage, failures) in rows {
        println!("{name:<24} {wastage:>14.2} {failures:>10}");
    }
    println!();
    println!("The custom ratio model handles the linear task types well, but Sizey's model");
    println!("pool additionally adapts to the non-linear and bimodal ones.");
}
