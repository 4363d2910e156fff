//! Per-task-type diagnostics: wastage, failure counts and mean relative
//! prediction error for each task type of one workflow, for Sizey and one
//! baseline. Useful when investigating where the remaining wastage sits.
//!
//! Run with `cargo run --release --example per_task_diagnostics [workflow] [scale]`.

use sizey_suite::prelude::*;
use std::collections::BTreeMap;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workflow = args.get(1).map(String::as_str).unwrap_or("rnaseq");
    let scale: f64 = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.2_f64)
        .clamp(0.01, 1.0);
    let Some(spec) = sizey_workflows::workflow_by_name(workflow) else {
        eprintln!("unknown workflow {workflow:?}");
        std::process::exit(1);
    };
    let instances = generate_workflow(&spec, &GeneratorConfig::scaled(scale, 42));
    let sim = SimulationConfig::default();

    let mut sizey = SizeyPredictor::with_defaults();
    let sizey_report = replay_workflow(&spec.name, &instances, &mut sizey, &sim);
    let mut witt = WittWastage::new();
    let witt_report = replay_workflow(&spec.name, &instances, &mut witt, &sim);

    let count_by_type: BTreeMap<String, usize> =
        instances.iter().fold(BTreeMap::new(), |mut m, i| {
            *m.entry(i.task_type.to_string()).or_insert(0) += 1;
            m
        });

    println!(
        "{} at scale {scale}: Sizey {:.1} GBh / {} failures, Witt-Wastage {:.1} GBh / {} failures\n",
        spec.name,
        sizey_report.total_wastage_gbh(),
        sizey_report.total_failures(),
        witt_report.total_wastage_gbh(),
        witt_report.total_failures()
    );
    println!(
        "{:<28} {:>5} {:>12} {:>8} {:>12} {:>8}",
        "task type", "n", "Sizey GBh", "fails", "Witt GBh", "fails"
    );

    let sizey_wastage = sizey_report.aggregates.wastage_by_task_type;
    let sizey_fails = sizey_report.aggregates.failures_by_task_type;
    let witt_wastage = witt_report.aggregates.wastage_by_task_type;
    let witt_fails = witt_report.aggregates.failures_by_task_type;

    let mut rows: Vec<(String, f64)> = sizey_wastage
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    for (task, wastage) in rows {
        let key = TaskTypeId::new(task.clone());
        println!(
            "{:<28} {:>5} {:>12.2} {:>8} {:>12.2} {:>8}",
            task,
            count_by_type.get(&task).copied().unwrap_or(0),
            wastage,
            sizey_fails.get(&key).copied().unwrap_or(0),
            witt_wastage.get(&key).copied().unwrap_or(0.0),
            witt_fails.get(&key).copied().unwrap_or(0)
        );
    }
}
