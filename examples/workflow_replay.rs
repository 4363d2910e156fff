//! Replay a full synthetic nf-core-style workflow through the online
//! simulator and compare Sizey with the workflow presets.
//!
//! Run with `cargo run --release --example workflow_replay [workflow] [scale]`
//! where `workflow` is one of eager, methylseq, chipseq, rnaseq, mag, iwd
//! (default: rnaseq) and `scale` is the fraction of the paper's task volume
//! (default: 0.1).

use sizey_suite::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workflow = args.get(1).map(String::as_str).unwrap_or("rnaseq");
    let scale: f64 = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1_f64)
        .clamp(0.01, 1.0);

    let Some(spec) = sizey_workflows::workflow_by_name(workflow) else {
        eprintln!("unknown workflow {workflow:?}; choose one of eager, methylseq, chipseq, rnaseq, mag, iwd");
        std::process::exit(1);
    };

    println!(
        "Replaying {workflow} at scale {scale} ({} task types)",
        spec.n_task_types()
    );
    let instances = generate_workflow(&spec, &GeneratorConfig::scaled(scale, 42));
    println!("Generated {} task instances.\n", instances.len());

    let sim = SimulationConfig::default();

    let mut presets = PresetPredictor;
    let preset_report = replay_workflow(workflow, &instances, &mut presets, &sim);

    let mut sizey = SizeyPredictor::with_defaults();
    let sizey_report = replay_workflow(workflow, &instances, &mut sizey, &sim);

    for report in [&preset_report, &sizey_report] {
        println!("method: {}", report.method);
        println!(
            "  wastage over time : {:>10.2} GBh",
            report.total_wastage_gbh()
        );
        println!("  task failures     : {:>10}", report.total_failures());
        println!(
            "  total task runtime: {:>10.2} h",
            report.aggregates.total_runtime_hours()
        );
        println!(
            "  simulated makespan: {:>10.2} h",
            report.aggregates.makespan_seconds / 3600.0
        );
        println!();
    }

    let reduction =
        (1.0 - sizey_report.total_wastage_gbh() / preset_report.total_wastage_gbh()) * 100.0;
    println!("Sizey reduces memory wastage by {reduction:.1}% compared to the workflow presets.");

    // Show where the remaining wastage sits.
    let mut by_type: Vec<(String, f64)> = sizey_report
        .aggregates
        .wastage_by_task_type
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    by_type.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite wastage"));
    println!("\nTop remaining wastage per task type (Sizey):");
    for (task, wastage) in by_type.into_iter().take(5) {
        println!("  {task:<30} {wastage:>8.2} GBh");
    }
}
