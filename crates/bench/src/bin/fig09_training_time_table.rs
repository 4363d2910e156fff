//! Fig. 9 — time required to train Sizey per online-learning step, for full
//! retraining (including hyper-parameter optimisation) and incremental
//! retraining, per workflow.
//!
//! Run with `cargo run -p sizey-bench --release --bin fig09_training_time_table`;
//! the `Overall medians` line carries the result. The repo benchmark
//! (`benchmark/`) times the same learning step per layer
//! (`pool.retrain_p50_ms`, `pool.incremental_p50_us`, `ml.*.fit_us`).

use sizey_bench::{banner, fmt, render_table, HarnessSettings, MethodSpec};
use sizey_core::SizeyConfig;
use sizey_sim::{replay_workflow, SimulationConfig};
use sizey_workflows::{all_workflows, generate_workflow, GeneratorConfig};

fn median_ms(times: &[std::time::Duration]) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    let mut ms: Vec<f64> = times.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(|a, b| a.total_cmp(b));
    ms[ms.len() / 2]
}

fn main() {
    let settings = HarnessSettings::from_env();
    banner(
        "Fig. 9: Sizey online training time, full vs. incremental retraining",
        &settings,
    );
    // Training-time measurements do not need the full task volume; cap the
    // scale so the full-retraining variant stays tractable.
    let scale = settings.scale.min(0.05);
    let sim = SimulationConfig::default();

    let mut rows = Vec::new();
    let mut all_full = Vec::new();
    let mut all_incr = Vec::new();
    for spec in all_workflows() {
        let instances = generate_workflow(&spec, &GeneratorConfig::scaled(scale, settings.seed));

        let mut full = MethodSpec::Sizey(SizeyConfig::full_retraining())
            .build_sizey()
            .expect("a Sizey spec builds a Sizey predictor");
        let _ = replay_workflow(&spec.name, &instances, &mut full, &sim);

        let mut incremental = MethodSpec::Sizey(SizeyConfig::incremental())
            .build_sizey()
            .expect("a Sizey spec builds a Sizey predictor");
        let _ = replay_workflow(&spec.name, &instances, &mut incremental, &sim);

        rows.push(vec![
            spec.name.clone(),
            fmt(median_ms(full.training_times()), 2),
            fmt(median_ms(incremental.training_times()), 2),
        ]);
        all_full.extend_from_slice(full.training_times());
        all_incr.extend_from_slice(incremental.training_times());
    }

    println!(
        "{}",
        render_table(
            &[
                "Workflow",
                "Sizey-Full median ms",
                "Sizey-Incremental median ms"
            ],
            &rows
        )
    );
    let full_ms = median_ms(&all_full);
    let incr_ms = median_ms(&all_incr);
    println!(
        "Overall medians: full {} ms, incremental {} ms ({}% reduction).",
        fmt(full_ms, 2),
        fmt(incr_ms, 2),
        fmt((1.0 - incr_ms / full_ms.max(1e-9)) * 100.0, 2)
    );
    println!("Paper reference (Fig. 9): median 1.09 s for full retraining (with HPO) and");
    println!("17.5 ms for incremental updates, a 98.39% reduction; both are comparable");
    println!(
        "across workflows. ({} is the Sizey method name used here.)",
        MethodSpec::sizey_defaults().name()
    );
}
