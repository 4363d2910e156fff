//! Fig. 8a and 8b — total memory wastage over time (GBh) aggregated over all
//! six workflows, for every method, at the paper's two time-to-failure
//! values: 1.0 (panel a, failures detected at the very end of the execution)
//! and 0.5 (panel b, tasks fail halfway through).
//!
//! Run with `cargo run -p sizey-bench --release --bin fig08ab_wastage`.

use sizey_bench::{
    banner, evaluate_all_methods, fmt, generate_workloads, render_table, HarnessSettings,
    MethodSpec,
};
use sizey_sim::{aggregate_method, SimulationConfig};

/// One panel of the figure: its time-to-failure and the paper's numbers.
struct Panel {
    name: &'static str,
    time_to_failure: f64,
    paper_reduction_pct: &'static str,
    paper_presets_ratio: &'static str,
    paper_reference: &'static str,
}

const PANELS: [Panel; 2] = [
    Panel {
        name: "8a",
        time_to_failure: 1.0,
        paper_reduction_pct: "64.58",
        paper_presets_ratio: "~17x",
        paper_reference: "Sizey 1684.21, Witt-Wastage 5437.08, Witt-LR 4754.85,\n\
            Tovar-PPM 5072.26, Witt-Percentile 5767.20, Workflow-Presets 28370.77 GBh.",
    },
    Panel {
        name: "8b",
        time_to_failure: 0.5,
        paper_reduction_pct: "60.60",
        paper_presets_ratio: "~20x",
        paper_reference: "Sizey 1429.28, Witt-Wastage 4963.40, Witt-LR 3628.02,\n\
            Tovar-PPM 4106.45, Witt-Percentile 4576.27, Workflow-Presets 28370.77 GBh.",
    },
];

fn main() {
    let settings = HarnessSettings::from_env();
    let workloads = generate_workloads(&settings);

    for panel in &PANELS {
        banner(
            &format!(
                "Fig. {}: total memory wastage (GBh), all workflows, time-to-failure {:.1}",
                panel.name, panel.time_to_failure
            ),
            &settings,
        );
        let sim = SimulationConfig::default().with_time_to_failure(panel.time_to_failure);
        let results = evaluate_all_methods(&workloads, &sim);

        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|(method, reports)| {
                let agg = aggregate_method(reports);
                vec![
                    method.name().to_string(),
                    fmt(agg.total_wastage_gbh, 2),
                    agg.total_failures.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["Method", "Total Wastage GBh", "Failures"], &rows)
        );

        let sizey = aggregate_method(&results[0].1).total_wastage_gbh;
        let best_baseline = results
            .iter()
            .skip(1)
            .filter(|(m, _)| !matches!(m, MethodSpec::Preset))
            .map(|(_, r)| aggregate_method(r).total_wastage_gbh)
            .fold(f64::INFINITY, f64::min);
        let presets =
            aggregate_method(&results.last().expect("presets present").1).total_wastage_gbh;
        println!(
            "Sizey vs best baseline: {}% lower wastage (paper: {}% lower than Witt-Wastage).",
            fmt((1.0 - sizey / best_baseline) * 100.0, 2),
            panel.paper_reduction_pct
        );
        println!(
            "Workflow-Presets vs Sizey: {}x higher wastage (paper: {}).",
            fmt(presets / sizey, 1),
            panel.paper_presets_ratio
        );
        println!(
            "Paper reference (Fig. {}): {}",
            panel.name, panel.paper_reference
        );
        println!();
    }
    println!("Expected shape: every learned method benefits from the lower time-to-failure;");
    println!("the presets do not change because they never fail.");
}
