//! Contention sweep: workflows × methods × seeds × scheduling policies on a
//! capacity-constrained cluster, fanned out across the thread pool.
//!
//! The paper's evaluation ignores queueing; this experiment quantifies what
//! that hides. On a small cluster (2 × 128 GB nodes, 8 slots each) an
//! over-allocating method does not just burn GB·h — it makes its own tasks
//! (and everyone else's) wait. The table reports, per (method, policy):
//! wastage, failures, the summed per-workflow makespan and the mean queue
//! delay per attempt.
//!
//! Run with `cargo run -p sizey-bench --release --bin policy_sweep`.

use sizey_bench::{
    aggregate_sweep, banner, fmt, render_table, ExperimentSpec, HarnessSettings, MethodSpec,
};
use sizey_sim::{SchedulePolicy, SimulationConfig};

fn main() {
    let settings = HarnessSettings::from_env();
    banner(
        "Contention sweep: methods × scheduling policies on a constrained cluster",
        &settings,
    );

    let spec = ExperimentSpec {
        methods: vec![
            MethodSpec::sizey_defaults(),
            MethodSpec::WittPercentile(Default::default()),
            MethodSpec::Preset,
        ],
        seeds: vec![settings.seed, settings.seed + 1],
        policies: SchedulePolicy::ALL.to_vec(),
        scale: settings.scale,
        // Two nodes with the paper's 128 GB but only 8 slots each: enough
        // memory for every task, little enough concurrency that sizing
        // quality shows up as queue delay and makespan.
        sim: SimulationConfig::default().with_nodes(2, 128e9, 8),
        ..ExperimentSpec::default()
    };
    println!(
        "sweep: {} cells ({} workflows x {} methods x {} seeds x {} policies)\n",
        spec.len(),
        spec.profiles.len(),
        spec.methods.len(),
        spec.seeds.len(),
        spec.policies.len()
    );

    let cells = spec.run().expect("the policy sweep is a valid experiment");
    let rows: Vec<Vec<String>> = aggregate_sweep(&cells)
        .into_iter()
        .map(|row| {
            vec![
                row.method.name().to_string(),
                row.policy.name().to_string(),
                fmt(row.wastage_gbh, 2),
                fmt(row.failures, 1),
                fmt(row.makespan_hours, 2),
                fmt(row.mean_queue_delay_seconds, 1),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Method",
                "Policy",
                "Wastage GBh",
                "Failures",
                "Makespan h",
                "Mean queue delay s",
            ],
            &rows
        )
    );

    // Headline comparison: the queue-delay gap between the best-sized and
    // the preset-sized replays under first fit.
    let delay = |method: &MethodSpec| {
        cells
            .iter()
            .filter(|c| c.method == *method && c.policy == SchedulePolicy::FirstFit)
            .map(|c| c.mean_queue_delay_seconds)
            .sum::<f64>()
            / spec.profiles.len() as f64
            / spec.seeds.len() as f64
    };
    let sizey = delay(&MethodSpec::sizey_defaults());
    let presets = delay(&MethodSpec::Preset);
    println!(
        "mean queue delay per attempt (first fit): Sizey {} s, Workflow-Presets {} s",
        fmt(sizey, 1),
        fmt(presets, 1)
    );
    if presets > sizey {
        println!("over-allocation costs makespan, not just GBh: presets wait longer for the same cluster.");
    }
}
