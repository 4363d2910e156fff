//! The spec-driven experiment runner: loads an [`ExperimentSpec`] TOML file,
//! runs the methods × profiles × seeds × policies sweep, prints the per-cell
//! and aggregate tables, and (optionally) writes a checkpoint directory with
//! every cell's trained-predictor state.
//!
//! ```text
//! experiment <spec.toml> [checkpoint-dir]
//! ```
//!
//! The checkpoint directory receives
//!
//! * `spec.toml` — the exact (normalised) spec that produced the results,
//! * one `cell<NNN>_<method>_<profile>_s<seed>_<policy>.state` file per
//!   sweep cell — the predictor's event-sourced
//!   [`PredictorState`], restorable with
//!   [`MethodSpec::restore`](sizey_bench::MethodSpec::restore) for warm
//!   starts.
//!
//! After writing, every state file is read back, restored through the
//! registry and re-snapshotted; the run fails (non-zero exit, naming the
//! state file) unless each round-trip is bit-identical — so a green run
//! *proves* the checkpoints are usable, and CI greps for the "checkpoint
//! round-trip verified" line. A bounded-history Sizey (`history_window`)
//! fails here once its store has evicted: its journal is a suffix, and
//! restore refuses it.
//!
//! Example: `cargo run --release -p sizey-bench --bin experiment -- \
//! crates/bench/specs/smoke.toml /tmp/sizey-checkpoints`

use sizey_bench::{aggregate_sweep, fmt, render_table, ExperimentSpec};
use sizey_sim::PredictorState;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (spec_path, checkpoint_dir) = match args.as_slice() {
        [spec] => (spec.clone(), None),
        [spec, dir] => (spec.clone(), Some(dir.clone())),
        _ => {
            eprintln!("usage: experiment <spec.toml> [checkpoint-dir]");
            return ExitCode::FAILURE;
        }
    };

    let spec = match ExperimentSpec::from_toml_file(&spec_path) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("failed to load {spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("=== experiment: {} ===", spec.name);
    println!(
        "{} cells ({} methods x {} profiles x {} seeds x {} policies), scale {}",
        spec.len(),
        spec.methods.len(),
        spec.profiles.len(),
        spec.seeds.len(),
        spec.policies.len(),
        spec.scale,
    );
    for method in &spec.methods {
        println!("  method: {} ({})", method.name(), method.id());
    }
    println!();

    let results = match spec.run_checkpointed() {
        Ok(results) => results,
        Err(e) => {
            eprintln!("experiment failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cells: Vec<_> = results.iter().map(|(cell, _)| cell.clone()).collect();
    let cell_rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.workflow.clone(),
                c.method.name().to_string(),
                c.seed.to_string(),
                c.policy.name().to_string(),
                fmt(c.aggregates.total_wastage_gbh, 2),
                c.aggregates.failures.to_string(),
                fmt(c.aggregates.makespan_hours(), 2),
                fmt(c.aggregates.mean_queue_delay_seconds(), 1),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Workflow",
                "Method",
                "Seed",
                "Policy",
                "Wastage GBh",
                "Failures",
                "Makespan h",
                "Queue delay s",
            ],
            &cell_rows
        )
    );

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
                "Queue delay s",
            ],
            &rows
        )
    );

    // Drift scenarios: one greppable time_to_recover line per cell.
    if spec.drift.is_some() {
        for c in &cells {
            let ttr = c
                .time_to_recover_seconds
                .expect("drift specs track recovery");
            let rendered = if ttr.is_finite() {
                fmt(ttr, 1)
            } else {
                "never".to_string()
            };
            println!(
                "time_to_recover: workflow={} method={} seed={} policy={} seconds={rendered}",
                c.workflow,
                c.method.name(),
                c.seed,
                c.policy.name()
            );
        }
        println!();
    }

    // Fault scenarios: per-cell accounting of requeues and the retry-baseline
    // leak invariant (must be zero even when faults strand attempts).
    if spec.sim.faults.as_ref().is_some_and(|f| !f.is_empty()) {
        let mut stranded = 0usize;
        for c in &cells {
            println!(
                "fault_accounting: workflow={} method={} seed={} policy={} requeued={} leaked_inflight_retries={} unfinished={}",
                c.workflow,
                c.method.name(),
                c.seed,
                c.policy.name(),
                c.requeued_attempts,
                c.leaked_inflight_retries,
                c.aggregates.unfinished_instances
            );
            stranded += c.leaked_inflight_retries + c.aggregates.unfinished_instances;
        }
        println!();
        if stranded > 0 {
            eprintln!("fault run stranded {stranded} tasks/retries");
            return ExitCode::FAILURE;
        }
        println!("fault run completed with zero stranded tasks");
    }

    let Some(dir) = checkpoint_dir else {
        return ExitCode::SUCCESS;
    };
    match write_and_verify_checkpoints(&spec, &results, Path::new(&dir)) {
        Ok(n) => {
            println!("checkpoint round-trip verified ({n} states) in {dir}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("checkpointing failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the spec plus one state file per cell, then proves every file
/// restores bit-identically through the registry.
fn write_and_verify_checkpoints(
    spec: &ExperimentSpec,
    results: &[(sizey_bench::SweepCell, PredictorState)],
    dir: &Path,
) -> Result<usize, Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("spec.toml"), spec.to_toml())?;
    let mut paths = Vec::with_capacity(results.len());
    for (idx, (cell, state)) in results.iter().enumerate() {
        let file = format!(
            "cell{idx:03}_{}_{}_s{}_{}.state",
            cell.method.id(),
            cell.workflow,
            cell.seed,
            cell.policy.name()
        );
        let path = dir.join(file);
        state.write_state_file(&path)?;
        paths.push(path);
    }
    // Round-trip proof: file -> state -> restored predictor -> snapshot.
    for ((cell, state), path) in results.iter().zip(&paths) {
        let read_back = PredictorState::read_state_file(path)?;
        if read_back != *state {
            return Err(format!("{}: state changed on disk", path.display()).into());
        }
        let restored = cell
            .method
            .restore(&read_back)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if restored.snapshot() != *state {
            return Err(format!(
                "{}: restored predictor does not reproduce its checkpoint",
                path.display()
            )
            .into());
        }
    }
    Ok(results.len())
}
