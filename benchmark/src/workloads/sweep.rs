//! `paper_sweep`: what a researcher runs — the six-method suite over the six
//! workflows through the synchronous `replay_workflow`, one cell after the
//! other on one thread. It covers the baselines crate and the third engine,
//! and carries the paper's headline as `reduction_vs_best_pct`.

use super::sim::{predictor_layers, trace_cost, CountsRetrains, Traced, GENERATOR};
use super::{Pass, Workload};
use crate::digest::Fnv;
use crate::micro;
use crate::stats::median;
use crate::trace;
use sizey_bench::{
    evaluate_all_methods, generate_workloads, HarnessSettings, MethodSpec, Workload as Trace,
};
use sizey_provenance::TaskRecord;
use sizey_sim::{
    replay_workflow, AttemptContext, CheckpointPredictor, MemoryPredictor, Prediction,
    ReplayAggregates, ReplayReport, SimulationConfig, TaskSubmission,
};
use sizey_workflows::{all_workflows, inventory};
use std::time::Instant;

/// The pass as a whole; its self time is the loop around the cells.
const SWEEP: &str = "bench.sweep";
/// One span per cell, named after the method: `replay.cell.<method id>`.
/// Its self time is the synchronous engine's.
const CELLS: [(&str, &str); 6] = [
    ("sizey", "replay.cell.sizey"),
    ("witt-wastage", "replay.cell.witt-wastage"),
    ("witt-lr", "replay.cell.witt-lr"),
    ("tovar-ppm", "replay.cell.tovar-ppm"),
    ("witt-percentile", "replay.cell.witt-percentile"),
    ("preset", "replay.cell.preset"),
];

/// Table I of the paper: task types and mean instances per type.
const TABLE_1: [(&str, usize, f64); 6] = [
    ("eager", 13, 121.0),
    ("methylseq", 9, 100.0),
    ("chipseq", 30, 82.0),
    ("rnaseq", 30, 39.0),
    ("mag", 8, 720.0),
    ("iwd", 5, 332.0),
];

pub struct PaperSweep {
    scale: f64,
    smoke: bool,
}

impl PaperSweep {
    pub fn new(smoke: bool) -> Self {
        PaperSweep {
            scale: if smoke { 0.05 } else { 1.0 },
            smoke,
        }
    }
}

/// A boxed baseline as a `MemoryPredictor` the tracer can wrap.
struct Boxed(Box<dyn CheckpointPredictor>);

impl CountsRetrains for Boxed {}

impl MemoryPredictor for Boxed {
    fn name(&self) -> String {
        self.0.name()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        self.0.predict(task, ctx)
    }

    fn observe(&mut self, record: &TaskRecord) {
        self.0.observe(record);
    }
}

fn cell_span(method: &MethodSpec) -> &'static str {
    CELLS
        .iter()
        .find(|(id, _)| *id == method.id())
        .map_or(SWEEP, |(_, span)| span)
}

/// Digest, headline and failure accounting of one full sweep, in method-
/// major order — shared by the serial pass and the parallel layer metric.
struct Sweep {
    digest: u64,
    attempts: u64,
    instances: u64,
    unfinished: u64,
    sizey_wastage_gbh: f64,
    sizey_failures: u64,
    reduction_vs_best_pct: f64,
}

fn summarise(results: &[(MethodSpec, Vec<ReplayReport>)]) -> Sweep {
    let mut digest = Fnv::default();
    let (mut attempts, mut instances, mut unfinished) = (0, 0, 0);
    // Per method: wastage per workflow, in workload order.
    let mut wastage: Vec<(&MethodSpec, Vec<f64>)> = Vec::new();
    let mut sizey_failures = 0;
    for (method, reports) in results {
        let mut per_workflow = Vec::new();
        for report in reports {
            let aggregates = ReplayAggregates::from_report(report);
            digest.str(method.id());
            digest.aggregates(&report.workflow, &aggregates);
            attempts += aggregates.attempts;
            instances += aggregates.instances as u64;
            unfinished += aggregates.unfinished_instances as u64;
            if matches!(method, MethodSpec::Sizey(_)) {
                sizey_failures += aggregates.failures;
            }
            per_workflow.push(aggregates.total_wastage_gbh);
        }
        wastage.push((method, per_workflow));
    }
    let sizey = wastage
        .iter()
        .find(|(m, _)| matches!(m, MethodSpec::Sizey(_)))
        .map(|(_, w)| w.clone())
        .unwrap_or_default();
    // The paper's headline: per workflow, Sizey against the best of the
    // state-of-the-art baselines (presets excluded); median over workflows.
    let mut reductions: Vec<f64> = sizey
        .iter()
        .enumerate()
        .map(|(w, sizey_w)| {
            let best = wastage
                .iter()
                .filter(|(m, _)| !matches!(m, MethodSpec::Sizey(_) | MethodSpec::Preset))
                .map(|(_, per_workflow)| per_workflow[w])
                .fold(f64::INFINITY, f64::min);
            (1.0 - sizey_w / best) * 100.0
        })
        .collect();
    Sweep {
        digest: digest.finish(),
        attempts,
        instances,
        unfinished,
        sizey_wastage_gbh: sizey.iter().sum(),
        sizey_failures,
        reduction_vs_best_pct: median(&mut reductions),
    }
}

fn table_1_mismatches() -> Vec<String> {
    inventory(&all_workflows())
        .iter()
        .zip(TABLE_1)
        .filter(|(row, (name, types, mean))| {
            row.workflow != *name
                || row.task_types != *types
                || row.avg_instances_per_type.round() != *mean
        })
        .map(|(row, expected)| format!("Table I: got {row:?}, paper says {expected:?}"))
        .collect()
}

impl PaperSweep {
    fn workloads(&self, seed: u64) -> Vec<Trace> {
        generate_workloads(&HarnessSettings {
            scale: self.scale,
            seed,
        })
    }
}

impl Workload for PaperSweep {
    fn name(&self) -> &'static str {
        "paper_sweep"
    }

    fn why(&self) -> &'static str {
        "6 methods x 6 workflows, serial, synchronous engine: covers the baselines and carries the paper's headline reduction"
    }

    fn prepare(&self, seed: u64, traced: bool) -> Box<dyn FnOnce() -> Pass + '_> {
        let workloads = trace::span(GENERATOR, 0, 0, || self.workloads(seed));
        let methods = MethodSpec::default_suite();
        let sim = SimulationConfig::default();

        Box::new(move || {
            let start = Instant::now();
            trace::begin(0, 0);
            let results: Vec<(MethodSpec, Vec<ReplayReport>)> = methods
                .into_iter()
                .map(|method| {
                    let reports = workloads
                        .iter()
                        .enumerate()
                        .map(|(w, workload)| {
                            let tenant = w as u32;
                            let mut predictor: Box<dyn MemoryPredictor> = if !traced {
                                method.build()
                            } else if let Some(sizey) = method.build_sizey() {
                                Box::new(Traced::new(sizey, tenant))
                            } else {
                                Box::new(Traced::baseline(Boxed(method.build()), tenant))
                            };
                            trace::span(cell_span(&method), tenant, 0, || {
                                replay_workflow(
                                    &workload.spec.name,
                                    &workload.instances,
                                    predictor.as_mut(),
                                    &sim,
                                )
                            })
                        })
                        .collect();
                    (method, reports)
                })
                .collect();
            trace::end(SWEEP);
            let wall_s = start.elapsed().as_secs_f64();

            let sweep = summarise(&results);
            Pass {
                wall_s,
                attempted: sweep.instances,
                failed: sweep.unfinished,
                digest: sweep.digest,
                values: vec![
                    ("attempts_per_s", sweep.attempts as f64 / wall_s),
                    ("wastage_gbh", sweep.sizey_wastage_gbh),
                    ("oom_failures", sweep.sizey_failures as f64),
                    ("reduction_vs_best_pct", sweep.reduction_vs_best_pct),
                ],
                counts: vec![
                    ("gen.instances", sweep.instances as f64 / 6.0),
                    ("sched.dispatched_attempts", sweep.attempts as f64),
                ],
                samples: Vec::new(),
                broken: table_1_mismatches(),
                trace: traced.then(trace::finish),
            }
        })
    }

    fn layers(&self, seed: u64, plain: &Pass, traced: &Pass) -> Vec<(String, f64)> {
        let trace = traced.trace.as_ref().expect("traced pass carries a trace");
        let cells: Vec<_> = CELLS
            .iter()
            .map(|(id, span)| (id, trace.layer(span)))
            .collect();
        let cells_busy: f64 = cells.iter().map(|(_, cell)| cell.busy_s()).sum();
        // Engine self time: every cell minus its predictor spans, plus the
        // loop around the cells.
        let engine_self =
            cells.iter().map(|(_, cell)| cell.self_s()).sum::<f64>() + trace.layer(SWEEP).self_s();
        let generator = trace.layer(GENERATOR);
        let baselines = trace
            .layer(super::sim::BASELINE_PREDICT)
            .merged(&trace.layer(super::sim::BASELINE_OBSERVE));
        let mut out: Vec<(String, f64)> = cells
            .iter()
            .map(|(id, cell)| (format!("replay.cell_s.{id}"), cell.busy_s()))
            .collect();
        out.extend([
            (
                "replay.sizey_share".to_string(),
                cells[0].1.busy_s() / cells_busy,
            ),
            ("baselines.busy_s".to_string(), baselines.busy_s()),
            ("sched.self_s".to_string(), engine_self),
            (
                "sched.ns_per_attempt".to_string(),
                engine_self * 1e9 / traced.count("sched.dispatched_attempts").max(1.0),
            ),
            ("gen.busy_s".to_string(), generator.busy_s()),
            (
                "gen.ns_per_instance".to_string(),
                generator.busy_s() * 1e9 / traced.count("gen.instances").max(1.0),
            ),
        ]);
        out.extend(traced.layer_counts());
        out.extend(predictor_layers(trace));
        out.extend(trace_cost(plain, traced, trace, generator.busy_s()));
        micro::run(micro::Group::Kernels, seed, self.smoke, &mut out);

        // The same 36 cells fanned out by `evaluate_all_methods`: the
        // parallel speedup, a layer metric because it is noisy on two cores.
        let workloads = self.workloads(seed);
        let start = Instant::now();
        std::hint::black_box(evaluate_all_methods(
            &workloads,
            &SimulationConfig::default(),
        ));
        let parallel_wall = start.elapsed().as_secs_f64();
        out.extend([
            (
                "sweep.threads".to_string(),
                sizey_ml::parallel::default_parallelism() as f64,
            ),
            ("sweep.parallel_wall_s".to_string(), parallel_wall),
            (
                "sweep.parallel_speedup".to_string(),
                plain.wall_s / parallel_wall,
            ),
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_inventory_matches_the_paper() {
        assert_eq!(table_1_mismatches(), Vec::<String>::new());
    }

    #[test]
    fn every_suite_method_has_a_cell_span() {
        for method in MethodSpec::default_suite() {
            assert!(
                cell_span(&method).ends_with(method.id()),
                "{} has no cell span",
                method.id()
            );
        }
    }

    #[test]
    fn summary_counts_instances_failures_and_the_headline_reduction() {
        let sweep = PaperSweep {
            scale: 0.02,
            smoke: true,
        };
        let results = evaluate_all_methods(&sweep.workloads(5), &SimulationConfig::default());
        let summary = summarise(&results);
        let per_method: u64 = results[0].1.iter().map(|r| r.instances as u64).sum();
        assert_eq!(summary.instances, per_method * 6);
        assert!(summary.attempts >= summary.instances);
        assert_eq!(summary.unfinished, 0);
        let sizey_failures: usize = results[0].1.iter().map(ReplayReport::total_failures).sum();
        assert_eq!(summary.sizey_failures, sizey_failures as u64);
        let sizey_wastage: f64 = results[0]
            .1
            .iter()
            .map(ReplayReport::total_wastage_gbh)
            .sum();
        assert!((summary.sizey_wastage_gbh - sizey_wastage).abs() < 1e-9 * sizey_wastage);
        assert!(summary.reduction_vs_best_pct.is_finite());
        assert!(summary.reduction_vs_best_pct < 100.0);
        // Same inputs, same digest; another seed, another digest.
        let again = evaluate_all_methods(&sweep.workloads(5), &SimulationConfig::default());
        assert_eq!(summarise(&again).digest, summary.digest);
        let other = evaluate_all_methods(&sweep.workloads(6), &SimulationConfig::default());
        assert_ne!(summarise(&other).digest, summary.digest);
    }
}
