//! # sizey-bench
//!
//! Benchmark harness regenerating every table and figure of the Sizey
//! evaluation. The `repro` binary runs them; each is a section named after
//! the figure, table or ablation it regenerates (README §"Reproducing
//! figures and tables"). This library holds the shared machinery: method
//! construction, full-evaluation sweeps across the six workflows, the
//! paper's headline reduction, and plain-text table rendering.
//!
//! All harness binaries honour two environment variables so the same code
//! serves quick smoke runs and full-fidelity reproductions:
//!
//! * `SIZEY_BENCH_SCALE` — fraction of the paper's task-instance volume to
//!   generate (default `0.1`),
//! * `SIZEY_BENCH_SEED` — workload generation seed (default `42`).
//!
//! A value that does not parse (or a scale outside `(0, 2]`) stops the
//! binary with exit status 1 instead of silently running the default.

#![warn(missing_docs)]

pub mod experiment;
pub mod recovery;
pub mod registry;
pub mod sweep;
pub mod toml_lite;

use sizey_ml::metrics::median;
use sizey_ml::parallel::{default_parallelism, parallel_map};
use sizey_sim::{replay_workflow, ReplayReport, SimulationConfig};
use sizey_workflows::{
    all_workflows, generate_workflow, GeneratorConfig, TaskInstance, WorkflowSpec, WORKFLOW_NAMES,
};

pub use experiment::ExperimentSpec;
pub use recovery::{RecoveryTracker, RECOVERY_BAND, RECOVERY_WINDOW};
pub use registry::{MethodSpec, SpecError};
pub use sweep::{aggregate_sweep, SweepCell, SweepRow};

/// Harness-wide settings read from the environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessSettings {
    /// Fraction of the paper's task volume to generate.
    pub scale: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for HarnessSettings {
    fn default() -> Self {
        HarnessSettings {
            scale: 0.1,
            seed: 42,
        }
    }
}

impl HarnessSettings {
    /// Reads `SIZEY_BENCH_SCALE` and `SIZEY_BENCH_SEED` from the environment
    /// (unset variables keep the defaults, scale 0.1 and seed 42). A value
    /// [`parse`](Self::parse) refuses is printed to stderr with its variable
    /// name, and the process exits with status 1: a figure must never be
    /// computed at a scale or seed other than the one asked for.
    pub fn from_env() -> Self {
        let scale = std::env::var("SIZEY_BENCH_SCALE").ok();
        let seed = std::env::var("SIZEY_BENCH_SEED").ok();
        HarnessSettings::parse(scale.as_deref(), seed.as_deref()).unwrap_or_else(|err| {
            eprintln!("error: {err}");
            std::process::exit(1);
        })
    }

    /// Parses the two settings from their raw values (`None` keeps the
    /// default). The scale must be a number in `(0, 2]`, the seed a `u64`;
    /// the error names the variable and quotes its value.
    pub fn parse(scale: Option<&str>, seed: Option<&str>) -> Result<HarnessSettings, String> {
        let mut settings = HarnessSettings::default();
        if let Some(raw) = scale {
            settings.scale = raw
                .parse::<f64>()
                .ok()
                .filter(|v| *v > 0.0 && *v <= 2.0)
                .ok_or_else(|| format!("SIZEY_BENCH_SCALE={raw:?} is not a number in (0, 2]"))?;
        }
        if let Some(raw) = seed {
            settings.seed = raw
                .parse::<u64>()
                .map_err(|_| format!("SIZEY_BENCH_SEED={raw:?} is not an unsigned integer"))?;
        }
        Ok(settings)
    }

    /// The generator configuration corresponding to these settings.
    pub fn generator(&self) -> GeneratorConfig {
        GeneratorConfig::scaled(self.scale, self.seed)
    }
}

/// One workflow's generated workload.
pub struct Workload {
    /// The workflow specification.
    pub spec: WorkflowSpec,
    /// The generated task instances in submission order.
    pub instances: Vec<TaskInstance>,
}

/// Generates the workloads of all six evaluation workflows.
pub fn generate_workloads(settings: &HarnessSettings) -> Vec<Workload> {
    all_workflows()
        .into_iter()
        .map(|spec| {
            let instances = generate_workflow(&spec, &settings.generator());
            Workload { spec, instances }
        })
        .collect()
}

/// Replays the paper's six-method suite ([`MethodSpec::default_suite`]) over
/// all workloads — the full Fig. 8 / Table II sweep. The whole
/// method × workload product is fanned out across the [`sizey_ml::parallel`]
/// thread pool (the serial loop this replaces walked 36 replays one at a
/// time). Returns `(method spec, per-workflow reports)` in figure order.
pub fn evaluate_all_methods(
    workloads: &[Workload],
    sim: &SimulationConfig,
) -> Vec<(MethodSpec, Vec<ReplayReport>)> {
    evaluate_methods(&MethodSpec::default_suite(), workloads, sim)
}

/// Replays an arbitrary list of method specs over all workloads in parallel
/// (every replay is independent: each (method, workload) cell gets a fresh
/// predictor built from the spec), returning `(method spec, per-workflow
/// reports)` in the given method order.
pub fn evaluate_methods(
    methods: &[MethodSpec],
    workloads: &[Workload],
    sim: &SimulationConfig,
) -> Vec<(MethodSpec, Vec<ReplayReport>)> {
    let cells: Vec<(&MethodSpec, &Workload)> = methods
        .iter()
        .flat_map(|m| workloads.iter().map(move |w| (m, w)))
        .collect();
    let mut reports = parallel_map(&cells, default_parallelism(), |(m, w)| {
        let mut predictor = m.build();
        replay_workflow(&w.spec.name, &w.instances, predictor.as_mut(), sim)
    })
    .into_iter();
    // `cells` is method-major and `parallel_map` preserves input order, so
    // the reports regroup into per-method chunks directly.
    methods
        .iter()
        .map(|m| (m.clone(), reports.by_ref().take(workloads.len()).collect()))
        .collect()
}

/// A method's wastage in GBh on one workflow, summed over its reports of
/// that workflow; `None` when it has none.
pub fn wastage_on(reports: &[ReplayReport], workflow: &str) -> Option<f64> {
    reports
        .iter()
        .filter(|r| r.workflow == workflow)
        .map(|r| r.aggregates.total_wastage_gbh)
        .reduce(|a, b| a + b)
}

/// Sizey's wastage on one workflow against the best state-of-the-art
/// baseline's there.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowReduction {
    /// The workflow.
    pub workflow: &'static str,
    /// Sizey's wastage in GBh.
    pub sizey_gbh: f64,
    /// Name of the baseline with the least wastage on this workflow.
    pub best_baseline: &'static str,
    /// That baseline's wastage in GBh.
    pub best_baseline_gbh: f64,
    /// `(1 - sizey / best) * 100`.
    pub reduction_pct: f64,
}

/// The paper's headline claim over one evaluation of the method suite.
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    /// One row per workflow, in [`WORKFLOW_NAMES`] order.
    pub per_workflow: Vec<WorkflowReduction>,
    /// Median of the per-workflow reductions, in %.
    pub median_reduction_pct: f64,
    /// Sizey's total wastage against the lowest baseline total, in %.
    pub aggregate_reduction_pct: f64,
}

/// Computes the headline from [`evaluate_all_methods`]-shaped results:
/// the first method is Sizey, and the presets are no baseline. Per workflow
/// the best baseline is the one with the least wastage there (a baseline
/// without that workflow never wins); in aggregate it is the one with the
/// least total.
pub fn headline(results: &[(MethodSpec, Vec<ReplayReport>)]) -> Headline {
    let (sizey, rest) = results.split_first().expect("Sizey is the first method");
    let baselines: Vec<(&'static str, &[ReplayReport])> = rest
        .iter()
        .filter(|(m, _)| !matches!(m, MethodSpec::Preset))
        .map(|(m, reports)| (m.name(), reports.as_slice()))
        .collect();
    let per_workflow: Vec<WorkflowReduction> = WORKFLOW_NAMES
        .into_iter()
        .map(|workflow| {
            let sizey_gbh = wastage_on(&sizey.1, workflow).unwrap_or(0.0);
            let (best_baseline, best_baseline_gbh) = baselines
                .iter()
                .map(|(name, reports)| {
                    (
                        *name,
                        wastage_on(reports, workflow).unwrap_or(f64::INFINITY),
                    )
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least one baseline");
            WorkflowReduction {
                workflow,
                sizey_gbh,
                best_baseline,
                best_baseline_gbh,
                reduction_pct: (1.0 - sizey_gbh / best_baseline_gbh) * 100.0,
            }
        })
        .collect();
    let total = |reports: &[ReplayReport]| -> f64 {
        reports.iter().map(|r| r.aggregates.total_wastage_gbh).sum()
    };
    let best_total = baselines
        .iter()
        .map(|(_, reports)| total(reports))
        .fold(f64::INFINITY, f64::min);
    let reductions: Vec<f64> = per_workflow.iter().map(|w| w.reduction_pct).collect();
    Headline {
        median_reduction_pct: median(&reductions),
        aggregate_reduction_pct: (1.0 - total(&sizey.1) / best_total) * 100.0,
        per_workflow,
    }
}

/// Renders a plain-text table with right-aligned numeric columns.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with the given number of decimal places.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Prints the standard harness banner (experiment id, scale, seed) so every
/// output is self-describing. Pass the settings the workloads were
/// generated at, not the requested ones, when they differ.
pub fn banner(experiment: &str, settings: &HarnessSettings) {
    println!("=== {experiment} ===");
    println!(
        "workload scale: {} of the paper's task volume, seed: {}",
        settings.scale, settings.seed
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_sim::ReplayAggregates;

    /// Reports with the given wastage on the first two workflows.
    fn reports(gbh: [f64; 2]) -> Vec<ReplayReport> {
        WORKFLOW_NAMES[..2]
            .iter()
            .zip(gbh)
            .map(|(workflow, total_wastage_gbh)| ReplayReport {
                method: String::new(),
                workflow: workflow.to_string(),
                time_to_failure: 1.0,
                events: Vec::new(),
                instances: 0,
                aggregates: ReplayAggregates {
                    total_wastage_gbh,
                    ..ReplayAggregates::default()
                },
            })
            .collect()
    }

    /// The best baseline is picked per workflow, and by total in aggregate;
    /// the presets never count, however low their wastage.
    #[test]
    fn headline_compares_sizey_with_the_best_baseline() {
        let [sizey, lr, ppm, preset] = [
            MethodSpec::default_suite()[0].clone(),
            MethodSpec::WittLr,
            MethodSpec::TovarPpm,
            MethodSpec::Preset,
        ];
        let h = headline(&[
            (sizey, reports([5.0, 30.0])),
            (lr, reports([10.0, 40.0])),
            (ppm, reports([20.0, 20.0])),
            (preset, reports([1.0, 1.0])),
        ]);
        let first = &h.per_workflow[0];
        assert_eq!(
            (first.best_baseline, first.best_baseline_gbh),
            ("Witt-LR", 10.0)
        );
        assert_eq!(first.reduction_pct, 50.0);
        assert_eq!(h.per_workflow[1].best_baseline, "Tovar-PPM");
        assert_eq!(h.per_workflow[1].reduction_pct, -50.0);
        // 35 GBh against Tovar-PPM's 40 (Witt-LR's total is 50).
        assert_eq!(h.aggregate_reduction_pct, 12.5);
        assert_eq!(h.per_workflow.len(), WORKFLOW_NAMES.len());
    }

    #[test]
    fn methods_have_unique_names_and_builders() {
        let suite = MethodSpec::default_suite();
        let names: std::collections::HashSet<_> = suite.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 6);
        for m in &suite {
            assert_eq!(m.build().name(), m.name());
        }
    }

    #[test]
    fn settings_from_env_fall_back_to_defaults() {
        std::env::remove_var("SIZEY_BENCH_SCALE");
        std::env::remove_var("SIZEY_BENCH_SEED");
        let s = HarnessSettings::from_env();
        assert_eq!(s.scale, 0.1);
        assert_eq!(s.seed, 42);
    }

    #[test]
    fn settings_parse_accepts_valid_values_and_names_bad_ones() {
        let ok = |scale: Option<&str>, seed: Option<&str>| {
            let s = HarnessSettings::parse(scale, seed).unwrap();
            (s.scale, s.seed)
        };
        assert_eq!(ok(None, None), (0.1, 42));
        assert_eq!(ok(Some("1.0"), None), (1.0, 42));
        assert_eq!(ok(Some("0.5"), Some("7")), (0.5, 7));
        assert_eq!(ok(Some("2"), Some("0")), (2.0, 0));
        for (scale, seed, variable) in [
            (Some("1,0"), None, "SIZEY_BENCH_SCALE=\"1,0\""),
            (Some(""), None, "SIZEY_BENCH_SCALE"),
            (Some(" 0.5"), None, "SIZEY_BENCH_SCALE"),
            (Some("0"), None, "SIZEY_BENCH_SCALE=\"0\""),
            (Some("-0.1"), None, "SIZEY_BENCH_SCALE"),
            (Some("2.5"), None, "SIZEY_BENCH_SCALE=\"2.5\""),
            (Some("NaN"), None, "SIZEY_BENCH_SCALE"),
            (Some("inf"), None, "SIZEY_BENCH_SCALE"),
            (None, Some("seven"), "SIZEY_BENCH_SEED=\"seven\""),
            (None, Some("-1"), "SIZEY_BENCH_SEED"),
            (Some("1.0"), Some("4.2"), "SIZEY_BENCH_SEED"),
        ] {
            let err = HarnessSettings::parse(scale, seed).unwrap_err();
            assert!(err.contains(variable), "{scale:?}/{seed:?}: {err}");
        }
    }

    #[test]
    fn generate_workloads_covers_all_six_workflows() {
        let settings = HarnessSettings {
            scale: 0.02,
            seed: 3,
        };
        let workloads = generate_workloads(&settings);
        assert_eq!(workloads.len(), 6);
        assert!(workloads.iter().all(|w| !w.instances.is_empty()));
    }

    #[test]
    fn evaluate_methods_produces_one_report_per_workflow() {
        let settings = HarnessSettings {
            scale: 0.02,
            seed: 3,
        };
        let workloads = generate_workloads(&settings);
        let evaluated = evaluate_methods(
            &[MethodSpec::Preset],
            &workloads,
            &SimulationConfig::default(),
        );
        assert_eq!(evaluated.len(), 1);
        let (method, reports) = &evaluated[0];
        assert_eq!(*method, MethodSpec::Preset);
        assert_eq!(reports.len(), 6);
        assert!(reports.iter().all(|r| r.method == "Workflow-Presets"));
    }

    #[test]
    fn render_table_aligns_columns() {
        let table = render_table(
            &["Method", "GBh"],
            &[
                vec!["Sizey".to_string(), "12.3".to_string()],
                vec!["Workflow-Presets".to_string(), "456.7".to_string()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Method"));
        assert!(lines[2].ends_with("12.3"));
        assert!(lines[3].ends_with("456.7"));
    }

    #[test]
    fn fmt_rounds_to_requested_decimals() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
    }
}
