//! Regenerates the paper's evaluation. Every figure, table and ablation is a
//! section of this binary, named after what it reproduces:
//!
//! ```text
//! cargo run --release -p sizey-bench --bin repro                 # every section
//! cargo run --release -p sizey-bench --bin repro -- fig08c_task_failures table02_wastage_per_workflow
//! ```
//!
//! An unknown section name exits with status 1 and lists the valid ones.
//! `SIZEY_BENCH_SCALE` and `SIZEY_BENCH_SEED` are read as by every harness
//! binary (see the crate docs).
//!
//! The sections share one [`Context`]. It generates the six workloads and
//! replays the paper's six-method suite at time-to-failure 1.0 on first use,
//! so the headline, Table II and Fig. 8 sections evaluate the suite once
//! between them. A section that runs at another scale than the requested one
//! passes it to [`Context::banner_at`], which prints it and returns the
//! settings to generate with.

use sizey_bench::{
    banner, evaluate_all_methods, evaluate_methods, fmt, generate_workloads, headline,
    render_table, wastage_on, HarnessSettings, MethodSpec, Workload,
};
use sizey_core::{GatingStrategy, OffsetMode, OffsetStrategy, SizeyConfig, SizeyPredictor};
use sizey_ml::dataset::Dataset;
use sizey_ml::linear::LinearRegression;
use sizey_ml::metrics::mape;
use sizey_ml::model::{ModelClass, Regressor};
use sizey_ml::parallel::{default_parallelism, parallel_map};
use sizey_provenance::{TaskOutcome, TaskRecord, TaskTypeId};
use sizey_sim::{
    replay_workflow, AttemptContext, MemoryPredictor, Prediction, ReplayReport, SimulationConfig,
    TaskSubmission,
};
use sizey_workflows::{
    all_workflows, generate_workflow, inventory, peak_memory_by_task_type, stats, workflow_by_name,
    workflow_resource_profile, Distribution, WORKFLOW_NAMES,
};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A section's name and the function that prints it.
type Section = (&'static str, fn(&Context));

/// The sections in the order `repro` without arguments runs them.
static SECTIONS: [Section; 18] = [
    ("headline_summary", headline_summary),
    ("table01_workflow_inventory", table01_workflow_inventory),
    ("table02_wastage_per_workflow", table02_wastage_per_workflow),
    ("fig01_memory_distributions", fig01_memory_distributions),
    ("fig02_input_memory_relation", fig02_input_memory_relation),
    (
        "fig07_workflow_resource_profiles",
        fig07_workflow_resource_profiles,
    ),
    ("fig08ab_wastage", fig08ab_wastage),
    ("fig08c_task_failures", fig08c_task_failures),
    ("fig08d_runtimes", fig08d_runtimes),
    ("fig09_training_time_table", fig09_training_time_table),
    ("fig10_alpha_sweep", fig10_alpha_sweep),
    ("fig11_model_selection_share", fig11_model_selection_share),
    ("fig12_error_over_time", fig12_error_over_time),
    ("ablation_failure", ablation_failure),
    ("ablation_gating", ablation_gating),
    ("ablation_offset", ablation_offset),
    ("ablation_online_mode", ablation_online_mode),
    ("ablation_pool", ablation_pool),
];

fn main() {
    let requested: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Section> = if requested.is_empty() {
        SECTIONS.iter().collect()
    } else {
        requested.iter().map(|name| find_section(name)).collect()
    };
    let ctx = Context {
        settings: HarnessSettings::from_env(),
        ..Context::default()
    };
    for (i, (_, run)) in selected.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        run(&ctx);
    }
}

/// The section called `name`; any other name exits with status 1.
fn find_section(name: &str) -> &'static Section {
    SECTIONS
        .iter()
        .find(|(section, _)| *section == name)
        .unwrap_or_else(|| {
            let valid: Vec<&str> = SECTIONS.iter().map(|(section, _)| *section).collect();
            eprintln!(
                "error: unknown section {name:?}; valid sections: {}",
                valid.join(", ")
            );
            std::process::exit(1);
        })
}

/// What the sections share: the requested settings, and the six workloads
/// and the default suite's results at time-to-failure 1.0, each computed on
/// first use.
#[derive(Default)]
struct Context {
    settings: HarnessSettings,
    workloads: OnceCell<Vec<Workload>>,
    suite: OnceCell<Vec<(MethodSpec, Vec<ReplayReport>)>>,
}

impl Context {
    fn workloads(&self) -> &[Workload] {
        self.workloads
            .get_or_init(|| generate_workloads(&self.settings))
    }

    fn suite(&self) -> &[(MethodSpec, Vec<ReplayReport>)] {
        self.suite
            .get_or_init(|| evaluate_all_methods(self.workloads(), &SimulationConfig::default()))
    }

    /// Prints the banner of a section that runs at the requested settings.
    fn banner(&self, title: &str) {
        banner(title, &self.settings);
    }

    /// Prints the banner of a section that runs at its own `scale`, and
    /// returns the settings to generate its workloads with.
    fn banner_at(&self, title: &str, scale: f64) -> HarnessSettings {
        let settings = HarnessSettings {
            scale,
            ..self.settings
        };
        banner(title, &settings);
        settings
    }
}

/// Generates one workflow by profile name.
fn workload(name: &str, settings: &HarnessSettings) -> Workload {
    let spec = workflow_by_name(name).expect("known workflow");
    let instances = generate_workflow(&spec, &settings.generator());
    Workload { spec, instances }
}

fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    println!("{}", render_table(headers, rows));
}

/// A distribution's minimum, quartiles and maximum in units of `unit`,
/// rounded to whole numbers.
fn five_numbers(d: &Distribution, unit: f64) -> [String; 5] {
    [d.min, d.q1, d.median, d.q3, d.max].map(|v| fmt(v / unit, 0))
}

/// One row of the table the ablations and Fig. 8a/8b share: a label, and
/// the wastage and failures summed over the label's reports.
fn totals_row(label: &str, reports: &[ReplayReport]) -> Vec<String> {
    vec![
        label.to_string(),
        fmt(total_wastage(reports), 2),
        failures(reports).to_string(),
    ]
}

/// Wastage in GBh summed over reports.
fn total_wastage(reports: &[ReplayReport]) -> f64 {
    reports.iter().map(|r| r.aggregates.total_wastage_gbh).sum()
}

/// Failed attempts summed over reports.
fn failures(reports: &[ReplayReport]) -> u64 {
    reports.iter().map(|r| r.aggregates.failures).sum()
}

/// Prints the "label / Total Wastage GBh / Failures" table.
fn print_totals<'a>(
    first_header: &str,
    rows: impl IntoIterator<Item = (&'a str, &'a [ReplayReport])>,
) {
    let rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|(label, reports)| totals_row(label, reports))
        .collect();
    print_table(&[first_header, "Total Wastage GBh", "Failures"], &rows);
}

/// Replays labelled Sizey configurations over the six workloads through the
/// parallel [`evaluate_methods`] and prints their totals.
fn print_sizey_variants(ctx: &Context, first_header: &str, variants: Vec<(String, SizeyConfig)>) {
    let specs: Vec<MethodSpec> = variants
        .iter()
        .map(|(_, config)| MethodSpec::Sizey(config.clone()))
        .collect();
    let results = evaluate_methods(&specs, ctx.workloads(), &SimulationConfig::default());
    let rows = variants
        .iter()
        .zip(&results)
        .map(|((label, _), (_, reports))| (label.as_str(), reports.as_slice()));
    print_totals(first_header, rows);
}

/// Times every observe of a successful record: the online-learning step
/// of Fig. 9 as a caller waits for it (prequential scoring, journal insert
/// and model update). A failed attempt's observe trains nothing.
struct Timed<P> {
    inner: P,
    training_times: Vec<Duration>,
}

impl<P: MemoryPredictor> MemoryPredictor for Timed<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        self.inner.predict(task, ctx)
    }

    fn observe(&mut self, record: &TaskRecord) {
        let start = Instant::now();
        self.inner.observe(record);
        if record.outcome == TaskOutcome::Succeeded {
            self.training_times.push(start.elapsed());
        }
    }
}

/// Replays a fresh Sizey predictor over one workload and returns the report
/// with the wall-clock duration of every training step. The sections that
/// read the durations run it serially, so the timings are not contended.
fn replay_sizey(config: SizeyConfig, workload: &Workload) -> (ReplayReport, Vec<Duration>) {
    let mut sizey = Timed {
        inner: SizeyPredictor::new(config),
        training_times: Vec::new(),
    };
    let report = replay_workflow(
        &workload.spec.name,
        &workload.instances,
        &mut sizey,
        &SimulationConfig::default(),
    );
    (report, sizey.training_times)
}

fn median_ms(times: &[Duration]) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    let mut ms: Vec<f64> = times.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(|a, b| a.total_cmp(b));
    ms[ms.len() / 2]
}

/// The abstract's headline claim, per workflow and in aggregate.
fn headline_summary(ctx: &Context) {
    ctx.banner("Headline: Sizey's wastage reduction vs the best baseline");
    let headline = headline(ctx.suite());
    let rows: Vec<Vec<String>> = headline
        .per_workflow
        .iter()
        .map(|w| {
            vec![
                w.workflow.to_string(),
                fmt(w.sizey_gbh, 2),
                format!("{} ({})", w.best_baseline, fmt(w.best_baseline_gbh, 2)),
                fmt(w.reduction_pct, 2),
            ]
        })
        .collect();
    print_table(
        &["Workflow", "Sizey GBh", "Best baseline GBh", "Reduction %"],
        &rows,
    );
    println!(
        "Median per-workflow reduction vs best baseline: {}% (paper: >= 24.68%).",
        fmt(headline.median_reduction_pct, 2)
    );
    println!(
        "Aggregate reduction vs best baseline: {}% (paper: ~60-65%).",
        fmt(headline.aggregate_reduction_pct, 2)
    );
}

/// Table I: task types and average task instances per type, per workflow.
fn table01_workflow_inventory(ctx: &Context) {
    ctx.banner("Table I: workflow inventory");
    let rows: Vec<Vec<String>> = inventory(&all_workflows())
        .into_iter()
        .map(|row| {
            vec![
                row.workflow,
                row.task_types.to_string(),
                fmt(row.avg_instances_per_type, 0),
            ]
        })
        .collect();
    print_table(
        &[
            "Workflow",
            "# Task Types",
            "AVG # Task Instances per Task Type",
        ],
        &rows,
    );
    println!("Paper reference (Table I): eager 13/121, methylseq 9/100, chipseq 30/82,");
    println!("rnaseq 30/39, mag 8/720, iwd 5/332.");
}

/// Table II: memory wastage (GBh) for every workflow and method.
fn table02_wastage_per_workflow(ctx: &Context) {
    ctx.banner("Table II: memory wastage (GBh) per workflow and method");
    let results = ctx.suite();
    let headers: Vec<&str> = std::iter::once("Method").chain(WORKFLOW_NAMES).collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(_, reports)| {
            let method = reports.first().map_or("unknown", |r| r.method.as_str());
            std::iter::once(method.to_string())
                .chain(WORKFLOW_NAMES.map(|wf| fmt(wastage_on(reports, wf).unwrap_or(0.0), 2)))
                .collect()
        })
        .collect();
    print_table(&headers, &rows);

    // Count how many workflows Sizey wins outright.
    let wins = WORKFLOW_NAMES
        .into_iter()
        .filter(|wf| {
            let best_other = results[1..]
                .iter()
                .map(|(_, reports)| wastage_on(reports, wf).unwrap_or(f64::INFINITY))
                .fold(f64::INFINITY, f64::min);
            wastage_on(&results[0].1, wf).unwrap_or(0.0) < best_other
        })
        .count();
    println!("Sizey has the lowest wastage in {wins} of 6 workflows (paper: 5 of 6).");
    println!("Paper reference (Table II), Sizey row: methylseq 631.62, chipseq 79.38,");
    println!("eager 678.19, rnaseq 43.62, mag 251.05, iwd 0.36 GBh.");
}

/// Fig. 1: peak memory of four task types over varying input sizes.
fn fig01_memory_distributions(ctx: &Context) {
    /// The four task types of the paper's Fig. 1 and their workflows here.
    const TASKS: [(&str, &str); 4] = [
        ("chipseq", "lcextrap"),
        ("iwd", "Preprocessing"),
        ("eager", "mpileup"),
        ("chipseq", "genomecov"),
    ];
    // The full instance volume, for distribution fidelity; no learning is
    // involved, so this is cheap.
    let settings = ctx.banner_at("Fig. 1: peak-memory distributions of four task types", 1.0);
    let mut rows = Vec::new();
    for (workflow, task) in TASKS {
        let by_type = peak_memory_by_task_type(&workload(workflow, &settings).instances);
        let dist = by_type
            .get(&TaskTypeId::new(task))
            .expect("task type present in generated workload");
        let mut row = vec![task.to_string(), dist.count.to_string()];
        row.extend(five_numbers(dist, 1e6));
        rows.push(row);
    }
    print_table(
        &[
            "Task",
            "n",
            "min MB",
            "q1 MB",
            "median MB",
            "q3 MB",
            "max MB",
        ],
        &rows,
    );
    println!("Paper reference (Fig. 1): lcextrap ~200-1000 MB (median ~550 MB),");
    println!("Preprocessing ~2000-4500 MB, mpileup ~0-400 MB, genomecov ~4000-7000 MB.");
}

/// Fig. 2: peak memory against input size with a linear fit, for
/// MarkDuplicates (linear) and BaseRecalibrator (non-linear).
fn fig02_input_memory_relation(ctx: &Context) {
    const TASKS: [(&str, &str); 2] = [("eager", "MarkDuplicates"), ("rnaseq", "BaseRecalibrator")];
    let settings = ctx.banner_at("Fig. 2: input size vs. peak memory with a linear fit", 1.0);
    let mut rows = Vec::new();
    for (workflow, task) in TASKS {
        let scatter = stats::input_memory_scatter(&workload(workflow, &settings).instances, task);
        let xs: Vec<f64> = scatter.iter().map(|&(x, _)| x / 1e9).collect();
        let ys: Vec<f64> = scatter.iter().map(|&(_, y)| y / 1e9).collect();
        let mut linear = LinearRegression::with_defaults();
        linear
            .fit(&Dataset::from_univariate(&xs, &ys))
            .expect("fit linear model");
        let preds: Vec<f64> = xs
            .iter()
            .map(|&x| linear.predict(&[x]).expect("predict"))
            .collect();
        // How many tasks would fail if sized exactly with the linear fit?
        let underestimated = ys.iter().zip(preds.iter()).filter(|(y, p)| p < y).count();
        let range = |v: &[f64]| {
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            format!("{}-{}", fmt(lo, 1), fmt(hi, 1))
        };
        rows.push(vec![
            task.to_string(),
            scatter.len().to_string(),
            range(&xs),
            range(&ys),
            fmt(linear.coefficients()[1], 2),
            fmt(linear.coefficients()[0], 2),
            fmt(mape(&ys, &preds) * 100.0, 1),
            fmt(underestimated as f64 / scatter.len() as f64 * 100.0, 1),
        ]);
    }
    print_table(
        &[
            "Task",
            "n",
            "input GB",
            "peak GB",
            "slope GB/GB",
            "intercept GB",
            "linear MAPE %",
            "underestimated %",
        ],
        &rows,
    );
    println!("Paper reference (Fig. 2): MarkDuplicates is linear (2-5 GB input -> 18-22 GB peak),");
    println!("BaseRecalibrator is non-linear (0.2-1.0 GB input -> 0.5-3.5 GB peak), so a linear");
    println!("model leaves roughly half of its instances underestimated.");
}

/// Fig. 7: memory, CPU and I/O utilisation distributions of the workflows.
fn fig07_workflow_resource_profiles(ctx: &Context) {
    let settings = ctx.banner_at(
        "Fig. 7: per-workflow resource utilisation distributions",
        ctx.settings.scale.max(0.2),
    );
    let mut tables: [Vec<Vec<String>>; 4] = Default::default();
    for w in generate_workloads(&settings) {
        let profile = workflow_resource_profile(&w.spec.name, &w.instances);
        let distributions = [
            &profile.cpu_utilization_pct,
            &profile.memory_mb,
            &profile.io_read_mb,
            &profile.io_write_mb,
        ];
        for (rows, d) in tables.iter_mut().zip(distributions) {
            let mut row = vec![w.spec.name.to_string()];
            row.extend(five_numbers(d, 1.0));
            rows.push(row);
        }
    }
    let titles = [
        "CPU utilisation in %:",
        "Memory utilisation in MB:",
        "I/O read in MB:",
        "I/O write in MB:",
    ];
    for (title, rows) in titles.iter().zip(&tables) {
        println!("{title}");
        print_table(&["Workflow", "min", "q1", "median", "q3", "max"], rows);
    }
    println!("Paper reference (Fig. 7): all workflows differ; methylseq is both I/O- and");
    println!("CPU-intensive, mag has the largest memory spread, iwd the smallest footprint.");
}

/// One panel of Fig. 8a/8b: its time-to-failure and the paper's numbers.
struct Panel {
    name: &'static str,
    time_to_failure: f64,
    paper_reduction_pct: &'static str,
    paper_presets_ratio: &'static str,
    paper_reference: &'static str,
}

/// Fig. 8a and 8b: total wastage per method with failures detected at the
/// very end of a task (time-to-failure 1.0) and halfway through (0.5).
fn fig08ab_wastage(ctx: &Context) {
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
    for panel in &PANELS {
        ctx.banner(&format!(
            "Fig. {}: total memory wastage (GBh), all workflows, time-to-failure {:.1}",
            panel.name, panel.time_to_failure
        ));
        let evaluated;
        let results = if panel.time_to_failure == SimulationConfig::default().time_to_failure {
            ctx.suite()
        } else {
            let sim = SimulationConfig::default().with_time_to_failure(panel.time_to_failure);
            evaluated = evaluate_all_methods(ctx.workloads(), &sim);
            &evaluated[..]
        };
        print_totals(
            "Method",
            results.iter().map(|(m, r)| (m.name(), r.as_slice())),
        );

        let sizey = total_wastage(&results[0].1);
        let presets = total_wastage(&results.last().expect("presets present").1);
        println!(
            "Sizey vs best baseline: {}% lower wastage (paper: {}% lower than Witt-Wastage).",
            fmt(headline(results).aggregate_reduction_pct, 2),
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

/// Fig. 8c: each method's task failures, aggregated by task type.
fn fig08c_task_failures(ctx: &Context) {
    ctx.banner("Fig. 8c: distribution of task failures per task type, by method");
    let mut rows = Vec::new();
    for (method, reports) in ctx.suite() {
        // Task types with zero failures are included, so the distribution
        // matches the paper's "aggregated by task type" box plots.
        let mut per_type: BTreeMap<String, usize> = BTreeMap::new();
        for workload in ctx.workloads() {
            for task_type in &workload.spec.task_types {
                per_type.insert(format!("{}/{}", workload.spec.name, task_type.name), 0);
            }
        }
        for report in reports {
            for (task_type, count) in &report.aggregates.failures_by_task_type {
                *per_type
                    .entry(format!("{}/{}", report.workflow, task_type))
                    .or_insert(0) += count;
            }
        }
        let values: Vec<f64> = per_type.values().map(|&v| v as f64).collect();
        let dist = Distribution::from_values(&values);
        rows.push(vec![
            method.name().to_string(),
            per_type.values().sum::<usize>().to_string(),
            fmt(dist.median, 1),
            fmt(dist.q3, 1),
            fmt(dist.max, 0),
        ]);
    }
    print_table(
        &[
            "Method",
            "Total Failures",
            "Median per Type",
            "Q3 per Type",
            "Max per Type",
        ],
        &rows,
    );
    println!("Paper reference (Fig. 8c): Witt-Wastage has the highest median number of");
    println!("failures, followed by Witt-LR and Sizey; Witt-Percentile and Tovar-PPM fail");
    println!("rarely; Workflow-Presets never fail.");
}

/// Fig. 8d: total task runtimes per method, including failure reruns.
fn fig08d_runtimes(ctx: &Context) {
    ctx.banner("Fig. 8d: aggregated task runtimes per method");
    // The failure-free runtime is identical for every method; it is the
    // floor the paper's 1221.04 h corresponds to.
    let failure_free_hours: f64 = ctx
        .workloads()
        .iter()
        .flat_map(|w| w.instances.iter())
        .map(|i| i.base_runtime_seconds)
        .sum::<f64>()
        / 3600.0;
    let rows: Vec<Vec<String>> = ctx
        .suite()
        .iter()
        .map(|(method, reports)| {
            let runtime_hours: f64 = reports
                .iter()
                .map(|r| r.aggregates.total_runtime_hours())
                .sum();
            vec![
                method.name().to_string(),
                fmt(runtime_hours, 2),
                fmt(runtime_hours - failure_free_hours, 2),
                failures(reports).to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "Method",
            "Total Runtime h",
            "Overhead vs failure-free h",
            "Failures",
        ],
        &rows,
    );
    println!(
        "Failure-free total task runtime: {} h",
        fmt(failure_free_hours, 2)
    );
    println!("Paper reference (Fig. 8d): Workflow-Presets 1221.04 h (no failures), Sizey");
    println!("1221.04-1344.52 h range across methods, Witt-Wastage highest at 1475.40 h.");
    println!("Expected shape: more failures => more rerun hours; presets are the floor.");
}

/// Fig. 9: Sizey's training time per online-learning step, full retraining
/// (with hyper-parameter optimisation) against incremental updates. The
/// `Overall medians` line carries the result; the repo benchmark times the
/// same step per layer (`pool.retrain_p50_ms`, `pool.incremental_p50_us`).
fn fig09_training_time_table(ctx: &Context) {
    // Full retraining with HPO dominates the runtime; the timings need no
    // more volume than this.
    let settings = ctx.banner_at(
        "Fig. 9: Sizey online training time, full vs. incremental retraining",
        ctx.settings.scale.min(0.05),
    );
    let mut rows = Vec::new();
    let mut all_full = Vec::new();
    let mut all_incr = Vec::new();
    for w in generate_workloads(&settings) {
        let (_, full) = replay_sizey(SizeyConfig::full_retraining(), &w);
        let (_, incremental) = replay_sizey(SizeyConfig::default(), &w);
        rows.push(vec![
            w.spec.name.to_string(),
            fmt(median_ms(&full), 2),
            fmt(median_ms(&incremental), 2),
        ]);
        all_full.extend(full);
        all_incr.extend(incremental);
    }
    print_table(
        &[
            "Workflow",
            "Sizey-Full median ms",
            "Sizey-Incremental median ms",
        ],
        &rows,
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

/// Fig. 10: impact of the RAQ parameter α on wastage.
fn fig10_alpha_sweep(ctx: &Context) {
    const ALPHAS: [f64; 11] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let settings = ctx.banner_at(
        "Fig. 10: wastage (GBh) of two rnaseq tasks as a function of alpha",
        ctx.settings.scale.max(0.3),
    );
    let specs = ALPHAS.map(|alpha| MethodSpec::Sizey(SizeyConfig::default().with_alpha(alpha)));
    let rnaseq = [workload("rnaseq", &settings)];
    let results = evaluate_methods(&specs, &rnaseq, &SimulationConfig::default());
    let rows: Vec<Vec<String>> = ALPHAS
        .iter()
        .zip(&results)
        .map(|(alpha, (_, reports))| {
            let per_type = &reports[0].aggregates.wastage_by_task_type;
            let task_gbh = |task: &str| {
                let gbh = per_type.get(&TaskTypeId::new(task)).copied();
                fmt(gbh.unwrap_or(0.0), 3)
            };
            vec![
                fmt(*alpha, 2),
                task_gbh("FastQC"),
                task_gbh("MarkDuplicates (Picard)"),
                fmt(reports[0].total_wastage_gbh(), 2),
            ]
        })
        .collect();
    print_table(
        &[
            "alpha",
            "FastQC GBh",
            "MarkDuplicates (Picard) GBh",
            "rnaseq total GBh",
        ],
        &rows,
    );
    println!("Paper reference (Fig. 10): FastQC tends to waste less at lower alpha values,");
    println!("MarkDuplicates shows the opposite pattern; overall no single alpha wins for");
    println!("all task types.");
}

/// Fig. 11: which model classes Sizey's Argmax gate selects.
fn fig11_model_selection_share(ctx: &Context) {
    let settings = ctx.banner_at(
        "Fig. 11: share of model classes selected by Sizey (Argmax) on rnaseq",
        ctx.settings.scale.max(0.3),
    );
    let config = SizeyConfig::default().with_gating(GatingStrategy::Argmax);
    let (report, _) = replay_sizey(config, &workload("rnaseq", &settings));
    let rows: Vec<Vec<String>> = report
        .aggregates
        .model_selection_share()
        .iter()
        .map(|(model, share)| vec![model.to_string(), fmt(share * 100.0, 1)])
        .collect();
    print_table(&["Model class", "Share %"], &rows);

    println!(
        "Model-based predictions: {} of {} first attempts (the rest used the preset \
         because the task type was still unknown).",
        report.aggregates.model_selection_total, report.aggregates.instances
    );
    println!("Paper reference (Fig. 11): MLP 42.7%, KNN 29.1%, Random Forest 19.4%,");
    println!("Linear Regression 8.8%. Expected shape: the non-linear models dominate once");
    println!("enough data is available, while the linear model matters early on.");
}

/// Fig. 12: Sizey's prediction error falls as a task type is executed.
fn fig12_error_over_time(ctx: &Context) {
    // The paper replays 1171 Prokka instances; keep at least a few hundred
    // so the trend is visible.
    let settings = ctx.banner_at(
        "Fig. 12: Sizey's relative prediction error over Prokka executions (mag, no offset)",
        ctx.settings.scale.clamp(0.2, 1.0),
    );
    let config = SizeyConfig {
        offset: OffsetMode::None,
        ..SizeyConfig::default()
    };
    let (report, _) = replay_sizey(config, &workload("mag", &settings));

    let errors = report.prediction_error_over_time("Prokka");
    if errors.is_empty() {
        println!("No Prokka executions with model-based predictions were observed.");
        return;
    }
    // Ten phases with the mean error of each (the paper plots the
    // regression trend over the raw points).
    let bucket = (errors.len() / 10).max(1);
    let rows: Vec<Vec<String>> = errors
        .chunks(bucket)
        .enumerate()
        .map(|(i, chunk)| {
            let mean = chunk.iter().map(|(_, e)| e).sum::<f64>() / chunk.len() as f64;
            vec![
                format!("{}-{}", i * bucket + 1, i * bucket + chunk.len()),
                fmt(mean * 100.0, 2),
            ]
        })
        .collect();
    print_table(&["Executions", "Mean relative error %"], &rows);

    // Linear trend of the error over the execution index.
    let xs: Vec<f64> = errors.iter().map(|(i, _)| *i as f64).collect();
    let ys: Vec<f64> = errors.iter().map(|(_, e)| *e * 100.0).collect();
    let mut trend = LinearRegression::with_defaults();
    trend
        .fit(&Dataset::from_univariate(&xs, &ys))
        .expect("fit trend");
    println!(
        "Executions observed: {}; error trend slope: {} %-points per execution.",
        errors.len(),
        fmt(trend.coefficients()[1], 5)
    );
    println!("Paper reference (Fig. 12): the relative error decreases from ~10-11% towards");
    println!("~7-8% over 1171 Prokka executions — the trend slope should be negative.");
}

/// The retry policies of the failure-handling ablation.
#[derive(Clone, Copy)]
enum Policy {
    /// Sizey's own policy (max observed, then doubling): pass through.
    Sizey,
    /// Double the failed allocation, ignoring the observed maximum.
    PlainDoubling,
    /// Allocate the node maximum immediately after the first failure.
    NodeMaximum,
}

/// Wraps Sizey but overrides the retry policy, so only failure handling
/// differs between the variants.
struct RetryPolicyOverride {
    inner: SizeyPredictor,
    policy: Policy,
    node_memory_bytes: f64,
}

impl MemoryPredictor for RetryPolicyOverride {
    fn name(&self) -> String {
        match self.policy {
            Policy::Sizey => "Sizey (max-observed + doubling)",
            Policy::PlainDoubling => "Plain doubling",
            Policy::NodeMaximum => "Node maximum on failure",
        }
        .to_string()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        match (self.policy, ctx.attempt) {
            (Policy::Sizey, _) | (_, 0) => self.inner.predict(task, ctx),
            (Policy::PlainDoubling, attempt) => {
                let base = self.inner.predict(task, AttemptContext::first());
                Prediction::simple(base.allocation_bytes * 2.0_f64.powi(attempt as i32))
            }
            (Policy::NodeMaximum, _) => Prediction::simple(self.node_memory_bytes),
        }
    }

    fn observe(&mut self, record: &TaskRecord) {
        self.inner.observe(record);
    }
}

/// Ablation: Sizey's max-observed-then-double escalation against plain
/// doubling and against jumping straight to the node maximum (Tovar-style).
fn ablation_failure(ctx: &Context) {
    ctx.banner("Ablation: failure-handling policy");
    let workloads = ctx.workloads();
    let sim = SimulationConfig::default();
    let cells: Vec<(Policy, &Workload)> =
        [Policy::Sizey, Policy::PlainDoubling, Policy::NodeMaximum]
            .into_iter()
            .flat_map(|policy| workloads.iter().map(move |w| (policy, w)))
            .collect();
    let reports = parallel_map(&cells, default_parallelism(), |&(policy, w)| {
        let mut predictor = RetryPolicyOverride {
            inner: SizeyPredictor::new(SizeyConfig::default()),
            policy,
            node_memory_bytes: sim.node_memory_bytes,
        };
        replay_workflow(&w.spec.name, &w.instances, &mut predictor, &sim)
    });
    print_totals(
        "Failure policy",
        reports
            .chunks(workloads.len())
            .map(|reports| (reports[0].method.as_str(), reports)),
    );
    println!("Expected shape: jumping to the node maximum minimises repeat failures but");
    println!("wastes enormous amounts of memory on each failed task; plain doubling needs");
    println!("more retries; Sizey's max-observed escalation balances the two.");
}

/// Ablation: Argmax gating against Interpolation with a β sweep (the
/// paper's experiments use Interpolation).
fn ablation_gating(ctx: &Context) {
    ctx.banner("Ablation: gating strategy (Argmax vs Interpolation beta sweep)");
    let with_gating = |gating| SizeyConfig::default().with_gating(gating);
    let mut variants = vec![("Argmax".to_string(), with_gating(GatingStrategy::Argmax))];
    for beta in [1.0, 4.0, 16.0] {
        let config = with_gating(GatingStrategy::Interpolation { beta });
        variants.push((format!("Interpolation beta={beta}"), config));
    }
    print_sizey_variants(ctx, "Gating", variants);
    println!("Expected shape: both strategies land in the same wastage range; Argmax reacts");
    println!("faster to a single well-fitting model, Interpolation smooths over divergent");
    println!("predictors (the paper's default).");
}

/// Ablation: the dynamic offset selection against each of the four fixed
/// offset strategies and against no offset at all.
fn ablation_offset(ctx: &Context) {
    ctx.banner("Ablation: offset strategies (fixed vs dynamic vs none)");
    let with_offset = |offset| SizeyConfig {
        offset,
        ..SizeyConfig::default()
    };
    let mut variants = vec![
        (
            "Dynamic (paper default)".to_string(),
            with_offset(OffsetMode::Dynamic),
        ),
        ("No offset".to_string(), with_offset(OffsetMode::None)),
    ];
    for strategy in OffsetStrategy::ALL {
        let config = with_offset(OffsetMode::Fixed(strategy));
        variants.push((format!("Fixed: {strategy}"), config));
    }
    print_sizey_variants(ctx, "Offset mode", variants);
    println!("Expected shape: no offset causes clearly more failures (and their retry");
    println!("wastage); the dynamic selection should be competitive with the best fixed");
    println!("strategy on every workload mix.");
}

/// Ablation: incremental updates against retraining on every completion.
fn ablation_online_mode(ctx: &Context) {
    // Full retraining after every completion is expensive; keep the volume
    // small so the comparison finishes quickly.
    let settings = ctx.banner_at(
        "Ablation: online-learning mode (incremental vs full retraining)",
        ctx.settings.scale.min(0.04),
    );
    let workloads = generate_workloads(&settings);
    let never_retrain = SizeyConfig {
        retrain_interval: 0,
        ..SizeyConfig::default()
    };
    let variants = [
        ("Incremental (paper default)", SizeyConfig::default()),
        ("Incremental, never retrain", never_retrain),
        ("Full retraining + HPO", SizeyConfig::full_retraining()),
    ];
    let mut rows = Vec::new();
    for (label, config) in variants {
        let (reports, times): (Vec<ReplayReport>, Vec<Vec<Duration>>) = workloads
            .iter()
            .map(|w| replay_sizey(config.clone(), w))
            .unzip();
        let mut row = totals_row(label, &reports);
        row.push(fmt(median_ms(&times.concat()), 2));
        rows.push(row);
    }
    print_table(
        &[
            "Online mode",
            "Total Wastage GBh",
            "Failures",
            "Median training ms",
        ],
        &rows,
    );
    println!("Paper reference: incremental updates cost ~6.1% extra wastage but reduce the");
    println!("median training time by 98.39% (1.09 s -> 17.5 ms).");
}

/// Ablation: the full four-class model pool against every single-class
/// pool, i.e. selecting among diverse models against committing to one.
fn ablation_pool(ctx: &Context) {
    ctx.banner("Ablation: model-pool composition (full pool vs single classes)");
    let with_pool = |classes: Vec<ModelClass>| SizeyConfig::default().with_model_classes(classes);
    let mut variants = vec![(
        "Full pool (paper)".to_string(),
        with_pool(ModelClass::ALL.to_vec()),
    )];
    for class in ModelClass::ALL {
        variants.push((format!("Only {}", class.name()), with_pool(vec![class])));
    }
    print_sizey_variants(ctx, "Pool", variants);
    println!("Expected shape: the full pool is at least as good as the best single class");
    println!("and clearly better than the worst one — no single model class fits every");
    println!("task type, which is the paper's motivation (Fig. 2).");
}
