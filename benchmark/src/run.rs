//! The runner: repeats a workload's pass for the measuring time, checks that
//! every repetition produced the same outputs, and reduces the repetitions
//! to one value per metric. With tracing it adds one traced pass, checks it
//! against the plain one and derives the per-layer metrics.

use crate::alloc;
use crate::json::Json;
use crate::metrics::{quantiles_of, unit_of, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace;
use crate::workloads::{Pass, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// A run keeps at least this many set-up timings, setting up again without
/// running when the repetitions gave fewer: set-up times are short, so their
/// median needs the samples more than any other metric.
const SETUP_SAMPLES: usize = 15;
/// ... unless the extra set-ups alone would take longer than this.
const EXTRA_SETUP_BUDGET_S: f64 = 2.0;
/// Repetitions stop here however short a pass is.
const MAX_REPS: usize = 64;

pub struct Measured {
    pub name: String,
    pub value: f64,
    /// One value per repetition; empty for pooled quantiles.
    pub samples: Vec<f64>,
}

pub struct Report {
    pub workload: &'static str,
    pub why: &'static str,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// Failed correctness checks; empty means correct.
    pub broken: Vec<String>,
    /// From the untraced passes: the end-to-end metrics, then the
    /// user-visible metrics only this workload has.
    pub metrics: Vec<Measured>,
    /// With `--trace`: every `PER_LAYER` metric, in table order.
    pub layers: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.broken.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// One repetition: set-up, the measured pass, and what only the runner can
/// see of them.
struct Rep {
    pass: Pass,
    /// Input materialisation, tenant build, service seeding — excluded from
    /// every other timing.
    setup_s: f64,
    /// Peak live heap over set-up and pass.
    peak_heap_mb: f64,
}

fn one_rep(workload: &dyn Workload, seed: u64, traced: bool) -> Rep {
    alloc::reset_peak();
    if traced {
        trace::start();
    }
    let start = Instant::now();
    let run = workload.prepare(seed, traced);
    let setup_s = start.elapsed().as_secs_f64();
    let pass = run();
    Rep {
        pass,
        setup_s,
        peak_heap_mb: alloc::peak_mb(),
    }
}

/// Where the kept spans of a traced pass go.
fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"))
}

pub fn run_workload(workload: &dyn Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    // Plain passes: for `seconds` of measured time, to the nearest whole
    // pass, and at least twice, so that there is a repetition to check the
    // digest against. A traced run spends its time on the traced pass
    // instead and keeps one.
    let mut reps = Vec::new();
    let mut measured_s = 0.0;
    loop {
        let rep = one_rep(workload, seed, false);
        measured_s += rep.pass.wall_s;
        reps.push(rep);
        let half_a_pass = measured_s / reps.len() as f64 / 2.0;
        let enough = reps.len() >= 2 && measured_s + half_a_pass >= seconds;
        if traced || enough || reps.len() == MAX_REPS {
            break;
        }
    }

    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut extra_s = 0.0;
    while !traced && setups.len() < SETUP_SAMPLES && extra_s < EXTRA_SETUP_BUDGET_S {
        let start = Instant::now();
        drop(workload.prepare(seed, false));
        setups.push(start.elapsed().as_secs_f64());
        extra_s += setups[setups.len() - 1];
    }

    let first = &reps[0].pass;
    let mut broken: Vec<String> = reps.iter().flat_map(|r| r.pass.broken.clone()).collect();
    if let Some(nth) = reps.iter().position(|r| r.pass.digest != first.digest) {
        broken.push(format!(
            "repetition {nth} digest {:016x} != repetition 0 digest {:016x}",
            reps[nth].pass.digest, first.digest
        ));
    }

    // One value per metric: the median over repetitions, and quantiles over
    // the latency samples pooled from all of them.
    let over_reps = |name: &str, f: &dyn Fn(&Rep) -> f64| -> Measured {
        let samples: Vec<f64> = reps.iter().map(f).collect();
        Measured {
            name: name.to_string(),
            value: median(&mut samples.clone()),
            samples,
        }
    };
    let mut metrics = vec![Measured {
        name: "setup_s".to_string(),
        value: median(&mut setups.clone()),
        samples: setups,
    }];
    metrics.push(over_reps("peak_heap_mb", &|r| r.peak_heap_mb));
    metrics.push(over_reps("wall_s", &|r| r.pass.wall_s));
    for (name, _) in &first.values {
        metrics.push(over_reps(name, &|r| r.pass.value(name)));
    }
    for (family, _) in &first.samples {
        let mut pooled: Vec<f64> = reps
            .iter()
            .flat_map(|r| &r.pass.samples)
            .filter(|(f, _)| f == family)
            .flat_map(|(_, ns)| ns.iter().map(|&ns| ns as f64))
            .collect();
        for (name, q, divisor) in quantiles_of(family) {
            metrics.push(Measured {
                name: name.to_string(),
                value: percentile(&mut pooled, *q) / divisor,
                samples: Vec::new(),
            });
        }
    }
    // End-to-end metrics first, in table order.
    metrics.sort_by_key(|m| {
        END_TO_END
            .iter()
            .position(|(e, _)| e.name == m.name)
            .unwrap_or(END_TO_END.len())
    });

    let mut layers = Vec::new();
    if traced {
        let traced_pass = one_rep(workload, seed, true).pass;
        broken.extend(traced_pass.broken.iter().cloned());
        if traced_pass.digest != first.digest {
            broken.push(format!(
                "traced digest {:016x} != plain digest {:016x}",
                traced_pass.digest, first.digest
            ));
        }
        let mut values = workload.layers(seed, first, &traced_pass);
        // The user-visible metrics this workload has beyond the end-to-end
        // ones come from the plain pass.
        values.extend(metrics.iter().map(|m| (m.name.clone(), m.value)));
        for (name, _) in &values {
            if unit_of(name).is_empty() {
                broken.push(format!("metric {name} is in no table"));
            }
        }
        layers = PER_LAYER
            .iter()
            .map(|metric| {
                let value = values
                    .iter()
                    .find(|(name, _)| name == metric.name)
                    .map_or(0.0, |(_, v)| *v);
                (metric.name, value)
            })
            .collect();
        let path = trace_path(workload.name());
        let written = traced_pass
            .trace
            .as_ref()
            .expect("traced pass carries a trace")
            .write_jsonl(&path);
        if let Err(error) = written {
            broken.push(format!("cannot write {}: {error}", path.display()));
        }
    }

    Report {
        workload: workload.name(),
        why: workload.why(),
        reps: reps.len(),
        attempted: reps.iter().map(|r| r.pass.attempted).sum(),
        failed: reps.iter().map(|r| r.pass.failed).sum(),
        digest: first.digest,
        broken,
        metrics,
        layers,
    }
}

impl Report {
    /// Every metric by name, with its unit, for people.
    pub fn print(&self) {
        println!("== {} ({})", self.workload, self.why);
        println!(
            "   {} repetitions, {} attempted, {} failed, digest {:016x}, {}",
            self.reps,
            self.attempted,
            self.failed,
            self.digest,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        for problem in &self.broken {
            println!("   FAILED CHECK: {problem}");
        }
        for m in &self.metrics {
            let samples = if m.samples.is_empty() {
                String::new()
            } else {
                format!("   (n={}: {})", m.samples.len(), join(&m.samples))
            };
            println!(
                "   {:<34} {:>16.4} {:<6}{samples}",
                m.name,
                m.value,
                unit_of(&m.name)
            );
        }
        for (name, value) in &self.layers {
            if self.metric(name).is_none() {
                println!("   {:<34} {:>16.4} {}", name, value, unit_of(name));
            }
        }
    }

    /// The one-line result the acceptance driver reads: the end-to-end
    /// metrics of an untraced run, the per-layer metrics of a traced one.
    pub fn driver_line(&self, traced: bool) -> Json {
        let entry = |name: &str, value: f64| {
            (
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(unit_of(name))),
                ]),
            )
        };
        let metrics = if traced {
            self.layers.iter().map(|(n, v)| entry(n, *v)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|(m, _)| entry(m.name, self.metric(m.name).unwrap_or(0.0)))
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// This workload's entry of a result file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("reps", Json::Num(self.reps as f64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("digest", Json::str(format!("{:016x}", self.digest))),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::str(unit_of(&m.name))),
                                    (
                                        "samples",
                                        Json::Arr(
                                            m.samples.iter().map(|s| Json::Num(*s)).collect(),
                                        ),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "layers",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(n, v)| (n.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A workload whose pass takes `wall_s` on paper and whose digest can be
    /// made to drift from one repetition to the next.
    struct Fake {
        wall_s: f64,
        drift: bool,
        passes: Cell<u64>,
    }

    impl Workload for Fake {
        fn name(&self) -> &'static str {
            "fake"
        }

        fn why(&self) -> &'static str {
            "exercises the runner"
        }

        fn prepare(&self, _seed: u64, traced: bool) -> Box<dyn FnOnce() -> Pass + '_> {
            Box::new(move || {
                let nth = self.passes.get();
                self.passes.set(nth + 1);
                trace::span("fake.layer", 0, 0, || ());
                Pass {
                    wall_s: self.wall_s,
                    attempted: 10,
                    failed: 1,
                    digest: if self.drift { nth } else { 7 },
                    values: vec![("attempts_per_s", 100.0 + nth as f64), ("wastage_gbh", 5.0)],
                    counts: vec![("gen.instances", 10.0)],
                    samples: vec![("predict", vec![1_000, 2_000, 3_000])],
                    broken: Vec::new(),
                    trace: traced.then(trace::finish),
                }
            })
        }

        fn layers(&self, _seed: u64, plain: &Pass, traced: &Pass) -> Vec<(String, f64)> {
            assert!(plain.trace.is_none() && traced.trace.is_some());
            vec![
                ("gen.instances".to_string(), traced.count("gen.instances")),
                ("no.such.metric".to_string(), 1.0),
            ]
        }
    }

    fn fake(wall_s: f64, drift: bool) -> Fake {
        Fake {
            wall_s,
            drift,
            passes: Cell::new(0),
        }
    }

    #[test]
    fn repetitions_fill_the_measuring_time_to_the_nearest_pass() {
        // 3 s passes in 10 s: three passes measure 9 s, a fourth would
        // overshoot by more than half a pass.
        assert_eq!(run_workload(&fake(3.0, false), 1, 10.0, false).reps, 3);
        assert_eq!(run_workload(&fake(4.0, false), 1, 10.0, false).reps, 2);
        // Never fewer than two: there must be a repetition to compare with.
        assert_eq!(run_workload(&fake(60.0, false), 1, 10.0, false).reps, 2);
        assert_eq!(
            run_workload(&fake(1e-9, false), 1, 10.0, false).reps,
            MAX_REPS
        );
    }

    #[test]
    fn metrics_are_medians_over_repetitions_and_pooled_quantiles() {
        let report = run_workload(&fake(3.0, false), 1, 10.0, false);
        assert!(report.correct());
        assert_eq!((report.attempted, report.failed), (30, 3));
        assert_eq!(report.metric("attempts_per_s"), Some(101.0));
        assert_eq!(report.metric("predict_p50_us"), Some(2.0));
        assert_eq!(
            report.metric("gen.instances"),
            None,
            "layer counts stay out"
        );
        assert!(report.metric("setup_s").is_some_and(|s| s >= 0.0));
        let setup = &report.metrics[0];
        assert_eq!(
            (setup.name.as_str(), setup.samples.len()),
            ("setup_s", SETUP_SAMPLES)
        );
        assert!(report.layers.is_empty());

        let line = report.driver_line(false);
        let keys: Vec<_> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<_> = line
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            names,
            ["setup_s", "attempts_per_s", "peak_heap_mb", "wastage_gbh"]
        );
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("wastage_gbh"))
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("GBh")
        );
        let entry = report.to_json();
        assert_eq!(
            entry.get("digest").and_then(Json::as_str),
            Some("0000000000000007")
        );
        assert_eq!(entry.get("reps").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn a_digest_that_moves_between_repetitions_is_a_failed_check() {
        let report = run_workload(&fake(3.0, true), 1, 10.0, false);
        assert!(!report.correct());
        assert!(
            report.broken[0].contains("repetition 1 digest"),
            "{:?}",
            report.broken
        );
        assert_eq!(
            report.driver_line(false).get("correct"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn a_traced_run_reports_every_per_layer_metric_and_rejects_unknown_names() {
        let report = run_workload(&fake(3.0, false), 1, 10.0, true);
        assert_eq!(report.reps, 1, "a traced run keeps one plain pass");
        let names: Vec<_> = report.layers.iter().map(|(n, _)| *n).collect();
        let table: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, table);
        let value = |name: &str| report.layers.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(value("gen.instances"), 10.0);
        assert_eq!(
            value("predict_p50_us"),
            2.0,
            "user-visible extras ride along"
        );
        assert_eq!(
            value("ml.knn.fit_us"),
            0.0,
            "layers the workload skips read 0"
        );
        assert_eq!(report.broken, ["metric no.such.metric is in no table"]);
        let traced_line = report.driver_line(true);
        assert_eq!(
            traced_line
                .get("metrics")
                .and_then(Json::as_obj)
                .map(<[_]>::len),
            Some(PER_LAYER.len())
        );
        let _ = std::fs::remove_file(trace_path("fake"));
    }
}
