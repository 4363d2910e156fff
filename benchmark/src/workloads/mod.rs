//! The six pinned workloads. Each is a fixed recipe whose only input is the
//! seed; `--smoke` swaps in sizes that finish in under two seconds but run
//! the same code and the same checks.

pub mod serve;
pub mod sim;
pub mod sweep;

use crate::trace::TraceReport;

/// One measured pass of a workload, with its outputs verified.
pub struct Pass {
    /// Host wall time of the measured pass.
    pub wall_s: f64,
    /// Operations attempted and failed, as the workload defines them.
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the pass's outputs; equal for equal seeds.
    pub digest: u64,
    /// User-visible metric values of this pass; the runner reports each as
    /// the median over repetitions.
    pub values: Vec<(&'static str, f64)>,
    /// Layer counts the engines keep themselves (`sched.*`, `service.*`, …),
    /// reported from the traced pass.
    pub counts: Vec<(&'static str, f64)>,
    /// Latency samples the runner pools over repetitions before taking
    /// percentiles, `(metric family, nanoseconds)`.
    pub samples: Vec<(&'static str, Vec<u64>)>,
    /// Correctness checks that failed; empty means the outputs are right.
    pub broken: Vec<String>,
    /// Span aggregates, when the pass was traced.
    pub trace: Option<TraceReport>,
}

impl Pass {
    pub fn value(&self, name: &str) -> f64 {
        lookup(&self.values, name)
    }

    pub fn count(&self, name: &str) -> f64 {
        lookup(&self.counts, name)
    }

    /// The counts as per-layer metrics.
    pub fn layer_counts(&self) -> impl Iterator<Item = (String, f64)> + '_ {
        self.counts
            .iter()
            .map(|(name, value)| (name.to_string(), *value))
    }
}

fn lookup(pairs: &[(&'static str, f64)], name: &str) -> f64 {
    pairs
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// One line: why the workload exists.
    fn why(&self) -> &'static str;
    /// Sets one repetition up and returns the measured pass, which also
    /// verifies its outputs. The caller times the set-up and the heap;
    /// `traced` wraps the layer boundaries in spans (the caller has started
    /// the recorder, the pass returns what it recorded).
    fn prepare(&self, seed: u64, traced: bool) -> Box<dyn FnOnce() -> Pass + '_>;
    /// Per-layer metrics from a plain and a traced pass of the same seed,
    /// plus the micro loops of the layers this workload exercises.
    fn layers(&self, seed: u64, plain: &Pass, traced: &Pass) -> Vec<(String, f64)>;
}

/// All workloads in report order.
pub fn all(smoke: bool) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(sim::replay_dense(smoke)),
        Box::new(sim::stream_50t(smoke)),
        Box::new(sim::sched_1m(smoke)),
        Box::new(sweep::PaperSweep::new(smoke)),
        Box::new(serve::ServeMixed::new(smoke)),
        Box::new(serve::ServeRead::new(smoke)),
    ]
}

/// Median of five timed batches of `iters` calls, in nanoseconds per call —
/// the shape of every micro loop.
pub fn micro_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    crate::stats::median(&mut batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole suite at smoke size, traced: every workload is correct and
    /// fails nothing, and every per-layer metric in the table is produced by
    /// at least one workload (a renamed metric would otherwise read 0 for
    /// ever without anybody noticing).
    #[test]
    fn the_smoke_suite_is_correct_and_covers_every_per_layer_metric() {
        let mut produced: Vec<&str> = Vec::new();
        for workload in all(true) {
            let report = crate::run::run_workload(workload.as_ref(), 7, 0.01, true);
            assert!(report.correct(), "{}: {:?}", workload.name(), report.broken);
            assert!(report.attempted > 0, "{}", workload.name());
            assert_eq!(report.failed, 0, "{}", workload.name());
            produced.extend(
                report
                    .layers
                    .iter()
                    .filter(|(_, value)| *value != 0.0)
                    .map(|(name, _)| *name),
            );
        }
        // Zero is the right reading for these: nothing is shed under Block
        // admission.
        let zero_by_design = ["service.shed"];
        let missing: Vec<&str> = crate::metrics::PER_LAYER
            .iter()
            .map(|metric| metric.name)
            .filter(|name| !produced.contains(name) && !zero_by_design.contains(name))
            .collect();
        assert_eq!(missing, Vec::<&str>::new(), "no workload reports these");
    }

    #[test]
    fn workload_names_are_unique_and_match_the_smoke_set() {
        let names: Vec<_> = all(false).iter().map(|w| w.name()).collect();
        let smoke: Vec<_> = all(true).iter().map(|w| w.name()).collect();
        assert_eq!(names, smoke);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 6);
    }
}
