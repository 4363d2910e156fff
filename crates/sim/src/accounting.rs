//! Wastage, failure and runtime accounting for replayed workflows.
//!
//! The paper's evaluation reports everything in terms of these aggregates:
//! memory wastage over time in gigabyte-hours (Fig. 8a/8b, Table II), the
//! distribution of task failures per task type (Fig. 8c), aggregated task
//! runtimes (Fig. 8d), the share of selected model classes (Fig. 11) and the
//! relative prediction error over time (Fig. 12). All of them are derived
//! from the per-attempt events collected here.

use sizey_provenance::TaskTypeId;
use std::collections::BTreeMap;

/// One attempt of one task instance, as observed by the replay engine.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptEvent {
    /// Task type of the instance.
    pub task_type: TaskTypeId,
    /// Submission sequence of the instance within the workflow.
    pub sequence: u64,
    /// Attempt number (0 = first submission).
    pub attempt: u32,
    /// Memory allocated for this attempt, in bytes.
    pub allocated_bytes: f64,
    /// Ground-truth peak memory of the task, in bytes.
    pub true_peak_bytes: f64,
    /// Duration of this attempt in seconds (full runtime on success,
    /// time-to-failure fraction on failure).
    pub duration_seconds: f64,
    /// Whether the attempt succeeded.
    pub success: bool,
    /// Memory wastage of this attempt in gigabyte-hours.
    pub wastage_gbh: f64,
    /// The raw model estimate before offsets, when the method reports one.
    pub raw_estimate_bytes: Option<f64>,
    /// The model (class) selected for this prediction, when reported.
    pub selected_model: Option<String>,
    /// Simulated start time of the attempt (when resources were granted), in
    /// seconds since replay start.
    pub submit_time_seconds: f64,
    /// Time the attempt spent waiting in the pending queue before resources
    /// were granted, in seconds.
    pub queue_delay_seconds: f64,
}

impl AttemptEvent {
    /// Relative prediction error of the raw estimate, `|raw - true| / true`,
    /// when a raw estimate was reported (Fig. 12).
    pub fn relative_prediction_error(&self) -> Option<f64> {
        self.raw_estimate_bytes.map(|raw| {
            if self.true_peak_bytes <= 0.0 {
                0.0
            } else {
                (raw - self.true_peak_bytes).abs() / self.true_peak_bytes
            }
        })
    }
}

/// Complete result of replaying one workflow with one sizing method.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Name of the sizing method.
    pub method: String,
    /// Name of the workflow.
    pub workflow: String,
    /// Time-to-failure value used.
    pub time_to_failure: f64,
    /// Every attempt in replay order.
    pub events: Vec<AttemptEvent>,
    /// Number of task instances replayed.
    pub instances: usize,
    /// Number of instances that never succeeded within the attempt budget.
    pub unfinished_instances: usize,
    /// Simulated makespan in seconds (end of the last attempt).
    pub makespan_seconds: f64,
}

impl ReplayReport {
    /// Total memory wastage over time in gigabyte-hours.
    pub fn total_wastage_gbh(&self) -> f64 {
        self.events.iter().map(|e| e.wastage_gbh).sum()
    }

    /// Total task runtime (all attempts) in hours — the Fig. 8d metric.
    pub fn total_runtime_hours(&self) -> f64 {
        self.events.iter().map(|e| e.duration_seconds).sum::<f64>() / 3600.0
    }

    /// Total number of failed attempts.
    pub fn total_failures(&self) -> usize {
        self.events.iter().filter(|e| !e.success).count()
    }

    /// Total time attempts spent waiting for cluster resources, in seconds —
    /// the contention cost the paper's evaluation leaves out of scope
    /// (assumption A2).
    pub fn total_queue_delay_seconds(&self) -> f64 {
        self.events.iter().map(|e| e.queue_delay_seconds).sum()
    }

    /// Mean queue delay per attempt in seconds (zero for an empty replay).
    pub fn mean_queue_delay_seconds(&self) -> f64 {
        if self.events.is_empty() {
            0.0
        } else {
            self.total_queue_delay_seconds() / self.events.len() as f64
        }
    }

    /// Number of failed attempts per task type (Fig. 8c).
    pub fn failures_by_task_type(&self) -> BTreeMap<TaskTypeId, usize> {
        let mut map = BTreeMap::new();
        for e in &self.events {
            if !e.success {
                *map.entry(e.task_type.clone()).or_insert(0) += 1;
            }
        }
        map
    }

    /// Memory wastage per task type in gigabyte-hours.
    pub fn wastage_by_task_type(&self) -> BTreeMap<TaskTypeId, f64> {
        let mut map = BTreeMap::new();
        for e in &self.events {
            *map.entry(e.task_type.clone()).or_insert(0.0) += e.wastage_gbh;
        }
        map
    }

    /// Share of selected models among first attempts that reported one
    /// (Fig. 11). Returns (model name, fraction) sorted by descending share.
    pub fn model_selection_share(&self) -> Vec<(String, f64)> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        let mut total = 0usize;
        for e in &self.events {
            if e.attempt == 0 {
                if let Some(model) = &e.selected_model {
                    *counts.entry(model.clone()).or_insert(0) += 1;
                    total += 1;
                }
            }
        }
        let mut shares: Vec<(String, f64)> = counts
            .into_iter()
            .map(|(m, c)| (m, c as f64 / total.max(1) as f64))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        shares
    }

    /// Relative prediction error of the raw estimates over the course of the
    /// replay, restricted to one task type (Fig. 12). Returns
    /// `(execution index, relative error)` pairs for first attempts.
    pub fn prediction_error_over_time(&self, task_type: &str) -> Vec<(usize, f64)> {
        self.events
            .iter()
            .filter(|e| e.attempt == 0 && e.task_type.as_str() == task_type)
            .filter_map(|e| e.relative_prediction_error())
            .enumerate()
            .collect()
    }

    /// Number of successfully finished instances.
    pub fn finished_instances(&self) -> usize {
        self.instances - self.unfinished_instances
    }
}

/// Where the replay engines deliver per-attempt events.
///
/// The streaming pipeline aggregates online and only retains full event
/// traces when a collecting sink is supplied — `Vec<AttemptEvent>` collects,
/// [`NullSink`] discards, and closures `FnMut(&AttemptEvent)` adapt to
/// arbitrary destinations (e.g. an incremental trace file writer).
pub trait AttemptSink {
    /// Called once per attempt, in replay order.
    fn record(&mut self, event: &AttemptEvent);
}

/// Discards every event — the bounded-memory default of the streaming
/// pipeline (aggregates are maintained separately and online).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl AttemptSink for NullSink {
    fn record(&mut self, _event: &AttemptEvent) {}
}

impl AttemptSink for Vec<AttemptEvent> {
    fn record(&mut self, event: &AttemptEvent) {
        self.push(event.clone());
    }
}

impl<F: FnMut(&AttemptEvent)> AttemptSink for F {
    fn record(&mut self, event: &AttemptEvent) {
        self(event);
    }
}

/// Where the streaming engines deliver finished provenance records (the
/// exact records fed to `observe`). Any `FnMut(&TaskRecord)` closure is a
/// sink; the default [`NullRecordSink`] discards them.
pub trait RecordSink {
    /// Called once per finished attempt, in completion order.
    fn record(&mut self, record: &sizey_provenance::TaskRecord);
}

/// Discards every record — the default when no trace is requested.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecordSink;

impl RecordSink for NullRecordSink {
    fn record(&mut self, _record: &sizey_provenance::TaskRecord) {}
}

impl<F: FnMut(&sizey_provenance::TaskRecord)> RecordSink for F {
    fn record(&mut self, record: &sizey_provenance::TaskRecord) {
        self(record);
    }
}

/// Online replay aggregates: every headline metric of a [`ReplayReport`],
/// computed incrementally from the event stream in `O(#task_types)` memory
/// instead of `O(#attempts)`.
///
/// Folding the events **in replay order** produces bit-identical sums to the
/// corresponding `ReplayReport` derivations (same `f64` additions in the
/// same order); the differential harness pins
/// `ReplayAggregates::from_report(&report) == streaming_aggregates`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayAggregates {
    /// Number of attempts observed.
    pub attempts: u64,
    /// Number of failed attempts.
    pub failures: u64,
    /// Sum of per-attempt wastage in GBh (Fig. 8a/8b).
    pub total_wastage_gbh: f64,
    /// Sum of attempt durations in seconds (Fig. 8d is this over 3600).
    pub total_duration_seconds: f64,
    /// Sum of queue delays in seconds.
    pub total_queue_delay_seconds: f64,
    /// Largest single queue delay in seconds.
    pub max_queue_delay_seconds: f64,
    /// Failed attempts per task type (Fig. 8c).
    pub failures_by_task_type: BTreeMap<TaskTypeId, usize>,
    /// Wastage per task type in GBh.
    pub wastage_by_task_type: BTreeMap<TaskTypeId, f64>,
    /// Selected-model counts over first attempts that reported one (Fig. 11).
    pub model_selections: BTreeMap<String, usize>,
    /// Number of first attempts that reported a selected model.
    pub model_selection_total: usize,
    /// Number of task instances replayed (maintained by the engine).
    pub instances: usize,
    /// Instances that never succeeded within the attempt budget.
    pub unfinished_instances: usize,
    /// End of the latest attempt seen, in simulated seconds.
    pub makespan_seconds: f64,
}

impl ReplayAggregates {
    /// An empty accumulator.
    pub fn new() -> Self {
        ReplayAggregates::default()
    }

    /// Folds one attempt event into the aggregates. Must be called in
    /// replay order for bit-identity with the materialised report.
    pub fn observe_event(&mut self, e: &AttemptEvent) {
        self.attempts += 1;
        self.total_wastage_gbh += e.wastage_gbh;
        self.total_duration_seconds += e.duration_seconds;
        self.total_queue_delay_seconds += e.queue_delay_seconds;
        self.max_queue_delay_seconds = self.max_queue_delay_seconds.max(e.queue_delay_seconds);
        *self
            .wastage_by_task_type
            .entry(e.task_type.clone())
            .or_insert(0.0) += e.wastage_gbh;
        if !e.success {
            self.failures += 1;
            *self
                .failures_by_task_type
                .entry(e.task_type.clone())
                .or_insert(0) += 1;
        }
        if e.attempt == 0 {
            if let Some(model) = &e.selected_model {
                *self.model_selections.entry(model.clone()).or_insert(0) += 1;
                self.model_selection_total += 1;
            }
        }
        self.makespan_seconds = self
            .makespan_seconds
            .max(e.submit_time_seconds + e.duration_seconds);
    }

    /// Records the terminal state of one instance (the engine calls this once
    /// per instance).
    pub fn observe_instance(&mut self, finished: bool) {
        self.instances += 1;
        if !finished {
            self.unfinished_instances += 1;
        }
    }

    /// Rebuilds the aggregates from a materialised report by folding its
    /// events in order — the reference the streaming pipeline is pinned
    /// against.
    pub fn from_report(report: &ReplayReport) -> Self {
        let mut agg = ReplayAggregates::new();
        for e in &report.events {
            agg.observe_event(e);
        }
        agg.instances = report.instances;
        agg.unfinished_instances = report.unfinished_instances;
        agg.makespan_seconds = report.makespan_seconds;
        agg
    }

    /// Total task runtime (all attempts) in hours — the Fig. 8d metric.
    pub fn total_runtime_hours(&self) -> f64 {
        self.total_duration_seconds / 3600.0
    }

    /// Mean queue delay per attempt in seconds (zero for an empty replay).
    pub fn mean_queue_delay_seconds(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.total_queue_delay_seconds / self.attempts as f64
        }
    }

    /// Share of selected models among first attempts that reported one,
    /// sorted by descending share (Fig. 11).
    pub fn model_selection_share(&self) -> Vec<(String, f64)> {
        let mut shares: Vec<(String, f64)> = self
            .model_selections
            .iter()
            .map(|(m, c)| {
                (
                    m.clone(),
                    *c as f64 / self.model_selection_total.max(1) as f64,
                )
            })
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        shares
    }

    /// Number of successfully finished instances.
    pub fn finished_instances(&self) -> usize {
        self.instances - self.unfinished_instances
    }
}

/// Aggregates reports of the same method across workflows (Fig. 8a/8b/8d).
#[derive(Debug, Clone, PartialEq)]
pub struct MethodAggregate {
    /// Method name.
    pub method: String,
    /// Total wastage over all workflows in GBh.
    pub total_wastage_gbh: f64,
    /// Total runtime over all workflows in hours.
    pub total_runtime_hours: f64,
    /// Total number of failed attempts over all workflows.
    pub total_failures: usize,
    /// Wastage per workflow in GBh (Table II row).
    pub wastage_per_workflow: BTreeMap<String, f64>,
}

/// Builds the per-method aggregate from per-workflow reports.
pub fn aggregate_method(reports: &[ReplayReport]) -> MethodAggregate {
    let method = reports
        .first()
        .map(|r| r.method.clone())
        .unwrap_or_else(|| "unknown".to_string());
    let mut wastage_per_workflow = BTreeMap::new();
    for r in reports {
        *wastage_per_workflow
            .entry(r.workflow.clone())
            .or_insert(0.0) += r.total_wastage_gbh();
    }
    MethodAggregate {
        method,
        total_wastage_gbh: reports.iter().map(ReplayReport::total_wastage_gbh).sum(),
        total_runtime_hours: reports.iter().map(ReplayReport::total_runtime_hours).sum(),
        total_failures: reports.iter().map(ReplayReport::total_failures).sum(),
        wastage_per_workflow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(task: &str, attempt: u32, success: bool, wastage: f64) -> AttemptEvent {
        AttemptEvent {
            task_type: TaskTypeId::new(task),
            sequence: 0,
            attempt,
            allocated_bytes: 4e9,
            true_peak_bytes: 2e9,
            duration_seconds: 3600.0,
            success,
            wastage_gbh: wastage,
            raw_estimate_bytes: Some(3e9),
            selected_model: Some(if attempt == 0 { "mlp" } else { "linear" }.to_string()),
            submit_time_seconds: 0.0,
            queue_delay_seconds: 30.0,
        }
    }

    fn report() -> ReplayReport {
        ReplayReport {
            method: "test".into(),
            workflow: "wf".into(),
            time_to_failure: 1.0,
            events: vec![
                event("a", 0, false, 4.0),
                event("a", 1, true, 2.0),
                event("b", 0, true, 1.0),
            ],
            instances: 2,
            unfinished_instances: 0,
            makespan_seconds: 7200.0,
        }
    }

    #[test]
    fn totals_sum_over_events() {
        let r = report();
        assert!((r.total_wastage_gbh() - 7.0).abs() < 1e-12);
        assert!((r.total_runtime_hours() - 3.0).abs() < 1e-12);
        assert_eq!(r.total_failures(), 1);
        assert_eq!(r.finished_instances(), 2);
        assert!((r.total_queue_delay_seconds() - 90.0).abs() < 1e-12);
        assert!((r.mean_queue_delay_seconds() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn failures_and_wastage_group_by_task_type() {
        let r = report();
        let fails = r.failures_by_task_type();
        assert_eq!(fails.get(&TaskTypeId::new("a")), Some(&1));
        assert_eq!(fails.get(&TaskTypeId::new("b")), None);
        let wastage = r.wastage_by_task_type();
        assert!((wastage[&TaskTypeId::new("a")] - 6.0).abs() < 1e-12);
        assert!((wastage[&TaskTypeId::new("b")] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn model_share_counts_first_attempts_only() {
        let r = report();
        let share = r.model_selection_share();
        assert_eq!(share.len(), 1);
        assert_eq!(share[0].0, "mlp");
        assert!((share[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prediction_error_over_time_filters_task_type() {
        let r = report();
        let errors = r.prediction_error_over_time("a");
        assert_eq!(errors.len(), 1);
        // raw 3e9 vs true 2e9 => 50% error.
        assert!((errors[0].1 - 0.5).abs() < 1e-12);
        assert!(r.prediction_error_over_time("zzz").is_empty());
    }

    #[test]
    fn relative_error_handles_zero_truth() {
        let mut e = event("a", 0, true, 0.0);
        e.true_peak_bytes = 0.0;
        assert_eq!(e.relative_prediction_error(), Some(0.0));
        e.raw_estimate_bytes = None;
        assert_eq!(e.relative_prediction_error(), None);
    }

    #[test]
    fn aggregate_sums_across_workflows() {
        let mut r1 = report();
        r1.workflow = "wf1".into();
        let mut r2 = report();
        r2.workflow = "wf2".into();
        let agg = aggregate_method(&[r1, r2]);
        assert_eq!(agg.method, "test");
        assert!((agg.total_wastage_gbh - 14.0).abs() < 1e-12);
        assert!((agg.total_runtime_hours - 6.0).abs() < 1e-12);
        assert_eq!(agg.total_failures, 2);
        assert_eq!(agg.wastage_per_workflow.len(), 2);
    }

    #[test]
    fn aggregate_of_empty_is_unknown() {
        let agg = aggregate_method(&[]);
        assert_eq!(agg.method, "unknown");
        assert_eq!(agg.total_wastage_gbh, 0.0);
    }
}
