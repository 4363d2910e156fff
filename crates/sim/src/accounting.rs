//! Wastage, failure and runtime accounting for replayed workflows.
//!
//! The paper's evaluation reports everything in terms of these aggregates:
//! memory wastage over time in gigabyte-hours (Fig. 8a/8b, Table II), the
//! distribution of task failures per task type (Fig. 8c), aggregated task
//! runtimes (Fig. 8d), the share of selected model classes (Fig. 11) and the
//! relative prediction error over time (Fig. 12). Every engine folds each
//! attempt into one [`ReplayAggregates`] as it happens and returns that fold
//! inside its [`ReplayReport`]; only Fig. 12's per-event series is read from
//! the events a report retains.

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
    pub selected_model: Option<&'static str>,
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

/// Complete result of replaying one workflow with one sizing method, from
/// any replay entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Name of the sizing method.
    pub method: String,
    /// Name of the workflow.
    pub workflow: String,
    /// Time-to-failure value used.
    pub time_to_failure: f64,
    /// Every attempt in replay order. The streaming entry points leave this
    /// empty and hand the events to their sink instead.
    pub events: Vec<AttemptEvent>,
    /// Number of task instances replayed: `aggregates.instances`, also kept
    /// at the top level because the repo benchmark's tests read it here.
    pub instances: usize,
    /// The engine's online fold of every attempt and instance: every
    /// headline number of the replay.
    pub aggregates: ReplayAggregates,
}

impl ReplayReport {
    /// Total memory wastage over time in gigabyte-hours.
    pub fn total_wastage_gbh(&self) -> f64 {
        self.aggregates.total_wastage_gbh
    }

    /// Total number of failed attempts.
    pub fn total_failures(&self) -> usize {
        self.aggregates.failures as usize
    }

    /// Relative prediction error of the raw estimates over the course of the
    /// replay, restricted to one task type (Fig. 12). Returns
    /// `(execution index, relative error)` pairs for first attempts; empty
    /// when the report retained no events.
    pub fn prediction_error_over_time(&self, task_type: &str) -> Vec<(usize, f64)> {
        self.events
            .iter()
            .filter(|e| e.attempt == 0 && e.task_type.as_str() == task_type)
            .filter_map(|e| e.relative_prediction_error())
            .enumerate()
            .collect()
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

/// Online replay aggregates: every headline metric of a replay, folded
/// attempt by attempt in `O(#task_types)` memory instead of `O(#attempts)`.
///
/// Every engine runs this fold and hands it out as
/// [`ReplayReport::aggregates`]; it is the crate's one accounting.
/// [`ReplayAggregates::from_report`] re-runs it over a report's collected
/// events, the reference the differential suites pin the engines against.
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
    pub model_selections: BTreeMap<&'static str, usize>,
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

    /// Folds one attempt event into the aggregates, in replay order.
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
            if let Some(model) = e.selected_model {
                *self.model_selections.entry(model).or_insert(0) += 1;
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

    /// Rebuilds the aggregates by folding a report's collected events in
    /// order; the instance counts, which no event carries, come from the
    /// report's own aggregates. This is the reference the engines' online
    /// fold is pinned against.
    pub fn from_report(report: &ReplayReport) -> Self {
        let mut agg = ReplayAggregates::new();
        for e in &report.events {
            agg.observe_event(e);
        }
        agg.instances = report.aggregates.instances;
        agg.unfinished_instances = report.aggregates.unfinished_instances;
        agg
    }

    /// End of the latest attempt seen, in simulated hours.
    pub fn makespan_hours(&self) -> f64 {
        self.makespan_seconds / 3600.0
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
    pub fn model_selection_share(&self) -> Vec<(&'static str, f64)> {
        let mut shares: Vec<(&'static str, f64)> = self
            .model_selections
            .iter()
            .map(|(&m, &c)| (m, c as f64 / self.model_selection_total.max(1) as f64))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        shares
    }

    /// Number of successfully finished instances.
    pub fn finished_instances(&self) -> usize {
        self.instances - self.unfinished_instances
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
            selected_model: Some(if attempt == 0 { "mlp" } else { "linear" }),
            submit_time_seconds: 0.0,
            queue_delay_seconds: 30.0,
        }
    }

    fn events() -> Vec<AttemptEvent> {
        vec![
            event("a", 0, false, 4.0),
            event("a", 1, true, 2.0),
            event("b", 0, true, 1.0),
        ]
    }

    /// Folds [`events`] through the engines' online fold, then two finished
    /// instances.
    fn fold() -> ReplayAggregates {
        let mut agg = ReplayAggregates::new();
        for e in &events() {
            agg.observe_event(e);
        }
        agg.observe_instance(true);
        agg.observe_instance(true);
        agg
    }

    fn report() -> ReplayReport {
        ReplayReport {
            method: "test".into(),
            workflow: "wf".into(),
            time_to_failure: 1.0,
            events: events(),
            instances: 2,
            aggregates: fold(),
        }
    }

    #[test]
    fn totals_sum_over_events() {
        let agg = fold();
        assert_eq!(agg.attempts, 3);
        assert!((agg.total_wastage_gbh - 7.0).abs() < 1e-12);
        assert!((agg.total_runtime_hours() - 3.0).abs() < 1e-12);
        assert_eq!(agg.failures, 1);
        assert_eq!(agg.finished_instances(), 2);
        assert!((agg.total_queue_delay_seconds - 90.0).abs() < 1e-12);
        assert!((agg.mean_queue_delay_seconds() - 30.0).abs() < 1e-12);
        assert_eq!(agg.max_queue_delay_seconds, 30.0);
        assert_eq!(agg.makespan_seconds, 3600.0);
        assert_eq!(ReplayAggregates::from_report(&report()), agg);
    }

    #[test]
    fn failures_and_wastage_group_by_task_type() {
        let agg = fold();
        let fails = &agg.failures_by_task_type;
        assert_eq!(fails.get(&TaskTypeId::new("a")), Some(&1));
        assert_eq!(fails.get(&TaskTypeId::new("b")), None);
        let wastage = &agg.wastage_by_task_type;
        assert!((wastage[&TaskTypeId::new("a")] - 6.0).abs() < 1e-12);
        assert!((wastage[&TaskTypeId::new("b")] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn model_share_counts_first_attempts_only() {
        let share = fold().model_selection_share();
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
}
