//! The Witt-Percentile baseline.
//!
//! Witt et al. (HPCS 2019, "Feedback-based resource allocation for batch
//! scheduling of scientific workflows") propose a percentile predictor: the
//! allocation for a task is the p-th percentile of all historical peak memory
//! values of the same task type. The paper's evaluation uses the conservative
//! 95th percentile. Before any history exists the user preset is used, and a
//! failed attempt doubles the previous allocation.
//!
//! **Cost.** A key keeps its peaks sorted: a successful observe inserts the
//! new peak at its place under `total_cmp`, O(log n) to find it and O(n) to
//! shift the tail. Predict reads the interpolated percentile from the sorted
//! peaks: O(1), bit-identical to sorting a copy of them. Non-finite peaks are
//! journalled but left out of the sorted peaks.

use crate::history::History;
use sizey_ml::metrics::percentile_of_sorted;
use sizey_provenance::TaskRecord;
use sizey_sim::{AttemptContext, MemoryPredictor, Prediction, TaskSubmission};

/// Which percentile of the historical peaks is allocated (0-100): the
/// conservative 95th percentile of Witt et al.'s evaluation.
pub const PERCENTILE: f64 = 95.0;

/// Observations of a key before the percentile is trusted; below this the
/// preset is used. The value 2 is this repo's choice.
pub const MIN_HISTORY: usize = 2;

/// Percentile-based peak memory predictor.
#[derive(Debug, Default, Clone)]
pub struct WittPercentile {
    /// Each key's peaks, sorted ascending under `total_cmp`.
    history: History<Vec<f64>>,
}

impl WittPercentile {
    /// Creates the predictor (95th percentile).
    pub fn new() -> Self {
        WittPercentile::default()
    }

    /// The [`PERCENTILE`] of the key's peaks, or `None` below
    /// [`MIN_HISTORY`].
    fn estimate(&self, task: &TaskSubmission) -> Option<f64> {
        let sorted = self
            .history
            .state(&task.key())
            .map_or(&[][..], Vec::as_slice);
        (sorted.len() >= MIN_HISTORY).then(|| percentile_of_sorted(sorted, PERCENTILE))
    }
}

impl MemoryPredictor for WittPercentile {
    fn name(&self) -> String {
        "Witt-Percentile".to_string()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        let raw = self.estimate(task);
        let base = raw.unwrap_or(task.preset_memory_bytes);
        Prediction {
            allocation_bytes: base * 2.0_f64.powi(ctx.attempt as i32),
            raw_estimate_bytes: raw,
            selected_model: None,
        }
    }

    fn observe(&mut self, record: &TaskRecord) {
        if let Some((_, sorted)) = self.history.observe(record) {
            let peak = record.peak_memory_bytes;
            // A non-finite peak would become the percentile of every later
            // predict; it is journalled but not learned from.
            if !peak.is_finite() {
                return;
            }
            let at = sorted.partition_point(|p| p.total_cmp(&peak).is_le());
            sorted.insert(at, peak);
        }
    }
}

crate::history::impl_history_checkpoint!(WittPercentile);

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_provenance::{MachineId, TaskOutcome, TaskTypeId};

    fn submission() -> TaskSubmission {
        TaskSubmission {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: 0,
            input_bytes: 1e9,
            preset_memory_bytes: 10e9,
        }
    }

    fn success(peak: f64) -> TaskRecord {
        TaskRecord {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: 0,
            input_bytes: 1e9,
            peak_memory_bytes: peak,
            allocated_memory_bytes: peak * 2.0,
            runtime_seconds: 60.0,
            concurrent_tasks: 0,
            queue_delay_seconds: 0.0,
            outcome: TaskOutcome::Succeeded,
        }
    }

    #[test]
    fn uses_preset_without_history() {
        let mut p = WittPercentile::new();
        for observed in 0..2 {
            let pred = p.predict(&submission(), AttemptContext::first());
            assert_eq!(pred.allocation_bytes, 10e9, "{observed} observed");
            // The preset is not a model estimate.
            assert_eq!(pred.raw_estimate_bytes, None, "{observed} observed");
            p.observe(&success(3e9));
        }
        let pred = p.predict(&submission(), AttemptContext::first());
        assert_eq!(pred.raw_estimate_bytes, Some(3e9));
    }

    #[test]
    fn uses_95th_percentile_of_history() {
        let mut p = WittPercentile::new();
        for i in 1..=100 {
            p.observe(&success(i as f64 * 1e8));
        }
        let alloc = p
            .predict(&submission(), AttemptContext::first())
            .allocation_bytes;
        // 95th percentile of 0.1..10 GB is ~9.5 GB.
        assert!((alloc - 9.505e9).abs() < 0.1e9, "alloc = {alloc}");
    }

    #[test]
    fn doubles_on_retry() {
        let mut p = WittPercentile::new();
        p.observe(&success(2e9));
        p.observe(&success(4e9));
        let first = p
            .predict(&submission(), AttemptContext::first())
            .allocation_bytes;
        let second = p
            .predict(&submission(), AttemptContext::retry(1, first))
            .allocation_bytes;
        assert!((second - first * 2.0).abs() < 1e-6);
    }

    #[test]
    fn ignores_failed_records() {
        let mut p = WittPercentile::new();
        let mut failed = success(50e9);
        failed.outcome = TaskOutcome::FailedOutOfMemory;
        p.observe(&failed);
        assert_eq!(
            p.predict(&submission(), AttemptContext::first())
                .allocation_bytes,
            10e9
        );
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        use sizey_sim::lifecycle::{CheckpointPredictor, StateError};
        let mut original = WittPercentile::new();
        for i in 1..=20 {
            original.observe(&success(i as f64 * 1e8));
        }
        let state = original.snapshot();
        assert_eq!(state.journal.len(), 20);
        let mut restored = WittPercentile::new();
        restored.restore(&state).unwrap();
        let task = submission();
        assert_eq!(
            original.predict(&task, AttemptContext::first()),
            restored.predict(&task, AttemptContext::first())
        );
        assert_eq!(restored.snapshot(), state);
        // Restoring onto a non-fresh instance is refused.
        assert!(matches!(
            restored.restore(&state),
            Err(StateError::NotFresh { observed: 20 })
        ));
    }
}
