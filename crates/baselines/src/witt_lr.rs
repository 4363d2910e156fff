//! The Witt-LR baseline.
//!
//! The second method of Witt et al. (HPCS 2019): a per-task-type linear
//! regression of peak memory on input size, offset by the observed difference
//! between actual and predicted peaks so that underestimation becomes
//! unlikely. Before enough history exists, the user preset is used; a failed
//! attempt doubles the previous allocation.
//!
//! **Cost.** A key keeps one regression whose normal equations absorb each
//! success as it is observed: O(1) to fold the row in. From [`MIN_HISTORY`]
//! successes on, the observe also solves eagerly and re-derives the
//! residual offset in one pass over the key's n observations: O(n). Predict
//! evaluates the stored line plus the stored offset: O(1). The Gram sums
//! accumulate row by row in the order a fresh fit would visit them, so the
//! answer is bit-identical to refitting the whole history.

use crate::history::History;
use crate::line::{IncrementalLine, LineScratch};
use sizey_ml::metrics::std_dev;
use sizey_provenance::TaskRecord;
use sizey_sim::{AttemptContext, MemoryPredictor, Prediction, TaskSubmission};

/// Observations of a key before the regression is trusted; below this the
/// preset is used. The value 3 is this repo's choice.
pub const MIN_HISTORY: usize = 3;

/// Multiplier on the residual standard deviation added as the safety
/// offset. The value 1 is this repo's choice.
pub const OFFSET_SIGMAS: f64 = 1.0;

/// Linear-regression-with-offset peak memory predictor.
#[derive(Debug, Default, Clone)]
pub struct WittLr {
    history: History<IncrementalLine>,
    /// Reused by every observe.
    scratch: LineScratch,
}

impl WittLr {
    /// Creates the predictor.
    pub fn new() -> Self {
        WittLr::default()
    }
}

impl MemoryPredictor for WittLr {
    fn name(&self) -> String {
        "Witt-LR".to_string()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        let raw = self
            .history
            .state(&task.key())
            .and_then(|line| line.evaluate(task.input_bytes));
        let base = raw.unwrap_or(task.preset_memory_bytes);
        Prediction {
            allocation_bytes: base * 2.0_f64.powi(ctx.attempt as i32),
            raw_estimate_bytes: raw,
            selected_model: None,
        }
    }

    // Folds the key's newest observation into its regression and, with
    // enough history, re-derives the offset: the spread of the residuals
    // on the training data.
    fn observe(&mut self, record: &TaskRecord) {
        let Some((observations, line)) = self.history.observe(record) else {
            return;
        };
        if !line.absorb(observations, MIN_HISTORY, &mut self.scratch) {
            return;
        }
        self.scratch.residual_pass(&line.model, observations);
        line.shift = Some(std_dev(&self.scratch.residuals) * OFFSET_SIGMAS);
    }
}

crate::history::impl_history_checkpoint!(WittLr);

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_provenance::{MachineId, TaskOutcome, TaskTypeId};

    fn submission(input: f64) -> TaskSubmission {
        TaskSubmission {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: 0,
            input_bytes: input,
            preset_memory_bytes: 20e9,
        }
    }

    fn success(input: f64, peak: f64) -> TaskRecord {
        TaskRecord {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: 0,
            input_bytes: input,
            peak_memory_bytes: peak,
            allocated_memory_bytes: peak * 2.0,
            runtime_seconds: 60.0,
            concurrent_tasks: 0,
            queue_delay_seconds: 0.0,
            outcome: TaskOutcome::Succeeded,
        }
    }

    #[test]
    fn uses_preset_before_enough_history() {
        let mut p = WittLr::new();
        p.observe(&success(1e9, 2e9));
        let pred = p.predict(&submission(1e9), AttemptContext::first());
        assert_eq!(pred.allocation_bytes, 20e9);
        assert!(pred.raw_estimate_bytes.is_none());
    }

    #[test]
    fn learns_linear_relationship() {
        let mut p = WittLr::new();
        // peak = 2 * input + 1 GB, noiseless.
        for i in 1..=10 {
            let input = i as f64 * 1e9;
            p.observe(&success(input, 2.0 * input + 1e9));
        }
        let pred = p.predict(&submission(20e9), AttemptContext::first());
        // Noiseless data => zero residual spread => no offset.
        assert!(
            (pred.allocation_bytes - 41e9).abs() < 0.5e9,
            "{}",
            pred.allocation_bytes
        );
    }

    #[test]
    fn offset_grows_with_noise() {
        let mut noisy = WittLr::new();
        let mut clean = WittLr::new();
        for i in 1..=20 {
            let input = i as f64 * 1e9;
            clean.observe(&success(input, input + 1e9));
            let noise = if i % 2 == 0 { 2e9 } else { -2e9 };
            noisy.observe(&success(input, input + 1e9 + noise));
        }
        let clean_alloc = clean
            .predict(&submission(10.5e9), AttemptContext::first())
            .allocation_bytes;
        let noisy_alloc = noisy
            .predict(&submission(10.5e9), AttemptContext::first())
            .allocation_bytes;
        assert!(
            noisy_alloc > clean_alloc + 1e9,
            "noisy {noisy_alloc} should exceed clean {clean_alloc}"
        );
    }

    #[test]
    fn doubles_on_retry() {
        let mut p = WittLr::new();
        for i in 1..=5 {
            p.observe(&success(i as f64 * 1e9, i as f64 * 1e9));
        }
        let base = p
            .predict(&submission(3e9), AttemptContext::first())
            .allocation_bytes;
        let retried = p
            .predict(&submission(3e9), AttemptContext::retry(2, base * 2.0))
            .allocation_bytes;
        assert!((retried - base * 4.0).abs() < 1e-3);
    }
}
