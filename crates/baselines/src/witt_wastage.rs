//! The Witt-Wastage baseline.
//!
//! Witt et al. (HPCS 2019, "Learning low-wastage memory allocations for
//! scientific workflows at IceCube") fit linear allocation functions that
//! minimise *wastage* rather than prediction error: several candidate
//! regression lines (the base fit shifted towards higher quantiles of the
//! residual distribution) are evaluated on the historical data with a wastage
//! cost model — over-allocation costs its surplus, under-allocation costs the
//! failed attempt plus a conservative retry — and the line with the lowest
//! cost is used. A failed attempt doubles the allocation.
//!
//! **Cost.** A key keeps one regression whose normal equations absorb each
//! success as it is observed: O(1) to fold the row in. From [`MIN_HISTORY`]
//! successes on, the observe also solves eagerly, makes one residual pass
//! over the key's n observations, sorts the residuals once, reads every
//! candidate quantile from that sorted buffer and prices each candidate on
//! the history: O(n log n + n·q) for q candidate quantiles. Predict
//! evaluates the stored line plus the stored shift: O(1). The answer is
//! bit-identical to refitting the whole history.

use crate::history::History;
use crate::line::{IncrementalLine, LineScratch};
use sizey_ml::metrics::percentile_of_sorted;
use sizey_provenance::TaskRecord;
use sizey_sim::{AttemptContext, MemoryPredictor, Prediction, TaskSubmission};

/// Residual quantiles tried as intercept shifts for the candidate lines.
/// The six values are this repo's choice.
pub const CANDIDATE_QUANTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 100.0];

/// Observations of a key before the model is used; below this the preset
/// is used. The value 3 is this repo's choice.
pub const MIN_HISTORY: usize = 3;

/// Penalty factor applied to an under-allocation: the wasted work of the
/// failed attempt is approximated as `penalty × actual peak`. The original
/// method optimises the memory-time wasted by the attempt itself (a failed
/// attempt wastes its allocation); the retry cost is not part of its
/// objective, which is why it trades more task failures for tighter
/// allocations (Fig. 8c). Hence 0.
pub const FAILURE_PENALTY: f64 = 0.0;

/// Low-wastage linear allocation model.
#[derive(Debug, Default, Clone)]
pub struct WittWastage {
    history: History<IncrementalLine>,
    /// Reused by every observe.
    scratch: LineScratch,
}

impl WittWastage {
    /// Creates the predictor.
    pub fn new() -> Self {
        WittWastage::default()
    }

    /// Wastage cost of allocating `alloc` for a task that actually peaks at
    /// `peak`: surplus when sufficient, failed work plus a full re-run at the
    /// actual peak when insufficient.
    fn wastage_cost(alloc: f64, peak: f64) -> f64 {
        if alloc >= peak {
            alloc - peak
        } else {
            alloc + FAILURE_PENALTY * peak
        }
    }
}

impl MemoryPredictor for WittWastage {
    fn name(&self) -> String {
        "Witt-Wastage".to_string()
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
    // enough history, picks the intercept shift with the least historical
    // wastage (first wins on ties).
    fn observe(&mut self, record: &TaskRecord) {
        let Some((observations, line)) = self.history.observe(record) else {
            return;
        };
        if !line.absorb(observations, MIN_HISTORY, &mut self.scratch) {
            return;
        }
        let scratch = &mut self.scratch;
        scratch.residual_pass(&line.model, observations);
        scratch.residuals.sort_by(|a, b| a.total_cmp(b));

        // Evaluate every candidate shift on the historical data.
        let mut best_shift = 0.0;
        let mut best_cost = f64::INFINITY;
        for q in CANDIDATE_QUANTILES {
            let shift = percentile_of_sorted(&scratch.residuals, q).max(0.0);
            let cost: f64 = observations
                .iter()
                .zip(scratch.fitted.iter())
                .map(|(o, p)| Self::wastage_cost(p + shift, o.peak_bytes))
                .sum();
            if cost < best_cost {
                best_cost = cost;
                best_shift = shift;
            }
        }
        line.shift = Some(best_shift);
    }
}

crate::history::impl_history_checkpoint!(WittWastage);

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_provenance::{MachineId, TaskMachineKey, TaskOutcome, TaskTypeId};

    fn submission(input: f64) -> TaskSubmission {
        TaskSubmission {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: 0,
            input_bytes: input,
            preset_memory_bytes: 30e9,
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
    fn falls_back_to_preset_without_history() {
        let p = WittWastage::new();
        assert_eq!(
            p.predict(&submission(1e9), AttemptContext::first())
                .allocation_bytes,
            30e9
        );
    }

    #[test]
    fn wastage_cost_charges_the_surplus_or_the_failed_allocation() {
        assert_eq!(WittWastage::wastage_cost(5.0, 3.0), 2.0);
        // With a penalty of 0 a failed attempt costs its own allocation.
        assert_eq!(WittWastage::wastage_cost(2.0, 3.0), 2.0);
    }

    #[test]
    fn learns_linear_data_with_small_overallocation() {
        let mut p = WittWastage::new();
        for i in 1..=30 {
            let input = i as f64 * 1e9;
            // peak = input + 1 GB with +-0.5 GB alternating noise
            let noise = if i % 2 == 0 { 0.5e9 } else { -0.5e9 };
            p.observe(&success(input, input + 1e9 + noise));
        }
        let alloc = p
            .predict(&submission(15e9), AttemptContext::first())
            .allocation_bytes;
        // Estimate should cover the upper envelope (~16.5 GB) but stay far
        // below the 30 GB preset.
        assert!(alloc >= 15.5e9, "alloc = {alloc}");
        assert!(alloc < 20e9, "alloc = {alloc}");
    }

    #[test]
    fn shift_covers_heavy_upper_tail() {
        let mut p = WittWastage::new();
        // Mostly small peaks, occasionally double: the cheapest line must
        // still cover the expensive failures.
        for i in 1..=40 {
            let input = 1e9;
            let peak = if i % 5 == 0 { 8e9 } else { 4e9 };
            p.observe(&success(input, peak));
        }
        let alloc = p
            .predict(&submission(1e9), AttemptContext::first())
            .allocation_bytes;
        assert!(alloc >= 4e9, "must at least cover the common case: {alloc}");
    }

    #[test]
    fn doubles_on_retry_and_records_history() {
        let mut p = WittWastage::new();
        for i in 1..=5 {
            p.observe(&success(i as f64 * 1e9, 2.0 * i as f64 * 1e9));
        }
        let line = p.history.state(&TaskMachineKey::new("t", "m")).unwrap();
        assert_eq!(line.model.n_observations(), 5);
        let base = p
            .predict(&submission(3e9), AttemptContext::first())
            .allocation_bytes;
        let doubled = p
            .predict(&submission(3e9), AttemptContext::retry(1, base))
            .allocation_bytes;
        assert!((doubled - 2.0 * base).abs() < 1e-3);
    }
}
