//! The attempt model: what one sized attempt of one task instance costs.
//!
//! The paper's evaluation (Section III-A) applies one rule per attempt: the
//! memory limit is strict (assumption A3), a failed attempt runs for
//! `time_to_failure × runtime` and wastes its whole allocation, and the
//! monitored peak of a failure is the allocation it exhausted. The sequential
//! [`replay`](crate::replay) core and the event-driven
//! [`scheduler`](crate::scheduler) both cost their attempts here.

use crate::accounting::AttemptEvent;
use crate::predictor::{Prediction, TaskSubmission};
use sizey_provenance::{TaskOutcome, TaskRecord};
use sizey_workflows::TaskInstance;
use std::sync::Arc;

/// Minimum allocation the resource manager accepts (64 MB), so degenerate
/// predictions cannot request zero memory.
pub const MIN_ALLOCATION_BYTES: f64 = 64e6;

impl From<&TaskInstance> for TaskSubmission {
    /// What the resource manager knows about an instance before it runs.
    fn from(inst: &TaskInstance) -> Self {
        TaskSubmission {
            workflow: inst.workflow.clone(),
            task_type: inst.task_type.clone(),
            machine: inst.machine.clone(),
            sequence: inst.sequence,
            input_bytes: inst.input_bytes,
            preset_memory_bytes: inst.preset_memory_bytes,
        }
    }
}

/// One attempt as sized at submission: its allocation and, the simulator
/// knowing the true peak, its outcome and duration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Attempt {
    pub(crate) allocation_bytes: f64,
    pub(crate) success: bool,
    pub(crate) duration_seconds: f64,
    raw_estimate_bytes: Option<f64>,
    selected_model: Option<&'static str>,
}

impl Attempt {
    /// Sizes an attempt of `inst` from its predictor's answer: clamps the
    /// allocation into `[MIN_ALLOCATION_BYTES, largest node]`, checks it
    /// against the true peak under the strict limit, and charges a failure
    /// `time_to_failure × runtime`. The clamp is total where `f64::clamp`
    /// is not: a NaN prediction is sized to the floor, and a largest node
    /// below the floor wins over it instead of panicking.
    pub(crate) fn size(
        inst: &TaskInstance,
        prediction: &Prediction,
        largest_node_bytes: f64,
        time_to_failure: f64,
    ) -> Self {
        let allocation_bytes = prediction
            .allocation_bytes
            .max(MIN_ALLOCATION_BYTES)
            .min(largest_node_bytes);
        let success = allocation_bytes + 1e-6 >= inst.true_peak_bytes;
        Attempt {
            allocation_bytes,
            success,
            duration_seconds: if success {
                inst.base_runtime_seconds
            } else {
                inst.base_runtime_seconds * time_to_failure
            },
            raw_estimate_bytes: prediction.raw_estimate_bytes,
            selected_model: prediction.selected_model,
        }
    }

    /// The attempt as the accounting sees it, once the scheduler has decided
    /// when it starts. A success wastes its surplus over the true peak, a
    /// failure its whole allocation, each for the attempt's duration.
    pub(crate) fn event(
        &self,
        inst: &TaskInstance,
        attempt: u32,
        start_seconds: f64,
        queue_delay_seconds: f64,
    ) -> AttemptEvent {
        let wasted_bytes = if self.success {
            (self.allocation_bytes - inst.true_peak_bytes).max(0.0)
        } else {
            self.allocation_bytes
        };
        AttemptEvent {
            task_type: inst.task_type.clone(),
            sequence: inst.sequence,
            attempt,
            allocated_bytes: self.allocation_bytes,
            true_peak_bytes: inst.true_peak_bytes,
            duration_seconds: self.duration_seconds,
            success: self.success,
            wastage_gbh: wasted_bytes / 1e9 * self.duration_seconds / 3600.0,
            raw_estimate_bytes: self.raw_estimate_bytes,
            selected_model: self.selected_model,
            submit_time_seconds: start_seconds,
            queue_delay_seconds,
        }
    }

    /// The monitoring record fed back for online learning when the attempt
    /// finishes. On failure the monitored "peak" is the allocation that was
    /// exhausted — the true peak was never observed.
    pub(crate) fn record(
        &self,
        inst: &TaskInstance,
        workflow: &Arc<str>,
        concurrent_tasks: u32,
        queue_delay_seconds: f64,
    ) -> TaskRecord {
        TaskRecord {
            workflow: workflow.clone(),
            task_type: inst.task_type.clone(),
            machine: inst.machine.clone(),
            sequence: inst.sequence,
            input_bytes: inst.input_bytes,
            peak_memory_bytes: if self.success {
                inst.true_peak_bytes
            } else {
                self.allocation_bytes
            },
            allocated_memory_bytes: self.allocation_bytes,
            runtime_seconds: self.duration_seconds,
            concurrent_tasks,
            queue_delay_seconds,
            outcome: if self.success {
                TaskOutcome::Succeeded
            } else {
                TaskOutcome::FailedOutOfMemory
            },
        }
    }
}
