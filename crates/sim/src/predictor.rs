//! The predictor interface every memory-sizing method implements.
//!
//! Sizey, the four state-of-the-art baselines and the workflow presets all
//! plug into the replay engine through [`MemoryPredictor`]: the engine asks
//! for an allocation when a task is submitted (and again for every retry
//! after an out-of-memory failure), and feeds back a provenance record when
//! an attempt finishes.
//!
//! The interface is split into a **read path** and a **write path**:
//! [`MemoryPredictor::predict`] takes `&self` and must not mutate learned
//! state, while [`MemoryPredictor::observe`] takes `&mut self` and is the
//! only place models update. Per-attempt retry state (the allocation of the
//! attempt that just failed) is owned by the *engine*, not the predictor,
//! and handed in through [`AttemptContext`] — predictors are pure functions
//! of their learned state plus the context, which is what makes them
//! shareable behind read-write locks (see `sizey_core`'s concurrent serving
//! layer) and structurally unable to leak per-task bookkeeping.

use sizey_provenance::{MachineId, TaskMachineKey, TaskRecord, TaskTypeId};
use std::sync::Arc;

/// The information a sizing method sees when a task is submitted — exactly
/// what a resource manager knows before execution: identity, input size and
/// the workflow developer's requested memory. Its identity fields are shared
/// handles, so building one from an instance copies no string.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSubmission {
    /// Workflow the task belongs to.
    pub workflow: Arc<str>,
    /// Abstract task type.
    pub task_type: TaskTypeId,
    /// Machine configuration the task will run on.
    pub machine: MachineId,
    /// Submission order within the workflow execution.
    pub sequence: u64,
    /// Input size in bytes.
    pub input_bytes: f64,
    /// The user-provided memory request for this task type, in bytes.
    pub preset_memory_bytes: f64,
}

impl TaskSubmission {
    /// The (task type, machine) key of this task, as
    /// [`TaskRecord::key`] builds it for the record the task will produce.
    pub fn key(&self) -> TaskMachineKey {
        TaskMachineKey {
            task_type: self.task_type.clone(),
            machine: self.machine.clone(),
        }
    }
}

/// A sizing decision for one attempt of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The memory the task should be allocated, in bytes.
    pub allocation_bytes: f64,
    /// The raw model estimate before any safety offset was applied (used by
    /// the Fig. 12 prediction-error analysis). `None` when the method has no
    /// notion of a raw estimate (e.g. presets).
    pub raw_estimate_bytes: Option<f64>,
    /// Name of the model (class) that produced the estimate, when the method
    /// selects among several (used by the Fig. 11 analysis). A `&'static
    /// str` rather than an owned `String`: predictions are minted on the
    /// hot path, and every producer picks from a fixed set of model names.
    pub selected_model: Option<&'static str>,
}

impl Prediction {
    /// Convenience constructor for methods without raw-estimate/model
    /// telemetry.
    pub fn simple(allocation_bytes: f64) -> Self {
        Prediction {
            allocation_bytes,
            raw_estimate_bytes: None,
            selected_model: None,
        }
    }
}

/// Engine-owned retry state for one attempt of one task.
///
/// The replay engine (not the predictor) remembers what happened to the
/// previous attempt of an in-flight task and hands it to
/// [`MemoryPredictor::predict`]. Keeping this state out of the predictors
/// eliminates a whole leak class: a predictor cannot forget to evict a
/// per-task map entry when a task terminally fails, because it never holds
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AttemptContext {
    /// 0 for the first submission, incremented after every out-of-memory
    /// failure of the same task instance.
    pub attempt: u32,
    /// The allocation actually granted to the previous (failed) attempt, as
    /// the engine ran it — i.e. after any node-capacity clamping. `None` on
    /// the first attempt, or when the caller has no record of the failed
    /// attempt (methods then fall back to the user preset).
    pub last_allocation_bytes: Option<f64>,
}

impl AttemptContext {
    /// The context of a first submission.
    pub fn first() -> Self {
        AttemptContext::default()
    }

    /// The context of retry `attempt` (≥ 1) whose previous attempt ran with
    /// `last_allocation_bytes`.
    pub fn retry(attempt: u32, last_allocation_bytes: f64) -> Self {
        AttemptContext {
            attempt,
            last_allocation_bytes: Some(last_allocation_bytes),
        }
    }
}

/// A memory sizing method that can be replayed through the online simulator.
///
/// The trait is split into a lock-friendly read path ([`predict`] on
/// `&self`) and a write path ([`observe`] on `&mut self`): many threads may
/// predict concurrently between model updates.
///
/// [`predict`]: MemoryPredictor::predict
/// [`observe`]: MemoryPredictor::observe
pub trait MemoryPredictor: Send {
    /// Human-readable method name (used in result tables).
    fn name(&self) -> String;

    /// Produces the allocation for an attempt of a task. Retry state — the
    /// attempt number and the previous attempt's allocation — arrives in
    /// `ctx`, owned by the engine; methods implement their own failure
    /// handling (doubling, node maximum, ...) based on it. Must not mutate
    /// learned state: all model updates belong in
    /// [`observe`](MemoryPredictor::observe).
    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction;

    /// Called after every finished attempt (successful or failed) with the
    /// monitoring record; online methods update their models here.
    fn observe(&mut self, record: &TaskRecord);
}

/// A trivial predictor that always allocates the user preset — the
/// `Workflow-Presets` sanity baseline of the paper. It lives here (rather
/// than in the baselines crate) because the simulator's own tests need a
/// predictor.
#[derive(Debug, Default, Clone)]
pub struct PresetPredictor;

impl MemoryPredictor for PresetPredictor {
    fn name(&self) -> String {
        "Workflow-Presets".to_string()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        // Presets are already conservative; on the (rare) failure double.
        let factor = 2.0_f64.powi(ctx.attempt as i32);
        Prediction::simple(task.preset_memory_bytes * factor)
    }

    fn observe(&mut self, _record: &TaskRecord) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submission() -> TaskSubmission {
        TaskSubmission {
            workflow: "rnaseq".into(),
            task_type: TaskTypeId::new("FastQC"),
            machine: MachineId::new("node"),
            sequence: 5,
            input_bytes: 2e9,
            preset_memory_bytes: 8e9,
        }
    }

    #[test]
    fn simple_prediction_has_no_telemetry() {
        let p = Prediction::simple(4e9);
        assert_eq!(p.allocation_bytes, 4e9);
        assert!(p.raw_estimate_bytes.is_none());
        assert!(p.selected_model.is_none());
    }

    #[test]
    fn preset_predictor_allocates_preset_and_doubles_on_retry() {
        let p = PresetPredictor;
        let task = submission();
        assert_eq!(
            p.predict(&task, AttemptContext::first()).allocation_bytes,
            8e9
        );
        assert_eq!(
            p.predict(&task, AttemptContext::retry(1, 8e9))
                .allocation_bytes,
            16e9
        );
        assert_eq!(
            p.predict(&task, AttemptContext::retry(2, 16e9))
                .allocation_bytes,
            32e9
        );
        assert_eq!(p.name(), "Workflow-Presets");
    }

    #[test]
    fn attempt_context_constructors() {
        assert_eq!(AttemptContext::first().attempt, 0);
        assert!(AttemptContext::first().last_allocation_bytes.is_none());
        let retry = AttemptContext::retry(2, 4e9);
        assert_eq!(retry.attempt, 2);
        assert_eq!(retry.last_allocation_bytes, Some(4e9));
    }
}
