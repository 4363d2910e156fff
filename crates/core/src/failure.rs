//! Failure handling (Section II-E, last paragraph).
//!
//! When a task fails despite the offset, Sizey allocates the maximum amount
//! of memory ever observed for this (task type, machine) combination; every
//! further attempt doubles the allocation until the machine's resources are
//! exhausted (both engines clamp every allocation to the largest node).

/// Computes the allocation for retry `attempt` (≥ 1) of a failed task.
///
/// * `max_observed_bytes` — the largest peak (or exhausted allocation) ever
///   recorded for this task type on this machine, if any.
/// * `failed_allocation_bytes` — the allocation of the attempt that just
///   failed; the retry never allocates less than this.
pub fn failure_allocation(
    max_observed_bytes: Option<f64>,
    failed_allocation_bytes: f64,
    attempt: u32,
) -> f64 {
    debug_assert!(attempt >= 1, "failure handling starts at attempt 1");
    let base = max_observed_bytes
        .unwrap_or(failed_allocation_bytes)
        .max(failed_allocation_bytes);
    base * 2.0_f64.powi(attempt.saturating_sub(1) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_retry_uses_max_observed_when_larger() {
        assert_eq!(failure_allocation(Some(10e9), 4e9, 1), 10e9);
    }

    #[test]
    fn first_retry_never_shrinks_below_failed_allocation() {
        assert_eq!(failure_allocation(Some(2e9), 4e9, 1), 4e9);
        assert_eq!(failure_allocation(None, 4e9, 1), 4e9);
    }

    #[test]
    fn subsequent_retries_double() {
        assert_eq!(failure_allocation(Some(10e9), 4e9, 2), 20e9);
        assert_eq!(failure_allocation(Some(10e9), 4e9, 3), 40e9);
        assert_eq!(failure_allocation(None, 4e9, 4), 32e9);
    }

    /// Fault-injection regression: a preempted/crash-killed attempt is
    /// requeued by the engines with an **unchanged** `AttemptContext`
    /// (attempt 0, no last allocation), so it must re-predict the same
    /// allocation — only a genuine OOM (attempt >= 1) enters the
    /// max-observed-then-double escalation this module implements.
    #[test]
    fn preemption_requeue_is_not_an_oom_escalation() {
        use crate::sizey::SizeyPredictor;
        use sizey_provenance::{MachineId, TaskTypeId};
        use sizey_sim::{AttemptContext, MemoryPredictor, TaskSubmission};

        let sizey = SizeyPredictor::with_defaults();
        let task = TaskSubmission {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: 0,
            input_bytes: 2e9,
            preset_memory_bytes: 8e9,
        };
        let first = AttemptContext {
            attempt: 0,
            last_allocation_bytes: None,
        };
        let original = sizey.predict(&task, first).allocation_bytes;
        // The requeue after a fault kill: same context, same allocation.
        assert_eq!(sizey.predict(&task, first).allocation_bytes, original);
        // A real OOM retry escalates (never below the failed allocation) and
        // then doubles per further attempt.
        let oom_retry = |attempt: u32| {
            sizey
                .predict(
                    &task,
                    AttemptContext {
                        attempt,
                        last_allocation_bytes: Some(original),
                    },
                )
                .allocation_bytes
        };
        assert!(oom_retry(1) >= original);
        assert_eq!(oom_retry(2), 2.0 * oom_retry(1));
    }
}
