//! Core provenance record types.
//!
//! A [`TaskRecord`] captures one finished (or failed) physical task instance:
//! which workflow and abstract task type it belongs to, which machine
//! configuration it ran on, its input size, the memory it was allocated, the
//! peak memory it actually used, and its runtime. The Sizey predictor, the
//! baselines and the simulator all exchange these records.
//!
//! A task's identity (its workflow, [`TaskTypeId`] and [`MachineId`]) is a
//! shared `Arc<str>` handle: the generator mints one per workflow, task type
//! and machine, and every instance, submission, record and attempt event
//! drawn from it clones the pointer, not the string. A
//! [`TaskMachineKey`] is two such handles, so a map keyed by it is probed
//! with an owned key that costs two reference-count increments to build.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of an abstract task type (the paper's black-box task template
/// `b ∈ B`), e.g. `MarkDuplicates` or `FastQC`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskTypeId(pub Arc<str>);

impl TaskTypeId {
    /// Creates a task type id from anything string-like; an `Arc<str>` is
    /// shared, not copied.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        TaskTypeId(name.into())
    }

    /// The task type name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TaskTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TaskTypeId {
    fn from(s: &str) -> Self {
        TaskTypeId::new(s)
    }
}

/// Identifier of a machine configuration (node class) in the cluster.
///
/// Sizey's model granularity is per (task type, machine type) — Fig. 4 of the
/// paper — so the machine id is part of every provenance key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MachineId(pub Arc<str>);

impl MachineId {
    /// Creates a machine id from anything string-like; an `Arc<str>` is
    /// shared, not copied.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        MachineId(name.into())
    }

    /// The machine name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for MachineId {
    fn from(s: &str) -> Self {
        MachineId::new(s)
    }
}

/// The key under which Sizey maintains one model pool: a task type executed
/// on a machine configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskMachineKey {
    /// The abstract task type.
    pub task_type: TaskTypeId,
    /// The machine configuration.
    pub machine: MachineId,
}

impl TaskMachineKey {
    /// Creates a key.
    pub fn new(task_type: impl Into<Arc<str>>, machine: impl Into<Arc<str>>) -> Self {
        TaskMachineKey {
            task_type: TaskTypeId::new(task_type),
            machine: MachineId::new(machine),
        }
    }
}

impl fmt::Display for TaskMachineKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.task_type, self.machine)
    }
}

/// Outcome of a physical task execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskOutcome {
    /// The task finished within its memory allocation.
    Succeeded,
    /// The task exceeded its memory allocation and was killed by the resource
    /// manager (assumption A3 of the paper: strict limits).
    FailedOutOfMemory,
}

/// One finished physical task instance with its measured resource usage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Workflow the task belongs to (e.g. `rnaseq`).
    pub workflow: Arc<str>,
    /// Abstract task type.
    pub task_type: TaskTypeId,
    /// Machine configuration the instance ran on.
    pub machine: MachineId,
    /// Monotonic submission index within the workflow execution; provenance
    /// queries return records ordered by this field.
    pub sequence: u64,
    /// Total input size in bytes (the paper's primary feature).
    pub input_bytes: f64,
    /// Peak memory actually consumed, in bytes.
    pub peak_memory_bytes: f64,
    /// Memory that was allocated for the attempt, in bytes.
    pub allocated_memory_bytes: f64,
    /// Wall-clock runtime of the attempt in seconds.
    pub runtime_seconds: f64,
    /// Number of tasks running on the cluster when this attempt started,
    /// itself included. Journalled context, not a model feature. Zero from
    /// the untimed sequential replay.
    pub concurrent_tasks: u32,
    /// Time the attempt spent waiting in the cluster's pending queue before
    /// resources were granted, in seconds. Zero when the task started
    /// immediately, and always from the untimed sequential replay. One
    /// tenant's over-allocation shows up here as queue delay for everyone.
    pub queue_delay_seconds: f64,
    /// Outcome of the attempt.
    pub outcome: TaskOutcome,
}

impl TaskRecord {
    /// The (task type, machine) key of this record.
    pub fn key(&self) -> TaskMachineKey {
        TaskMachineKey {
            task_type: self.task_type.clone(),
            machine: self.machine.clone(),
        }
    }

    /// The regression target: peak memory in bytes.
    pub fn target(&self) -> f64 {
        self.peak_memory_bytes
    }

    /// Memory wasted by this attempt in bytes (allocated minus used, floored
    /// at zero; failed attempts waste their full allocation since the work
    /// must be redone).
    pub fn wasted_bytes(&self) -> f64 {
        match self.outcome {
            TaskOutcome::Succeeded => {
                (self.allocated_memory_bytes - self.peak_memory_bytes).max(0.0)
            }
            TaskOutcome::FailedOutOfMemory => self.allocated_memory_bytes,
        }
    }

    /// Memory wastage over time in gigabyte-hours (the paper's headline
    /// metric).
    pub fn wastage_gbh(&self) -> f64 {
        bytes_to_gb(self.wasted_bytes()) * self.runtime_seconds / 3600.0
    }
}

/// Converts bytes to gigabytes (SI, 1 GB = 1e9 bytes, matching the paper's
/// GB/GBh units).
pub fn bytes_to_gb(bytes: f64) -> f64 {
    bytes / 1e9
}

/// Converts gigabytes to bytes.
pub fn gb_to_bytes(gb: f64) -> f64 {
    gb * 1e9
}

/// Converts bytes to mebibyte-free megabytes (1 MB = 1e6 bytes).
pub fn bytes_to_mb(bytes: f64) -> f64 {
    bytes / 1e6
}

/// Converts megabytes to bytes.
pub fn mb_to_bytes(mb: f64) -> f64 {
    mb * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(outcome: TaskOutcome) -> TaskRecord {
        TaskRecord {
            workflow: "rnaseq".into(),
            task_type: TaskTypeId::new("FastQC"),
            machine: MachineId::new("node-a"),
            sequence: 3,
            input_bytes: 2e9,
            peak_memory_bytes: 1e9,
            allocated_memory_bytes: 4e9,
            runtime_seconds: 1800.0,
            concurrent_tasks: 4,
            queue_delay_seconds: 0.0,
            outcome,
        }
    }

    #[test]
    fn key_combines_task_and_machine() {
        let r = record(TaskOutcome::Succeeded);
        let k = r.key();
        assert_eq!(k.task_type.as_str(), "FastQC");
        assert_eq!(k.machine.as_str(), "node-a");
        assert_eq!(k.to_string(), "FastQC@node-a");
    }

    #[test]
    fn target_is_the_peak() {
        let r = record(TaskOutcome::Succeeded);
        assert_eq!(r.target(), 1e9);
    }

    #[test]
    fn wasted_bytes_success_is_allocation_minus_usage() {
        let r = record(TaskOutcome::Succeeded);
        assert_eq!(r.wasted_bytes(), 3e9);
    }

    #[test]
    fn wasted_bytes_failure_is_full_allocation() {
        let r = record(TaskOutcome::FailedOutOfMemory);
        assert_eq!(r.wasted_bytes(), 4e9);
    }

    #[test]
    fn wasted_bytes_never_negative() {
        let mut r = record(TaskOutcome::Succeeded);
        r.allocated_memory_bytes = 0.5e9;
        assert_eq!(r.wasted_bytes(), 0.0);
    }

    #[test]
    fn wastage_gbh_matches_manual_computation() {
        let r = record(TaskOutcome::Succeeded);
        // 3 GB wasted for 0.5 hours = 1.5 GBh
        assert!((r.wastage_gbh() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn unit_conversions_round_trip() {
        assert_eq!(gb_to_bytes(bytes_to_gb(5e9)), 5e9);
        assert_eq!(mb_to_bytes(bytes_to_mb(3e6)), 3e6);
        assert_eq!(bytes_to_mb(1e6), 1.0);
        assert_eq!(bytes_to_gb(1e9), 1.0);
    }

    #[test]
    fn ids_support_display_and_from_str() {
        let t: TaskTypeId = "mpileup".into();
        let m: MachineId = "node-1".into();
        assert_eq!(t.to_string(), "mpileup");
        assert_eq!(m.to_string(), "node-1");
    }
}
