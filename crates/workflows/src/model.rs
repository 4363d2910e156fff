//! Workflow, task-type and task-instance model.
//!
//! A workflow is a set of abstract task types (the paper's black-box
//! templates `B`); every task type is instantiated into many physical task
//! instances `T` with concrete inputs. The DAG edges only influence
//! scheduling order, which is out of scope per assumption A2, so instances
//! carry a submission sequence number instead of explicit edges.

use crate::memfn::{InputModel, MemoryModel, RuntimeModel};
use serde::{Deserialize, Serialize};
use sizey_provenance::{MachineId, TaskTypeId};
use std::sync::Arc;

/// Qualitative resource footprint of a task type, used to reproduce the
/// CPU / I/O distributions of the paper's Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceFootprint {
    /// Mean CPU utilisation in percent (can exceed 100 for multi-threaded
    /// tools, as in the paper's log-scale plot).
    pub cpu_utilization_pct: f64,
    /// Spread (coefficient of variation) of the CPU utilisation.
    pub cpu_cv: f64,
    /// I/O read volume as a multiple of the input size.
    pub io_read_factor: f64,
    /// I/O write volume as a multiple of the input size.
    pub io_write_factor: f64,
}

impl Default for ResourceFootprint {
    fn default() -> Self {
        ResourceFootprint {
            cpu_utilization_pct: 100.0,
            cpu_cv: 0.3,
            io_read_factor: 1.0,
            io_write_factor: 0.5,
        }
    }
}

/// Specification of one abstract task type within a workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskTypeSpec {
    /// Task type name (unique within the workflow), shared with every
    /// [`TaskTypeId`] minted from this spec.
    pub name: Arc<str>,
    /// Number of physical instances generated per workflow execution.
    pub instances: usize,
    /// Input-size distribution.
    pub input_model: InputModel,
    /// Input-size to peak-memory relationship.
    pub memory_model: MemoryModel,
    /// Input-size to runtime relationship.
    pub runtime_model: RuntimeModel,
    /// CPU / I/O footprint for the Fig. 7 reproduction.
    pub footprint: ResourceFootprint,
    /// The user-provided memory request from the workflow definition
    /// (the Workflow-Presets baseline), in bytes.
    pub preset_memory_bytes: f64,
}

impl TaskTypeSpec {
    /// The task type id used in provenance records: a handle on `name`,
    /// not a copy of it.
    pub fn id(&self) -> TaskTypeId {
        TaskTypeId::new(self.name.clone())
    }
}

/// Specification of a complete workflow: its name and task types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowSpec {
    /// Workflow name, e.g. `rnaseq`, shared with every instance generated
    /// from this spec.
    pub name: Arc<str>,
    /// All task types of the workflow.
    pub task_types: Vec<TaskTypeSpec>,
}

impl WorkflowSpec {
    /// Number of task types (Table I, column 2).
    pub fn n_task_types(&self) -> usize {
        self.task_types.len()
    }

    /// Total number of physical task instances.
    pub fn total_instances(&self) -> usize {
        self.task_types.iter().map(|t| t.instances).sum()
    }

    /// Average number of instances per task type (Table I, column 3).
    pub fn avg_instances_per_type(&self) -> f64 {
        if self.task_types.is_empty() {
            return 0.0;
        }
        self.total_instances() as f64 / self.n_task_types() as f64
    }

    /// Looks up a task type spec by name.
    pub fn task_type(&self, name: &str) -> Option<&TaskTypeSpec> {
        self.task_types.iter().find(|t| &*t.name == name)
    }
}

/// One generated physical task instance ready to be replayed through the
/// online simulator. The "true" peak memory and runtime are what the task
/// *would* consume — the predictor never sees them before completion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskInstance {
    /// Workflow this instance belongs to.
    pub workflow: Arc<str>,
    /// Abstract task type.
    pub task_type: TaskTypeId,
    /// Machine configuration the instance is placed on.
    pub machine: MachineId,
    /// Submission order within the workflow execution.
    pub sequence: u64,
    /// Input size in bytes (visible to predictors at submission time).
    pub input_bytes: f64,
    /// Ground-truth peak memory consumption in bytes.
    pub true_peak_bytes: f64,
    /// Ground-truth runtime in seconds (for a successful attempt).
    pub base_runtime_seconds: f64,
    /// The workflow developer's memory request for this task type, in bytes.
    pub preset_memory_bytes: f64,
    /// CPU utilisation sample in percent (Fig. 7 reproduction only).
    pub cpu_utilization_pct: f64,
    /// I/O read volume in bytes (Fig. 7 reproduction only).
    pub io_read_bytes: f64,
    /// I/O write volume in bytes (Fig. 7 reproduction only).
    pub io_write_bytes: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, instances: usize) -> TaskTypeSpec {
        TaskTypeSpec {
            name: name.into(),
            instances,
            input_model: InputModel::Uniform { lo: 1e9, hi: 2e9 },
            memory_model: MemoryModel::Linear {
                slope: 2.0,
                intercept: 1e9,
                noise_cv: 0.05,
            },
            runtime_model: RuntimeModel {
                base_seconds: 60.0,
                seconds_per_gb: 10.0,
                noise_cv: 0.1,
            },
            footprint: ResourceFootprint::default(),
            preset_memory_bytes: 8e9,
        }
    }

    #[test]
    fn workflow_inventory_matches_spec() {
        let wf = WorkflowSpec {
            name: "demo".into(),
            task_types: vec![spec("a", 10), spec("b", 30)],
        };
        assert_eq!(wf.n_task_types(), 2);
        assert_eq!(wf.total_instances(), 40);
        assert_eq!(wf.avg_instances_per_type(), 20.0);
        assert!(wf.task_type("a").is_some());
        assert!(wf.task_type("missing").is_none());
    }

    #[test]
    fn empty_workflow_has_zero_average() {
        let wf = WorkflowSpec {
            name: "empty".into(),
            task_types: vec![],
        };
        assert_eq!(wf.avg_instances_per_type(), 0.0);
    }

    #[test]
    fn task_type_id_round_trips_name() {
        assert_eq!(spec("lcextrap", 1).id(), TaskTypeId::new("lcextrap"));
    }
}
