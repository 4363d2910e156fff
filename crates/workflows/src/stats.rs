//! Workload statistics used by the figure-reproduction harnesses.
//!
//! These helpers aggregate generated task instances into exactly the numbers
//! the paper plots: per-task-type peak-memory distributions (Fig. 1),
//! input-size/memory scatter data (Fig. 2), per-workflow resource
//! distributions (Fig. 7) and the Table I inventory.

use crate::model::{TaskInstance, WorkflowSpec};
use sizey_provenance::TaskTypeId;
use std::collections::BTreeMap;

/// Simple distribution summary (quartiles and extremes) of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Distribution {
    /// Number of observations.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Distribution {
    /// Computes the distribution summary of a sample. Returns an all-zero
    /// summary for an empty slice.
    pub fn from_values(values: &[f64]) -> Self {
        if values.is_empty() {
            return Distribution {
                count: 0,
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0.0,
                mean: 0.0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let q = |p: f64| -> f64 {
            let rank = p * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                sorted[lo] * (hi as f64 - rank) + sorted[hi] * (rank - lo as f64)
            }
        };
        Distribution {
            count: sorted.len(),
            min: sorted[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }
}

/// Peak-memory distribution per task type (Fig. 1).
pub fn peak_memory_by_task_type(instances: &[TaskInstance]) -> BTreeMap<TaskTypeId, Distribution> {
    let mut grouped: BTreeMap<TaskTypeId, Vec<f64>> = BTreeMap::new();
    for inst in instances {
        grouped
            .entry(inst.task_type.clone())
            .or_default()
            .push(inst.true_peak_bytes);
    }
    grouped
        .into_iter()
        .map(|(k, v)| (k, Distribution::from_values(&v)))
        .collect()
}

/// Input-size / peak-memory scatter points for one task type (Fig. 2).
pub fn input_memory_scatter(instances: &[TaskInstance], task_type: &str) -> Vec<(f64, f64)> {
    instances
        .iter()
        .filter(|i| i.task_type.as_str() == task_type)
        .map(|i| (i.input_bytes, i.true_peak_bytes))
        .collect()
}

/// Per-workflow resource distributions (Fig. 7): CPU utilisation (%), memory
/// (MB), I/O read (MB), I/O write (MB).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowResourceProfile {
    /// Workflow name.
    pub workflow: String,
    /// CPU utilisation distribution in percent.
    pub cpu_utilization_pct: Distribution,
    /// Peak-memory distribution in megabytes.
    pub memory_mb: Distribution,
    /// I/O read distribution in megabytes.
    pub io_read_mb: Distribution,
    /// I/O write distribution in megabytes.
    pub io_write_mb: Distribution,
}

/// Computes the Fig. 7 resource profile of one generated workflow.
pub fn workflow_resource_profile(
    workflow: &str,
    instances: &[TaskInstance],
) -> WorkflowResourceProfile {
    let cpu: Vec<f64> = instances.iter().map(|i| i.cpu_utilization_pct).collect();
    let mem: Vec<f64> = instances.iter().map(|i| i.true_peak_bytes / 1e6).collect();
    let read: Vec<f64> = instances.iter().map(|i| i.io_read_bytes / 1e6).collect();
    let write: Vec<f64> = instances.iter().map(|i| i.io_write_bytes / 1e6).collect();
    WorkflowResourceProfile {
        workflow: workflow.to_string(),
        cpu_utilization_pct: Distribution::from_values(&cpu),
        memory_mb: Distribution::from_values(&mem),
        io_read_mb: Distribution::from_values(&read),
        io_write_mb: Distribution::from_values(&write),
    }
}

/// One row of the Table I inventory.
#[derive(Debug, Clone, PartialEq)]
pub struct InventoryRow {
    /// Workflow name.
    pub workflow: String,
    /// Number of task types.
    pub task_types: usize,
    /// Average number of task instances per task type.
    pub avg_instances_per_type: f64,
}

/// Computes the Table I inventory for a set of workflow specs.
pub fn inventory(specs: &[WorkflowSpec]) -> Vec<InventoryRow> {
    specs
        .iter()
        .map(|s| InventoryRow {
            workflow: s.name.to_string(),
            task_types: s.n_task_types(),
            avg_instances_per_type: s.avg_instances_per_type(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_workflow, GeneratorConfig};
    use crate::profiles;

    fn sample_instances() -> Vec<TaskInstance> {
        generate_workflow(&profiles::iwd(), &GeneratorConfig::scaled(0.1, 3))
    }

    #[test]
    fn distribution_quartiles_are_ordered() {
        let d = Distribution::from_values(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(d.count, 5);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 5.0);
        assert_eq!(d.median, 3.0);
        assert!(d.q1 <= d.median && d.median <= d.q3);
        assert_eq!(d.mean, 3.0);
    }

    #[test]
    fn distribution_of_empty_slice_is_zero() {
        let d = Distribution::from_values(&[]);
        assert_eq!(d.count, 0);
        assert_eq!(d.max, 0.0);
    }

    #[test]
    fn peak_memory_by_task_type_groups_all_instances() {
        let instances = sample_instances();
        let by_type = peak_memory_by_task_type(&instances);
        assert_eq!(by_type.len(), profiles::iwd().n_task_types());
        let total: usize = by_type.values().map(|d| d.count).sum();
        assert_eq!(total, instances.len());
    }

    #[test]
    fn scatter_returns_only_requested_type() {
        let instances = sample_instances();
        let scatter = input_memory_scatter(&instances, "Preprocessing");
        assert!(!scatter.is_empty());
        let expected = instances
            .iter()
            .filter(|i| i.task_type.as_str() == "Preprocessing")
            .count();
        assert_eq!(scatter.len(), expected);
        assert!(scatter.iter().all(|&(x, y)| x > 0.0 && y > 0.0));
    }

    #[test]
    fn resource_profile_has_positive_medians() {
        let instances = sample_instances();
        let profile = workflow_resource_profile("iwd", &instances);
        assert!(profile.cpu_utilization_pct.median > 0.0);
        assert!(profile.memory_mb.median > 0.0);
        assert!(profile.io_read_mb.median > 0.0);
        assert!(profile.io_write_mb.median > 0.0);
    }

    #[test]
    fn inventory_matches_table_i() {
        let rows = inventory(&profiles::all_workflows());
        assert_eq!(rows.len(), 6);
        let mag = rows.iter().find(|r| r.workflow == "mag").unwrap();
        assert_eq!(mag.task_types, 8);
        assert!((mag.avg_instances_per_type - 720.0).abs() < 0.5);
    }
}
