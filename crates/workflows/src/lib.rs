//! # sizey-workflows
//!
//! Workflow model and calibrated synthetic workload generators for the six
//! nf-core-style workflows of the Sizey evaluation (eager, methylseq,
//! chipseq, rnaseq, mag, iwd).
//!
//! The paper evaluates on measured traces of real workflow executions. Those
//! traces are not publicly available, so this crate generates synthetic
//! workloads calibrated to every statistic the paper publishes about them
//! (Table I inventory, Fig. 1 memory distributions, Fig. 2 input/memory
//! relations, Fig. 7 resource spreads, the Prokka instance count of Fig. 12).
//!
//! * [`model`] — workflow / task type / task instance types,
//! * [`memfn`] — input, memory-response and runtime models,
//! * [`profiles`] — the six calibrated workflow profiles,
//! * [`generator`] — deterministic workload generation (scalable volume),
//! * [`stats`] — aggregation helpers used by the figure harnesses,
//! * [`sampling`] — distribution sampling primitives.
//!
//! ## Example
//!
//! ```
//! use sizey_workflows::generator::{generate_workflow, GeneratorConfig};
//! use sizey_workflows::profiles;
//!
//! let spec = profiles::rnaseq();
//! let instances = generate_workflow(&spec, &GeneratorConfig::scaled(0.05, 1));
//! assert!(!instances.is_empty());
//! // Instances arrive in submission order with concrete input sizes.
//! assert!(instances.iter().all(|i| i.input_bytes > 0.0));
//! ```

#![warn(missing_docs)]

pub mod generator;
pub mod memfn;
pub mod model;
pub mod profiles;
pub mod sampling;
pub mod stats;

pub use generator::{generate_workflow, stream_workflow, GeneratorConfig, WorkflowStream};
pub use memfn::{DriftSpec, InputModel, MemoryModel, RuntimeModel};
pub use model::{ResourceFootprint, TaskInstance, TaskTypeSpec, WorkflowSpec};
pub use profiles::{
    all_workflows, workflow_by_name, MACHINE_NAME, NODE_COUNT, NODE_MEMORY_BYTES, WORKFLOW_NAMES,
};
pub use stats::{
    inventory, peak_memory_by_task_type, workflow_resource_profile, Distribution, InventoryRow,
    WorkflowResourceProfile,
};
