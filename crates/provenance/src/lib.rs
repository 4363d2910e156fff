//! # sizey-provenance
//!
//! Provenance substrate for the Sizey reproduction.
//!
//! In the paper (Fig. 3), Sizey is attached to the provenance database of a
//! scientific workflow management system: on every task completion new
//! monitoring data is appended, and Sizey learns from it. In this workspace
//! each completed record is fed to the predictor's `observe`, and the
//! per-(task type, machine) training history lives in Sizey's model pools.
//! What this crate keeps is the record itself and the journal of records:
//!
//! * [`record::TaskRecord`] — one finished physical task execution with its
//!   measured input size, peak memory, allocation, runtime and outcome,
//! * [`store::ProvenanceStore`] — the observation journal: a thread-safe,
//!   append-only record log (optionally bounded) that predictors snapshot
//!   and restore from,
//! * [`trace_io`] — the plain-text trace codec for persisting and replaying
//!   collections of records.
//!
//! ## Example
//!
//! ```
//! use sizey_provenance::{ProvenanceStore, TaskRecord, TaskTypeId, MachineId, TaskOutcome};
//!
//! let store = ProvenanceStore::new();
//! store.insert(TaskRecord {
//!     workflow: "rnaseq".into(),
//!     task_type: TaskTypeId::new("FastQC"),
//!     machine: MachineId::new("node-1"),
//!     sequence: 0,
//!     input_bytes: 1.5e9,
//!     peak_memory_bytes: 0.8e9,
//!     allocated_memory_bytes: 4.0e9,
//!     runtime_seconds: 300.0,
//!     concurrent_tasks: 2,
//!     queue_delay_seconds: 0.0,
//!     outcome: TaskOutcome::Succeeded,
//! });
//! assert_eq!(store.len(), 1);
//! let journal = store.all_records();
//! assert_eq!(journal[0].task_type.as_str(), "FastQC");
//! ```

#![warn(missing_docs)]

pub mod record;
pub mod store;
pub mod trace_io;

pub use record::{
    bytes_to_gb, bytes_to_mb, gb_to_bytes, mb_to_bytes, MachineId, TaskMachineKey, TaskOutcome,
    TaskRecord, TaskTypeId,
};
pub use store::ProvenanceStore;
pub use trace_io::{from_trace_string, read_trace, to_trace_string, write_trace, TraceError};
