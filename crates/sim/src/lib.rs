//! # sizey-sim
//!
//! Online execution simulator substrate for the Sizey reproduction.
//!
//! The paper evaluates memory sizing methods by replaying measured workflow
//! traces through a simulated online environment with strict memory limits
//! and a configurable time-to-failure (Section III-A). This crate is that
//! environment, grown into a real discrete-event cluster simulator:
//!
//! * [`predictor::MemoryPredictor`] — the interface every sizing method
//!   (Sizey and all baselines) implements, split into a `&self` read path
//!   (`predict`) and a `&mut self` write path (`observe`); per-attempt retry
//!   state is engine-owned and passed in via [`predictor::AttemptContext`],
//! * [`inflight::RetryLedger`] — the engine's in-flight retry state, with
//!   eviction on success *and* terminal failure,
//! * [`config::SimulationConfig`] — time-to-failure, attempt budget, the
//!   8-node / 128 GB cluster dimensions, heterogeneous extra node pools and
//!   the scheduling policy,
//! * [`cluster`] — per-node occupancy with policy-driven node selection,
//! * [`faults`] — deterministic fault injection: node crashes, correlated
//!   crash storms, spot-pool preemptions and task kills compiled into
//!   virtual-clock events for the event-driven engine; killed attempts are
//!   requeued without consuming retry budget,
//! * [`queue`] — the virtual-time event heap and the pending-task queue,
//! * [`scheduler`] — the event-driven scheduler: tasks wait when no node
//!   fits (over-allocation costs makespan), [`SchedulePolicy`] picks how the
//!   queue drains, and one engine replays several workflows *concurrently*
//!   against one shared cluster. It has two entry points with one result,
//!   a [`MultiReplayReport`]: [`schedule_workflows`] takes materialised
//!   tenants and keeps every attempt event per tenant;
//!   [`schedule_workflows_streaming`] pulls instances from iterators and
//!   hands events to a sink, so memory is bounded by the in-flight working
//!   set,
//! * [`lifecycle`] — the snapshot/restore lifecycle:
//!   [`lifecycle::CheckpointPredictor`] captures a predictor's learned state
//!   as an event-sourced [`lifecycle::PredictorState`] journal that restores
//!   bit-identically on a fresh instance,
//! * [`replay`] — the paper's single-workflow replay engine: the strict
//!   predict→observe sequence per instance, untimed (nothing queues; the
//!   event-driven engine is the one timing model). Both engines cost every
//!   attempt with one private attempt model, so the paper's accounting rule
//!   exists once,
//! * [`accounting`] — the one result type, [`ReplayReport`], which every
//!   entry point of both engines returns, and the one accounting,
//!   [`ReplayAggregates`]: the online fold of wastage (GBh), failure,
//!   runtime, queue-delay and model-selection numbers that every engine
//!   runs per attempt and every figure of the evaluation reads.
//!
//! ## Example
//!
//! ```
//! use sizey_sim::{replay_workflow, PresetPredictor, SimulationConfig};
//! use sizey_workflows::{generate_workflow, GeneratorConfig, profiles};
//!
//! let spec = profiles::iwd();
//! let instances = generate_workflow(&spec, &GeneratorConfig::scaled(0.02, 1));
//! let mut presets = PresetPredictor;
//! let report = replay_workflow("iwd", &instances, &mut presets, &SimulationConfig::default());
//! assert!(report.total_wastage_gbh() > 0.0);
//! assert_eq!(report.aggregates.instances, instances.len());
//! ```

#![warn(missing_docs)]

pub mod accounting;
mod attempt;
pub mod cluster;
pub mod config;
pub mod faults;
pub mod inflight;
pub mod lifecycle;
pub mod predictor;
pub mod queue;
pub mod replay;
pub mod scheduler;

pub use accounting::{
    aggregate_method, AttemptEvent, AttemptSink, MethodAggregate, NullRecordSink, NullSink,
    RecordSink, ReplayAggregates, ReplayReport,
};
pub use attempt::MIN_ALLOCATION_BYTES;
pub use cluster::{Cluster, Node, Placement, FIT_TOLERANCE};
pub use config::{NodePoolSpec, SimulationConfig};
pub use faults::{
    CrashStorm, FaultAction, FaultCause, FaultEvent, FaultPlan, NodeCrash, PoolPreemption,
    TaskKillBurst,
};
pub use inflight::RetryLedger;
pub use lifecycle::{CheckpointPredictor, PredictorState, StateError};
pub use predictor::{AttemptContext, MemoryPredictor, Prediction, PresetPredictor, TaskSubmission};
pub use replay::{replay_workflow, replay_workflow_streaming};
pub use scheduler::{
    schedule_workflows, schedule_workflows_streaming, MultiReplayReport, SchedulePolicy,
    SchedulerStats, StreamingTenant, WorkflowTenant,
};
