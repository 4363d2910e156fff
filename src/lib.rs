//! # sizey-suite
//!
//! Workspace-level façade for the Sizey reproduction. The actual
//! functionality lives in the member crates; this crate re-exports the most
//! commonly used entry points so that the examples under `examples/` and the
//! integration tests under `tests/` can use one coherent prelude.
//!
//! ```
//! use sizey_suite::prelude::*;
//!
//! let instances = generate_workflow(&profiles::iwd(), &GeneratorConfig::scaled(0.02, 1));
//! let mut sizey = SizeyPredictor::with_defaults();
//! let report = replay_workflow("iwd", &instances, &mut sizey, &SimulationConfig::default());
//! assert_eq!(report.method, "Sizey");
//! assert_eq!(report.aggregates.unfinished_instances, 0);
//! ```

#![warn(missing_docs)]

/// One-stop imports for examples and integration tests.
pub mod prelude {
    pub use sizey_baselines::{PresetPredictor, TovarPpm, WittLr, WittPercentile, WittWastage};
    pub use sizey_bench::{
        aggregate_sweep, ExperimentSpec, MethodSpec, RecoveryTracker, SpecError, SweepCell,
        SweepRow, RECOVERY_BAND, RECOVERY_WINDOW,
    };
    pub use sizey_core::{
        AdmissionPolicy, AsyncService, AsyncSizey, ConcurrentPredictor, ConcurrentSizey,
        GatingStrategy, OffsetMode, OffsetStrategy, ServiceConfig, ServiceStats, SizeyConfig,
        SizeyPredictor,
    };
    pub use sizey_ml::{Dataset, ModelClass, Regressor};
    pub use sizey_provenance::{
        MachineId, ProvenanceStore, TaskMachineKey, TaskOutcome, TaskRecord, TaskTypeId,
    };
    pub use sizey_sim::{
        replay_workflow, replay_workflow_streaming, schedule_workflows,
        schedule_workflows_streaming, AttemptContext, AttemptSink, CheckpointPredictor, CrashStorm,
        FaultPlan, MemoryPredictor, MultiReplayReport, NodeCrash, NodePoolSpec, NullRecordSink,
        NullSink, PoolPreemption, Prediction, PredictorState, RecordSink, ReplayAggregates,
        ReplayReport, SchedulePolicy, SchedulerStats, SimulationConfig, StateError,
        StreamingTenant, TaskKillBurst, TaskSubmission, WorkflowTenant,
    };
    pub use sizey_workflows::{
        all_workflows, generate_workflow, profiles, stream_workflow, DriftSpec, GeneratorConfig,
        TaskInstance, WorkflowSpec, WorkflowStream,
    };
}

pub use prelude::*;

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let instances = generate_workflow(&profiles::iwd(), &GeneratorConfig::scaled(0.02, 5));
        let mut sizey = SizeyPredictor::with_defaults();
        let report = replay_workflow("iwd", &instances, &mut sizey, &SimulationConfig::default());
        assert_eq!(report.aggregates.instances, instances.len());
    }
}
