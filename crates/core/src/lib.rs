//! # sizey-core
//!
//! The Sizey online task-memory prediction method (Bader et al., CLUSTER
//! 2024), implemented on top of the workspace's own ML, provenance and
//! simulation substrates.
//!
//! Sizey maintains one model pool per (task type, machine) combination with
//! four regression model classes (linear, k-NN, MLP, random forest). Each
//! pool member is scored with the **Resource Allocation Quality (RAQ)**
//! score — a convex combination of its historical accuracy and the relative
//! efficiency of its current estimate — and a gating mechanism (Argmax or
//! softmax Interpolation) turns the individual estimates into one prediction.
//! A dynamically selected offset protects against under-prediction, failures
//! escalate to the maximum memory ever observed and then double, and models
//! are updated online after every task completion.
//!
//! * [`config`] — the settable parameters (α, gating, offset, retrain
//!   interval, ...) and the constants no caller varies,
//! * [`raq`] — accuracy score, efficiency score and RAQ (Eqs. 1–3),
//! * [`gating`] — Argmax and Interpolation gating (Eq. 4),
//! * [`offset`] — the four offset strategies and their dynamic selection,
//! * [`failure`] — max-observed-then-double failure handling,
//! * [`pool`] — the per-(task type, machine) model pool,
//! * [`sizey`] — the [`SizeyPredictor`] implementing
//!   [`sizey_sim::MemoryPredictor`] (read-path `predict`, write-path
//!   `observe`),
//! * [`serve`] — the concurrent serving layer: [`ConcurrentPredictor`]
//!   shards predictors by (task type, machine) behind per-shard read-write
//!   locks; its clones are the handles several tenants share one service
//!   through, and it checkpoints to the same
//!   [`PredictorState`](sizey_sim::PredictorState) as a serial predictor,
//! * [`service`] — the async serving front-end: [`AsyncService`] puts
//!   bounded per-shard request queues with micro-batching and admission
//!   control in front of the write path, and serves predictions lock-free
//!   from epoch-swapped immutable model snapshots
//!   ([`service::snapshot::SnapshotCell`]).
//!
//! ## Example
//!
//! ```
//! use sizey_core::SizeyPredictor;
//! use sizey_sim::{replay_workflow, SimulationConfig};
//! use sizey_workflows::{generate_workflow, GeneratorConfig, profiles};
//!
//! let instances = generate_workflow(&profiles::iwd(), &GeneratorConfig::scaled(0.03, 7));
//! let mut sizey = SizeyPredictor::with_defaults();
//! let report = replay_workflow("iwd", &instances, &mut sizey, &SimulationConfig::default());
//! assert_eq!(report.method, "Sizey");
//! assert!(report.total_wastage_gbh() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod failure;
pub mod gating;
pub mod offset;
pub mod pool;
pub mod raq;
#[cfg(test)]
mod reference;
pub mod serve;
pub mod service;
pub mod sizey;

pub use config::{DriftPolicy, GatingStrategy, OffsetMode, SizeyConfig};
pub use failure::failure_allocation;
pub use gating::gate_with;
pub use offset::{select_dynamic_offset_with, OffsetScratch, OffsetStrategy};
pub use pool::{GatedOutcome, ModelPool, PoolScratch};
pub use raq::raq_score;
pub use serve::{ConcurrentPredictor, ConcurrentSizey};
pub use service::{AdmissionPolicy, AsyncService, AsyncSizey, ServiceConfig, ServiceStats};
pub use sizey::SizeyPredictor;

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_sim::{replay_workflow, PresetPredictor, SimulationConfig};
    use sizey_workflows::{generate_workflow, profiles, GeneratorConfig};

    #[test]
    fn sizey_wastes_less_than_presets_end_to_end() {
        let spec = profiles::iwd();
        let instances = generate_workflow(&spec, &GeneratorConfig::scaled(0.08, 21));
        let config = SimulationConfig::default();

        let mut presets = PresetPredictor;
        let preset_report = replay_workflow("iwd", &instances, &mut presets, &config);

        let mut sizey = SizeyPredictor::with_defaults();
        let sizey_report = replay_workflow("iwd", &instances, &mut sizey, &config);

        assert!(
            sizey_report.total_wastage_gbh() < preset_report.total_wastage_gbh() / 2.0,
            "Sizey {} GBh should be well below the presets' {} GBh",
            sizey_report.total_wastage_gbh(),
            preset_report.total_wastage_gbh()
        );
        assert_eq!(sizey_report.aggregates.unfinished_instances, 0);
    }
}
