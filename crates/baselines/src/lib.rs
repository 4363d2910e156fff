//! # sizey-baselines
//!
//! Re-implementations of the four state-of-the-art baselines Sizey is
//! compared against, plus the Workflow-Presets sanity baseline (re-exported
//! from the simulator crate):
//!
//! * [`witt_wastage::WittWastage`] — low-wastage linear allocation (Witt et
//!   al., HPCS 2019, IceCube),
//! * [`witt_lr::WittLr`] — linear regression with residual offset (Witt et
//!   al., HPCS 2019, feedback-based allocation),
//! * [`witt_percentile::WittPercentile`] — 95th-percentile predictor (same
//!   paper),
//! * [`tovar_ppm::TovarPpm`] — peak-probability job sizing with conservative
//!   retry (Tovar et al., TPDS 2018),
//! * [`sizey_sim::PresetPredictor`] — the workflow developers' memory
//!   requests.
//!
//! All methods implement [`sizey_sim::MemoryPredictor`] and are replayed
//! through the same online simulator as Sizey itself.
//!
//! Each method has one configuration, the one the comparison runs: its
//! parameters (`MIN_HISTORY`, [`witt_lr::OFFSET_SIGMAS`],
//! [`witt_wastage::CANDIDATE_QUANTILES`], [`witt_wastage::FAILURE_PENALTY`],
//! [`witt_percentile::PERCENTILE`], [`tovar_ppm::NODE_MEMORY_BYTES`],
//! [`tovar_ppm::HEADROOM`]) are constants of its module, and `new()` is the
//! only constructor.
//!
//! ## Example
//!
//! ```
//! use sizey_baselines::{WittPercentile, all_baselines};
//! use sizey_sim::{replay_workflow, SimulationConfig};
//! use sizey_workflows::{generate_workflow, GeneratorConfig, profiles};
//!
//! let instances = generate_workflow(&profiles::iwd(), &GeneratorConfig::scaled(0.02, 1));
//! let mut method = WittPercentile::new();
//! let report = replay_workflow("iwd", &instances, &mut method, &SimulationConfig::default());
//! assert_eq!(report.method, "Witt-Percentile");
//! assert_eq!(all_baselines().len(), 5);
//! ```

#![warn(missing_docs)]

pub mod history;
mod line;
pub mod tovar_ppm;
pub mod witt_lr;
pub mod witt_percentile;
pub mod witt_wastage;

pub use history::{History, Observation};
pub use sizey_sim::PresetPredictor;
pub use tovar_ppm::TovarPpm;
pub use witt_lr::WittLr;
pub use witt_percentile::WittPercentile;
pub use witt_wastage::WittWastage;

use sizey_sim::MemoryPredictor;

/// Builds one fresh instance of every baseline method (in the order used by
/// the paper's figures, Workflow-Presets last).
pub fn all_baselines() -> Vec<Box<dyn MemoryPredictor>> {
    vec![
        Box::new(WittWastage::new()),
        Box::new(WittLr::new()),
        Box::new(TovarPpm::new()),
        Box::new(WittPercentile::new()),
        Box::new(PresetPredictor),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_sim::{replay_workflow, SimulationConfig};
    use sizey_workflows::{generate_workflow, profiles, GeneratorConfig};

    #[test]
    fn all_baselines_have_distinct_names() {
        let names: Vec<String> = all_baselines().iter().map(|b| b.name()).collect();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(names.contains(&"Witt-Wastage".to_string()));
        assert!(names.contains(&"Workflow-Presets".to_string()));
    }

    #[test]
    fn witt_baselines_beat_presets_on_wastage() {
        // End-to-end sanity check of the paper's premise on the iwd
        // workflow: the Witt methods waste less than the raw presets.
        // (Tovar-PPM is intentionally excluded — Table II of the paper shows
        // it losing to the presets on iwd because its conservative
        // node-maximum retry is very expensive for such small tasks.)
        let spec = profiles::iwd();
        let instances = generate_workflow(&spec, &GeneratorConfig::scaled(0.08, 13));
        let config = SimulationConfig::default();

        let mut presets = PresetPredictor;
        let preset_report = replay_workflow("iwd", &instances, &mut presets, &config);

        for mut method in [
            Box::new(WittPercentile::new()) as Box<dyn MemoryPredictor>,
            Box::new(WittLr::new()),
            Box::new(WittWastage::new()),
        ] {
            let report = replay_workflow("iwd", &instances, method.as_mut(), &config);
            assert!(
                report.total_wastage_gbh() < preset_report.total_wastage_gbh(),
                "{} wasted {} GBh vs presets {} GBh",
                report.method,
                report.total_wastage_gbh(),
                preset_report.total_wastage_gbh()
            );
        }
    }

    #[test]
    fn tovar_ppm_replays_and_accounts_failures() {
        let spec = profiles::iwd();
        let instances = generate_workflow(&spec, &GeneratorConfig::scaled(0.05, 13));
        let config = SimulationConfig::default();
        let mut tovar = TovarPpm::new();
        let report = replay_workflow("iwd", &instances, &mut tovar, &config);
        assert!(report.total_wastage_gbh().is_finite());
        assert_eq!(report.aggregates.unfinished_instances, 0);
        // The conservative node-maximum retry means no task needs a third
        // attempt.
        assert!(report.events.iter().all(|e| e.attempt <= 1));
    }
}
