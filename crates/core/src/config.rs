//! Configuration of the Sizey predictor.

use crate::offset::OffsetStrategy;
use sizey_ml::model::ModelClass;

/// How the gating mechanism combines the pool's individual predictions
/// (Section II-D of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GatingStrategy {
    /// Use only the model with the highest RAQ score.
    Argmax,
    /// Softmax-weight all models by `exp(beta * RAQ)` (Eq. 4).
    Interpolation {
        /// Sharpness of the softmax; larger values approach Argmax. §II-D's
        /// Eq. 4 names it; the default 8.0 is this repo's choice.
        beta: f64,
    },
}

impl Default for GatingStrategy {
    fn default() -> Self {
        // The paper's experiments use the Interpolation strategy.
        GatingStrategy::Interpolation { beta: 8.0 }
    }
}

/// How the safety offset added on top of the aggregated prediction is chosen
/// (Section II-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OffsetMode {
    /// Dynamically pick, per task type, the offset strategy that would have
    /// caused the least wastage on the history (the paper's default).
    #[default]
    Dynamic,
    /// Always use one fixed strategy.
    Fixed(OffsetStrategy),
    /// Do not add any offset (used for the raw-error analysis of Fig. 12).
    None,
}

/// Minimum number of successful observations of a task type before the
/// models are used; below this the user preset is allocated (the paper's
/// behaviour for unknown task types). The value 3 is this repo's choice.
pub const MIN_HISTORY: usize = 3;

/// While a task type has fewer successful observations than this, the
/// allocation keeps at least 15 % head-room over the raw model estimate
/// (unless the offset mode is [`OffsetMode::None`], which promises the raw
/// estimate untouched). This guards the cold-start phase, where the offset
/// histories are still too short to protect against under-prediction; once
/// enough data exists the models and offsets take over completely. The
/// guard, its 15 % (the `1.15` factor in `SizeyPredictor::predict`) and the
/// 10 observations are this repo's choice.
pub const COLD_START_OBSERVATIONS: usize = 10;

/// Completions between two scheduled full retrains in the default
/// configuration (Fig. 9's "Sizey-Incremental"). The value 25 is this
/// repo's choice.
pub const DEFAULT_RETRAIN_INTERVAL: usize = 25;

/// Number of recent observations the drift detector's under-prediction
/// rate is measured over. The detector only fires on a full window, so it
/// cannot trip during the first few observations after a reset. The value
/// 12 is this repo's choice.
pub const DRIFT_WINDOW: usize = 12;

/// Under-prediction rate at or above which the drift detector fires. The
/// value 0.6 is this repo's choice.
pub const DRIFT_THRESHOLD: f64 = 0.6;

/// On a drift trigger, the pool keeps only this many most recent successful
/// observations as training data before retraining. Trimming is what lets
/// the retrained models track the *new* regime instead of averaging it with
/// the stale one. The value 40 is this repo's choice.
pub const DRIFT_KEEP_RECENT: usize = 40;

/// How the predictor responds to concept drift in a task type's memory
/// behaviour (a workload update shifting peaks mid-run).
///
/// The detector watches, per model pool, a rolling window of the last
/// [`DRIFT_WINDOW`] observations and flags each as *under-predicted* (the
/// pool's raw aggregate estimate fell below the actual peak, or the attempt
/// ran out of memory). When the under-prediction rate over a full window
/// reaches [`DRIFT_THRESHOLD`], the pool keeps only its [`DRIFT_KEEP_RECENT`]
/// most recent observations and forces a full retrain, then the window
/// restarts. Detection state is a deterministic function of the observation
/// stream, so snapshot/restore by journal replay reconstructs it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriftPolicy {
    /// No drift detection (the paper's setup).
    #[default]
    Off,
    /// Rolling under-prediction-rate detector with a triggered full retrain.
    Retrain,
}

/// Complete configuration of the Sizey predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeyConfig {
    /// The RAQ weighting hyper-parameter α ∈ [0, 1] (§II-C, Eq. 3): 0
    /// favours accurate models, 1 punishes large outlying estimates. The
    /// default 0.0 is the value the paper's experiments use.
    pub alpha: f64,
    /// Gating strategy combining the pool outputs.
    pub gating: GatingStrategy,
    /// Offset strategy protecting against under-prediction.
    pub offset: OffsetMode,
    /// How models learn from each completed task (Section II-B / Fig. 9):
    /// every completion updates every pool member incrementally (including
    /// a warm-start MLP step), and every `retrain_interval`-th completion
    /// fully retrains the pool instead. A due retrain runs inside the
    /// `observe` that made it due. 1 retrains on every completion
    /// ("Sizey-Full"), 0 never retrains fully, and the default is
    /// [`DEFAULT_RETRAIN_INTERVAL`].
    pub retrain_interval: usize,
    /// Model classes in the pool (defaults to all four of Fig. 5). Each
    /// pool builds one member per distinct class, in the order each class
    /// first occurs: a class listed twice still gets one member.
    pub model_classes: Vec<ModelClass>,
    /// Whether a full retrain runs grid-search hyper-parameter optimisation.
    pub hyperparameter_optimization: bool,
    /// Seed for the stochastic pool members (MLP, random forest).
    pub seed: u64,
    /// Opt-in bounded history for million-task streaming replays. When set,
    /// each pool keeps at most this many recent successful observations as
    /// training data (trimmed amortised, with a full retrain on the trimmed
    /// window so models never depend on dropped rows), the prequential and
    /// offset histories are trimmed to their fixed read windows, and the
    /// predictor's provenance store is bounded too — total predictor memory
    /// becomes `O(pools × window)` instead of `O(observations)`.
    ///
    /// `None` (the default) retains everything and reproduces the paper
    /// setup exactly. **Trade-off:** a bounded predictor's event-sourced
    /// snapshot only contains the retained journal suffix, and replaying a
    /// suffix would rebuild a different predictor. Once records have been
    /// evicted, the snapshot records how many, and
    /// [`restore`](sizey_sim::CheckpointPredictor::restore) refuses it with
    /// [`StateError::TruncatedJournal`](sizey_sim::StateError::TruncatedJournal).
    pub history_window: Option<usize>,
    /// Drift response: off by default (bit-identical to the paper setup);
    /// see [`DriftPolicy`].
    pub drift: DriftPolicy,
}

/// The paper's experimental configuration: α = 0, Interpolation gating,
/// dynamic offset, all four model classes and incremental updates with a
/// full retrain every [`DEFAULT_RETRAIN_INTERVAL`] completions (Fig. 9's
/// "Sizey-Incremental").
impl Default for SizeyConfig {
    fn default() -> Self {
        SizeyConfig {
            alpha: 0.0,
            gating: GatingStrategy::default(),
            offset: OffsetMode::default(),
            retrain_interval: DEFAULT_RETRAIN_INTERVAL,
            model_classes: ModelClass::ALL.to_vec(),
            hyperparameter_optimization: false,
            seed: 42,
            history_window: None,
            drift: DriftPolicy::Off,
        }
    }
}

impl SizeyConfig {
    /// Configuration for the full-retraining variant of Fig. 9 ("Sizey-Full"):
    /// a retrain on every completion, with hyper-parameter optimisation.
    pub fn full_retraining() -> Self {
        SizeyConfig {
            retrain_interval: 1,
            hyperparameter_optimization: true,
            ..SizeyConfig::default()
        }
    }

    /// Returns a copy with a different α.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy with a different gating strategy.
    pub fn with_gating(mut self, gating: GatingStrategy) -> Self {
        self.gating = gating;
        self
    }

    /// Returns a copy restricted to a subset of model classes (used by the
    /// pool-composition ablation).
    pub fn with_model_classes(mut self, classes: Vec<ModelClass>) -> Self {
        self.model_classes = classes;
        self
    }

    /// Returns a copy with bounded per-pool history (see
    /// [`history_window`](SizeyConfig::history_window)). A window of 0 is
    /// clamped to 1.
    pub fn with_history_window(mut self, window: usize) -> Self {
        self.history_window = Some(window.max(1));
        self
    }

    /// Returns a copy with a different drift-response policy.
    pub fn with_drift_policy(mut self, drift: DriftPolicy) -> Self {
        self.drift = drift;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_setup() {
        let c = SizeyConfig::default();
        assert_eq!(c.alpha, 0.0);
        assert!(matches!(c.gating, GatingStrategy::Interpolation { .. }));
        assert_eq!(c.offset, OffsetMode::Dynamic);
        assert_eq!(c.model_classes.len(), 4);
    }

    #[test]
    fn with_alpha_clamps_to_unit_interval() {
        assert_eq!(SizeyConfig::default().with_alpha(2.0).alpha, 1.0);
        assert_eq!(SizeyConfig::default().with_alpha(-1.0).alpha, 0.0);
        assert_eq!(SizeyConfig::default().with_alpha(0.3).alpha, 0.3);
    }

    #[test]
    fn named_configurations_differ_in_retrain_interval() {
        assert_eq!(SizeyConfig::full_retraining().retrain_interval, 1);
        assert_eq!(
            SizeyConfig::default().retrain_interval,
            DEFAULT_RETRAIN_INTERVAL
        );
        assert!(SizeyConfig::full_retraining().hyperparameter_optimization);
    }

    #[test]
    fn with_model_classes_restricts_pool() {
        let c = SizeyConfig::default().with_model_classes(vec![ModelClass::Linear]);
        assert_eq!(c.model_classes, vec![ModelClass::Linear]);
    }

    #[test]
    fn drift_response_is_off_by_default() {
        assert_eq!(SizeyConfig::default().drift, DriftPolicy::Off);
        let c = SizeyConfig::default().with_drift_policy(DriftPolicy::Retrain);
        assert_eq!(c.drift, DriftPolicy::Retrain);
    }
}
