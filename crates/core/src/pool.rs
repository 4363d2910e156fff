//! The per-(task type, machine) model pool.
//!
//! Sizey's model granularity is the finest of Fig. 4: every (task type,
//! machine) combination gets its own pool containing one model of every
//! configured class. The pool keeps
//!
//! * the successful observation history (the training data),
//! * each model's prequential accuracy contributions — scored from the
//!   `(prediction, actual)` pairs it produced *before* seeing each task,
//!   feeding the accuracy score of Eq. 1,
//! * the aggregate-estimate history feeding the offset selection,
//!
//! and performs the online-learning update (incremental or full retrain,
//! optionally with hyper-parameter optimisation).
//!
//! The pool is on the predictor hot path and is **panic-free by
//! construction**: every model call goes through `Result`/`Option`
//! (fallible fits fall back to a refit or keep the previous model, window
//! slices use saturating arithmetic), so a misbehaving model class can
//! degrade a pool's estimates but never abort a replay or a serving thread.

// Every prediction funnels through this module's gated pipeline; the
// marker opts it into the no-panic-hot-path lint rule.
#![doc = "lint:hot-path"]

use crate::config::{DriftPolicy, OnlineMode, SizeyConfig};
use crate::gating::gate_with;
use crate::offset::OffsetScratch;
use crate::raq::{accuracy_score_cached, pair_accuracy, pool_raq_scores_into};
use sizey_ml::dataset::Dataset;
use sizey_ml::forest::{ForestConfig, RandomForestRegression};
use sizey_ml::hpo::{grid_search, ModelSpec};
use sizey_ml::knn::KnnRegression;
use sizey_ml::linear::LinearRegression;
use sizey_ml::mlp::{MlpConfig, MlpRegression};
use sizey_ml::model::{ModelClass, PredictScratch, Regressor};
use std::collections::VecDeque;

/// Number of most recent prequential accuracy contributions entering the
/// Eq. 1 accuracy score: the score follows the model's *current* quality, so
/// only a sliding window of cached pair scores is ever summed. §II-C, as the
/// [`raq`](crate::raq) module docs paraphrase it, scores a model over the
/// historical task instances of its (task type, machine) combination; the
/// window and its length 50 are this repo's choice.
pub(crate) const ACCURACY_WINDOW: usize = 50;

/// Number of most recent `(aggregate estimate, actual)` pairs the offset
/// selection considers: a sliding window keeps the offsets tracking the
/// pool's current prediction quality instead of long-gone early errors.
/// §II-E, as the [`offset`](crate::offset) module docs paraphrase it,
/// selects the strategy that would have wasted least on the already
/// executed tasks; the window and its length 40 are this repo's choice.
pub(crate) const OFFSET_HISTORY_WINDOW: usize = 40;

/// One pool member: a model plus its prequential accuracy history.
struct PoolMember {
    class: ModelClass,
    model: Box<dyn Regressor>,
    /// Each prequential `(prediction, actual)` pair's contribution to the
    /// Eq. 1 accuracy score ([`pair_accuracy`]), computed once when the
    /// pair is observed. The predict path sums a window of these cached
    /// values instead of re-scoring raw pairs on every call — the pairs
    /// themselves are not retained (the score is the only thing Eq. 1
    /// ever reads).
    accuracy_scores: Vec<f64>,
}

impl PoolMember {
    /// The member's estimate for `features`, clamped to be non-negative;
    /// `None` when the model is unfitted, fails or returns a non-finite
    /// value.
    fn estimate(&self, features: &[f64], scratch: &mut PredictScratch) -> Option<f64> {
        if !self.model.is_fitted() {
            return None;
        }
        let p = self.model.predict_with(features, scratch).ok()?;
        p.is_finite().then(|| p.max(0.0))
    }
}

impl Clone for PoolMember {
    fn clone(&self) -> Self {
        PoolMember {
            class: self.class,
            model: self.model.clone_box(),
            accuracy_scores: self.accuracy_scores.clone(),
        }
    }
}

/// Reusable buffers for one full prediction pipeline pass
/// ([`ModelPool::gated_estimate_with`]) plus the offset computation that
/// follows it — everything the read path needs — and for the datasets of
/// the online model update. Owned by the caller and recycled across
/// predictions and observations, so the steady state allocates nothing.
#[derive(Debug, Default)]
pub struct PoolScratch {
    /// Per-model buffers shared by every member's
    /// [`Regressor::predict_with`].
    pub(crate) ml: PredictScratch,
    /// `(class, estimate)` pairs of the members that produced an estimate.
    pub(crate) estimates: Vec<(ModelClass, f64)>,
    /// Windowed Eq. 1 accuracy score per estimating member.
    pub(crate) accuracies: Vec<f64>,
    /// Bare estimate values, aligned with `accuracies`.
    pub(crate) values: Vec<f64>,
    /// Eq. 3 RAQ scores.
    pub(crate) raq: Vec<f64>,
    /// Gating weights (Eq. 4).
    pub(crate) weights: Vec<f64>,
    /// Offset-strategy working buffers.
    pub(crate) offset: OffsetScratch,
    /// The single-observation dataset of the incremental update.
    pub(crate) point: Dataset,
    /// The recent-window dataset of the MLP's warm-start update.
    pub(crate) tail: Dataset,
}

/// The allocation-free result of [`ModelPool::gated_estimate_with`]: the
/// aggregate estimate plus the dominant model class, with no owned
/// per-member vectors (those stay in the [`PoolScratch`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatedOutcome {
    /// The aggregated memory estimate in bytes.
    pub estimate: f64,
    /// The model class holding the largest gating weight.
    pub dominant: ModelClass,
}

/// The model pool of one (task type, machine) combination.
///
/// Cloning a pool deep-copies its models (via [`Regressor::clone_box`]) and
/// histories. This is the copy half of the predictor's copy-on-write pools
/// (a write to a pool that a clone or published view still holds lands on a
/// clone of it): the clone predicts *and keeps learning* bit-identically to
/// the original because every input to both pipelines — models, training
/// data, accuracy and offset histories, retrain counters — is carried over.
#[derive(Clone)]
pub struct ModelPool {
    members: Vec<PoolMember>,
    /// Successful observations: features → peak bytes.
    data: Dataset,
    /// History of `(aggregate raw estimate, actual)` pairs for the offset
    /// selection.
    aggregate_history: Vec<(f64, f64)>,
    /// Completions since the last full retrain (drives incremental mode).
    since_full_retrain: usize,
    /// Number of full retrains run.
    model_epoch: u64,
    /// Largest peak ever observed (successful or exhausted allocation).
    max_observed: Option<f64>,
    /// Rolling under-prediction flags of the drift detector (empty and
    /// untouched while [`DriftPolicy::Off`] is configured).
    drift_flags: VecDeque<bool>,
}

impl std::fmt::Debug for ModelPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelPool")
            .field("members", &self.members.len())
            .field("observations", &self.data.len())
            .field("max_observed", &self.max_observed)
            .finish()
    }
}

fn build_model(class: ModelClass, seed: u64) -> Box<dyn Regressor> {
    match class {
        ModelClass::Linear => Box::new(LinearRegression::with_defaults()),
        ModelClass::Knn => Box::new(KnnRegression::with_defaults()),
        ModelClass::Mlp => Box::new(MlpRegression::new(MlpConfig {
            hidden_layers: vec![16],
            max_epochs: 120,
            // The warm start runs on every completion (the network goes
            // stale fast enough that thinning the cadence measurably hurts
            // sizing quality on small workloads), so it must be shallow: a
            // few Adam epochs over the recent tail keep the per-observe cost
            // bounded in the tens of microseconds.
            incremental_epochs: 5,
            seed,
            ..MlpConfig::default()
        })),
        ModelClass::RandomForest => Box::new(RandomForestRegression::new(ForestConfig {
            n_trees: 24,
            max_depth: 8,
            // Bank a quarter tree of refresh credit per observation (one tree
            // refit every four completions) and train refreshed trees on a
            // bounded recent window: per-observe work stays O(window), not
            // O(history).
            incremental_refresh_fraction: 0.25 / 24.0,
            incremental_window: 256,
            seed,
            ..ForestConfig::default()
        })),
    }
}

impl ModelPool {
    /// Creates an empty pool with one model per configured class.
    pub fn new(config: &SizeyConfig) -> Self {
        ModelPool {
            members: config
                .model_classes
                .iter()
                .map(|&class| PoolMember {
                    class,
                    model: build_model(class, config.seed),
                    accuracy_scores: Vec::new(),
                })
                .collect(),
            data: Dataset::new(),
            aggregate_history: Vec::new(),
            since_full_retrain: 0,
            model_epoch: 0,
            max_observed: None,
            drift_flags: VecDeque::new(),
        }
    }

    /// Number of successful observations.
    pub fn n_observations(&self) -> usize {
        self.data.len()
    }

    /// The largest peak memory (or exhausted allocation) ever observed.
    pub fn max_observed(&self) -> Option<f64> {
        self.max_observed
    }

    /// The aggregate-estimate history used for offset selection.
    pub fn aggregate_history(&self) -> &[(f64, f64)] {
        &self.aggregate_history
    }

    /// Completions since the last full retrain of the whole pool.
    pub fn since_full_retrain(&self) -> usize {
        self.since_full_retrain
    }

    /// The current model epoch (bumped on every full retrain).
    pub fn model_epoch(&self) -> u64 {
        self.model_epoch
    }

    /// True once the pool has enough data and fitted models to predict.
    pub fn is_ready(&self, min_history: usize) -> bool {
        self.data.len() >= min_history.max(1) && self.members.iter().any(|m| m.model.is_fitted())
    }

    /// Fills `scratch.estimates` with each fitted member's estimate for the
    /// given features, clamped to be non-negative; non-finite estimates are
    /// dropped, so the buffer is empty when no member can predict.
    pub(crate) fn individual_estimates_into(&self, features: &[f64], scratch: &mut PoolScratch) {
        scratch.estimates.clear();
        for m in &self.members {
            if let Some(p) = m.estimate(features, &mut scratch.ml) {
                scratch.estimates.push((m.class, p));
            }
        }
    }

    /// Runs the full prediction pipeline for one query: individual estimates,
    /// RAQ scores, gating. Returns `None` when the pool is not ready. The
    /// per-member details (estimates, weights) stay in the caller's
    /// recycled `scratch`, so the predict hot path allocates nothing.
    pub fn gated_estimate_with(
        &self,
        features: &[f64],
        config: &SizeyConfig,
        scratch: &mut PoolScratch,
    ) -> Option<GatedOutcome> {
        if !self.is_ready(config.min_history) {
            return None;
        }
        self.individual_estimates_into(features, scratch);
        self.gate_estimates(config, scratch)
    }

    /// The gating tail of the prediction pipeline: RAQ scores and gating
    /// over the member estimates already in `scratch.estimates`. Returns
    /// `None` when there are none.
    fn gate_estimates(
        &self,
        config: &SizeyConfig,
        scratch: &mut PoolScratch,
    ) -> Option<GatedOutcome> {
        if scratch.estimates.is_empty() {
            return None;
        }
        // The accuracy score follows the model's *current* quality: only the
        // most recent prequential errors enter Eq. 1, so a model that drifts
        // (or recovers) is re-rated quickly. The per-pair contributions were
        // cached when the pairs were recorded (`accuracy_scores`), so this
        // sums a bounded window of cached values — no per-predict re-scoring
        // of the history, no cloned window buffers.
        scratch.accuracies.clear();
        for (class, _) in &scratch.estimates {
            let accuracy = self
                .members
                .iter()
                .find(|m| m.class == *class)
                .map(|m| {
                    let s = &m.accuracy_scores;
                    // lint:allow(no-panic-hot-path): the range start is
                    // saturating_sub-clamped to at most s.len(), so the
                    // window slice cannot be out of bounds.
                    accuracy_score_cached(&s[s.len().saturating_sub(ACCURACY_WINDOW)..])
                })
                .unwrap_or(0.0);
            scratch.accuracies.push(accuracy);
        }
        scratch.values.clear();
        scratch
            .values
            .extend(scratch.estimates.iter().map(|(_, v)| *v));
        pool_raq_scores_into(
            &scratch.accuracies,
            &scratch.values,
            config.alpha,
            &mut scratch.raq,
        );
        let (estimate, dominant_idx) = gate_with(
            config.gating,
            &scratch.values,
            &scratch.raq,
            &mut scratch.weights,
        );
        let dominant = scratch.estimates.get(dominant_idx).map(|(c, _)| *c)?;
        Some(GatedOutcome { estimate, dominant })
    }

    /// Records the observed peak of a *failed* attempt (the exhausted
    /// allocation) so that failure handling can escalate above it. An
    /// out-of-memory failure is an under-prediction by definition, so it
    /// also feeds the drift detector — but only once the pool is ready
    /// (during the cold start the preset drives allocations and a failure
    /// says nothing about the models).
    pub fn observe_failure(&mut self, exhausted_allocation: f64, config: &SizeyConfig) {
        self.max_observed = max_finite(self.max_observed, exhausted_allocation);
        if self.is_ready(config.min_history) && self.note_drift_observation(true, config) {
            self.drift_retrain(config);
        }
    }

    /// Feeds one under-prediction flag to the rolling drift detector and
    /// reports whether it fired. A no-op returning `false` while
    /// [`DriftPolicy::Off`] is configured, so the off path stays
    /// bit-identical. Firing clears the window, so consecutive triggers are
    /// at least one full window apart.
    fn note_drift_observation(&mut self, under_predicted: bool, config: &SizeyConfig) -> bool {
        let DriftPolicy::Retrain {
            window, threshold, ..
        } = config.drift
        else {
            return false;
        };
        let window = window.max(1);
        self.drift_flags.push_back(under_predicted);
        while self.drift_flags.len() > window {
            self.drift_flags.pop_front();
        }
        if self.drift_flags.len() < window {
            return false;
        }
        let under = self.drift_flags.iter().filter(|&&f| f).count();
        if (under as f64) < threshold * window as f64 {
            return false;
        }
        self.drift_flags.clear();
        true
    }

    /// The drift response: optionally drop the stale pre-drift history so
    /// the refit tracks the new regime, then force a full retrain.
    fn drift_retrain(&mut self, config: &SizeyConfig) {
        if let DriftPolicy::Retrain { keep_recent, .. } = config.drift {
            if keep_recent > 0 && self.data.len() > keep_recent {
                self.data.drain_front(self.data.len() - keep_recent);
            }
        }
        self.full_retrain(config);
    }

    /// Incorporates a successful execution: prequential score bookkeeping,
    /// dataset growth and the online model update. The pre-learning member
    /// predictions, the aggregate estimate and the update datasets run over
    /// the caller's recycled `scratch`.
    pub fn observe_success(
        &mut self,
        features: &[f64],
        peak_bytes: f64,
        config: &SizeyConfig,
        scratch: &mut PoolScratch,
    ) {
        // 1. Prequential accuracy update: one sweep asks every fitted
        //    member what it would have predicted *before* learning from
        //    this task. The pair's Eq. 1 contribution is scored once, here,
        //    so predictions only ever sum cached values.
        scratch.estimates.clear();
        for member in &mut self.members {
            if let Some(p) = member.estimate(features, &mut scratch.ml) {
                member.accuracy_scores.push(pair_accuracy(p, peak_bytes));
                scratch.estimates.push((member.class, p));
            }
        }
        // 2. Offset bookkeeping with the aggregate estimate, gated over the
        // same sweep's estimates (and accuracy windows that now include this
        // task's pairs). The pre-learning estimate also feeds the drift
        // detector: the observation is under-predicted when the raw
        // aggregate fell below the actual peak. No estimate (cold start) →
        // no detector update.
        let mut drift_under = None;
        let gated = if self.is_ready(config.min_history) {
            self.gate_estimates(config, scratch)
        } else {
            None
        };
        if let Some(outcome) = gated {
            self.aggregate_history.push((outcome.estimate, peak_bytes));
            drift_under = Some(outcome.estimate < peak_bytes);
        }

        // 3. Grow the training data.
        self.data.push(features.to_vec(), peak_bytes);
        self.max_observed = max_finite(self.max_observed, peak_bytes);

        // 3b. Opt-in bounded history: once the training set doubles the
        // configured window it is drained back to the window (amortised
        // O(1) per observation), and the models are fully retrained on the
        // trimmed window so they never depend on dropped rows. The
        // prequential and offset histories are trimmed to their fixed read
        // windows — the scores only ever read the most recent
        // `ACCURACY_WINDOW` / `OFFSET_HISTORY_WINDOW` entries, so this is
        // invisible to predictions. Everything is deterministic in the
        // observation count, preserving replay reproducibility.
        let mut trimmed = false;
        if let Some(window) = config.history_window {
            let window = window.max(1);
            if self.data.len() >= 2 * window {
                self.data.drain_front(self.data.len() - window);
                trimmed = true;
            }
            for member in &mut self.members {
                let scores = &mut member.accuracy_scores;
                if scores.len() >= 2 * ACCURACY_WINDOW {
                    let excess = scores.len() - ACCURACY_WINDOW;
                    scores.drain(..excess);
                }
            }
            if self.aggregate_history.len() >= 2 * OFFSET_HISTORY_WINDOW {
                let excess = self.aggregate_history.len() - OFFSET_HISTORY_WINDOW;
                self.aggregate_history.drain(..excess);
            }
        }

        // 4. Online model update.
        if trimmed {
            // The window boundary is a de-facto full retrain, whatever the
            // online mode asked for.
            self.full_retrain(config);
        } else {
            match config.online {
                OnlineMode::FullRetrain => self.full_retrain(config),
                OnlineMode::Incremental { retrain_interval } => {
                    self.since_full_retrain += 1;
                    if retrain_interval > 0 && self.since_full_retrain >= retrain_interval {
                        self.full_retrain(config);
                    } else {
                        self.incremental_update(scratch);
                    }
                }
            }
        }
        // 5. Drift response: runs after the regular online update so the
        // triggered retrain supersedes whatever lighter update just
        // happened, on data that already includes this observation.
        if let Some(under) = drift_under {
            if self.note_drift_observation(under, config) {
                self.drift_retrain(config);
            }
        }
    }

    /// The light (non-retrain) update of incremental mode: exact or
    /// append-style `partial_fit`s for the cheap members and a warm-start
    /// update for the MLP, on every completion. The update datasets are
    /// copied into the caller's recycled `scratch`.
    fn incremental_update(&mut self, scratch: &mut PoolScratch) {
        self.data.tail_into(1, &mut scratch.point);
        // The MLP's warm-start update runs on a recent window of the data
        // rather than the single new observation; a gradient step on one
        // point would drag the network towards it and destabilise the pool
        // between full retrains.
        self.data.tail_into(16, &mut scratch.tail);
        // Track whether this update degenerated into refitting *every* member
        // on the complete history (cold start, or every incremental update
        // failing): that is a de-facto full retrain and restarts the interval
        // counter, so the next scheduled retrain is not fired spuriously.
        let mut pool_fully_refit = true;
        for member in &mut self.members {
            let was_fitted = member.model.is_fitted();
            let result = if was_fitted {
                let update = if member.class == ModelClass::Mlp {
                    &scratch.tail
                } else {
                    &scratch.point
                };
                member.model.partial_fit(update)
            } else {
                member.model.fit(&self.data)
            };
            match result {
                // A failed incremental update falls back to a refit on the
                // complete history; `fit` is transactional, so even a failed
                // fallback keeps the previous fitted model serving.
                Err(_) => {
                    if member.model.fit(&self.data).is_err() {
                        pool_fully_refit = false;
                    }
                }
                Ok(()) if was_fitted => pool_fully_refit = false,
                Ok(()) => {}
            }
        }
        if pool_fully_refit && !self.members.is_empty() {
            self.since_full_retrain = 0;
        }
    }

    /// A full retrain, whatever made it due (window trim, FullRetrain mode,
    /// interval, drift), runs inside the observe that found it due: restart
    /// the interval counter and refit every member on the complete training
    /// data — a grid search when HPO is configured and there is enough data
    /// for its folds.
    fn full_retrain(&mut self, config: &SizeyConfig) {
        self.since_full_retrain = 0;
        for member in &mut self.members {
            if config.hyperparameter_optimization && self.data.len() >= 6 {
                let specs = ModelSpec::default_grid(member.class, config.seed);
                if let Ok(result) = grid_search(&specs, &self.data, 3) {
                    member.model = result.model;
                    continue;
                }
            }
            // `fit` is transactional: a failed refit keeps the previous
            // fitted state, which is still the best information we have.
            let _ = member.model.fit(&self.data);
        }
        self.model_epoch += 1;
    }
}

/// Folds `value` into a running maximum, skipping non-finite values: one
/// infinite or NaN peak in a journal must not become every later retry's
/// allocation.
fn max_finite(max: Option<f64>, value: f64) -> Option<f64> {
    if !value.is_finite() {
        return max;
    }
    Some(max.map_or(value, |m| m.max(value)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GatingStrategy;

    fn config() -> SizeyConfig {
        SizeyConfig::default()
    }

    /// The gated pipeline's outcome, with the per-member estimates and
    /// weights it left in its scratch.
    fn gated(
        pool: &ModelPool,
        features: &[f64],
        cfg: &SizeyConfig,
    ) -> Option<(GatedOutcome, PoolScratch)> {
        let mut scratch = PoolScratch::default();
        let outcome = pool.gated_estimate_with(features, cfg, &mut scratch)?;
        Some((outcome, scratch))
    }

    fn estimates(pool: &ModelPool, features: &[f64]) -> Option<Vec<(ModelClass, f64)>> {
        let mut scratch = PoolScratch::default();
        pool.individual_estimates_into(features, &mut scratch);
        (!scratch.estimates.is_empty()).then_some(scratch.estimates)
    }

    fn feed_linear(pool: &mut ModelPool, cfg: &SizeyConfig, n: usize) {
        for i in 1..=n {
            let input = i as f64 * 1e9;
            pool.observe_success(
                &[input],
                2.0 * input + 1e9,
                cfg,
                &mut PoolScratch::default(),
            );
        }
    }

    /// The grid search of a full retrain builds its MLPs and forests from
    /// the pool's seed, so two seeds still train two different networks
    /// once hyper-parameter optimisation has replaced the members.
    #[test]
    fn hpo_retrains_honour_the_configured_seed() {
        let mlp_estimate = |seed| {
            let cfg = SizeyConfig {
                seed,
                ..SizeyConfig::full_retraining()
            };
            let mut pool = ModelPool::new(&cfg);
            feed_linear(&mut pool, &cfg, 12);
            let estimates = estimates(&pool, &[5e9]).unwrap();
            let (_, mlp) = estimates
                .into_iter()
                .find(|(class, _)| *class == ModelClass::Mlp)
                .unwrap();
            mlp
        };
        assert_ne!(mlp_estimate(7).to_bits(), mlp_estimate(8).to_bits());
    }

    #[test]
    fn empty_pool_is_not_ready() {
        let cfg = config();
        let pool = ModelPool::new(&cfg);
        assert!(!pool.is_ready(cfg.min_history));
        assert!(estimates(&pool, &[1e9]).is_none());
        assert!(gated(&pool, &[1e9], &cfg).is_none());
        assert_eq!(pool.max_observed(), None);
    }

    #[test]
    fn pool_becomes_ready_after_min_history() {
        let cfg = config();
        let mut pool = ModelPool::new(&cfg);
        feed_linear(&mut pool, &cfg, 3);
        assert!(pool.is_ready(cfg.min_history));
        assert_eq!(pool.n_observations(), 3);
    }

    #[test]
    fn estimates_cover_all_configured_classes() {
        let cfg = config();
        let mut pool = ModelPool::new(&cfg);
        feed_linear(&mut pool, &cfg, 8);
        let estimates = estimates(&pool, &[4e9]).unwrap();
        assert_eq!(estimates.len(), 4);
        for (_, value) in &estimates {
            assert!(*value > 0.0);
        }
    }

    #[test]
    fn gated_estimate_is_reasonable_on_linear_data() {
        let cfg = config();
        let mut pool = ModelPool::new(&cfg);
        feed_linear(&mut pool, &cfg, 15);
        let (outcome, scratch) = gated(&pool, &[8e9], &cfg).unwrap();
        let truth = 2.0 * 8e9 + 1e9;
        assert!(
            (outcome.estimate - truth).abs() / truth < 0.5,
            "estimate {} vs truth {}",
            outcome.estimate,
            truth
        );
        let weight_sum: f64 = scratch.weights.iter().sum();
        assert!((weight_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn argmax_gating_reports_a_dominant_model() {
        let cfg = config().with_gating(GatingStrategy::Argmax);
        let mut pool = ModelPool::new(&cfg);
        feed_linear(&mut pool, &cfg, 12);
        let (outcome, scratch) = gated(&pool, &[5e9], &cfg).unwrap();
        assert!(scratch
            .estimates
            .iter()
            .any(|(class, _)| *class == outcome.dominant));
        assert_eq!(
            scratch.weights.iter().filter(|&&w| w == 1.0).count(),
            1,
            "argmax puts all weight on one model"
        );
    }

    #[test]
    fn accuracy_scores_grow_prequentially() {
        let cfg = config();
        let mut pool = ModelPool::new(&cfg);
        feed_linear(&mut pool, &cfg, 6);
        // The first observation fits unfitted models, so accuracy history
        // starts with the second observation.
        for member in &pool.members {
            assert!(member.accuracy_scores.len() >= 4);
            assert!(member.accuracy_scores.len() < 6);
        }
        assert!(!pool.aggregate_history().is_empty());
    }

    #[test]
    fn observe_scores_and_gates_the_pre_learning_predictions() {
        // Thirty observes cover the cold start, the first fits, incremental
        // updates and the full retrain at the default interval of 25.
        let cfg = config();
        let mut pool = ModelPool::new(&cfg);
        for i in 1..=30 {
            let input = i as f64 * 1e9;
            let peak = 2.0 * input + 1e9 + (i % 7) as f64 * 3e8;
            let features = [input];
            // What every member predicts before the observe learns the task.
            let before: Vec<Option<f64>> = pool
                .members
                .iter()
                .map(|m| m.model.predict(&features).ok().filter(|p| p.is_finite()))
                .collect();
            let scores_before: Vec<usize> = pool
                .members
                .iter()
                .map(|m| m.accuracy_scores.len())
                .collect();
            // The gate the observe must record: the pre-observe models, with
            // this task's pairs already in their accuracy windows.
            let mut scored = pool.clone();
            for (member, p) in scored.members.iter_mut().zip(&before) {
                if let Some(p) = p {
                    member.accuracy_scores.push(pair_accuracy(p.max(0.0), peak));
                }
            }
            let want = gated(&scored, &features, &cfg).map(|(o, _)| o.estimate.to_bits());
            let history_before = pool.aggregate_history().len();

            pool.observe_success(&features, peak, &cfg, &mut PoolScratch::default());

            let members = pool.members.iter().zip(&before).zip(&scores_before);
            for ((member, p), &len) in members {
                let newest = member.accuracy_scores.get(len).map(|s| s.to_bits());
                let expected = p.map(|p| pair_accuracy(p.max(0.0), peak).to_bits());
                assert_eq!(newest, expected, "{:?} at observe {i}", member.class);
                assert_eq!(member.accuracy_scores.len(), len + usize::from(p.is_some()));
            }
            let recorded = pool.aggregate_history()[history_before..].to_vec();
            let expected: Vec<_> = want.iter().map(|&e| (e, peak.to_bits())).collect();
            let recorded: Vec<_> = recorded
                .iter()
                .map(|(e, a)| (e.to_bits(), a.to_bits()))
                .collect();
            assert_eq!(recorded, expected, "aggregate pair at observe {i}");
        }
        assert!(pool.model_epoch() > 0, "the run must cross a full retrain");
    }

    #[test]
    fn max_observed_tracks_successes_and_failures() {
        let cfg = config();
        let mut pool = ModelPool::new(&cfg);
        pool.observe_success(&[1e9], 3e9, &cfg, &mut PoolScratch::default());
        assert_eq!(pool.max_observed(), Some(3e9));
        pool.observe_failure(8e9, &cfg);
        assert_eq!(pool.max_observed(), Some(8e9));
        pool.observe_success(&[1e9], 5e9, &cfg, &mut PoolScratch::default());
        assert_eq!(pool.max_observed(), Some(8e9));
    }

    #[test]
    fn full_retrain_mode_trains_every_time() {
        let cfg = SizeyConfig {
            online: OnlineMode::FullRetrain,
            ..SizeyConfig::default()
        };
        let mut pool = ModelPool::new(&cfg);
        feed_linear(&mut pool, &cfg, 5);
        assert!(pool.is_ready(cfg.min_history));
        assert_eq!(pool.model_epoch(), 5);
    }

    #[test]
    fn restricted_pool_only_builds_requested_classes() {
        let cfg = config().with_model_classes(vec![ModelClass::Linear, ModelClass::Knn]);
        let mut pool = ModelPool::new(&cfg);
        feed_linear(&mut pool, &cfg, 6);
        let estimates = estimates(&pool, &[3e9]).unwrap();
        assert_eq!(estimates.len(), 2);
        let classes: Vec<ModelClass> = estimates.iter().map(|(c, _)| *c).collect();
        assert!(classes.contains(&ModelClass::Linear));
        assert!(classes.contains(&ModelClass::Knn));
    }

    #[test]
    fn incremental_mode_periodically_retrains() {
        let cfg = SizeyConfig {
            online: OnlineMode::incremental(3),
            ..SizeyConfig::default()
        };
        let mut pool = ModelPool::new(&cfg);
        feed_linear(&mut pool, &cfg, 10);
        // After 10 observations with interval 3 the counter must have cycled.
        assert!(pool.since_full_retrain < 3);
    }

    #[test]
    fn full_retrain_mode_resets_the_interval_counter() {
        // Switching a pool that ran in FullRetrain mode over to incremental
        // mode must not fire an immediate spurious full retrain: every
        // FullRetrain-mode observe really did retrain, so the counter is 0.
        let full = SizeyConfig {
            online: OnlineMode::FullRetrain,
            ..SizeyConfig::default()
        };
        let mut pool = ModelPool::new(&full);
        feed_linear(&mut pool, &full, 5);
        assert_eq!(pool.since_full_retrain(), 0);
        let epoch_before = pool.model_epoch();
        assert!(
            epoch_before > 0,
            "every FullRetrain observe bumps the epoch"
        );
    }

    #[test]
    fn history_window_bounds_training_data_and_histories() {
        let cfg = config().with_history_window(16);
        let mut pool = ModelPool::new(&cfg);
        for i in 1..=300 {
            let input = (i % 20 + 1) as f64 * 1e9;
            pool.observe_success(
                &[input],
                2.0 * input + 1e9,
                &cfg,
                &mut PoolScratch::default(),
            );
        }
        // Amortised trim: the dataset never doubles the window.
        assert!(pool.n_observations() < 32, "kept {}", pool.n_observations());
        for member in &pool.members {
            assert!(member.accuracy_scores.len() < 2 * ACCURACY_WINDOW);
        }
        assert!(pool.aggregate_history().len() < 2 * OFFSET_HISTORY_WINDOW);
        // The pool still predicts from the retained window.
        assert!(pool.is_ready(cfg.min_history));
        let (outcome, _) = gated(&pool, &[10e9], &cfg).unwrap();
        let truth = 2.0 * 10e9 + 1e9;
        assert!(
            (outcome.estimate - truth).abs() / truth < 0.5,
            "estimate {} vs truth {}",
            outcome.estimate,
            truth
        );
    }

    #[test]
    fn unbounded_default_retains_everything() {
        let cfg = config();
        let mut pool = ModelPool::new(&cfg);
        feed_linear(&mut pool, &cfg, 120);
        assert_eq!(pool.n_observations(), 120);
    }

    /// Online mode with no scheduled full retrains: the model epoch can only
    /// move when the drift detector fires, which makes triggers observable.
    fn no_scheduled_retrains() -> OnlineMode {
        OnlineMode::incremental(0)
    }

    #[test]
    fn unreachable_drift_detector_is_bit_identical_to_off() {
        let off = config();
        // threshold > 1 can never be reached (at most window of window flags
        // are under-predictions), so only the detector bookkeeping runs.
        let armed = config().with_drift_policy(DriftPolicy::Retrain {
            window: 5,
            threshold: 1.1,
            keep_recent: 1,
        });
        let mut a = ModelPool::new(&off);
        let mut b = ModelPool::new(&armed);
        for i in 1..=20 {
            let input = i as f64 * 1e9;
            // A drifting regime: plenty of genuine under-predictions.
            let peak = if i <= 10 {
                2.0 * input + 1e9
            } else {
                6.0 * input + 8e9
            };
            a.observe_success(&[input], peak, &off, &mut PoolScratch::default());
            b.observe_success(&[input], peak, &armed, &mut PoolScratch::default());
            let query = [input + 5e8];
            let ea = gated(&a, &query, &off).map(|(d, _)| d.estimate);
            let eb = gated(&b, &query, &armed).map(|(d, _)| d.estimate);
            assert_eq!(
                ea.map(f64::to_bits),
                eb.map(f64::to_bits),
                "an unfired detector must not perturb predictions (observe {i})"
            );
        }
        assert_eq!(a.model_epoch(), b.model_epoch());
        assert_eq!(a.n_observations(), b.n_observations());
    }

    #[test]
    fn underprediction_burst_triggers_a_full_retrain() {
        let cfg = SizeyConfig {
            online: no_scheduled_retrains(),
            ..SizeyConfig::default()
        }
        .with_drift_policy(DriftPolicy::Retrain {
            window: 4,
            threshold: 0.75,
            keep_recent: 0,
        });
        let off = SizeyConfig {
            online: no_scheduled_retrains(),
            ..SizeyConfig::default()
        };
        let mut drifting = ModelPool::new(&cfg);
        let mut control = ModelPool::new(&off);
        feed_linear(&mut drifting, &cfg, 10);
        feed_linear(&mut control, &off, 10);
        let epoch_before = drifting.model_epoch();
        // Regime change: peaks jump far above anything the regime-A models
        // predict, so every observation is an under-prediction.
        for i in 11..=18 {
            let input = i as f64 * 1e9;
            let peak = 6.0 * input + 8e9;
            drifting.observe_success(&[input], peak, &cfg, &mut PoolScratch::default());
            control.observe_success(&[input], peak, &off, &mut PoolScratch::default());
        }
        assert!(
            drifting.model_epoch() > epoch_before,
            "the under-prediction burst must force a full retrain"
        );
        assert_eq!(
            control.model_epoch(),
            0,
            "without a drift policy nothing retrains in this online mode"
        );
    }

    #[test]
    fn drift_trigger_trims_history_to_keep_recent() {
        let cfg = SizeyConfig {
            online: no_scheduled_retrains(),
            ..SizeyConfig::default()
        }
        .with_drift_policy(DriftPolicy::Retrain {
            window: 3,
            threshold: 0.5,
            keep_recent: 5,
        });
        let mut pool = ModelPool::new(&cfg);
        feed_linear(&mut pool, &cfg, 10);
        let epoch_before = pool.model_epoch();
        let mut fired = false;
        for i in 11..=20 {
            let input = i as f64 * 1e9;
            pool.observe_success(
                &[input],
                6.0 * input + 8e9,
                &cfg,
                &mut PoolScratch::default(),
            );
            if pool.model_epoch() > epoch_before {
                fired = true;
                assert_eq!(
                    pool.n_observations(),
                    5,
                    "the trigger must trim the training data to keep_recent"
                );
                break;
            }
        }
        assert!(fired, "the regime change must fire the detector");
    }

    #[test]
    fn oom_failures_feed_the_detector_once_the_pool_is_ready() {
        let cfg = SizeyConfig {
            online: no_scheduled_retrains(),
            ..SizeyConfig::default()
        }
        .with_drift_policy(DriftPolicy::Retrain {
            window: 3,
            threshold: 1.0,
            keep_recent: 0,
        });
        // Cold pool: failures say nothing about the models and must not
        // accumulate detector state.
        let mut cold = ModelPool::new(&cfg);
        for _ in 0..5 {
            cold.observe_failure(64e9, &cfg);
        }
        assert_eq!(cold.model_epoch(), 0);
        // Ready pool: three consecutive OOMs fill the window at rate 1.0.
        let mut ready = ModelPool::new(&cfg);
        feed_linear(&mut ready, &cfg, 6);
        let epoch_before = ready.model_epoch();
        for _ in 0..3 {
            ready.observe_failure(64e9, &cfg);
        }
        assert!(ready.model_epoch() > epoch_before);
    }
}
