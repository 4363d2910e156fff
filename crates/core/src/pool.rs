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

use crate::config::{
    DriftPolicy, SizeyConfig, DRIFT_KEEP_RECENT, DRIFT_THRESHOLD, DRIFT_WINDOW, MIN_HISTORY,
};
use crate::gating::gate_with;
use crate::offset::OffsetScratch;
use crate::raq::{accuracy_score_cached, pair_accuracy, pool_raq_scores_into};
use sizey_ml::dataset::Dataset;
use sizey_ml::hpo::{grid_search, ModelSpec};
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
    /// The member's estimate for a task of `input` bytes, clamped to be
    /// non-negative; `None` when the model is unfitted, fails or returns a
    /// non-finite value.
    fn estimate(&self, input: f64, scratch: &mut PredictScratch) -> Option<f64> {
        if !self.model.is_fitted() {
            return None;
        }
        let p = self.model.predict_with(&[input], scratch).ok()?;
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
    /// Successful observations: input bytes → peak bytes.
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

impl ModelPool {
    /// Creates an empty pool with one model per distinct configured class,
    /// in the order each class first occurs.
    pub fn new(config: &SizeyConfig) -> Self {
        let mut members: Vec<PoolMember> = Vec::new();
        for &class in &config.model_classes {
            if members.iter().all(|m| m.class != class) {
                members.push(PoolMember {
                    class,
                    model: ModelSpec::default_for(class, config.seed).build(),
                    accuracy_scores: Vec::new(),
                });
            }
        }
        ModelPool {
            members,
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

    /// The recent `(aggregate estimate, actual)` pairs: at least the last
    /// `OFFSET_HISTORY_WINDOW` (40) of them, the window the offset selection
    /// reads, or all of them while there are fewer; never twice as many.
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

    /// Number of flags in the drift detector's rolling window; a fire
    /// empties it.
    #[cfg(test)]
    pub(crate) fn drift_flags_len(&self) -> usize {
        self.drift_flags.len()
    }

    /// True once the pool has [`MIN_HISTORY`] observations and fitted models
    /// to predict.
    pub fn is_ready(&self) -> bool {
        self.data.len() >= MIN_HISTORY && self.members.iter().any(|m| m.model.is_fitted())
    }

    /// Each fitted member's estimate for a task of `input` bytes as gating
    /// sees it, clamped to be non-negative, in member order; a member that
    /// cannot predict is left out. A diagnostic: the predict path fills a
    /// recycled buffer through `individual_estimates_into` instead.
    pub fn member_estimates(&self, input: f64) -> Vec<(ModelClass, f64)> {
        let mut scratch = PoolScratch::default();
        self.individual_estimates_into(input, &mut scratch);
        scratch.estimates
    }

    /// Fills `scratch.estimates` with each fitted member's estimate for a
    /// task of `input` bytes, clamped to be non-negative; non-finite
    /// estimates are dropped, so the buffer is empty when no member can
    /// predict.
    pub(crate) fn individual_estimates_into(&self, input: f64, scratch: &mut PoolScratch) {
        scratch.estimates.clear();
        for m in &self.members {
            if let Some(p) = m.estimate(input, &mut scratch.ml) {
                scratch.estimates.push((m.class, p));
            }
        }
    }

    /// Runs the full prediction pipeline for a task of `input` bytes:
    /// individual estimates, RAQ scores, gating. Returns `None` when the
    /// pool is not ready. The per-member details (estimates, weights) stay
    /// in the caller's recycled `scratch`, so the predict hot path allocates
    /// nothing.
    pub fn gated_estimate_with(
        &self,
        input: f64,
        config: &SizeyConfig,
        scratch: &mut PoolScratch,
    ) -> Option<GatedOutcome> {
        if !self.is_ready() {
            return None;
        }
        self.individual_estimates_into(input, scratch);
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
        if self.is_ready() && self.note_drift_observation(true, config) {
            self.drift_retrain(config);
        }
    }

    /// Feeds one under-prediction flag to the rolling drift detector and
    /// reports whether it fired. A no-op returning `false` while
    /// [`DriftPolicy::Off`] is configured, so the off path stays
    /// bit-identical. Firing clears the window, so consecutive triggers are
    /// at least one full window apart.
    fn note_drift_observation(&mut self, under_predicted: bool, config: &SizeyConfig) -> bool {
        if config.drift == DriftPolicy::Off {
            return false;
        }
        self.drift_flags.push_back(under_predicted);
        while self.drift_flags.len() > DRIFT_WINDOW {
            self.drift_flags.pop_front();
        }
        if self.drift_flags.len() < DRIFT_WINDOW {
            return false;
        }
        let under = self.drift_flags.iter().filter(|&&f| f).count();
        if (under as f64) < DRIFT_THRESHOLD * DRIFT_WINDOW as f64 {
            return false;
        }
        self.drift_flags.clear();
        true
    }

    /// The drift response: drop the stale pre-drift history so the refit
    /// tracks the new regime, then force a full retrain.
    fn drift_retrain(&mut self, config: &SizeyConfig) {
        if self.data.len() > DRIFT_KEEP_RECENT {
            self.data.drain_front(self.data.len() - DRIFT_KEEP_RECENT);
        }
        self.full_retrain(config);
    }

    /// Incorporates a successful execution of a task of `input` bytes:
    /// prequential score bookkeeping, dataset growth and the online model
    /// update. The pre-learning member predictions, the aggregate estimate
    /// and the update datasets run over the caller's recycled `scratch`.
    pub fn observe_success(
        &mut self,
        input: f64,
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
            if let Some(p) = member.estimate(input, &mut scratch.ml) {
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
        let gated = if self.is_ready() {
            self.gate_estimates(config, scratch)
        } else {
            None
        };
        if let Some(outcome) = gated {
            self.aggregate_history.push((outcome.estimate, peak_bytes));
            drift_under = Some(outcome.estimate < peak_bytes);
        }

        // 3. Grow the training data.
        self.data.push(input, peak_bytes);
        self.max_observed = max_finite(self.max_observed, peak_bytes);

        // 3b. The prequential and offset histories are trimmed to their
        // fixed read windows once they double them (amortised O(1) per
        // observation): the scores only ever read the most recent
        // `ACCURACY_WINDOW` / `OFFSET_HISTORY_WINDOW` entries, so this is
        // invisible to predictions. Opt-in bounded history does the same to
        // the training set, which it drains back to the configured window,
        // and then fully retrains the models on the trimmed window so they
        // never depend on dropped rows. Everything is deterministic in the
        // observation count, preserving replay reproducibility.
        for member in &mut self.members {
            trim_to_window(&mut member.accuracy_scores, ACCURACY_WINDOW);
        }
        trim_to_window(&mut self.aggregate_history, OFFSET_HISTORY_WINDOW);
        let mut trimmed = false;
        if let Some(window) = config.history_window {
            let window = window.max(1);
            if self.data.len() >= 2 * window {
                self.data.drain_front(self.data.len() - window);
                trimmed = true;
            }
        }

        // 4. Online model update.
        if trimmed {
            // The window boundary is a de-facto full retrain, whatever the
            // retrain interval asked for.
            self.full_retrain(config);
        } else {
            self.since_full_retrain += 1;
            let interval = config.retrain_interval;
            if interval > 0 && self.since_full_retrain >= interval {
                self.full_retrain(config);
            } else {
                self.incremental_update(scratch);
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

    /// A full retrain, whatever made it due (window trim, retrain interval,
    /// drift), runs inside the observe that found it due: restart
    /// the interval counter and refit every member on the complete training
    /// data — a grid search when HPO is configured and there is enough data
    /// for its folds.
    fn full_retrain(&mut self, config: &SizeyConfig) {
        self.since_full_retrain = 0;
        if config.hyperparameter_optimization && self.data.len() >= 6 {
            self.grid_search_retrain(config);
        } else {
            self.refit_members();
        }
        self.model_epoch += 1;
    }

    /// Refits every member on the complete training data. The MLP's fit
    /// and the forest's trees, by far the two most expensive fits, share
    /// one worker queue: the forest fits with the MLP's fit at the head of
    /// its tree queue. Members never read each other, and the MLP and every
    /// tree draw from their own seeded RNGs, so each member ends up
    /// bit-identical to fitting it alone. `fit` is transactional: a failed
    /// refit keeps the member's previous fitted state, which is still the
    /// best information we have.
    fn refit_members(&mut self) {
        let data = &self.data;
        let mut mlp = None;
        let mut forest = None;
        for member in &mut self.members {
            match member.class {
                ModelClass::Mlp if mlp.is_none() => mlp = Some(&mut member.model),
                ModelClass::RandomForest if forest.is_none() => forest = Some(&mut member.model),
                _ => {
                    let _ = member.model.fit(data);
                }
            }
        }
        match (forest, mlp) {
            (Some(forest), Some(mlp)) => {
                let _ = forest.fit_beside(data, &mut || {
                    let _ = mlp.fit(data);
                });
            }
            (forest, mlp) => {
                for model in forest.into_iter().chain(mlp) {
                    let _ = model.fit(data);
                }
            }
        }
    }

    /// Replaces every member by the winner of a grid search over its class,
    /// or refits it when the search fails.
    fn grid_search_retrain(&mut self, config: &SizeyConfig) {
        for member in &mut self.members {
            let specs = ModelSpec::default_grid(member.class, config.seed);
            match grid_search(&specs, &self.data, 3) {
                Ok(result) => member.model = result.model,
                Err(_) => {
                    let _ = member.model.fit(&self.data);
                }
            }
        }
    }
}

/// Drops the oldest entries of `history` down to its last `window` once it
/// holds twice that many.
fn trim_to_window<T>(history: &mut Vec<T>, window: usize) {
    if history.len() >= 2 * window {
        history.drain(..history.len() - window);
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
        input: f64,
        cfg: &SizeyConfig,
    ) -> Option<(GatedOutcome, PoolScratch)> {
        let mut scratch = PoolScratch::default();
        let outcome = pool.gated_estimate_with(input, cfg, &mut scratch)?;
        Some((outcome, scratch))
    }

    fn estimates(pool: &ModelPool, input: f64) -> Option<Vec<(ModelClass, f64)>> {
        let estimates = pool.member_estimates(input);
        (!estimates.is_empty()).then_some(estimates)
    }

    fn feed_linear(pool: &mut ModelPool, cfg: &SizeyConfig, n: usize) {
        for i in 1..=n {
            let input = i as f64 * 1e9;
            pool.observe_success(input, 2.0 * input + 1e9, cfg, &mut PoolScratch::default());
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
            let estimates = estimates(&pool, 5e9).unwrap();
            let (_, mlp) = estimates
                .into_iter()
                .find(|(class, _)| *class == ModelClass::Mlp)
                .unwrap();
            mlp
        };
        assert_ne!(mlp_estimate(7).to_bits(), mlp_estimate(8).to_bits());
    }

    /// Regression: the grid of an HPO retrain used to be built from the
    /// model defaults, so under incremental mode the winner dropped the
    /// pool's update settings. The pool's forest refits one tree every four
    /// observes; a default-built 16- or 32-tree winner refit 4 or 8 trees on
    /// every observe (and an MLP winner ran 30 warm-start epochs, not 5).
    /// With the member's settings inherited, the observe right after the
    /// retrain banks too little credit to refit any tree, so the forest's
    /// estimate does not move.
    #[test]
    fn hpo_winners_keep_the_members_incremental_settings() {
        let cfg = SizeyConfig {
            retrain_interval: 8,
            hyperparameter_optimization: true,
            ..config()
        }
        .with_model_classes(vec![ModelClass::RandomForest]);
        let mut pool = ModelPool::new(&cfg);
        // The first observe fits the cold forest; the ninth is the eighth
        // since then, so it runs the grid search.
        feed_linear(&mut pool, &cfg, 9);
        assert_eq!(pool.model_epoch(), 1);
        let forest = |pool: &ModelPool| estimates(pool, 4.5e9).unwrap()[0].1;
        let retrained = forest(&pool);
        pool.observe_success(10e9, 21e9, &cfg, &mut PoolScratch::default());
        assert_eq!(pool.model_epoch(), 1, "the tenth observe is incremental");
        assert_eq!(forest(&pool).to_bits(), retrained.to_bits());
    }

    /// A class listed twice still gets one member: a second linear model
    /// would predict what the first does and double its weight in gating.
    #[test]
    fn a_repeated_class_builds_one_member() {
        let repeated = config().with_model_classes(vec![
            ModelClass::Linear,
            ModelClass::Linear,
            ModelClass::Knn,
        ]);
        let distinct = config().with_model_classes(vec![ModelClass::Linear, ModelClass::Knn]);
        let mut a = ModelPool::new(&repeated);
        let mut b = ModelPool::new(&distinct);
        assert_eq!(a.members.len(), 2);
        for i in 1..=30 {
            let input = i as f64 * 1e9;
            let peak = 2.0 * input + 1e9 + (i % 7) as f64 * 3e8;
            let query = input + 5e8;
            let ea = gated(&a, query, &repeated).map(|(o, _)| (o.estimate.to_bits(), o.dominant));
            let eb = gated(&b, query, &distinct).map(|(o, _)| (o.estimate.to_bits(), o.dominant));
            assert_eq!(ea, eb, "observe {i}");
            a.observe_success(input, peak, &repeated, &mut PoolScratch::default());
            b.observe_success(input, peak, &distinct, &mut PoolScratch::default());
        }
        assert!(gated(&a, 7.5e9, &repeated).is_some());
    }

    /// The pool trains each class's one configuration: with a retrain
    /// interval of 1 and no grid search, every observe refits every member
    /// on all rows so far, and each member predicts bit for bit what
    /// `default_model` does after the same sequence of fits.
    #[test]
    fn members_are_the_default_models() {
        let cfg = SizeyConfig {
            retrain_interval: 1,
            hyperparameter_optimization: false,
            seed: 42,
            ..config()
        };
        let mut pool = ModelPool::new(&cfg);
        let mut defaults = ModelClass::ALL.map(sizey_ml::default_model);
        let mut data = Dataset::new();
        for i in 1..=30 {
            let input = i as f64 * 1e9;
            let peak = 2.0 * input + 1e9 + (i % 7) as f64 * 3e8;
            pool.observe_success(input, peak, &cfg, &mut PoolScratch::default());
            data.push(input, peak);
            for model in &mut defaults {
                model.fit(&data).unwrap();
            }
        }
        assert_eq!(pool.model_epoch(), 30);
        for query in [0.5e9, 7.5e9, 21e9, 40e9] {
            let estimates = pool.member_estimates(query);
            assert_eq!(estimates.len(), ModelClass::ALL.len());
            for ((class, estimate), model) in estimates.into_iter().zip(&defaults) {
                assert_eq!(class, model.class());
                let want = model.predict(&[query]).unwrap().max(0.0);
                assert_eq!(estimate.to_bits(), want.to_bits(), "{class} at {query}");
            }
        }
    }

    #[test]
    fn empty_pool_is_not_ready() {
        let cfg = config();
        let pool = ModelPool::new(&cfg);
        assert!(!pool.is_ready());
        assert!(estimates(&pool, 1e9).is_none());
        assert!(gated(&pool, 1e9, &cfg).is_none());
        assert_eq!(pool.max_observed(), None);
    }

    #[test]
    fn pool_becomes_ready_after_min_history() {
        let cfg = config();
        let mut pool = ModelPool::new(&cfg);
        feed_linear(&mut pool, &cfg, MIN_HISTORY - 1);
        assert!(!pool.is_ready());
        feed_linear(&mut pool, &cfg, 1);
        assert!(pool.is_ready());
        assert_eq!(pool.n_observations(), MIN_HISTORY);
    }

    #[test]
    fn estimates_cover_all_configured_classes() {
        let cfg = config();
        let mut pool = ModelPool::new(&cfg);
        feed_linear(&mut pool, &cfg, 8);
        let estimates = estimates(&pool, 4e9).unwrap();
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
        let (outcome, scratch) = gated(&pool, 8e9, &cfg).unwrap();
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
        let (outcome, scratch) = gated(&pool, 5e9, &cfg).unwrap();
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
            // What every member predicts before the observe learns the task.
            let before: Vec<Option<f64>> = pool
                .members
                .iter()
                .map(|m| m.model.predict(&[input]).ok().filter(|p| p.is_finite()))
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
            let want = gated(&scored, input, &cfg).map(|(o, _)| o.estimate.to_bits());
            let history_before = pool.aggregate_history().len();

            pool.observe_success(input, peak, &cfg, &mut PoolScratch::default());

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
        pool.observe_success(1e9, 3e9, &cfg, &mut PoolScratch::default());
        assert_eq!(pool.max_observed(), Some(3e9));
        pool.observe_failure(8e9, &cfg);
        assert_eq!(pool.max_observed(), Some(8e9));
        pool.observe_success(1e9, 5e9, &cfg, &mut PoolScratch::default());
        assert_eq!(pool.max_observed(), Some(8e9));
    }

    /// A retrain interval of 1 (Fig. 9's "Sizey-Full") retrains on every
    /// observe, so the interval counter is back at 0 after each one.
    #[test]
    fn interval_of_one_retrains_every_time() {
        let cfg = SizeyConfig {
            retrain_interval: 1,
            ..SizeyConfig::default()
        };
        let mut pool = ModelPool::new(&cfg);
        for n in 1..=5 {
            feed_linear(&mut pool, &cfg, 1);
            assert_eq!(pool.model_epoch(), n);
            assert_eq!(pool.since_full_retrain(), 0);
        }
        assert!(pool.is_ready());
    }

    #[test]
    fn restricted_pool_only_builds_requested_classes() {
        let cfg = config().with_model_classes(vec![ModelClass::Linear, ModelClass::Knn]);
        let mut pool = ModelPool::new(&cfg);
        feed_linear(&mut pool, &cfg, 6);
        let estimates = estimates(&pool, 3e9).unwrap();
        assert_eq!(estimates.len(), 2);
        let classes: Vec<ModelClass> = estimates.iter().map(|(c, _)| *c).collect();
        assert!(classes.contains(&ModelClass::Linear));
        assert!(classes.contains(&ModelClass::Knn));
    }

    #[test]
    fn incremental_mode_periodically_retrains() {
        let cfg = SizeyConfig {
            retrain_interval: 3,
            ..SizeyConfig::default()
        };
        let mut pool = ModelPool::new(&cfg);
        feed_linear(&mut pool, &cfg, 10);
        // After 10 observations with interval 3 the counter must have cycled.
        assert!(pool.since_full_retrain < 3);
    }

    #[test]
    fn history_window_bounds_training_data_and_histories() {
        let cfg = config().with_history_window(16);
        let mut pool = ModelPool::new(&cfg);
        for i in 1..=300 {
            let input = (i % 20 + 1) as f64 * 1e9;
            pool.observe_success(input, 2.0 * input + 1e9, &cfg, &mut PoolScratch::default());
        }
        // Amortised trim: the dataset never doubles the window.
        assert!(pool.n_observations() < 32, "kept {}", pool.n_observations());
        for member in &pool.members {
            assert!(member.accuracy_scores.len() < 2 * ACCURACY_WINDOW);
        }
        assert!(pool.aggregate_history().len() < 2 * OFFSET_HISTORY_WINDOW);
        // The pool still predicts from the retained window.
        assert!(pool.is_ready());
        let (outcome, _) = gated(&pool, 10e9, &cfg).unwrap();
        let truth = 2.0 * 10e9 + 1e9;
        assert!(
            (outcome.estimate - truth).abs() / truth < 0.5,
            "estimate {} vs truth {}",
            outcome.estimate,
            truth
        );
    }

    #[test]
    fn unbounded_default_retains_every_row_but_only_the_score_windows() {
        let cfg = config();
        let mut pool = ModelPool::new(&cfg);
        feed_linear(&mut pool, &cfg, 120);
        assert_eq!(pool.n_observations(), 120);
        // The score histories are trimmed to their read windows all the
        // same.
        for member in &pool.members {
            assert!(member.accuracy_scores.len() >= ACCURACY_WINDOW);
            assert!(member.accuracy_scores.len() < 2 * ACCURACY_WINDOW);
        }
        assert!(pool.aggregate_history().len() >= OFFSET_HISTORY_WINDOW);
        assert!(pool.aggregate_history().len() < 2 * OFFSET_HISTORY_WINDOW);
    }

    /// A drift-armed configuration with no scheduled full retrains: the
    /// model epoch can only move when the drift detector fires, which makes
    /// triggers observable.
    fn drift_only() -> SizeyConfig {
        SizeyConfig {
            retrain_interval: 0,
            drift: DriftPolicy::Retrain,
            ..SizeyConfig::default()
        }
    }

    #[test]
    fn unfired_drift_detector_is_bit_identical_to_off() {
        let armed = drift_only();
        let off = armed.clone().with_drift_policy(DriftPolicy::Off);
        let mut a = ModelPool::new(&off);
        let mut b = ModelPool::new(&armed);
        let mut fired_at = None;
        for i in 1..=40 {
            let input = i as f64 * 1e9;
            // A drifting regime: plenty of genuine under-predictions.
            let peak = if i <= 10 {
                2.0 * input + 1e9
            } else {
                6.0 * input + 8e9
            };
            a.observe_success(input, peak, &off, &mut PoolScratch::default());
            b.observe_success(input, peak, &armed, &mut PoolScratch::default());
            if b.model_epoch() != a.model_epoch() {
                fired_at = Some(i);
                break;
            }
            // Until the detector fires only its bookkeeping runs.
            let query = input + 5e8;
            let ea = gated(&a, query, &off).map(|(d, _)| d.estimate);
            let eb = gated(&b, query, &armed).map(|(d, _)| d.estimate);
            assert_eq!(
                ea.map(f64::to_bits),
                eb.map(f64::to_bits),
                "an unfired detector must not perturb predictions (observe {i})"
            );
            assert_eq!(a.n_observations(), b.n_observations());
        }
        assert!(
            fired_at.is_some_and(|i| i > 10),
            "the regime change must fire the detector, and only after it ({fired_at:?})"
        );
    }

    #[test]
    fn underprediction_burst_triggers_a_full_retrain() {
        let cfg = drift_only();
        let off = cfg.clone().with_drift_policy(DriftPolicy::Off);
        let mut drifting = ModelPool::new(&cfg);
        let mut control = ModelPool::new(&off);
        feed_linear(&mut drifting, &cfg, 10);
        feed_linear(&mut control, &off, 10);
        let epoch_before = drifting.model_epoch();
        // Regime change: peaks jump far above anything the regime-A models
        // predict, so every observation is an under-prediction.
        for i in 11..=10 + DRIFT_WINDOW {
            let input = i as f64 * 1e9;
            let peak = 6.0 * input + 8e9;
            drifting.observe_success(input, peak, &cfg, &mut PoolScratch::default());
            control.observe_success(input, peak, &off, &mut PoolScratch::default());
        }
        assert!(
            drifting.model_epoch() > epoch_before,
            "the under-prediction burst must force a full retrain"
        );
        assert_eq!(
            control.model_epoch(),
            0,
            "without a drift policy nothing retrains at interval 0"
        );
    }

    #[test]
    fn drift_trigger_trims_history_to_keep_recent() {
        let cfg = drift_only();
        let mut pool = ModelPool::new(&cfg);
        let before = DRIFT_KEEP_RECENT + 10;
        feed_linear(&mut pool, &cfg, before);
        let epoch_before = pool.model_epoch();
        let mut fired = false;
        for i in before + 1..=before + DRIFT_WINDOW {
            let input = i as f64 * 1e9;
            pool.observe_success(input, 6.0 * input + 8e9, &cfg, &mut PoolScratch::default());
            if pool.model_epoch() > epoch_before {
                fired = true;
                assert_eq!(
                    pool.n_observations(),
                    DRIFT_KEEP_RECENT,
                    "the trigger must trim the training data to DRIFT_KEEP_RECENT"
                );
                break;
            }
        }
        assert!(fired, "the regime change must fire the detector");
    }

    #[test]
    fn oom_failures_feed_the_detector_once_the_pool_is_ready() {
        let cfg = drift_only();
        // Cold pool: failures say nothing about the models and must not
        // accumulate detector state.
        let mut cold = ModelPool::new(&cfg);
        for _ in 0..2 * DRIFT_WINDOW {
            cold.observe_failure(64e9, &cfg);
        }
        assert_eq!(cold.model_epoch(), 0);
        // Ready pool: a window of consecutive OOMs fills it at rate 1.0.
        let mut ready = ModelPool::new(&cfg);
        feed_linear(&mut ready, &cfg, 6);
        let epoch_before = ready.model_epoch();
        for _ in 0..DRIFT_WINDOW {
            ready.observe_failure(64e9, &cfg);
        }
        assert!(ready.model_epoch() > epoch_before);
    }
}
