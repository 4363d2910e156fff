//! Random-forest regression.
//!
//! The paper includes a random forest in the model pool because ensembles of
//! decorrelated trees are robust to overfitting when only a few historical
//! task executions exist. Trees are trained on bootstrap resamples. Several
//! trees on at least [`PARALLEL_FIT_MIN_ROWS`] rows are fitted on scoped
//! threads; smaller fits run on the calling thread. A fit with a side job
//! ([`Regressor::fit_beside`]) puts the job at the head of its tree queue,
//! and is threaded from [`PARALLEL_BESIDE_MIN_ROWS`] rows instead. Each tree
//! has its own seed and is installed in index order, so the forest is the
//! same either way.
//!
//! The incremental update ([`Regressor::partial_fit`]) appends the new
//! observations to the retained training set and refits only a rotating
//! subset of trees on the most recent observations, which is the classic
//! cheap approximation of online random forests and is what gives the
//! "Sizey-Incremental" variant its speed advantage in Fig. 9.

use crate::dataset::Dataset;
use crate::model::{validate_query, validate_training_data, ModelClass, ModelError, Regressor};
use crate::parallel::{default_parallelism, parallel_map, parallel_map_beside};
use crate::tree::{RegressionTree, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bootstrap size from which [`RandomForestRegression`] fits its trees on
/// scoped threads when it has no side job. A smaller sample is fitted
/// sequentially: spawning the workers costs more than fitting the trees.
/// A fit with a side job ([`Regressor::fit_beside`]) is governed by
/// [`PARALLEL_BESIDE_MIN_ROWS`] instead. The forest is the same either way.
/// Full fits of 24 depth-8 trees on one feature without a side job, on a
/// 2-vCPU x86-64 host (medians of five alternating runs of each, µs):
///
/// | rows | threaded | serial | threaded faster |
/// |---|---|---|---|
/// | 32 | 165 | 86 | 0 of 5 |
/// | 48 | 196 | 167 | 1 of 5 |
/// | 64 | 335 | 329 | 3 of 5 |
/// | 96 | 445 | 556 | 5 of 5 |
/// | 128 | 631 | 817 | 4 of 5 |
/// | 268 | 1,305 | 2,048 | 4 of 5 |
/// | 800 | 3,244 | 5,390 | 5 of 5 |
///
/// The break-even is at 64 rows. Only fits without a side job are measured
/// here and governed by it.
pub const PARALLEL_FIT_MIN_ROWS: usize = 64;

/// Bootstrap size from which [`Regressor::fit_beside`] runs its side job
/// on the calling thread while a worker grows trees. The side job keeps the
/// calling thread busy, so the break-even sits far below
/// [`PARALLEL_FIT_MIN_ROWS`]; a smaller fit runs the side job and then its
/// trees on the calling thread. Sizey's full retrain, the one caller, fits
/// its MLP (one hidden layer of 16, 120 epochs) beside 24 depth-8 trees;
/// on one feature, on a 2-vCPU x86-64 host (medians of 500 alternating
/// rounds of each, µs):
///
/// | rows | one after another | beside | speed-up |
/// |---|---|---|---|
/// | 3 | 47 | 108 | 0.44 |
/// | 5 | 73 | 131 | 0.56 |
/// | 10 | 194 | 193 | 1.00 |
/// | 14 | 264 | 238 | 1.11 |
/// | 18 | 263 | 249 | 1.06 |
/// | 20 | 297 | 265 | 1.12 |
/// | 24 | 428 | 358 | 1.20 |
/// | 32 | 603 | 474 | 1.27 |
/// | 64 | 1,136 | 814 | 1.40 |
/// | 256 | 2,452 | 1,572 | 1.56 |
///
/// Below 20 rows the MLP's fit often stops early and the spawn dominates:
/// across three runs the speed-up at 10–18 rows read 0.78–1.11, and at 20
/// rows 1.03–1.18. While the host's second vCPU was busy with other work,
/// the side job lost at every size (0.95 at 256 rows).
pub const PARALLEL_BESIDE_MIN_ROWS: usize = 20;

/// Share of the forest's trees a `partial_fit` refreshes per observation
/// (`n_trees * REFRESH_SHARE_PER_ROW` trees of credit per row). The credit
/// is banked across calls, so the pool's 24 trees earn a quarter tree per
/// observation and refit one tree every four completions, which caps
/// per-observe work on the hot path. A 16- or 32-tree grid-search winner
/// earns proportionally less or more.
const REFRESH_SHARE_PER_ROW: f64 = 0.25 / 24.0;

/// Trees refreshed by `partial_fit` bootstrap-resample only from this many
/// most recent observations, so per-observe work stays O(window), not
/// O(history). A full `fit` always trains on the complete dataset.
const REFRESH_WINDOW: usize = 256;

/// Hyper-parameters for [`RandomForestRegression`]. The default is the
/// forest Sizey's model pool trains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Maximum depth of each tree.
    pub max_depth: usize,
    /// Seed for bootstrap resampling.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 24,
            max_depth: 8,
            seed: 42,
        }
    }
}

/// Random-forest regressor.
#[derive(Clone)]
pub struct RandomForestRegression {
    config: ForestConfig,
    trees: Vec<RegressionTree>,
    /// Retained training data so incremental updates and tree refreshes can
    /// resample from the full history.
    history: Dataset,
    fitted: bool,
    /// Index of the next tree to refresh on an incremental update.
    refresh_cursor: usize,
    /// Banked fractional refresh budget; `partial_fit` refreshes
    /// `floor(credit)` trees and carries the remainder forward.
    refresh_credit: f64,
    /// Monotonic counter so each (re)fit uses fresh bootstrap seeds.
    fit_generation: u64,
}

impl std::fmt::Debug for RandomForestRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RandomForestRegression")
            .field("config", &self.config)
            .field("n_trees", &self.trees.len())
            .field("history_len", &self.history.len())
            .field("fitted", &self.fitted)
            .finish()
    }
}

impl RandomForestRegression {
    /// Creates an unfitted forest with the given configuration.
    pub fn new(config: ForestConfig) -> Self {
        RandomForestRegression {
            config,
            trees: Vec::new(),
            history: Dataset::new(),
            fitted: false,
            refresh_cursor: 0,
            refresh_credit: 0.0,
            fit_generation: 0,
        }
    }

    /// Creates an unfitted forest with default configuration.
    pub fn with_defaults() -> Self {
        RandomForestRegression::new(ForestConfig::default())
    }

    /// The configuration used by this forest.
    pub fn config(&self) -> ForestConfig {
        self.config
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of retained training observations.
    pub fn n_observations(&self) -> usize {
        self.history.len()
    }

    fn tree_config(&self) -> TreeConfig {
        TreeConfig {
            max_depth: self.config.max_depth,
        }
    }

    /// Trains a single tree on a bootstrap resample drawn with `seed`. The
    /// resample stays an index buffer into the retained history — the tree
    /// trains through [`RegressionTree::fit_with_indices`], which gathers
    /// only the sample's inputs and targets, so no per-tree copy of the rows
    /// is materialised (the rng consumption and the resulting tree are
    /// bit-identical to fitting on the cloned subset).
    fn train_tree(&self, seed: u64, window_start: usize) -> Result<RegressionTree, ModelError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.history.len();
        // The bootstrap draws only from `window_start..n`; a full fit passes
        // `window_start == 0`, which consumes the rng identically to the
        // pre-window implementation.
        let indices: Vec<usize> = (0..n - window_start)
            .map(|_| rng.gen_range(window_start..n))
            .collect();
        let mut tree = RegressionTree::new(self.tree_config());
        tree.fit_with_indices(&self.history, indices)?;
        Ok(tree)
    }

    /// Regrows the trees at `tree_indices` from bootstrap draws of
    /// `window_start..`, with `side` at the head of the tree queue when
    /// given.
    fn fit_trees(
        &mut self,
        tree_indices: &[usize],
        window_start: usize,
        side: Option<&mut dyn FnMut()>,
    ) -> Result<(), ModelError> {
        let generation = self.fit_generation;
        let seeds: Vec<(usize, u64)> = tree_indices
            .iter()
            .map(|&i| {
                (
                    i,
                    self.config
                        .seed
                        .wrapping_add(generation.wrapping_mul(10_007))
                        .wrapping_add(i as u64 * 7919),
                )
            })
            .collect();
        let min_rows = if side.is_some() {
            PARALLEL_BESIDE_MIN_ROWS
        } else {
            PARALLEL_FIT_MIN_ROWS
        };
        let threads = if self.history.len() - window_start < min_rows {
            1
        } else {
            default_parallelism()
        };
        let this = &*self;
        let grow = |&(_, seed): &(usize, u64)| this.train_tree(seed, window_start);
        let results = match side {
            Some(side) => parallel_map_beside(&seeds, threads, side, grow),
            None => parallel_map(&seeds, threads, grow),
        };
        let mut trained = Vec::with_capacity(results.len());
        for r in results {
            trained.push(r?);
        }
        if self.trees.len() != self.config.n_trees {
            self.trees = vec![RegressionTree::new(self.tree_config()); self.config.n_trees];
        }
        // Install a copy of each replaced tree in a fresh, exactly sized
        // allocation, made back to back while every grown tree is still
        // alive. A predict walks every tree, and a grown tree's nodes
        // otherwise stay wherever its growth left them, between freed growth
        // buffers and whatever else was allocated meanwhile. On `serve_read`
        // the scattered layout cost about 10 % of predicts/s. A full fit
        // replaces, and so compacts, the whole ensemble; a partial refresh
        // copies only the few trees it replaced, and the untouched trees
        // keep the compact copies an earlier fit made.
        for ((i, _), tree) in seeds.iter().zip(&trained) {
            self.trees[*i] = tree.clone();
        }
        self.fit_generation += 1;
        Ok(())
    }

    /// A full fit, with `side` at the head of the tree queue when given.
    /// `side` runs exactly once, also when the data is refused.
    fn full_fit(
        &mut self,
        data: &Dataset,
        side: Option<&mut dyn FnMut()>,
    ) -> Result<(), ModelError> {
        if let Err(e) = validate_training_data(data) {
            if let Some(side) = side {
                side();
            }
            return Err(e);
        }
        // Train the replacement ensemble into a staging forest before
        // touching any fitted state: a failed refit must leave the previous
        // model serving. The staging forest inherits this instance's seed
        // generation so a successful refit is bit-identical to the former
        // in-place path.
        let mut staged = RandomForestRegression::new(self.config);
        staged.history = data.clone();
        staged.fit_generation = self.fit_generation;
        let all: Vec<usize> = (0..self.config.n_trees).collect();
        staged.fit_trees(&all, 0, side)?;
        self.history = staged.history;
        self.trees = staged.trees;
        self.fit_generation = staged.fit_generation;
        self.fitted = true;
        self.refresh_cursor = 0;
        self.refresh_credit = 0.0;
        Ok(())
    }
}

impl Regressor for RandomForestRegression {
    fn fit(&mut self, data: &Dataset) -> Result<(), ModelError> {
        self.full_fit(data, None)
    }

    /// Puts `side` at the head of the tree queue: from
    /// [`PARALLEL_BESIDE_MIN_ROWS`] rows the calling thread runs it while a
    /// worker starts on the trees.
    fn fit_beside(&mut self, data: &Dataset, side: &mut dyn FnMut()) -> Result<(), ModelError> {
        self.full_fit(data, Some(side))
    }

    fn partial_fit(&mut self, data: &Dataset) -> Result<(), ModelError> {
        validate_training_data(data)?;
        if !self.fitted {
            return self.fit(data);
        }
        for (x, y) in data.iter() {
            self.history.push(x, y);
        }
        // Bank the per-observation refresh budget and spend whole trees; a
        // budget below one tree per observation therefore refreshes nothing
        // on most observes, keeping the hot path cheap.
        let earned = self.config.n_trees as f64 * REFRESH_SHARE_PER_ROW * data.len() as f64;
        self.refresh_credit = (self.refresh_credit + earned).min(self.config.n_trees as f64);
        let refresh = (self.refresh_credit.floor() as usize).min(self.config.n_trees);
        if refresh == 0 {
            return Ok(());
        }
        self.refresh_credit -= refresh as f64;
        let indices: Vec<usize> = (0..refresh)
            .map(|i| (self.refresh_cursor + i) % self.config.n_trees)
            .collect();
        self.refresh_cursor = (self.refresh_cursor + refresh) % self.config.n_trees;
        let window_start = self.history.len().saturating_sub(REFRESH_WINDOW);
        self.fit_trees(&indices, window_start, None)
    }

    fn predict(&self, features: &[f64]) -> Result<f64, ModelError> {
        if !self.fitted || self.trees.is_empty() {
            return Err(ModelError::NotFitted);
        }
        validate_query(features)?;
        let mut sum = 0.0;
        let mut count = 0usize;
        for tree in &self.trees {
            if tree.is_fitted() {
                sum += tree.predict(features)?;
                count += 1;
            }
        }
        if count == 0 {
            return Err(ModelError::NotFitted);
        }
        Ok(sum / count as f64)
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn class(&self) -> ModelClass {
        ModelClass::RandomForest
    }

    fn clone_box(&self) -> Box<dyn Regressor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_dataset(n: usize) -> Dataset {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| if x < n as f64 / 2.0 { 100.0 } else { 500.0 })
            .collect();
        Dataset::from_univariate(&xs, &ys)
    }

    #[test]
    fn learns_step_function() {
        let data = step_dataset(60);
        let mut f = RandomForestRegression::new(ForestConfig {
            n_trees: 16,
            ..ForestConfig::default()
        });
        f.fit(&data).unwrap();
        assert!((f.predict(&[5.0]).unwrap() - 100.0).abs() < 40.0);
        assert!((f.predict(&[55.0]).unwrap() - 500.0).abs() < 40.0);
    }

    #[test]
    fn prediction_is_bounded_by_observed_targets() {
        let data = step_dataset(40);
        let mut f = RandomForestRegression::with_defaults();
        f.fit(&data).unwrap();
        let p = f.predict(&[1_000.0]).unwrap();
        assert!((100.0 - 1e-9..=500.0 + 1e-9).contains(&p));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = step_dataset(50);
        let cfg = ForestConfig {
            n_trees: 8,
            seed: 7,
            ..ForestConfig::default()
        };
        let mut a = RandomForestRegression::new(cfg);
        let mut b = RandomForestRegression::new(cfg);
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        for x in [3.0, 20.0, 45.0] {
            assert_eq!(a.predict(&[x]).unwrap(), b.predict(&[x]).unwrap());
        }
    }

    #[test]
    fn different_seeds_usually_differ() {
        let xs: Vec<f64> = (0..80).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| x * 3.0 + (x * 0.7).sin() * 10.0)
            .collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut a = RandomForestRegression::new(ForestConfig {
            seed: 1,
            n_trees: 4,
            ..ForestConfig::default()
        });
        let mut b = RandomForestRegression::new(ForestConfig {
            seed: 2,
            n_trees: 4,
            ..ForestConfig::default()
        });
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        let pa = a.predict(&[40.5]).unwrap();
        let pb = b.predict(&[40.5]).unwrap();
        assert!(
            (pa - pb).abs() > 1e-12,
            "bootstrap should differ across seeds"
        );
    }

    #[test]
    fn partial_fit_incorporates_new_observations() {
        let data = step_dataset(30);
        let mut f = RandomForestRegression::with_defaults();
        f.fit(&data).unwrap();
        // Teach it a new, much larger regime: 48 observations refresh 12 of
        // the 24 trees.
        for i in 0..48 {
            let new = Dataset::from_univariate(&[100.0 + (i % 4) as f64], &[5_000.0]);
            f.partial_fit(&new).unwrap();
        }
        assert_eq!(f.n_observations(), 78);
        let p = f.predict(&[102.0]).unwrap();
        assert!(p > 500.0, "new regime should raise the prediction, got {p}");
    }

    #[test]
    fn partial_fit_refreshes_only_a_subset() {
        let data = step_dataset(30);
        let mut f = RandomForestRegression::new(ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        });
        f.fit(&data).unwrap();
        let new = Dataset::from_univariate(&[40.0], &[900.0]);
        f.partial_fit(&new).unwrap();
        assert_eq!(f.n_trees(), 8);
        assert_eq!(f.n_observations(), 31);
    }

    #[test]
    fn partial_fit_before_fit_acts_as_fit() {
        let mut f = RandomForestRegression::new(ForestConfig {
            n_trees: 4,
            ..ForestConfig::default()
        });
        f.partial_fit(&step_dataset(20)).unwrap();
        assert!(f.is_fitted());
    }

    #[test]
    fn errors_before_fit_and_on_bad_query() {
        let f = RandomForestRegression::with_defaults();
        assert!(matches!(f.predict(&[1.0]), Err(ModelError::NotFitted)));
        let mut fitted = RandomForestRegression::new(ForestConfig {
            n_trees: 2,
            ..ForestConfig::default()
        });
        fitted.fit(&step_dataset(10)).unwrap();
        assert!(matches!(
            fitted.predict(&[1.0, 2.0]),
            Err(ModelError::FeatureMismatch { .. })
        ));
    }

    #[test]
    fn fractional_refresh_credit_is_banked_across_observes() {
        let data = step_dataset(30);
        // 24 trees earn a quarter tree of credit per observation: the first
        // three observes refresh nothing, the fourth spends one tree.
        let mut f = RandomForestRegression::with_defaults();
        f.fit(&data).unwrap();
        let baseline = f.predict(&[52.0]).unwrap();
        let row = |x: f64| Dataset::from_univariate(&[x], &[9_000.0]);
        for x in [50.0, 51.0, 52.0] {
            f.partial_fit(&row(x)).unwrap();
        }
        assert_eq!(
            f.predict(&[52.0]).unwrap().to_bits(),
            baseline.to_bits(),
            "no tree should refresh before a whole credit accrues"
        );
        f.partial_fit(&row(53.0)).unwrap();
        assert!(
            f.predict(&[52.0]).unwrap() > baseline,
            "the banked credit should refresh a tree on the fourth observe"
        );
    }

    #[test]
    fn windowed_refresh_trains_on_recent_history_only() {
        let data = step_dataset(20);
        let mut f = RandomForestRegression::with_defaults();
        f.fit(&data).unwrap();
        // Saturate the window with a constant new regime, then give every
        // tree time to refresh: each refreshed tree bootstraps only from
        // rows whose target is exactly 7000.
        for i in 0..REFRESH_WINDOW + 5 * 24 {
            let new = Dataset::from_univariate(&[100.0 + i as f64], &[7_000.0]);
            f.partial_fit(&new).unwrap();
        }
        assert_eq!(f.predict(&[3.0]).unwrap(), 7_000.0);
    }

    #[test]
    fn failed_refit_keeps_the_previous_forest_serving() {
        let data = step_dataset(30);
        let mut f = RandomForestRegression::new(ForestConfig {
            n_trees: 4,
            ..ForestConfig::default()
        });
        f.fit(&data).unwrap();
        let before = f.predict(&[10.0]).unwrap();
        assert!(f.fit(&Dataset::new()).is_err());
        assert!(f.is_fitted());
        assert_eq!(f.predict(&[10.0]).unwrap().to_bits(), before.to_bits());
        assert_eq!(f.n_observations(), 30);
    }

    #[test]
    fn fit_beside_grows_the_same_forest_and_runs_the_side_job_once() {
        // Below, between and above `PARALLEL_BESIDE_MIN_ROWS` and
        // `PARALLEL_FIT_MIN_ROWS`, and over several refits so the seed
        // generation advances on both forests.
        for rows in [3, 30, 200] {
            let cfg = ForestConfig {
                n_trees: 6,
                ..ForestConfig::default()
            };
            let mut alone = RandomForestRegression::new(cfg);
            let mut beside = RandomForestRegression::new(cfg);
            for refit in 0..3 {
                let data = step_dataset(rows + refit);
                let mut runs = 0;
                alone.fit(&data).unwrap();
                beside.fit_beside(&data, &mut || runs += 1).unwrap();
                assert_eq!(runs, 1);
                for x in [0.0, 1.5, rows as f64 / 2.0, 1e6] {
                    assert_eq!(
                        alone.predict(&[x]).unwrap().to_bits(),
                        beside.predict(&[x]).unwrap().to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn refused_data_still_runs_the_side_job_once_and_keeps_the_forest() {
        let data = step_dataset(100);
        let mut f = RandomForestRegression::new(ForestConfig {
            n_trees: 4,
            ..ForestConfig::default()
        });
        f.fit(&data).unwrap();
        let before = f.predict(&[10.0]).unwrap();
        let non_finite = Dataset::from_univariate(&[1.0, 2.0, f64::NAN], &[1.0, 2.0, 3.0]);
        for refused in [Dataset::new(), non_finite] {
            let mut runs = 0;
            assert!(f.fit_beside(&refused, &mut || runs += 1).is_err());
            assert_eq!(runs, 1);
            assert!(f.is_fitted());
            assert_eq!(f.predict(&[10.0]).unwrap().to_bits(), before.to_bits());
            assert_eq!(f.n_observations(), 100);
        }
    }

    #[test]
    #[should_panic(expected = "side job failed")]
    fn a_panicking_side_job_reaches_the_caller() {
        let mut f = RandomForestRegression::new(ForestConfig {
            n_trees: 8,
            ..ForestConfig::default()
        });
        let _ = f.fit_beside(&step_dataset(100), &mut || panic!("side job failed"));
    }
}
