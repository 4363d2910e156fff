//! Cross-validation and grid-search hyper-parameter optimisation.
//!
//! The paper's prototype performs hyper-parameter optimisation as part of the
//! full retraining step (Fig. 9 includes it in the training time) and caches
//! the best hyper-parameters for the incremental variant. This module
//! provides the same machinery: parameter grids per model class, k-fold cross
//! validation, and a grid search that returns the best configuration together
//! with a model fitted on the full data.

use crate::dataset::Dataset;
use crate::forest::{ForestConfig, RandomForestRegression};
use crate::knn::{KnnConfig, KnnRegression, KnnWeighting};
use crate::linear::{LinearConfig, LinearRegression};
use crate::metrics::mse;
use crate::mlp::{MlpConfig, MlpRegression};
use crate::model::{ModelClass, ModelError, Regressor};
use crate::parallel::{default_parallelism, parallel_map};

/// A concrete hyper-parameter assignment for one model class: the class's
/// one configuration ([`ModelSpec::default_for`], the pool member) or a
/// grid-search candidate ([`ModelSpec::default_grid`]). Settings no
/// candidate varies are constants of their model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// Linear regression configuration.
    Linear(LinearConfig),
    /// k-NN regression configuration.
    Knn(KnnConfig),
    /// MLP regression configuration.
    Mlp(MlpConfig),
    /// Random-forest regression configuration.
    RandomForest(ForestConfig),
}

impl ModelSpec {
    /// The model class this spec instantiates.
    pub fn class(&self) -> ModelClass {
        match self {
            ModelSpec::Linear(_) => ModelClass::Linear,
            ModelSpec::Knn(_) => ModelClass::Knn,
            ModelSpec::Mlp(_) => ModelClass::Mlp,
            ModelSpec::RandomForest(_) => ModelClass::RandomForest,
        }
    }

    /// Builds an unfitted regressor from this spec.
    pub fn build(&self) -> Box<dyn Regressor> {
        match self {
            ModelSpec::Linear(c) => Box::new(LinearRegression::new(*c)),
            ModelSpec::Knn(c) => Box::new(KnnRegression::new(*c)),
            ModelSpec::Mlp(c) => Box::new(MlpRegression::new(c.clone())),
            ModelSpec::RandomForest(c) => Box::new(RandomForestRegression::new(*c)),
        }
    }

    /// The one configuration of a model class, the member Sizey's model pool
    /// trains, with the stochastic classes (MLP, forest) seeded from `seed`.
    /// [`default_model`](crate::default_model) is this spec at seed 42.
    pub fn default_for(class: ModelClass, seed: u64) -> ModelSpec {
        match class {
            ModelClass::Linear => ModelSpec::Linear(LinearConfig::default()),
            ModelClass::Knn => ModelSpec::Knn(KnnConfig::default()),
            ModelClass::Mlp => ModelSpec::Mlp(MlpConfig {
                seed,
                ..MlpConfig::default()
            }),
            ModelClass::RandomForest => ModelSpec::RandomForest(ForestConfig {
                seed,
                ..ForestConfig::default()
            }),
        }
    }

    /// The default hyper-parameter grid searched for a model class, with
    /// the stochastic classes (MLP, forest) seeded from `seed`. The
    /// incremental update of a class is not a hyper-parameter, so a winner
    /// that replaces a pool member between incremental updates updates as
    /// the member did. The grids are intentionally small — Sizey retrains
    /// on every task completion, so the search must stay in the
    /// millisecond-to-second range (Fig. 9).
    pub fn default_grid(class: ModelClass, seed: u64) -> Vec<ModelSpec> {
        let knn = |k, weighting| ModelSpec::Knn(KnnConfig { k, weighting });
        let mlp = |hidden_layers| {
            ModelSpec::Mlp(MlpConfig {
                hidden_layers,
                max_epochs: 150,
                seed,
            })
        };
        let forest = |n_trees, max_depth| {
            ModelSpec::RandomForest(ForestConfig {
                n_trees,
                max_depth,
                seed,
            })
        };
        match class {
            ModelClass::Linear => [1e-8, 1e-2, 1.0]
                .map(|l2| ModelSpec::Linear(LinearConfig { l2 }))
                .to_vec(),
            ModelClass::Knn => vec![
                knn(3, KnnWeighting::InverseDistance),
                knn(5, KnnWeighting::InverseDistance),
                knn(5, KnnWeighting::Uniform),
                knn(9, KnnWeighting::Uniform),
            ],
            ModelClass::Mlp => vec![mlp(vec![16]), mlp(vec![32, 16])],
            ModelClass::RandomForest => vec![forest(16, 8), forest(32, 12)],
        }
    }
}

/// Result of a grid search: the winning spec, its cross-validation score
/// (mean squared error, lower is better), and a model fitted on all data.
pub struct GridSearchResult {
    /// The best hyper-parameter assignment found.
    pub spec: ModelSpec,
    /// Mean cross-validated MSE of the best spec.
    pub cv_mse: f64,
    /// The best model, refitted on the complete dataset.
    pub model: Box<dyn Regressor>,
}

impl std::fmt::Debug for GridSearchResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridSearchResult")
            .field("spec", &self.spec)
            .field("cv_mse", &self.cv_mse)
            .finish()
    }
}

/// Produces the index sets of a k-fold split of `n` observations. Folds are
/// contiguous blocks (the data is already in arrival order, and preserving
/// temporal structure avoids optimistic leakage in the online setting).
pub fn kfold_indices(n: usize, k: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    let k = k.max(2).min(n.max(2));
    if n < 2 {
        return vec![((0..n).collect(), (0..n).collect())];
    }
    let mut folds = Vec::with_capacity(k);
    let base = n / k;
    let remainder = n % k;
    let mut start = 0usize;
    for fold in 0..k {
        let size = base + usize::from(fold < remainder);
        let end = (start + size).min(n);
        let test: Vec<usize> = (start..end).collect();
        let train: Vec<usize> = (0..start).chain(end..n).collect();
        if !test.is_empty() && !train.is_empty() {
            folds.push((train, test));
        }
        start = end;
    }
    folds
}

/// Cross-validates one spec on `data` and returns the mean MSE over folds.
pub fn cross_validate(spec: &ModelSpec, data: &Dataset, k: usize) -> Result<f64, ModelError> {
    let folds = kfold_indices(data.len(), k);
    if folds.is_empty() {
        return Err(ModelError::InvalidTrainingData(
            "not enough observations for cross validation".to_string(),
        ));
    }
    let mut total = 0.0;
    for (train_idx, test_idx) in &folds {
        let train = data.subset(train_idx);
        let test = data.subset(test_idx);
        let mut model = spec.build();
        model.fit(&train)?;
        let preds = test
            .iter()
            .map(|(x, _)| model.predict(&[x]))
            .collect::<Result<Vec<_>, _>>()?;
        total += mse(test.targets(), &preds);
    }
    Ok(total / folds.len() as f64)
}

/// Grid-searches the given specs with k-fold cross validation (specs are
/// evaluated in parallel) and refits the winner on the full dataset.
///
/// When the dataset is too small for cross validation (fewer than 4
/// observations) the first spec is used directly — exactly the situation at
/// the start of a workflow where Sizey has just left the preset phase.
pub fn grid_search(
    specs: &[ModelSpec],
    data: &Dataset,
    k: usize,
) -> Result<GridSearchResult, ModelError> {
    if specs.is_empty() {
        return Err(ModelError::InvalidTrainingData(
            "no specs to search".to_string(),
        ));
    }
    if data.len() < 4 {
        let spec = specs[0].clone();
        let mut model = spec.build();
        model.fit(data)?;
        return Ok(GridSearchResult {
            spec,
            cv_mse: f64::INFINITY,
            model,
        });
    }

    let scores = parallel_map(specs, default_parallelism(), |spec| {
        cross_validate(spec, data, k)
    });

    let mut best: Option<(usize, f64)> = None;
    for (i, score) in scores.iter().enumerate() {
        if let Ok(s) = score {
            if best.is_none_or(|(_, b)| *s < b) {
                best = Some((i, *s));
            }
        }
    }
    let (best_idx, best_score) =
        best.ok_or_else(|| ModelError::Numerical("all grid candidates failed".to_string()))?;
    let spec = specs[best_idx].clone();
    let mut model = spec.build();
    model.fit(data)?;
    Ok(GridSearchResult {
        spec,
        cv_mse: best_score,
        model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(n: usize) -> Dataset {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 4.0 * x + 7.0).collect();
        Dataset::from_univariate(&xs, &ys)
    }

    #[test]
    fn kfold_partitions_all_indices() {
        let folds = kfold_indices(10, 3);
        assert_eq!(folds.len(), 3);
        let mut seen: Vec<usize> = folds.iter().flat_map(|(_, test)| test.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 10);
            assert!(train.iter().all(|i| !test.contains(i)));
        }
    }

    #[test]
    fn kfold_handles_small_n() {
        let folds = kfold_indices(2, 5);
        assert!(!folds.is_empty());
        for (train, test) in &folds {
            assert!(!train.is_empty());
            assert!(!test.is_empty());
        }
    }

    #[test]
    fn cross_validate_scores_good_model_low() {
        let data = linear_data(40);
        let spec = ModelSpec::Linear(LinearConfig::default());
        let score = cross_validate(&spec, &data, 4).unwrap();
        assert!(score < 1.0, "linear model should nail linear data: {score}");
    }

    #[test]
    fn grid_search_prefers_linear_on_linear_data() {
        let data = linear_data(60);
        let mut specs = ModelSpec::default_grid(ModelClass::Linear, 42);
        specs.extend(ModelSpec::default_grid(ModelClass::Knn, 42));
        let result = grid_search(&specs, &data, 4).unwrap();
        assert_eq!(result.spec.class(), ModelClass::Linear);
        assert!(result.model.is_fitted());
        // Extrapolation check: only the linear model does this well.
        let p = result.model.predict(&[200.0]).unwrap();
        assert!((p - 807.0).abs() < 5.0);
    }

    #[test]
    fn grid_search_small_dataset_falls_back_to_first_spec() {
        let data = linear_data(2);
        let specs = ModelSpec::default_grid(ModelClass::Knn, 42);
        let result = grid_search(&specs, &data, 3).unwrap();
        assert_eq!(result.spec, specs[0]);
        assert!(result.model.is_fitted());
    }

    #[test]
    fn grid_search_rejects_empty_grid() {
        let data = linear_data(10);
        assert!(grid_search(&[], &data, 3).is_err());
    }

    #[test]
    fn default_grids_cover_all_classes() {
        for class in ModelClass::ALL {
            let grid = ModelSpec::default_grid(class, 42);
            assert!(!grid.is_empty());
            assert!(grid.iter().all(|s| s.class() == class));
        }
    }

    #[test]
    fn grid_search_runs_each_default_grid() {
        let data = linear_data(24);
        for class in ModelClass::ALL {
            let r = grid_search(&ModelSpec::default_grid(class, 42), &data, 3).unwrap();
            assert_eq!(r.spec.class(), class);
            assert!(r.model.is_fitted());
        }
    }
}
