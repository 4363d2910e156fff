//! The [`Regressor`] trait implemented by every model class in the Sizey pool.
//!
//! Models train on a [`Dataset`] of `(input, target)` pairs and predict
//! one query at a time: [`Regressor::predict`], or
//! [`Regressor::predict_with`] over caller-owned scratch on the
//! allocation-free path. A query is a one-element slice, the input size
//! (Sizey's one feature). Callers with several queries, such as
//! cross-validation, loop over them.

use crate::dataset::Dataset;
use std::fmt;

/// Errors produced while fitting or predicting with a regressor.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The model has not been fitted yet.
    NotFitted,
    /// The training data is empty or otherwise unusable.
    InvalidTrainingData(String),
    /// The query is not one value wide.
    FeatureMismatch {
        /// Number of features the model takes (always 1).
        expected: usize,
        /// Number of features in the query.
        got: usize,
    },
    /// A numerical problem occurred (singular system, divergence, ...).
    Numerical(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NotFitted => write!(f, "model has not been fitted"),
            ModelError::InvalidTrainingData(msg) => write!(f, "invalid training data: {msg}"),
            ModelError::FeatureMismatch { expected, got } => {
                write!(f, "feature mismatch: expected {expected}, got {got}")
            }
            ModelError::Numerical(msg) => write!(f, "numerical error: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Identifier for the model classes Sizey uses (Fig. 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelClass {
    /// Ordinary least squares / ridge linear regression.
    Linear,
    /// k-nearest-neighbour regression.
    Knn,
    /// Multi-layer perceptron regression.
    Mlp,
    /// Random-forest regression.
    RandomForest,
}

impl ModelClass {
    /// All model classes in the default Sizey pool.
    pub const ALL: [ModelClass; 4] = [
        ModelClass::Linear,
        ModelClass::Knn,
        ModelClass::Mlp,
        ModelClass::RandomForest,
    ];

    /// A short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelClass::Linear => "linear-regression",
            ModelClass::Knn => "knn-regression",
            ModelClass::Mlp => "mlp-regression",
            ModelClass::RandomForest => "random-forest-regression",
        }
    }
}

impl fmt::Display for ModelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Reusable buffers for [`Regressor::predict_with`]: every intermediate
/// vector a model prediction needs, owned by the caller and recycled across
/// calls so the steady-state predict path performs zero heap allocations.
///
/// The fields are per-model working sets, not a shared pool.
#[derive(Debug, Default, Clone)]
pub struct PredictScratch {
    /// `(row index, squared distance)` table for KNN neighbour selection.
    pub dists: Vec<(usize, f64)>,
    /// MLP forward-pass activations: the scaled input, then every hidden
    /// unit.
    pub acts: Vec<f64>,
}

/// A trainable regression model mapping an input size to a scalar target.
///
/// All Sizey pool members implement this trait. The contract mirrors the
/// paper's online-learning loop:
///
/// * [`Regressor::fit`] performs a full (re)training on the given dataset.
/// * [`Regressor::partial_fit`] performs a lightweight incremental update
///   with newly observed task executions; implementations fall back to a full
///   refit when they cannot update incrementally.
/// * [`Regressor::predict`] produces a point estimate for one query.
pub trait Regressor: Send + Sync {
    /// Fully (re)trains the model on `data`.
    fn fit(&mut self, data: &Dataset) -> Result<(), ModelError>;

    /// [`Regressor::fit`] with an independent job beside it: `side` runs
    /// exactly once, on the calling thread, whether the fit succeeds or
    /// not. A model whose fit is threaded overrides this to run `side`
    /// while its workers start; the default runs `side` and then `fit`.
    fn fit_beside(&mut self, data: &Dataset, side: &mut dyn FnMut()) -> Result<(), ModelError> {
        side();
        self.fit(data)
    }

    /// Incrementally updates the model with additional observations.
    ///
    /// The default implementation is a full refit on the new data only, which
    /// is rarely what a caller wants; every pool model overrides this.
    fn partial_fit(&mut self, data: &Dataset) -> Result<(), ModelError> {
        self.fit(data)
    }

    /// Predicts the target for one query, a one-element slice holding the
    /// input.
    fn predict(&self, features: &[f64]) -> Result<f64, ModelError>;

    /// Predicts the target for one query using caller-owned scratch
    /// buffers — the allocation-free twin of [`Regressor::predict`].
    ///
    /// Implementations that need intermediate vectors (distance tables,
    /// layer activations) borrow them from `scratch`
    /// instead of allocating, and must return bit-identical results to
    /// `predict` (asserted by per-model equivalence tests and the dynamic
    /// `cargo xtask lint --dynamic` harness). The default delegates to
    /// `predict` for models whose prediction is naturally allocation-free.
    fn predict_with(
        &self,
        features: &[f64],
        scratch: &mut PredictScratch,
    ) -> Result<f64, ModelError> {
        let _ = scratch;
        self.predict(features)
    }

    /// True once the model has been fitted and can predict.
    fn is_fitted(&self) -> bool;

    /// The model class this regressor belongs to.
    fn class(&self) -> ModelClass;

    /// A short human readable name (defaults to the class name).
    fn name(&self) -> String {
        self.class().name().to_string()
    }

    /// Creates a boxed clone of this regressor (trait objects cannot use
    /// `Clone` directly).
    fn clone_box(&self) -> Box<dyn Regressor>;
}

impl Clone for Box<dyn Regressor> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Validates a dataset before fitting: it must be non-empty and hold only
/// finite values.
pub fn validate_training_data(data: &Dataset) -> Result<(), ModelError> {
    if data.is_empty() {
        return Err(ModelError::InvalidTrainingData(
            "dataset is empty".to_string(),
        ));
    }
    for (input, target) in data.iter() {
        if !target.is_finite() {
            return Err(ModelError::InvalidTrainingData(format!(
                "non-finite target value {target}"
            )));
        }
        if !input.is_finite() {
            return Err(ModelError::InvalidTrainingData(
                "non-finite feature value".to_string(),
            ));
        }
    }
    Ok(())
}

/// Validates a query: it must be one finite value, which it returns.
pub fn validate_query(features: &[f64]) -> Result<f64, ModelError> {
    let &[input] = features else {
        return Err(ModelError::FeatureMismatch {
            expected: 1,
            got: features.len(),
        });
    };
    if !input.is_finite() {
        return Err(ModelError::Numerical(
            "non-finite query feature".to_string(),
        ));
    }
    Ok(input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_class_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            ModelClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), ModelClass::ALL.len());
    }

    #[test]
    fn validate_training_data_rejects_empty() {
        let ds = Dataset::new();
        assert!(matches!(
            validate_training_data(&ds),
            Err(ModelError::InvalidTrainingData(_))
        ));
    }

    #[test]
    fn validate_training_data_rejects_nan_target() {
        let ds = Dataset::from_univariate(&[1.0], &[f64::NAN]);
        assert!(validate_training_data(&ds).is_err());
    }

    #[test]
    fn validate_training_data_rejects_infinite_feature() {
        let ds = Dataset::from_univariate(&[f64::INFINITY], &[1.0]);
        assert!(validate_training_data(&ds).is_err());
    }

    #[test]
    fn validate_training_data_accepts_clean_data() {
        let ds = Dataset::from_univariate(&[1.0, 2.0], &[3.0, 4.0]);
        assert!(validate_training_data(&ds).is_ok());
    }

    #[test]
    fn validate_query_checks_width_and_finiteness() {
        assert_eq!(validate_query(&[2.5]), Ok(2.5));
        for query in [&[][..], &[1.0, 2.0][..]] {
            assert_eq!(
                validate_query(query),
                Err(ModelError::FeatureMismatch {
                    expected: 1,
                    got: query.len()
                })
            );
        }
        assert!(matches!(
            validate_query(&[f64::NAN]),
            Err(ModelError::Numerical(_))
        ));
    }

    #[test]
    fn model_error_display_is_informative() {
        let e = ModelError::FeatureMismatch {
            expected: 3,
            got: 1,
        };
        assert!(e.to_string().contains("expected 3"));
        assert!(ModelError::NotFitted
            .to_string()
            .contains("not been fitted"));
    }
}
