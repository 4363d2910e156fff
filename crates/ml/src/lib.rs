//! # sizey-ml
//!
//! From-scratch machine-learning substrate for the Sizey reproduction.
//!
//! The crate provides everything the Sizey model pool needs without external
//! ML dependencies:
//!
//! * dense matrix/vector kernels ([`matrix`]),
//! * the [`model::Regressor`] trait and the four model classes of the paper's
//!   Fig. 5 — [`linear::LinearRegression`], [`knn::KnnRegression`],
//!   [`mlp::MlpRegression`] and [`forest::RandomForestRegression`],
//! * feature/target scaling ([`scaler`]),
//! * regression metrics and summary statistics ([`metrics`]),
//! * k-fold cross validation and grid-search hyper-parameter optimisation
//!   ([`hpo`]),
//! * scoped-thread parallel helpers ([`parallel`]).
//!
//! ## Example
//!
//! ```
//! use sizey_ml::dataset::Dataset;
//! use sizey_ml::linear::LinearRegression;
//! use sizey_ml::model::Regressor;
//!
//! // Peak memory grows linearly with input size for many workflow tasks.
//! let input_gb = [1.0, 2.0, 3.0, 4.0];
//! let peak_mem_gb = [2.5, 4.5, 6.5, 8.5];
//! let data = Dataset::from_univariate(&input_gb, &peak_mem_gb);
//!
//! let mut model = LinearRegression::with_defaults();
//! model.fit(&data).unwrap();
//! let estimate = model.predict(&[5.0]).unwrap();
//! assert!((estimate - 10.5).abs() < 0.1);
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod forest;
pub mod hpo;
pub mod knn;
pub mod linear;
pub mod matrix;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod parallel;
pub mod scaler;
pub mod tree;

pub use dataset::Dataset;
pub use forest::{ForestConfig, RandomForestRegression};
pub use hpo::{cross_validate, grid_search, GridSearchResult, ModelSpec};
pub use knn::{KnnConfig, KnnRegression, KnnWeighting};
pub use linear::{LinearConfig, LinearRegression};
pub use mlp::{Activation, MlpConfig, MlpRegression};
pub use model::{ModelClass, ModelError, PredictScratch, Regressor};
pub use scaler::{Scaler, ScalerKind, TargetScaler};
pub use tree::{RegressionTree, TreeConfig};

/// Builds an unfitted regressor of the given class with default
/// hyper-parameters — the four-member pool of the paper's Fig. 5.
pub fn default_model(class: ModelClass) -> Box<dyn Regressor> {
    match class {
        ModelClass::Linear => Box::new(LinearRegression::with_defaults()),
        ModelClass::Knn => Box::new(KnnRegression::with_defaults()),
        ModelClass::Mlp => Box::new(MlpRegression::with_defaults()),
        ModelClass::RandomForest => Box::new(RandomForestRegression::with_defaults()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_covers_all_classes() {
        for class in ModelClass::ALL {
            let m = default_model(class);
            assert_eq!(m.class(), class);
            assert!(!m.is_fitted());
        }
    }

    #[test]
    fn default_models_fit_and_predict_on_shared_data() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 10.0 * x + 100.0).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        for mut model in ModelClass::ALL.map(default_model) {
            model.fit(&data).unwrap();
            let p = model.predict(&[15.0]).unwrap();
            assert!(p.is_finite());
            assert!(p > 0.0, "{} predicted {p}", model.name());
        }
    }
}
