//! Ordinary-least-squares / ridge linear regression.
//!
//! The paper motivates the linear model class with the frequently observed
//! linear relationship between input data size and peak memory (Fig. 2,
//! MarkDuplicates). The model is fitted, intercept included, by solving the
//! (optionally ridge regularised) normal equations; incremental updates
//! maintain the Gram matrix `X^T X` and moment vector `X^T y`, so a
//! `partial_fit` only costs a rank-one update plus one small solve. Both run
//! on the write path; a predict only reads the solved coefficients.

use crate::dataset::Dataset;
use crate::matrix::Matrix;
use crate::model::{
    validate_query, validate_training_data, ModelClass, ModelError, PredictScratch, Regressor,
};

/// Hyper-parameters for [`LinearRegression`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearConfig {
    /// Ridge regularisation strength added to the diagonal of the Gram
    /// matrix. `0.0` gives plain OLS; a small positive value keeps the solve
    /// well-conditioned when all observed input sizes are identical.
    pub l2: f64,
}

impl Default for LinearConfig {
    fn default() -> Self {
        LinearConfig { l2: 1e-8 }
    }
}

/// Linear regression model (OLS / ridge) with incremental normal-equation
/// updates.
///
/// `partial_fit` folds the observation into the exact sufficient statistics
/// (Gram matrix and moment vector) and solves the normal equations right
/// away, so the coefficients after any chain of updates are bit-identical to
/// a batch fit over the same rows in the same order. A solve that fails
/// keeps the previous coefficients serving and leaves
/// [`is_solved`](LinearRegression::is_solved) false until a later update
/// solves again. `fit` is **transactional**: a failed refit leaves the
/// previous fitted state (statistics and coefficients) fully intact.
#[derive(Clone)]
pub struct LinearRegression {
    config: LinearConfig,
    /// Fitted coefficients, intercept first.
    coefficients: Vec<f64>,
    /// Whether `coefficients` solve the current sufficient statistics.
    solved: bool,
    /// Accumulated Gram matrix `X^T X` (in augmented feature space).
    gram: Option<Matrix>,
    /// Accumulated moment vector `X^T y` (in augmented feature space).
    moments: Vec<f64>,
    /// Number of observations the sufficient statistics cover.
    n_observations: usize,
    n_features: usize,
    fitted: bool,
}

impl std::fmt::Debug for LinearRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinearRegression")
            .field("config", &self.config)
            .field("n_observations", &self.n_observations)
            .field("n_features", &self.n_features)
            .field("fitted", &self.fitted)
            .finish()
    }
}

impl LinearRegression {
    /// Creates an unfitted model with the given configuration.
    pub fn new(config: LinearConfig) -> Self {
        LinearRegression {
            config,
            coefficients: Vec::new(),
            solved: false,
            gram: None,
            moments: Vec::new(),
            n_observations: 0,
            n_features: 0,
            fitted: false,
        }
    }

    /// Creates an unfitted model with default configuration.
    pub fn with_defaults() -> Self {
        LinearRegression::new(LinearConfig::default())
    }

    /// The fitted coefficients (intercept first): those of the
    /// last successful solve. Empty before any solve succeeded.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Whether the last update's solve succeeded, i.e. whether the
    /// coefficients cover every observation folded in so far.
    pub fn is_solved(&self) -> bool {
        self.solved
    }

    /// The configuration used by this model.
    pub fn config(&self) -> LinearConfig {
        self.config
    }

    /// Number of observations incorporated in the sufficient statistics.
    pub fn n_observations(&self) -> usize {
        self.n_observations
    }

    fn accumulate(&mut self, data: &Dataset) {
        let width = data.n_features() + 1;
        if self.gram.is_none() {
            self.gram = Some(Matrix::zeros(width, width));
            self.moments = vec![0.0; width];
            self.n_features = data.n_features();
            self.n_observations = 0;
        }
        let gram = self.gram.as_mut().expect("gram initialised above");
        for (features, target) in data.iter() {
            let mut row = Vec::with_capacity(features.len() + 1);
            row.push(1.0);
            row.extend_from_slice(features);
            for (i, &xi) in row.iter().enumerate() {
                self.moments[i] += xi * target;
                for (j, &xj) in row.iter().enumerate() {
                    gram[(i, j)] += xi * xj;
                }
            }
        }
        self.n_observations += data.len();
    }

    /// Solves the regularised normal equations for the given sufficient
    /// statistics. Does not touch `self` — callers commit the returned
    /// coefficients only on success, which is what makes `fit` transactional.
    fn solve_stats(
        gram: &Matrix,
        moments: &[f64],
        config: LinearConfig,
    ) -> Result<Vec<f64>, ModelError> {
        let mut regularised = gram.clone();
        // Always add at least a tiny ridge term: a task type whose observed
        // input sizes are all identical produces a rank-deficient Gram matrix.
        let lambda = config.l2.max(1e-10);
        regularised.add_diagonal(lambda);
        let coeffs = match regularised.solve(moments) {
            Ok(coeffs) => coeffs,
            Err(_) => {
                // Escalate the regularisation once before giving up; this
                // keeps early-workflow fits (1-2 data points) usable.
                let mut heavier = gram.clone();
                heavier.add_diagonal(lambda.max(1e-3) * 1e3);
                heavier
                    .solve(moments)
                    .map_err(|e| ModelError::Numerical(e.to_string()))?
            }
        };
        // Overflowed Gram entries (inf) sail through elimination without a
        // small pivot and come out as NaN/inf coefficients; treat that as a
        // solve failure rather than serving a poisoned model.
        if coeffs.iter().any(|c| !c.is_finite()) {
            return Err(ModelError::Numerical(
                "normal-equation solve produced non-finite coefficients".to_string(),
            ));
        }
        Ok(coeffs)
    }

    /// Solves the normal equations for the accumulated statistics. A failed
    /// solve keeps the previous coefficients and clears `solved`.
    fn solve(&mut self) -> Result<(), ModelError> {
        let gram = self.gram.as_ref().ok_or(ModelError::NotFitted)?;
        let result = LinearRegression::solve_stats(gram, &self.moments, self.config);
        self.solved = result.is_ok();
        self.coefficients = result?;
        Ok(())
    }
}

impl Regressor for LinearRegression {
    fn fit(&mut self, data: &Dataset) -> Result<(), ModelError> {
        validate_training_data(data)?;
        // Build the new sufficient statistics on the side and solve before
        // touching any fitted state: a failed refit (e.g. overflowing
        // features) must leave the previous model serving.
        let mut fresh = LinearRegression::new(self.config);
        fresh.accumulate(data);
        fresh.solve()?;
        fresh.fitted = true;
        *self = fresh;
        Ok(())
    }

    fn partial_fit(&mut self, data: &Dataset) -> Result<(), ModelError> {
        validate_training_data(data)?;
        if self.gram.is_some() && data.n_features() != self.n_features {
            return Err(ModelError::FeatureMismatch {
                expected: self.n_features,
                got: data.n_features(),
            });
        }
        self.accumulate(data);
        // A failed solve is not an update failure: the statistics took the
        // rows, and the previous coefficients keep serving.
        let _ = self.solve();
        self.fitted = true;
        Ok(())
    }

    fn predict(&self, features: &[f64]) -> Result<f64, ModelError> {
        let mut scratch = PredictScratch::default();
        self.predict_with(features, &mut scratch)
    }

    fn predict_with(
        &self,
        features: &[f64],
        scratch: &mut PredictScratch,
    ) -> Result<f64, ModelError> {
        if !self.fitted {
            return Err(ModelError::NotFitted);
        }
        validate_query(features, self.n_features)?;
        if self.coefficients.is_empty() {
            // The model has only ever seen failed solves (e.g. its very first
            // update was degenerate) — there is no usable state to serve.
            return Err(ModelError::NotFitted);
        }
        // The augmented row [1, features…] lives in the caller's scratch
        // buffer.
        let row = &mut scratch.row;
        row.clear();
        row.push(1.0);
        row.extend_from_slice(features);
        Ok(row.iter().zip(&self.coefficients).map(|(x, c)| x * c).sum())
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn class(&self) -> ModelClass {
        ModelClass::Linear
    }

    fn clone_box(&self) -> Box<dyn Regressor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_dataset(slope: f64, intercept: f64, n: usize) -> Dataset {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        Dataset::from_univariate(&xs, &ys)
    }

    #[test]
    fn recovers_exact_linear_relationship() {
        let data = linear_dataset(3.0, 10.0, 50);
        let mut m = LinearRegression::with_defaults();
        m.fit(&data).unwrap();
        let pred = m.predict(&[100.0]).unwrap();
        assert!((pred - 310.0).abs() < 1e-3, "pred = {pred}");
    }

    #[test]
    fn multivariate_fit_recovers_coefficients() {
        // y = 2*x0 - 3*x1 + 5
        let mut features = Vec::new();
        let mut targets = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let x0 = i as f64;
                let x1 = j as f64;
                features.push(vec![x0, x1]);
                targets.push(2.0 * x0 - 3.0 * x1 + 5.0);
            }
        }
        let data = Dataset::from_parts(features, targets);
        let mut m = LinearRegression::with_defaults();
        m.fit(&data).unwrap();
        let pred = m.predict(&[7.0, 11.0]).unwrap();
        assert!((pred - (14.0 - 33.0 + 5.0)).abs() < 1e-3);
    }

    #[test]
    fn partial_fit_matches_full_fit() {
        let data = linear_dataset(2.0, 1.0, 40);
        let first = data.subset(&(0..20).collect::<Vec<_>>());
        let second = data.subset(&(20..40).collect::<Vec<_>>());

        let mut incremental = LinearRegression::with_defaults();
        incremental.fit(&first).unwrap();
        incremental.partial_fit(&second).unwrap();

        let mut full = LinearRegression::with_defaults();
        full.fit(&data).unwrap();

        for x in [0.0, 5.0, 50.0] {
            let a = incremental.predict(&[x]).unwrap();
            let b = full.predict(&[x]).unwrap();
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        assert_eq!(incremental.n_observations(), 40);
    }

    #[test]
    fn single_observation_is_usable() {
        let data = Dataset::from_univariate(&[4.0], &[400.0]);
        let mut m = LinearRegression::with_defaults();
        m.fit(&data).unwrap();
        let pred = m.predict(&[4.0]).unwrap();
        // With heavy rank-deficiency the ridge fallback should still predict
        // something close to the only observed value at the observed input.
        assert!(pred.is_finite());
        assert!(pred > 0.0);
    }

    #[test]
    fn constant_inputs_do_not_fail() {
        let data = Dataset::from_univariate(&[5.0, 5.0, 5.0], &[100.0, 110.0, 90.0]);
        let mut m = LinearRegression::with_defaults();
        m.fit(&data).unwrap();
        let pred = m.predict(&[5.0]).unwrap();
        assert!(pred.is_finite());
        assert!((pred - 100.0).abs() < 20.0);
    }

    #[test]
    fn predict_before_fit_errors() {
        let m = LinearRegression::with_defaults();
        assert!(matches!(m.predict(&[1.0]), Err(ModelError::NotFitted)));
    }

    #[test]
    fn predict_rejects_wrong_width() {
        let data = linear_dataset(1.0, 0.0, 10);
        let mut m = LinearRegression::with_defaults();
        m.fit(&data).unwrap();
        assert!(matches!(
            m.predict(&[1.0, 2.0]),
            Err(ModelError::FeatureMismatch { .. })
        ));
    }

    #[test]
    fn partial_fit_rejects_changed_width() {
        let data = linear_dataset(1.0, 0.0, 10);
        let mut m = LinearRegression::with_defaults();
        m.fit(&data).unwrap();
        let wide = Dataset::from_parts(vec![vec![1.0, 2.0]], vec![3.0]);
        assert!(matches!(
            m.partial_fit(&wide),
            Err(ModelError::FeatureMismatch { .. })
        ));
    }

    #[test]
    fn failed_refit_keeps_the_previous_model_serving() {
        let data = linear_dataset(3.0, 10.0, 50);
        let mut m = LinearRegression::with_defaults();
        m.fit(&data).unwrap();
        let before = m.predict(&[100.0]).unwrap();

        // Features large enough that the Gram products overflow to infinity:
        // the inputs themselves are finite (so validation passes) but the
        // solve produces non-finite coefficients and must fail.
        let degenerate = Dataset::from_univariate(&[1e300, 2e300, 3e300], &[1.0, 2.0, 3.0]);
        assert!(m.fit(&degenerate).is_err());

        assert!(m.is_fitted(), "failed refit must not clear fitted state");
        let after = m.predict(&[100.0]).unwrap();
        assert_eq!(
            before.to_bits(),
            after.to_bits(),
            "failed refit must leave predictions untouched"
        );
        assert_eq!(m.n_observations(), 50);
    }

    #[test]
    fn failed_partial_fit_solve_keeps_the_previous_coefficients_serving() {
        let data = linear_dataset(2.0, 1.0, 10);
        let mut m = LinearRegression::with_defaults();
        assert!(!m.is_solved());
        m.partial_fit(&data).unwrap();
        assert!(m.is_solved());
        let mut fitted = LinearRegression::with_defaults();
        fitted.fit(&data).unwrap();
        assert_eq!(m.coefficients(), fitted.coefficients());
        let before = m.coefficients().to_vec();
        let served = m.predict(&[4.0]).unwrap();

        // An overflowing row poisons the Gram sums: the update is taken, its
        // solve fails, and the previous coefficients keep serving.
        m.partial_fit(&Dataset::from_univariate(&[1e300], &[1.0]))
            .unwrap();
        assert!(!m.is_solved());
        assert_eq!(m.coefficients(), before);
        assert_eq!(m.predict(&[4.0]).unwrap().to_bits(), served.to_bits());
        assert_eq!(m.n_observations(), 11);
    }

    #[test]
    fn partial_fit_chain_matches_batch_fit_bitwise() {
        let data = linear_dataset(2.5, -4.0, 32);
        let mut incremental = LinearRegression::with_defaults();
        for i in 0..data.len() {
            incremental.partial_fit(&data.subset(&[i])).unwrap();
        }

        let mut batch = LinearRegression::with_defaults();
        batch.fit(&data).unwrap();

        for x in [0.0, 3.0, 17.0, 100.0] {
            let a = incremental.predict(&[x]).unwrap();
            let b = batch.predict(&[x]).unwrap();
            assert!(
                (a - b).abs() < 1e-6,
                "incremental chain diverged from batch fit: {a} vs {b}"
            );
        }
        // The coefficient vectors from the same sufficient statistics must be
        // bit-identical: accumulate over the same rows in the same order.
        let mut replay = LinearRegression::with_defaults();
        replay.partial_fit(&data).unwrap();
        assert_eq!(incremental.coefficients(), replay.coefficients());
    }

    #[test]
    fn clone_box_preserves_predictions() {
        let data = linear_dataset(2.0, 3.0, 30);
        let mut m = LinearRegression::with_defaults();
        m.fit(&data).unwrap();
        let cloned = m.clone_box();
        assert_eq!(
            m.predict(&[12.0]).unwrap(),
            cloned.predict(&[12.0]).unwrap()
        );
        assert_eq!(cloned.class(), ModelClass::Linear);
    }
}
