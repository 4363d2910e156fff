//! Ordinary-least-squares / ridge linear regression.
//!
//! The paper motivates the linear model class with the frequently observed
//! linear relationship between input data size and peak memory (Fig. 2,
//! MarkDuplicates). The model fits a line, intercept included, by solving
//! the (optionally ridge regularised) normal equations. Its sufficient
//! statistics are five scalar sums (n, Σx, Σx², Σy, Σxy), so a
//! `partial_fit` adds to them and solves one 2×2 system
//! ([`solve_normal_equations`]). Both run on the write path; a predict only
//! reads the solved intercept and slope.

use crate::dataset::Dataset;
use crate::model::{validate_query, validate_training_data, ModelClass, ModelError, Regressor};

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

/// The sufficient statistics of a line fit: the entries of the Gram matrix
/// `[[n, Σx], [Σx, Σx²]]` and of the moment vector `[Σy, Σxy]`.
#[derive(Debug, Clone, Copy, Default)]
struct Sums {
    n: f64,
    x: f64,
    xx: f64,
    y: f64,
    xy: f64,
}

/// Linear regression model (OLS / ridge) with incremental normal-equation
/// updates.
///
/// `partial_fit` folds the observation into the exact sufficient statistics
/// and solves the normal equations right away, so the coefficients after
/// any chain of updates are bit-identical to a batch fit over the same rows
/// in the same order. A solve that fails keeps the previous coefficients
/// serving and leaves [`is_solved`](LinearRegression::is_solved) false until
/// a later update solves again. `fit` is **transactional**: a failed refit
/// leaves the previous fitted state (statistics and coefficients) fully
/// intact.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    config: LinearConfig,
    /// Intercept and slope of the last successful solve.
    coefficients: Option<[f64; 2]>,
    /// Whether `coefficients` solve the current sufficient statistics.
    solved: bool,
    sums: Sums,
    /// Number of observations the sufficient statistics cover.
    n_observations: usize,
    fitted: bool,
}

impl LinearRegression {
    /// Creates an unfitted model with the given configuration.
    pub fn new(config: LinearConfig) -> Self {
        LinearRegression {
            config,
            coefficients: None,
            solved: false,
            sums: Sums::default(),
            n_observations: 0,
            fitted: false,
        }
    }

    /// Creates an unfitted model with default configuration.
    pub fn with_defaults() -> Self {
        LinearRegression::new(LinearConfig::default())
    }

    /// The fitted coefficients, intercept then slope: those of the last
    /// successful solve. Empty before any solve succeeded.
    pub fn coefficients(&self) -> &[f64] {
        self.coefficients.as_ref().map_or(&[], |c| c.as_slice())
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
        let s = &mut self.sums;
        for (x, y) in data.iter() {
            s.n += 1.0;
            s.x += x;
            s.xx += x * x;
            s.y += y;
            s.xy += x * y;
        }
        self.n_observations += data.len();
    }

    /// Solves the normal equations for the accumulated statistics. A failed
    /// solve keeps the previous coefficients and clears `solved`.
    fn solve(&mut self) -> Result<(), ModelError> {
        let s = self.sums;
        let result = solve_normal_equations([[s.n, s.x], [s.x, s.xx]], [s.y, s.xy], self.config.l2);
        self.solved = result.is_ok();
        self.coefficients = Some(result?);
        Ok(())
    }
}

/// Solves the ridge-regularised normal equations `(G + λI) c = m` of a line
/// fit for its coefficients, intercept first, with `λ = max(l2, 1e-10)`.
///
/// A task type whose observed input sizes are all identical produces a
/// rank-deficient Gram matrix `G`, hence the tiny ridge term that is always
/// added. A Gram matrix of data is then never singular: its leading entry
/// is the row count, and the second pivot is about `λ(1 + x̄²)`. A system
/// with a pivot below `1e-12` is refused as singular. An overflowed Gram
/// entry (inf) sails through elimination without a small pivot and comes
/// out as a non-finite coefficient; that is refused too, rather than
/// serving a poisoned model.
pub fn solve_normal_equations(
    gram: [[f64; 2]; 2],
    moments: [f64; 2],
    l2: f64,
) -> Result<[f64; 2], ModelError> {
    let [[g00, g01], [g10, g11]] = gram;
    let lambda = l2.max(1e-10);
    let coefficients = solve_2x2([[g00 + lambda, g01], [g10, g11 + lambda]], moments)
        .ok_or_else(|| ModelError::Numerical("matrix is singular".to_string()))?;
    if coefficients.iter().any(|c| !c.is_finite()) {
        return Err(ModelError::Numerical(
            "normal-equation solve produced non-finite coefficients".to_string(),
        ));
    }
    Ok(coefficients)
}

/// Solves `a · x = b` by Gaussian elimination with partial pivoting; `None`
/// when a pivot's magnitude is below `1e-12`.
fn solve_2x2(a: [[f64; 2]; 2], b: [f64; 2]) -> Option<[f64; 2]> {
    // Each row is augmented with its right-hand side.
    let mut top = [a[0][0], a[0][1], b[0]];
    let mut bottom = [a[1][0], a[1][1], b[1]];
    if bottom[0].abs() > top[0].abs() {
        std::mem::swap(&mut top, &mut bottom);
    }
    if top[0].abs() < 1e-12 {
        return None;
    }
    let factor = bottom[0] / top[0];
    if factor != 0.0 {
        bottom[1] -= factor * top[1];
        bottom[2] -= factor * top[2];
    }
    if bottom[1].abs() < 1e-12 {
        return None;
    }
    let slope = bottom[2] / bottom[1];
    Some([(top[2] - top[1] * slope) / top[0], slope])
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
        self.accumulate(data);
        // A failed solve is not an update failure: the statistics took the
        // rows, and the previous coefficients keep serving.
        let _ = self.solve();
        self.fitted = true;
        Ok(())
    }

    fn predict(&self, features: &[f64]) -> Result<f64, ModelError> {
        if !self.fitted {
            return Err(ModelError::NotFitted);
        }
        let x = validate_query(features)?;
        // `None`: the model has only ever seen failed solves (e.g. its very
        // first update was degenerate), so there is no usable state to serve.
        let [intercept, slope] = self.coefficients.ok_or(ModelError::NotFitted)?;
        Ok(intercept + x * slope)
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
