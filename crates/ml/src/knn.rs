//! k-nearest-neighbour regression.
//!
//! The paper motivates k-NN as the model class that lets historical task
//! executions similar to the one being sized influence the estimate directly.
//! Inputs are min-max scaled internally, and `partial_fit` simply appends
//! the new observations, which makes the incremental update O(new points).
//!
//! The model keeps its observations as a [`Dataset`] and, beside it, the
//! same inputs **pre-scaled**: observations are scaled once when the scaler
//! refreshes (on `fit`/`partial_fit`), not once per stored row on every
//! `predict`. The distance between two scaled inputs is their squared
//! difference, and the ranking uses `select_nth_unstable` partial selection
//! instead of sorting all n distances to extract k of them. Ties are broken by
//! insertion index, which reproduces the ranking of the former stable full
//! sort exactly — predictions are bit-identical to the straightforward
//! implementation (the workspace equivalence proptests assert this).

use crate::dataset::Dataset;
use crate::model::{
    validate_query, validate_training_data, ModelClass, ModelError, PredictScratch, Regressor,
};
use crate::scaler::MinMaxScaler;

/// How neighbour targets are combined into a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnWeighting {
    /// Plain average of the k nearest targets.
    Uniform,
    /// Weight each neighbour by the inverse of its distance (exact matches
    /// dominate).
    InverseDistance,
}

/// Relative scaler-parameter drift above which a `partial_fit` rescales the
/// whole stored buffer against the live min-max parameters (see
/// [`MinMaxScaler::param_drift`]).
const RESCALE_AT_DRIFT: f64 = 0.02;

/// Upper bound on observations between two full rescales, whatever the
/// drift.
const RESCALE_EVERY_ROWS: usize = 64;

/// Hyper-parameters for [`KnnRegression`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnConfig {
    /// Number of neighbours considered (clamped to the number of stored
    /// observations at prediction time).
    pub k: usize,
    /// Neighbour weighting scheme.
    pub weighting: KnnWeighting,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig {
            k: 5,
            weighting: KnnWeighting::InverseDistance,
        }
    }
}

/// k-nearest-neighbour regressor over the full observation history.
#[derive(Debug, Clone)]
pub struct KnnRegression {
    config: KnnConfig,
    /// Every observation, raw.
    data: Dataset,
    /// `data`'s inputs in scaled space, in the same order, refreshed
    /// together with the scaler so
    /// `predict` never re-scales stored observations. Scaled with the
    /// **epoch** scaler's parameters (frozen at the last full rescale), not
    /// necessarily the live ones — queries scale with the same epoch
    /// parameters, so rankings stay internally consistent.
    scaled: Vec<f64>,
    /// The epoch scaler: the parameters the `scaled` buffer was produced
    /// with.
    scaler: MinMaxScaler,
    /// The live scaler, updated exactly per observation
    /// ([`MinMaxScaler::observe`]). When its parameters drift too far from the
    /// epoch's — or after [`RESCALE_EVERY_ROWS`] appends — it becomes the
    /// new epoch and the buffer is rescaled once, amortising the former
    /// O(history) per-observe rescale.
    live_scaler: MinMaxScaler,
    /// Observations appended since the last full rescale.
    rows_since_rescale: usize,
    fitted: bool,
}

impl KnnRegression {
    /// Creates an unfitted model with the given configuration.
    pub fn new(config: KnnConfig) -> Self {
        KnnRegression {
            config,
            data: Dataset::new(),
            scaled: Vec::new(),
            scaler: MinMaxScaler::default(),
            live_scaler: MinMaxScaler::default(),
            rows_since_rescale: 0,
            fitted: false,
        }
    }

    /// Creates an unfitted model with default configuration (k = 5, inverse
    /// distance weighting).
    pub fn with_defaults() -> Self {
        KnnRegression::new(KnnConfig::default())
    }

    /// The configuration used by this model.
    pub fn config(&self) -> KnnConfig {
        self.config
    }

    /// Number of stored observations.
    pub fn n_observations(&self) -> usize {
        self.data.len()
    }

    /// Batch-refits the scaler on every stored input and rescales them —
    /// the O(n) epoch reset of `fit`, never run per observation.
    fn refresh_scaler(&mut self) {
        let inputs = self.data.inputs();
        self.scaler.fit(inputs);
        self.live_scaler = self.scaler;
        self.scaler.transform_into(inputs, &mut self.scaled);
        self.rows_since_rescale = 0;
    }

    /// Observations appended since the stored buffer was last rescaled
    /// against fresh scaler parameters (diagnostic).
    pub fn rows_since_rescale(&self) -> usize {
        self.rows_since_rescale
    }

    /// Writes the indices and squared distances of the `k` nearest stored
    /// observations to `query` (in scaled space), closest first, into
    /// `scratch.dists`, so the steady-state path performs no allocations.
    ///
    /// Partial selection: only the k nearest are moved to the front and
    /// ordered, instead of sorting all n distances. The comparator is total
    /// (`total_cmp`), so a NaN distance — e.g. from a corrupted feature
    /// upstream — ranks last instead of panicking the predict hot path, and
    /// ties break by insertion index, matching the stable full sort this
    /// replaces bit for bit.
    fn nearest_with(&self, query: f64, scratch: &mut PredictScratch) {
        let scaled_query = self.scaler.transform(query);
        let dists = &mut scratch.dists;
        dists.clear();
        dists.extend(self.scaled.iter().enumerate().map(|(i, &x)| {
            let d = x - scaled_query;
            (i, d * d)
        }));
        let k = self.config.k.max(1).min(dists.len());
        let by_distance_then_index =
            |a: &(usize, f64), b: &(usize, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
        if k < dists.len() {
            dists.select_nth_unstable_by(k - 1, by_distance_then_index);
            dists.truncate(k);
        }
        dists.sort_unstable_by(by_distance_then_index);
    }

    /// Combines the selected neighbours into one estimate. Allocation-free:
    /// the inverse-distance exact-match handling streams over the slice in
    /// the same order the old index-collecting version did, so results stay
    /// bit-identical.
    fn aggregate(&self, neighbours: &[(usize, f64)]) -> f64 {
        let targets = self.data.targets();
        match self.config.weighting {
            KnnWeighting::Uniform => {
                let sum: f64 = neighbours.iter().map(|&(i, _)| targets[i]).sum();
                sum / neighbours.len() as f64
            }
            KnnWeighting::InverseDistance => {
                // If any neighbour is an exact match, average the exact
                // matches (mirrors scikit-learn's behaviour and avoids
                // dividing by zero).
                let mut exact_sum = 0.0;
                let mut exact_n = 0usize;
                for &(i, d2) in neighbours {
                    if d2 == 0.0 {
                        exact_sum += targets[i];
                        exact_n += 1;
                    }
                }
                if exact_n > 0 {
                    return exact_sum / exact_n as f64;
                }
                let mut weight_sum = 0.0;
                let mut value_sum = 0.0;
                for &(i, d2) in neighbours {
                    let w = 1.0 / d2.sqrt();
                    weight_sum += w;
                    value_sum += w * targets[i];
                }
                value_sum / weight_sum
            }
        }
    }
}

impl Regressor for KnnRegression {
    fn fit(&mut self, data: &Dataset) -> Result<(), ModelError> {
        validate_training_data(data)?;
        self.data.clone_from(data);
        self.refresh_scaler();
        self.fitted = true;
        Ok(())
    }

    fn partial_fit(&mut self, data: &Dataset) -> Result<(), ModelError> {
        validate_training_data(data)?;
        if !self.fitted {
            return self.fit(data);
        }
        for (x, y) in data.iter() {
            self.data.push(x, y);
            // O(1): fold the input into the live scaler's running min/max
            // (bit-identical to a batch refit for min-max parameters).
            self.live_scaler.observe(x);
        }
        self.rows_since_rescale += data.len();
        let drift = self.live_scaler.param_drift(&self.scaler);
        if drift > RESCALE_AT_DRIFT || self.rows_since_rescale >= RESCALE_EVERY_ROWS {
            // Epoch reset: adopt the live parameters and rescale the whole
            // buffer once. Amortised O(1) per observe. When the drift is
            // exactly zero the epoch parameters already equal the live ones,
            // so skipping this is bit-identical to running it.
            self.live_scaler
                .transform_into(self.data.inputs(), &mut self.scaled);
            self.scaler = self.live_scaler;
            self.rows_since_rescale = 0;
        } else {
            // Append the new inputs scaled with the frozen epoch parameters;
            // queries scale with the same parameters, so the ranking stays
            // consistent (bounded-divergent from an eager rescale until the
            // next epoch reset). Allocation-free: inputs scale straight into
            // the retained buffer.
            let scaler = &self.scaler;
            self.scaled
                .extend(data.inputs().iter().map(|&x| scaler.transform(x)));
        }
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
        if !self.fitted || self.data.is_empty() {
            return Err(ModelError::NotFitted);
        }
        let query = validate_query(features)?;
        self.nearest_with(query, scratch);
        Ok(self.aggregate(&scratch.dists))
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn class(&self) -> ModelClass {
        ModelClass::Knn
    }

    fn clone_box(&self) -> Box<dyn Regressor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_returns_stored_target() {
        let data = Dataset::from_univariate(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]);
        let mut m = KnnRegression::with_defaults();
        m.fit(&data).unwrap();
        assert_eq!(m.predict(&[2.0]).unwrap(), 20.0);
    }

    #[test]
    fn uniform_weighting_averages_neighbours() {
        let data = Dataset::from_univariate(&[0.0, 1.0, 10.0], &[0.0, 10.0, 100.0]);
        let mut m = KnnRegression::new(KnnConfig {
            k: 2,
            weighting: KnnWeighting::Uniform,
        });
        m.fit(&data).unwrap();
        // Nearest two to 0.4 are x=0 and x=1.
        assert!((m.predict(&[0.4]).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn inverse_distance_weights_closer_points_more() {
        let data = Dataset::from_univariate(&[0.0, 10.0], &[0.0, 100.0]);
        let mut m = KnnRegression::new(KnnConfig {
            k: 2,
            weighting: KnnWeighting::InverseDistance,
        });
        m.fit(&data).unwrap();
        let near_zero = m.predict(&[1.0]).unwrap();
        let near_ten = m.predict(&[9.0]).unwrap();
        assert!(near_zero < 50.0);
        assert!(near_ten > 50.0);
    }

    #[test]
    fn prediction_stays_within_target_range() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 * x + 100.0).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut m = KnnRegression::with_defaults();
        m.fit(&data).unwrap();
        // k-NN cannot extrapolate: even for a far query, the prediction is
        // bounded by the observed targets.
        let p = m.predict(&[1000.0]).unwrap();
        assert!(p <= 5.0 * 49.0 + 100.0 + 1e-9);
        assert!(p >= 100.0 - 1e-9);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let data = Dataset::from_univariate(&[1.0, 2.0], &[10.0, 20.0]);
        let mut m = KnnRegression::new(KnnConfig {
            k: 50,
            weighting: KnnWeighting::Uniform,
        });
        m.fit(&data).unwrap();
        assert!((m.predict(&[1.5]).unwrap() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn partial_fit_appends_observations() {
        let data = Dataset::from_univariate(&[1.0, 2.0], &[10.0, 20.0]);
        let mut m = KnnRegression::with_defaults();
        m.fit(&data).unwrap();
        let more = Dataset::from_univariate(&[3.0], &[30.0]);
        m.partial_fit(&more).unwrap();
        assert_eq!(m.n_observations(), 3);
        assert_eq!(m.predict(&[3.0]).unwrap(), 30.0);
    }

    #[test]
    fn partial_fit_on_unfitted_model_behaves_like_fit() {
        let mut m = KnnRegression::with_defaults();
        let data = Dataset::from_univariate(&[1.0], &[11.0]);
        m.partial_fit(&data).unwrap();
        assert!(m.is_fitted());
        assert_eq!(m.predict(&[1.0]).unwrap(), 11.0);
    }

    /// Satellite regression: the distance ranking used
    /// `partial_cmp(..).expect("finite distances")`, which panicked on NaN
    /// distances. NaN slips past the finite-input validation whenever the
    /// min-max scaler's range overflows: features spanning more than the
    /// f64 range (`hi - lo == inf`) scale the extreme row to `inf / inf =
    /// NaN`, and every distance involving that row is NaN. With `total_cmp`
    /// such rows rank last and the clean observations still form the
    /// neighbourhood.
    #[test]
    fn nan_distances_are_ranked_not_panicking() {
        let mut m = KnnRegression::new(KnnConfig {
            k: 2,
            weighting: KnnWeighting::Uniform,
        });
        // All inputs finite (validation passes); the 1e308 row's scaled
        // value is NaN because the column range overflows to infinity.
        m.fit(&Dataset::from_univariate(
            &[-1e308, 1e308, 0.0, 1.0],
            &[0.0, 1e12, 10.0, 20.0],
        ))
        .unwrap();
        let p = m.predict(&[0.5]).unwrap();
        assert!(
            p.is_finite(),
            "NaN-distance row must not poison the estimate"
        );
        // An explicitly NaN query is rejected upstream, never panicking.
        assert!(matches!(
            m.predict(&[f64::NAN]),
            Err(ModelError::Numerical(_))
        ));
    }

    #[test]
    fn amortised_rescale_triggers_on_drift_or_interval() {
        let mut m = KnnRegression::new(KnnConfig::default());
        m.fit(&Dataset::from_univariate(&[0.0, 10.0], &[1.0, 2.0]))
            .unwrap();
        assert_eq!(m.rows_since_rescale(), 0);
        // A row barely outside the range drifts the live parameters by 0.5%
        // — below the 2% threshold, so the buffer is not rescaled.
        m.partial_fit(&Dataset::from_univariate(&[10.05], &[3.0]))
            .unwrap();
        assert_eq!(m.rows_since_rescale(), 1);
        let drift = m.live_scaler.param_drift(&m.scaler);
        assert!(drift > 0.0 && drift < 0.01);
        // A far-out row exceeds the drift threshold and forces an epoch
        // reset: buffer rescaled, live == epoch again.
        m.partial_fit(&Dataset::from_univariate(&[30.0], &[4.0]))
            .unwrap();
        assert_eq!(m.rows_since_rescale(), 0);
        assert_eq!(m.live_scaler.param_drift(&m.scaler), 0.0);

        // The periodic bound rescales even when the drift never trips: rows
        // inside the range leave the parameters where they are.
        let mut p = KnnRegression::with_defaults();
        p.fit(&Dataset::from_univariate(&[0.0, 100.0], &[1.0, 2.0]))
            .unwrap();
        for i in 1..RESCALE_EVERY_ROWS {
            p.partial_fit(&Dataset::from_univariate(&[i as f64], &[3.0]))
                .unwrap();
            assert_eq!(p.rows_since_rescale(), i);
        }
        p.partial_fit(&Dataset::from_univariate(&[50.5], &[4.0]))
            .unwrap();
        assert_eq!(p.rows_since_rescale(), 0);
        // Predictions stay exact for stored points after the reset.
        assert_eq!(p.predict(&[50.5]).unwrap(), 4.0);
    }

    #[test]
    fn errors_before_fit_and_on_bad_query() {
        let m = KnnRegression::with_defaults();
        assert!(matches!(m.predict(&[1.0]), Err(ModelError::NotFitted)));
        let mut fitted = KnnRegression::with_defaults();
        fitted
            .fit(&Dataset::from_univariate(&[1.0], &[1.0]))
            .unwrap();
        assert!(matches!(
            fitted.predict(&[1.0, 2.0]),
            Err(ModelError::FeatureMismatch { .. })
        ));
    }
}
