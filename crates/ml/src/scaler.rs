//! Input and target scaling.
//!
//! The MLP and k-NN models are sensitive to the absolute magnitude of the
//! inputs (peak memory in bytes spans nine orders of magnitude), so both are
//! trained on scaled values. Both scalers are one affine transform
//! `v -> (v - shift) / scale` of a single column: the k-NN scales its inputs
//! with a [`MinMaxScaler`], the MLP its inputs and its targets with one
//! [`StandardScaler`] each. An unfitted scaler has shift 0 and scale 1, so
//! it passes values through.

/// Min-max scaler: maps the fitted values onto `[0, 1]`.
///
/// It keeps the running minimum and maximum, so a single new observation
/// updates its parameters in O(1) via [`observe`](MinMaxScaler::observe),
/// with no pass over the history. The min/max fold is order-exact, so the
/// incremental parameters are **bit-identical** to a batch fit on the same
/// values (the workspace proptests pin this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMaxScaler {
    shift: f64,
    scale: f64,
    /// Running minimum.
    lo: f64,
    /// Running maximum.
    hi: f64,
}

impl Default for MinMaxScaler {
    fn default() -> Self {
        MinMaxScaler {
            shift: 0.0,
            scale: 1.0,
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
        }
    }
}

impl MinMaxScaler {
    /// The shift of the fitted transform (0 before fitting).
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// The scale of the fitted transform (1 before fitting).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Fits the parameters on `values`, from scratch; later
    /// [`observe`](MinMaxScaler::observe) calls continue from exactly this
    /// data.
    pub fn fit(&mut self, values: &[f64]) {
        *self = MinMaxScaler::default();
        for &v in values {
            self.fold(v);
        }
        if !values.is_empty() {
            self.refresh_params();
        }
    }

    /// Folds one value into the running minimum and maximum and refreshes
    /// the parameters from them: the O(1) incremental update of the
    /// online-learning hot path. The parameters are bit-identical to a batch
    /// [`fit`](MinMaxScaler::fit) on the same values in the same order.
    pub fn observe(&mut self, v: f64) {
        self.fold(v);
        self.refresh_params();
    }

    fn fold(&mut self, v: f64) {
        self.lo = self.lo.min(v);
        self.hi = self.hi.max(v);
    }

    /// Recomputes `shift`/`scale` from the running minimum and maximum.
    fn refresh_params(&mut self) {
        let spread = self.hi - self.lo;
        self.shift = self.lo;
        self.scale = if spread > 1e-12 { spread } else { 1.0 };
    }

    /// Largest relative difference between this scaler's affine parameters
    /// and `frozen`'s, measured in units of the frozen scale — the staleness
    /// signal deciding when an amortised consumer (the k-NN buffer) must
    /// rescale its history against the live parameters.
    pub fn param_drift(&self, frozen: &MinMaxScaler) -> f64 {
        let unit = frozen.scale.abs().max(1e-300);
        0.0f64
            .max((self.shift - frozen.shift).abs() / unit)
            .max((self.scale - frozen.scale).abs() / unit)
    }

    /// Maps one value to scaled space.
    pub fn transform(&self, v: f64) -> f64 {
        (v - self.shift) / self.scale
    }

    /// Writes the transform of every value into `out` (cleared and reused
    /// across refreshes).
    pub fn transform_into(&self, values: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(values.iter().map(|&v| self.transform(v)));
    }
}

/// Standard scaler: maps the fitted values to zero mean and unit variance.
/// Fitted in one batch only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StandardScaler {
    shift: f64,
    scale: f64,
}

impl Default for StandardScaler {
    fn default() -> Self {
        StandardScaler {
            shift: 0.0,
            scale: 1.0,
        }
    }
}

impl StandardScaler {
    /// Fits the two-pass mean and standard deviation of `values`; a
    /// constant (or empty) column keeps scale 1.
    pub fn fit(&mut self, values: &[f64]) {
        *self = StandardScaler::default();
        if values.is_empty() {
            return;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let std = var.sqrt();
        self.shift = mean;
        self.scale = if std > 1e-12 { std } else { 1.0 };
    }

    /// Maps one value to scaled space.
    pub fn transform(&self, v: f64) -> f64 {
        (v - self.shift) / self.scale
    }

    /// Maps a scaled value back to raw space.
    pub fn inverse(&self, scaled: f64) -> f64 {
        scaled * self.scale + self.shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_scaler_centres_and_scales() {
        let values = [1.0, 3.0, 5.0];
        let mut s = StandardScaler::default();
        s.fit(&values);
        let t: Vec<f64> = values.iter().map(|&v| s.transform(v)).collect();
        let mean = t.iter().sum::<f64>() / 3.0;
        let var = t.iter().map(|v| v * v).sum::<f64>() / 3.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn minmax_scaler_maps_to_unit_interval() {
        let mut s = MinMaxScaler::default();
        s.fit(&[2.0, 4.0, 6.0]);
        let mut t = Vec::new();
        s.transform_into(&[2.0, 4.0, 6.0], &mut t);
        assert_eq!(t[0], 0.0);
        assert_eq!(t[2], 1.0);
        assert!((t[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constant_column_does_not_divide_by_zero() {
        let values = [7.0, 7.0];
        let mut s = StandardScaler::default();
        s.fit(&values);
        let mut m = MinMaxScaler::default();
        m.fit(&values);
        assert!(values
            .iter()
            .all(|&v| s.transform(v).is_finite() && m.transform(v).is_finite()));
    }

    #[test]
    fn unfitted_scalers_pass_through() {
        assert_eq!(MinMaxScaler::default().transform(5.0), 5.0);
        assert_eq!(StandardScaler::default().transform(5.0), 5.0);
        assert_eq!(StandardScaler::default().inverse(5.0), 5.0);
    }

    #[test]
    fn incremental_minmax_params_are_bit_identical_to_batch() {
        let values = [3.0, -7.5e9, 1.0, 2.0e9, 4.0, 0.0];
        let mut batch = MinMaxScaler::default();
        batch.fit(&values);
        let mut incremental = MinMaxScaler::default();
        for &v in &values {
            incremental.observe(v);
        }
        assert_eq!(batch, incremental);
        // Continuing incrementally from a batch prefix is also exact.
        let mut resumed = MinMaxScaler::default();
        resumed.fit(&values[..2]);
        for &v in &values[2..] {
            resumed.observe(v);
        }
        assert_eq!(batch, resumed);
    }

    #[test]
    fn param_drift_is_zero_for_identical_and_grows_with_range() {
        let mut a = MinMaxScaler::default();
        a.fit(&[0.0, 10.0]);
        let frozen = a;
        assert_eq!(a.param_drift(&frozen), 0.0);
        // A new out-of-range value moves both min and the range.
        a.observe(20.0);
        assert!(a.param_drift(&frozen) > 0.5);
    }

    #[test]
    fn standard_scaler_round_trips_and_handles_constant_and_empty() {
        let ys = [100.0, 200.0, 300.0, 400.0];
        let mut s = StandardScaler::default();
        s.fit(&ys);
        for &y in &ys {
            assert!((s.inverse(s.transform(y)) - y).abs() < 1e-9);
        }
        s.fit(&[5.0, 5.0]);
        assert!(s.transform(5.0).abs() < 1e-12);
        s.fit(&[]);
        assert_eq!(s.inverse(s.transform(3.0)), 3.0);
    }
}
