//! Feature scaling utilities.
//!
//! The MLP and k-NN models are sensitive to the absolute magnitude of the
//! inputs (peak memory in bytes spans nine orders of magnitude), so both are
//! trained on scaled features and targets.
//!
//! [`Scaler`] reads training rows in the one layout the crate stores them
//! in, a row-major buffer plus its row width (a
//! [`Dataset`](crate::dataset::Dataset)'s `features()`): [`Scaler::fit`]
//! fits on such a buffer and [`Scaler::transform_flat_into`] scales one.
//! Single rows go through [`Scaler::transform_into`] (a query) or
//! [`Scaler::transform_append`] (packing rows into a training buffer).

/// Scaling strategy applied to each feature column (and optionally the target).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalerKind {
    /// Scale each column to zero mean and unit variance.
    Standard,
    /// Scale each column into the `[0, 1]` interval.
    MinMax,
}

/// Per-column affine transform `x -> (x - shift) / scale` fitted on training
/// data and applied to training and query points alike.
///
/// A [`ScalerKind::MinMax`] scaler also keeps each column's running minimum
/// and maximum, so a single new observation updates its parameters in
/// O(columns) via [`observe_row`](Scaler::observe_row), with no pass over the
/// history. The min/max fold is order-exact, so the incremental parameters
/// are **bit-identical** to a batch fit on the same rows (the workspace
/// proptests pin this). A [`ScalerKind::Standard`] scaler is fitted in one
/// batch only.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaler {
    kind: ScalerKind,
    shift: Vec<f64>,
    scale: Vec<f64>,
    fitted: bool,
    /// Running minimum per column (min-max only).
    lo: Vec<f64>,
    /// Running maximum per column (min-max only).
    hi: Vec<f64>,
}

impl Scaler {
    /// Creates an unfitted scaler of the given kind.
    pub fn new(kind: ScalerKind) -> Self {
        Scaler {
            kind,
            shift: Vec::new(),
            scale: Vec::new(),
            fitted: false,
            lo: Vec::new(),
            hi: Vec::new(),
        }
    }

    /// The per-column shifts of the fitted transform (empty before fitting).
    pub fn shift(&self) -> &[f64] {
        &self.shift
    }

    /// The per-column scales of the fitted transform (empty before fitting).
    pub fn scale(&self) -> &[f64] {
        &self.scale
    }

    /// The scaler kind.
    pub fn kind(&self) -> ScalerKind {
        self.kind
    }

    /// True once [`Scaler::fit`] has been called.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Fits the per-column parameters on a row-major buffer of `n_cols`-wide
    /// rows (a [`Dataset`](crate::dataset::Dataset)'s feature layout).
    /// The buffer length must be a whole number of rows: a trailing partial
    /// row would otherwise be silently dropped by the integer division,
    /// fitting on fewer rows than the caller passed (debug-asserted).
    ///
    /// Min-max parameters come from the running minimum and maximum, so
    /// later [`observe_row`](Scaler::observe_row) calls continue from exactly
    /// this data; standard parameters are the two-pass mean and variance.
    pub fn fit(&mut self, data: &[f64], n_cols: usize) {
        debug_assert!(
            n_cols == 0 || data.len().is_multiple_of(n_cols),
            "fit buffer of {} values is not a whole number of {}-wide rows",
            data.len(),
            n_cols
        );
        self.shift = vec![0.0; n_cols];
        self.scale = vec![1.0; n_cols];
        self.fitted = true;
        let n_rows = data.len().checked_div(n_cols).unwrap_or(0);
        match self.kind {
            ScalerKind::MinMax => {
                self.lo = vec![f64::INFINITY; n_cols];
                self.hi = vec![f64::NEG_INFINITY; n_cols];
                if n_rows > 0 {
                    for row in data.chunks_exact(n_cols) {
                        self.fold_row(row);
                    }
                    self.refresh_params();
                }
            }
            ScalerKind::Standard if n_rows > 0 => {
                let n = n_rows as f64;
                for c in 0..n_cols {
                    let column = || data[c..].iter().step_by(n_cols);
                    let mean = column().sum::<f64>() / n;
                    let var = column().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
                    let std = var.sqrt();
                    self.shift[c] = mean;
                    self.scale[c] = if std > 1e-12 { std } else { 1.0 };
                }
            }
            ScalerKind::Standard => {}
        }
    }

    /// Folds one feature row into a min-max scaler's running minimum and
    /// maximum and refreshes its parameters from them: the O(columns)
    /// incremental update of the online-learning hot path. The parameters
    /// are bit-identical to a batch [`fit`](Scaler::fit) on the same rows in
    /// the same order. A row of a different width than the current
    /// statistics resets them (treated as the first row of a fresh fit).
    ///
    /// # Panics
    ///
    /// On a [`ScalerKind::Standard`] scaler, which has no incremental
    /// update.
    pub fn observe_row(&mut self, row: &[f64]) {
        assert_eq!(
            self.kind,
            ScalerKind::MinMax,
            "only a min-max scaler updates row by row"
        );
        if self.lo.len() != row.len() {
            self.lo = vec![f64::INFINITY; row.len()];
            self.hi = vec![f64::NEG_INFINITY; row.len()];
        }
        self.fold_row(row);
        self.refresh_params();
    }

    /// Folds one row into the running minimum and maximum.
    fn fold_row(&mut self, row: &[f64]) {
        for (c, &x) in row.iter().enumerate() {
            self.lo[c] = self.lo[c].min(x);
            self.hi[c] = self.hi[c].max(x);
        }
    }

    /// Recomputes the min-max `shift`/`scale` from the running minimum and
    /// maximum, in place.
    fn refresh_params(&mut self) {
        let n_cols = self.lo.len();
        self.shift.resize(n_cols, 0.0);
        self.scale.resize(n_cols, 1.0);
        for c in 0..n_cols {
            let spread = self.hi[c] - self.lo[c];
            self.shift[c] = self.lo[c];
            self.scale[c] = if spread > 1e-12 { spread } else { 1.0 };
        }
        self.fitted = true;
    }

    /// Largest relative per-column difference between this scaler's affine
    /// parameters and `frozen`'s, measured in units of the frozen scale —
    /// the staleness signal deciding when an amortised consumer (the k-NN
    /// buffer) must rescale its history against the live parameters.
    /// Returns `f64::INFINITY` when the column counts differ.
    pub fn param_drift(&self, frozen: &Scaler) -> f64 {
        if self.shift.len() != frozen.shift.len() {
            return f64::INFINITY;
        }
        let mut drift = 0.0f64;
        for c in 0..self.shift.len() {
            let unit = frozen.scale[c].abs().max(1e-300);
            drift = drift.max((self.shift[c] - frozen.shift[c]).abs() / unit);
            drift = drift.max((self.scale[c] - frozen.scale[c]).abs() / unit);
        }
        drift
    }

    /// Transforms a row-major buffer of `n_cols`-wide rows into scaled
    /// space, writing into `out` (cleared and reused across refreshes).
    /// Values match [`Scaler::transform_into`] applied row by row.
    pub fn transform_flat_into(&self, data: &[f64], n_cols: usize, out: &mut Vec<f64>) {
        out.clear();
        if n_cols == 0 {
            out.extend_from_slice(data);
            return;
        }
        out.reserve(data.len());
        for row in data.chunks_exact(n_cols) {
            self.transform_append(row, out);
        }
    }

    /// Transforms one feature row into a caller-owned buffer (cleared
    /// first).
    pub fn transform_into(&self, row: &[f64], out: &mut Vec<f64>) {
        out.clear();
        self.transform_append(row, out);
    }

    /// Appends the transform of one row to `out`: [`Scaler::transform_into`]
    /// without the clear, for packing rows into one flat buffer.
    pub fn transform_append(&self, row: &[f64], out: &mut Vec<f64>) {
        if !self.fitted {
            out.extend_from_slice(row);
            return;
        }
        out.extend(row.iter().enumerate().map(|(c, &v)| {
            if c < self.shift.len() {
                (v - self.shift[c]) / self.scale[c]
            } else {
                v
            }
        }));
    }
}

/// Scalar target transform used so the MLP trains on values of magnitude ~1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetScaler {
    shift: f64,
    scale: f64,
    fitted: bool,
}

impl Default for TargetScaler {
    fn default() -> Self {
        TargetScaler {
            shift: 0.0,
            scale: 1.0,
            fitted: false,
        }
    }
}

impl TargetScaler {
    /// Creates an unfitted target scaler.
    pub fn new() -> Self {
        TargetScaler::default()
    }

    /// Fits a standard (mean / std) transform to the targets.
    pub fn fit(&mut self, targets: &[f64]) {
        if targets.is_empty() {
            self.shift = 0.0;
            self.scale = 1.0;
            self.fitted = true;
            return;
        }
        let n = targets.len() as f64;
        let mean = targets.iter().sum::<f64>() / n;
        let var = targets.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / n;
        let std = var.sqrt();
        self.shift = mean;
        self.scale = if std > 1e-12 { std } else { 1.0 };
        self.fitted = true;
    }

    /// True once fitted.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Maps a raw target to scaled space.
    pub fn transform(&self, y: f64) -> f64 {
        (y - self.shift) / self.scale
    }

    /// Maps a scaled prediction back to raw space.
    pub fn inverse(&self, y_scaled: f64) -> f64 {
        y_scaled * self.scale + self.shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fits on `rows` (row-major, `n_cols` wide) and returns them scaled.
    fn fit_transform(scaler: &mut Scaler, rows: &[f64], n_cols: usize) -> Vec<f64> {
        scaler.fit(rows, n_cols);
        let mut out = Vec::new();
        scaler.transform_flat_into(rows, n_cols, &mut out);
        out
    }

    #[test]
    fn standard_scaler_centres_and_scales() {
        let rows = [1.0, 100.0, 3.0, 300.0, 5.0, 500.0];
        let mut s = Scaler::new(ScalerKind::Standard);
        let t = fit_transform(&mut s, &rows, 2);
        // Column means of the transformed data must be ~0.
        for c in 0..2 {
            let mean: f64 = t.chunks_exact(2).map(|r| r[c]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
        }
        // And variance ~1.
        for c in 0..2 {
            let var: f64 = t.chunks_exact(2).map(|r| r[c] * r[c]).sum::<f64>() / 3.0;
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn minmax_scaler_maps_to_unit_interval() {
        let mut s = Scaler::new(ScalerKind::MinMax);
        let t = fit_transform(&mut s, &[2.0, 4.0, 6.0], 1);
        assert_eq!(t[0], 0.0);
        assert_eq!(t[2], 1.0);
        assert!((t[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constant_column_does_not_divide_by_zero() {
        let rows = [7.0, 7.0];
        let mut s = Scaler::new(ScalerKind::Standard);
        let t = fit_transform(&mut s, &rows, 1);
        assert!(t.iter().all(|v| v.is_finite()));
        let mut m = Scaler::new(ScalerKind::MinMax);
        let t2 = fit_transform(&mut m, &rows, 1);
        assert!(t2.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn unfitted_scaler_passes_through() {
        let s = Scaler::new(ScalerKind::Standard);
        let mut out = Vec::new();
        s.transform_into(&[5.0], &mut out);
        assert_eq!(out, vec![5.0]);
        assert!(!s.is_fitted());
    }

    /// The single-row transforms scale exactly like the buffer transform.
    #[test]
    fn row_transforms_match_the_buffer_transform() {
        let rows = [1.0, 100.0, 3.0, 250.0, 5.0, 500.0, 2.0, 50.0];
        for kind in [ScalerKind::Standard, ScalerKind::MinMax] {
            let mut s = Scaler::new(kind);
            let scaled = fit_transform(&mut s, &rows, 2);
            let mut appended = Vec::new();
            let mut one = Vec::new();
            for (row, expected) in rows.chunks_exact(2).zip(scaled.chunks_exact(2)) {
                s.transform_append(row, &mut appended);
                s.transform_into(row, &mut one);
                assert_eq!(one, expected, "{kind:?} transform_into diverged");
            }
            assert_eq!(appended, scaled, "{kind:?} transform_append diverged");
        }
    }

    /// Satellite regression: the flat fit used to floor away a trailing
    /// partial row (`data.len().checked_div(n_cols)`), silently fitting on
    /// fewer rows than the caller passed. Non-multiple buffer lengths are a
    /// caller bug and are debug-asserted.
    #[test]
    #[should_panic(expected = "whole number of")]
    #[cfg(debug_assertions)]
    fn fit_rejects_partial_trailing_rows() {
        let mut s = Scaler::new(ScalerKind::MinMax);
        // Five values cannot be rows of width two.
        s.fit(&[1.0, 2.0, 3.0, 4.0, 5.0], 2);
    }

    #[test]
    fn incremental_minmax_params_are_bit_identical_to_batch() {
        let rows = [3.0, -7.5e9, 1.0, 2.0e9, 4.0, 0.0, 1.5, 9.1e9];
        let mut batch = Scaler::new(ScalerKind::MinMax);
        batch.fit(&rows, 2);
        let mut incremental = Scaler::new(ScalerKind::MinMax);
        for row in rows.chunks_exact(2) {
            incremental.observe_row(row);
        }
        assert_eq!(batch.shift(), incremental.shift());
        assert_eq!(batch.scale(), incremental.scale());
        // Continuing incrementally from a batch prefix is also exact.
        let mut resumed = Scaler::new(ScalerKind::MinMax);
        resumed.fit(&rows[..4], 2);
        for row in rows[4..].chunks_exact(2) {
            resumed.observe_row(row);
        }
        assert_eq!(batch.shift(), resumed.shift());
        assert_eq!(batch.scale(), resumed.scale());
    }

    #[test]
    #[should_panic(expected = "only a min-max scaler")]
    fn standard_scaling_has_no_incremental_update() {
        let mut s = Scaler::new(ScalerKind::Standard);
        s.fit(&[1.0, 2.0], 1);
        s.observe_row(&[3.0]);
    }

    #[test]
    fn param_drift_is_zero_for_identical_and_grows_with_range() {
        let mut a = Scaler::new(ScalerKind::MinMax);
        a.fit(&[0.0, 10.0], 1);
        let frozen = a.clone();
        assert_eq!(a.param_drift(&frozen), 0.0);
        // A new out-of-range row moves both min and the range.
        a.observe_row(&[20.0]);
        assert!(a.param_drift(&frozen) > 0.5);
        // Width mismatch is infinite drift.
        let wide = Scaler::new(ScalerKind::MinMax);
        assert_eq!(wide.param_drift(&frozen), f64::INFINITY);
    }

    #[test]
    fn target_scaler_round_trips() {
        let ys = [100.0, 200.0, 300.0, 400.0];
        let mut s = TargetScaler::new();
        s.fit(&ys);
        for &y in &ys {
            let back = s.inverse(s.transform(y));
            assert!((back - y).abs() < 1e-9);
        }
    }

    #[test]
    fn target_scaler_handles_constant_and_empty() {
        let mut s = TargetScaler::new();
        s.fit(&[5.0, 5.0]);
        assert!(s.transform(5.0).abs() < 1e-12);
        let mut e = TargetScaler::new();
        e.fit(&[]);
        assert_eq!(e.inverse(e.transform(3.0)), 3.0);
    }
}
