//! Feature scaling utilities.
//!
//! The MLP and k-NN models are sensitive to the absolute magnitude of the
//! inputs (peak memory in bytes spans nine orders of magnitude), so both are
//! trained on scaled features and targets.

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
/// Besides the batch [`fit`](Scaler::fit) entry points, the scaler carries
/// per-column **running statistics** (count, Welford mean/M2, min/max) so a
/// single new observation can update the parameters in O(columns) via
/// [`observe_row`](Scaler::observe_row) — no pass over the history. For
/// [`ScalerKind::MinMax`] the incremental parameters are **bit-identical**
/// to a batch fit on the same rows (the min/max fold is order-exact); for
/// [`ScalerKind::Standard`] the Welford variance is bounded-divergent from
/// the batch two-pass variance (the workspace proptests pin both claims).
#[derive(Debug, Clone, PartialEq)]
pub struct Scaler {
    kind: ScalerKind,
    shift: Vec<f64>,
    scale: Vec<f64>,
    fitted: bool,
    /// Rows folded into the running statistics below.
    count: usize,
    /// Welford running mean per column.
    mean: Vec<f64>,
    /// Welford running sum of squared deviations per column.
    m2: Vec<f64>,
    /// Running minimum per column.
    lo: Vec<f64>,
    /// Running maximum per column.
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
            count: 0,
            mean: Vec::new(),
            m2: Vec::new(),
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

    /// Number of rows folded into the running statistics.
    pub fn n_rows(&self) -> usize {
        self.count
    }

    /// The scaler kind.
    pub fn kind(&self) -> ScalerKind {
        self.kind
    }

    /// True once [`Scaler::fit`] has been called.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Fits the per-column parameters on a set of feature rows.
    pub fn fit(&mut self, rows: &[Vec<f64>]) {
        let n_cols = rows.first().map_or(0, Vec::len);
        self.fit_columns(n_cols, rows.len(), || rows.iter().map(Vec::as_slice));
    }

    /// Fits the per-column parameters on a flattened row-major buffer of
    /// `n_cols`-wide rows — the allocation-free path used by models that
    /// keep flat feature buffers. Bit-identical to [`Scaler::fit`] on the
    /// same rows: both feed the shared per-column kernel in row order.
    /// The buffer length must be a whole number of rows: a trailing partial
    /// row would otherwise be silently dropped by the integer division,
    /// fitting on fewer rows than the caller passed (debug-asserted).
    pub fn fit_flat(&mut self, data: &[f64], n_cols: usize) {
        debug_assert!(
            n_cols == 0 || data.len().is_multiple_of(n_cols),
            "fit_flat buffer of {} values is not a whole number of {}-wide rows",
            data.len(),
            n_cols
        );
        let n_rows = data.len().checked_div(n_cols).unwrap_or(0);
        self.fit_columns(n_cols, n_rows, || data.chunks_exact(n_cols));
    }

    /// The single implementation of the column statistics, shared by the
    /// row-based and flat fit entry points. `make_rows` yields the feature
    /// rows in order and is re-invoked per pass, so neither caller has to
    /// materialise an intermediate copy of the data.
    fn fit_columns<'a, I: Iterator<Item = &'a [f64]>>(
        &mut self,
        n_cols: usize,
        n_rows: usize,
        make_rows: impl Fn() -> I,
    ) {
        self.shift = vec![0.0; n_cols];
        self.scale = vec![1.0; n_cols];
        // Rebuild the running statistics alongside the batch parameters so
        // later `observe_row` calls continue from exactly this data. One
        // extra pass — batch fits are off the hot path by design.
        self.count = n_rows;
        self.mean = vec![0.0; n_cols];
        self.m2 = vec![0.0; n_cols];
        self.lo = vec![f64::INFINITY; n_cols];
        self.hi = vec![f64::NEG_INFINITY; n_cols];
        for (r, row) in make_rows().enumerate() {
            for (c, &x) in row.iter().enumerate().take(n_cols) {
                let delta = x - self.mean[c];
                self.mean[c] += delta / (r + 1) as f64;
                self.m2[c] += delta * (x - self.mean[c]);
                self.lo[c] = self.lo[c].min(x);
                self.hi[c] = self.hi[c].max(x);
            }
        }
        if n_rows == 0 || n_cols == 0 {
            self.fitted = true;
            return;
        }
        match self.kind {
            ScalerKind::Standard => {
                let n = n_rows as f64;
                for c in 0..n_cols {
                    let mean = make_rows().map(|r| r[c]).sum::<f64>() / n;
                    let var = make_rows()
                        .map(|r| (r[c] - mean) * (r[c] - mean))
                        .sum::<f64>()
                        / n;
                    let std = var.sqrt();
                    self.shift[c] = mean;
                    self.scale[c] = if std > 1e-12 { std } else { 1.0 };
                }
            }
            ScalerKind::MinMax => {
                for c in 0..n_cols {
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    for r in make_rows() {
                        lo = lo.min(r[c]);
                        hi = hi.max(r[c]);
                    }
                    let range = hi - lo;
                    self.shift[c] = lo;
                    self.scale[c] = if range > 1e-12 { range } else { 1.0 };
                }
            }
        }
        self.fitted = true;
    }

    /// Folds one feature row into the running statistics and refreshes the
    /// affine parameters from them — the O(columns) incremental update used
    /// by the online-learning hot path.
    ///
    /// For [`ScalerKind::MinMax`] the resulting parameters are bit-identical
    /// to a batch [`fit`](Scaler::fit) on the same rows in the same order;
    /// for [`ScalerKind::Standard`] the Welford mean/variance is
    /// bounded-divergent from the batch two-pass statistics. A row of a
    /// different width than the current statistics resets them (treated as
    /// the first row of a fresh fit).
    pub fn observe_row(&mut self, row: &[f64]) {
        if self.mean.len() != row.len() {
            let n_cols = row.len();
            self.count = 0;
            self.mean = vec![0.0; n_cols];
            self.m2 = vec![0.0; n_cols];
            self.lo = vec![f64::INFINITY; n_cols];
            self.hi = vec![f64::NEG_INFINITY; n_cols];
        }
        self.count += 1;
        for (c, &x) in row.iter().enumerate() {
            let delta = x - self.mean[c];
            self.mean[c] += delta / self.count as f64;
            self.m2[c] += delta * (x - self.mean[c]);
            self.lo[c] = self.lo[c].min(x);
            self.hi[c] = self.hi[c].max(x);
        }
        self.refresh_params_from_stats();
    }

    /// Recomputes `shift`/`scale` from the running statistics.
    fn refresh_params_from_stats(&mut self) {
        let n_cols = self.mean.len();
        self.shift = vec![0.0; n_cols];
        self.scale = vec![1.0; n_cols];
        match self.kind {
            ScalerKind::Standard => {
                for c in 0..n_cols {
                    let var = self.m2[c] / self.count.max(1) as f64;
                    let std = var.sqrt();
                    self.shift[c] = self.mean[c];
                    self.scale[c] = if std > 1e-12 { std } else { 1.0 };
                }
            }
            ScalerKind::MinMax => {
                for c in 0..n_cols {
                    let range = self.hi[c] - self.lo[c];
                    self.shift[c] = self.lo[c];
                    self.scale[c] = if range > 1e-12 { range } else { 1.0 };
                }
            }
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

    /// Transforms a flattened row-major buffer into scaled space, writing
    /// into `out` (cleared and reused across refreshes). Values match
    /// [`Scaler::transform`] applied row by row.
    pub fn transform_flat_into(&self, data: &[f64], n_cols: usize, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(data.len());
        if !self.fitted || n_cols == 0 {
            out.extend_from_slice(data);
            return;
        }
        for row in data.chunks_exact(n_cols) {
            for (c, &v) in row.iter().enumerate() {
                if c < self.shift.len() {
                    out.push((v - self.shift[c]) / self.scale[c]);
                } else {
                    out.push(v);
                }
            }
        }
    }

    /// Transforms one feature row into scaled space.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(row.len());
        self.transform_into(row, &mut out);
        out
    }

    /// Transforms one feature row into a caller-owned buffer (cleared
    /// first) — the allocation-free twin of [`Scaler::transform`], with
    /// identical arithmetic.
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

    /// Transforms a batch of rows.
    pub fn transform_batch(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform(r)).collect()
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

    /// Transforms a batch of targets.
    pub fn transform_batch(&self, ys: &[f64]) -> Vec<f64> {
        ys.iter().map(|&y| self.transform(y)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit_transform(scaler: &mut Scaler, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        scaler.fit(rows);
        scaler.transform_batch(rows)
    }

    #[test]
    fn standard_scaler_centres_and_scales() {
        let rows = vec![vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 500.0]];
        let mut s = Scaler::new(ScalerKind::Standard);
        let t = fit_transform(&mut s, &rows);
        // Column means of the transformed data must be ~0.
        for c in 0..2 {
            let mean: f64 = t.iter().map(|r| r[c]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
        }
        // And variance ~1.
        for c in 0..2 {
            let var: f64 = t.iter().map(|r| r[c] * r[c]).sum::<f64>() / 3.0;
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn minmax_scaler_maps_to_unit_interval() {
        let rows = vec![vec![2.0], vec![4.0], vec![6.0]];
        let mut s = Scaler::new(ScalerKind::MinMax);
        let t = fit_transform(&mut s, &rows);
        assert_eq!(t[0][0], 0.0);
        assert_eq!(t[2][0], 1.0);
        assert!((t[1][0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constant_column_does_not_divide_by_zero() {
        let rows = vec![vec![7.0], vec![7.0]];
        let mut s = Scaler::new(ScalerKind::Standard);
        let t = fit_transform(&mut s, &rows);
        assert!(t.iter().all(|r| r[0].is_finite()));
        let mut m = Scaler::new(ScalerKind::MinMax);
        let t2 = fit_transform(&mut m, &rows);
        assert!(t2.iter().all(|r| r[0].is_finite()));
    }

    #[test]
    fn unfitted_scaler_passes_through() {
        let s = Scaler::new(ScalerKind::Standard);
        assert_eq!(s.transform(&[5.0]), vec![5.0]);
        assert!(!s.is_fitted());
    }

    #[test]
    fn flat_fit_and_transform_match_the_row_based_path() {
        let rows = vec![
            vec![1.0, 100.0],
            vec![3.0, 250.0],
            vec![5.0, 500.0],
            vec![2.0, 50.0],
        ];
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        for kind in [ScalerKind::Standard, ScalerKind::MinMax] {
            let mut by_rows = Scaler::new(kind);
            by_rows.fit(&rows);
            let mut by_flat = Scaler::new(kind);
            by_flat.fit_flat(&flat, 2);
            assert_eq!(by_rows, by_flat, "{kind:?} params diverged");
            let mut scaled_flat = Vec::new();
            by_flat.transform_flat_into(&flat, 2, &mut scaled_flat);
            let scaled_rows: Vec<f64> = by_rows
                .transform_batch(&rows)
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(scaled_flat, scaled_rows, "{kind:?} transform diverged");
        }
    }

    /// Satellite regression: `fit_flat` used to floor away a trailing
    /// partial row (`data.len().checked_div(n_cols)`), silently fitting on
    /// fewer rows than the caller passed. Non-multiple buffer lengths are a
    /// caller bug and are debug-asserted.
    #[test]
    #[should_panic(expected = "whole number of")]
    #[cfg(debug_assertions)]
    fn fit_flat_rejects_partial_trailing_rows() {
        let mut s = Scaler::new(ScalerKind::MinMax);
        // Five values cannot be rows of width two.
        s.fit_flat(&[1.0, 2.0, 3.0, 4.0, 5.0], 2);
    }

    #[test]
    fn incremental_minmax_params_are_bit_identical_to_batch() {
        let rows = vec![
            vec![3.0, -7.5e9],
            vec![1.0, 2.0e9],
            vec![4.0, 0.0],
            vec![1.5, 9.1e9],
        ];
        let mut batch = Scaler::new(ScalerKind::MinMax);
        batch.fit(&rows);
        let mut incremental = Scaler::new(ScalerKind::MinMax);
        for row in &rows {
            incremental.observe_row(row);
        }
        assert_eq!(batch.shift(), incremental.shift());
        assert_eq!(batch.scale(), incremental.scale());
        // Continuing incrementally from a batch prefix is also exact.
        let mut resumed = Scaler::new(ScalerKind::MinMax);
        resumed.fit(&rows[..2]);
        for row in &rows[2..] {
            resumed.observe_row(row);
        }
        assert_eq!(batch.shift(), resumed.shift());
        assert_eq!(batch.scale(), resumed.scale());
    }

    #[test]
    fn incremental_standard_params_track_batch_closely() {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i as f64 * 0.73).sin() * 1e9, i as f64])
            .collect();
        let mut batch = Scaler::new(ScalerKind::Standard);
        batch.fit(&rows);
        let mut incremental = Scaler::new(ScalerKind::Standard);
        for row in &rows {
            incremental.observe_row(row);
        }
        for c in 0..2 {
            let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
            assert!(rel(incremental.shift()[c], batch.shift()[c]) < 1e-9);
            assert!(rel(incremental.scale()[c], batch.scale()[c]) < 1e-9);
        }
    }

    #[test]
    fn param_drift_is_zero_for_identical_and_grows_with_range() {
        let rows = vec![vec![0.0], vec![10.0]];
        let mut a = Scaler::new(ScalerKind::MinMax);
        a.fit(&rows);
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
