//! Training data container shared by all regressors.
//!
//! A [`Dataset`] is the one layout every model reads its training rows
//! from: one row-major `f64` buffer plus the row width, next to the target
//! vector. Row `i` is the slice `features()[i * w..(i + 1) * w]` with
//! `w = n_features()`; [`Dataset::row`], [`Dataset::get`] and
//! [`Dataset::iter`] hand rows out as borrowed slices. Appending a row
//! copies its values into the buffer, so growing a history of
//! single-feature observations allocates nothing per row beyond the
//! buffer's amortised growth.

/// A supervised regression dataset: a design matrix of feature rows and a
/// response vector of targets (peak memory in bytes for the Sizey use case).
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Row-major feature values, `targets.len() * width` of them.
    values: Vec<f64>,
    targets: Vec<f64>,
    /// Row width; only meaningful while the dataset holds a row.
    width: usize,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Creates a dataset from parallel feature/target vectors.
    ///
    /// # Panics
    /// Panics if the two vectors have different lengths or the feature rows
    /// have inconsistent widths.
    pub fn from_parts(features: Vec<Vec<f64>>, targets: Vec<f64>) -> Self {
        assert_eq!(
            features.len(),
            targets.len(),
            "features and targets must have the same number of rows"
        );
        let width = features.first().map_or(0, Vec::len);
        assert!(
            features.iter().all(|f| f.len() == width),
            "all feature rows must have the same width"
        );
        Dataset {
            values: features.concat(),
            targets,
            width,
        }
    }

    /// Convenience constructor for single-feature data (the common Sizey case:
    /// input size → peak memory).
    pub fn from_univariate(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len());
        Dataset {
            values: xs.to_vec(),
            targets: ys.to_vec(),
            width: 1,
        }
    }

    /// Appends one observation. The first row of an empty dataset sets the
    /// width.
    ///
    /// # Panics
    /// Panics if the dataset holds rows of a different width.
    pub fn push(&mut self, row: &[f64], target: f64) {
        if self.is_empty() {
            self.width = row.len();
        } else {
            assert_eq!(self.width, row.len(), "feature width must be consistent");
        }
        self.values.extend_from_slice(row);
        self.targets.push(target);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when there are no observations.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Number of feature columns (0 for an empty dataset).
    pub fn n_features(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            self.width
        }
    }

    /// Borrow the feature values, row-major: `len()` rows of `n_features()`
    /// values each.
    pub fn features(&self) -> &[f64] {
        &self.values
    }

    /// Borrow the targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Borrow the feature row of the i-th observation.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.values[i * self.width..(i + 1) * self.width]
    }

    /// Returns the i-th observation.
    pub fn get(&self, i: usize) -> (&[f64], f64) {
        (self.row(i), self.targets[i])
    }

    /// Returns a new dataset containing only the observations at `indices`,
    /// in that order.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new();
        for &i in indices {
            out.push(self.row(i), self.targets[i]);
        }
        out
    }

    /// Removes the first `n` observations (all of them when `n >= len`),
    /// preserving the order of the remainder — the primitive behind bounded
    /// training histories (`SizeyConfig::history_window`): the dataset is
    /// drained from the front once it doubles the window, so the cost is
    /// amortised `O(1)` per observation.
    pub fn drain_front(&mut self, n: usize) {
        let n = n.min(self.len());
        self.values.drain(..n * self.width);
        self.targets.drain(..n);
    }

    /// Copies the last `n` observations (or all of them when fewer exist)
    /// into `out`, reusing its buffers, for callers that extract a recent
    /// window on every online-learning step.
    pub fn tail_into(&self, n: usize, out: &mut Dataset) {
        let start = self.len().saturating_sub(n);
        out.width = self.width;
        out.values.clear();
        out.values
            .extend_from_slice(&self.values[start * self.width..]);
        out.targets.clear();
        out.targets.extend_from_slice(&self.targets[start..]);
    }

    /// Iterates over `(features, target)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> {
        (0..self.len()).map(|i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{validate_training_data, ModelError};

    /// Row `i` of width `w`: column `c` holds `10 * i + c`.
    fn row(i: usize, w: usize) -> Vec<f64> {
        (0..w).map(|c| (10 * i + c) as f64).collect()
    }

    #[test]
    fn from_parts_and_accessors() {
        let ds = Dataset::from_parts(vec![vec![1.0, 2.0], vec![3.0, 4.0]], vec![10.0, 20.0]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.get(1), (&[3.0, 4.0][..], 20.0));
        assert_eq!(ds.features(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(!ds.is_empty());
    }

    #[test]
    #[should_panic(expected = "same number of rows")]
    fn from_parts_rejects_length_mismatch() {
        let _ = Dataset::from_parts(vec![vec![1.0]], vec![1.0, 2.0]);
    }

    #[test]
    fn from_univariate_wraps_each_value() {
        let ds = Dataset::from_univariate(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(ds.n_features(), 1);
        assert_eq!(ds.row(1), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "feature width")]
    fn push_rejects_inconsistent_width() {
        let mut ds = Dataset::new();
        ds.push(&[1.0, 2.0, 3.0], 5.0);
        ds.push(&[3.0, 4.0], 6.0);
    }

    #[test]
    fn drain_front_drops_oldest_and_preserves_order() {
        let mut ds = Dataset::from_univariate(&[1.0, 2.0, 3.0, 4.0], &[10.0, 20.0, 30.0, 40.0]);
        ds.drain_front(2);
        assert_eq!(ds.targets(), &[30.0, 40.0]);
        assert_eq!(ds.row(0), &[3.0]);
        ds.drain_front(10);
        assert!(ds.is_empty());
        assert_eq!(ds.n_features(), 0);
        // An emptied dataset takes rows of any width again.
        ds.push(&[1.0, 2.0], 1.0);
        assert_eq!(ds.n_features(), 2);
    }

    /// Every row operation on widths 2 and 3, where a wrong stride would
    /// read a neighbouring row's values.
    #[test]
    fn multi_column_rows_keep_their_stride() {
        for w in [2, 3] {
            let mut ds = Dataset::new();
            for i in 0..6 {
                ds.push(&row(i, w), i as f64);
            }
            assert_eq!((ds.n_features(), ds.features().len()), (w, 6 * w));
            let rows: Vec<(Vec<f64>, f64)> = ds.iter().map(|(r, t)| (r.to_vec(), t)).collect();
            assert_eq!(
                rows,
                (0..6).map(|i| (row(i, w), i as f64)).collect::<Vec<_>>()
            );

            let sub = ds.subset(&[4, 1, 4]);
            assert_eq!(sub.n_features(), w);
            assert_eq!(sub.get(0), (&row(4, w)[..], 4.0));
            assert_eq!(sub.get(1), (&row(1, w)[..], 1.0));
            assert_eq!(sub.row(2), &row(4, w)[..]);

            let mut tail = Dataset::from_univariate(&[7.0], &[7.0]);
            ds.tail_into(2, &mut tail);
            assert_eq!(tail.n_features(), w);
            assert_eq!(tail.get(0), (&row(4, w)[..], 4.0));
            assert_eq!(tail.get(1), (&row(5, w)[..], 5.0));
            ds.tail_into(10, &mut tail);
            assert_eq!(tail.features(), ds.features());

            let mut copy = Dataset::from_univariate(&[7.0; 9], &[7.0; 9]);
            copy.clone_from(&ds);
            assert_eq!(copy.n_features(), w);
            assert_eq!(
                (copy.features(), copy.targets()),
                (ds.features(), ds.targets())
            );

            ds.drain_front(4);
            assert_eq!(ds.get(0), (&row(4, w)[..], 4.0));
            assert_eq!(ds.get(1), (&row(5, w)[..], 5.0));
            ds.push(&row(6, w), 6.0);
            assert_eq!(ds.get(2), (&row(6, w)[..], 6.0));
            assert_eq!(ds.features().len(), 3 * w);
        }
    }

    #[test]
    fn zero_width_rows_are_rejected_as_training_data() {
        let ds = Dataset::from_parts(vec![Vec::new(), Vec::new()], vec![1.0, 2.0]);
        assert_eq!((ds.len(), ds.n_features()), (2, 0));
        assert_eq!(ds.get(1), (&[][..], 2.0));
        assert_eq!(
            validate_training_data(&ds),
            Err(ModelError::InvalidTrainingData(
                "dataset has no feature columns".to_string()
            ))
        );
    }
}
