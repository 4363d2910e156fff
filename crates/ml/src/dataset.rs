//! Training data containers shared by all regressors.

/// A supervised regression dataset: a design matrix of feature rows and a
/// response vector of targets (peak memory in bytes for the Sizey use case).
#[derive(Debug, Default)]
pub struct Dataset {
    features: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl Clone for Dataset {
    fn clone(&self) -> Self {
        Dataset {
            features: self.features.clone(),
            targets: self.targets.clone(),
        }
    }

    /// Reuses the destination's row buffers (outer and inner vectors) —
    /// models that retrain on a growing history call this on every update,
    /// so the copy must not reallocate the whole training set each time.
    fn clone_from(&mut self, source: &Self) {
        self.features.clone_from(&source.features);
        self.targets.clone_from(&source.targets);
    }
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
        if let Some(first) = features.first() {
            let w = first.len();
            assert!(
                features.iter().all(|f| f.len() == w),
                "all feature rows must have the same width"
            );
        }
        Dataset { features, targets }
    }

    /// Convenience constructor for single-feature data (the common Sizey case:
    /// input size → peak memory).
    pub fn from_univariate(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len());
        Dataset {
            features: xs.iter().map(|&x| vec![x]).collect(),
            targets: ys.to_vec(),
        }
    }

    /// Appends one observation.
    pub fn push(&mut self, features: Vec<f64>, target: f64) {
        if let Some(first) = self.features.first() {
            assert_eq!(
                first.len(),
                features.len(),
                "feature width must be consistent"
            );
        }
        self.features.push(features);
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
        self.features.first().map_or(0, Vec::len)
    }

    /// Borrow the feature rows.
    pub fn features(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// Borrow the targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Returns the i-th observation.
    pub fn get(&self, i: usize) -> (&[f64], f64) {
        (&self.features[i], self.targets[i])
    }

    /// Returns a new dataset containing only the observations at `indices`.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            features: indices.iter().map(|&i| self.features[i].clone()).collect(),
            targets: indices.iter().map(|&i| self.targets[i]).collect(),
        }
    }

    /// Removes the first `n` observations (all of them when `n >= len`),
    /// preserving the order of the remainder — the primitive behind bounded
    /// training histories (`SizeyConfig::history_window`): the dataset is
    /// drained from the front once it doubles the window, so the cost is
    /// amortised `O(1)` per observation.
    pub fn drain_front(&mut self, n: usize) {
        let n = n.min(self.len());
        self.features.drain(..n);
        self.targets.drain(..n);
    }

    /// Returns the last `n` observations (or all of them when fewer exist).
    pub fn tail(&self, n: usize) -> Dataset {
        let start = self.len().saturating_sub(n);
        Dataset {
            features: self.features[start..].to_vec(),
            targets: self.targets[start..].to_vec(),
        }
    }

    /// Copies the last `n` observations into `out`, reusing its buffers —
    /// the allocation-free variant of [`Dataset::tail`] for callers that
    /// extract a recent window on every online-learning step.
    pub fn tail_into(&self, n: usize, out: &mut Dataset) {
        let start = self.len().saturating_sub(n);
        let rows = &self.features[start..];
        out.features.truncate(rows.len());
        let reused = out.features.len();
        for (dst, src) in out.features.iter_mut().zip(rows) {
            dst.clone_from(src);
        }
        for src in &rows[reused..] {
            out.features.push(src.clone());
        }
        out.targets.clear();
        out.targets.extend_from_slice(&self.targets[start..]);
    }

    /// Splits into `(train, test)` where the first `train_len` observations go
    /// into the training part. Order is preserved (important for online
    /// replay-style evaluation).
    pub fn split_at(&self, train_len: usize) -> (Dataset, Dataset) {
        let train_len = train_len.min(self.len());
        (
            Dataset {
                features: self.features[..train_len].to_vec(),
                targets: self.targets[..train_len].to_vec(),
            },
            Dataset {
                features: self.features[train_len..].to_vec(),
                targets: self.targets[train_len..].to_vec(),
            },
        )
    }

    /// Iterates over `(features, target)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> {
        self.features
            .iter()
            .map(Vec::as_slice)
            .zip(self.targets.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_parts_and_accessors() {
        let ds = Dataset::from_parts(vec![vec![1.0, 2.0], vec![3.0, 4.0]], vec![10.0, 20.0]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.get(1), (&[3.0, 4.0][..], 20.0));
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
        assert_eq!(ds.features()[1], vec![2.0]);
    }

    #[test]
    fn push_appends_and_checks_width() {
        let mut ds = Dataset::new();
        ds.push(vec![1.0, 2.0], 5.0);
        ds.push(vec![3.0, 4.0], 6.0);
        assert_eq!(ds.len(), 2);
    }

    #[test]
    #[should_panic(expected = "feature width")]
    fn push_rejects_inconsistent_width() {
        let mut ds = Dataset::new();
        ds.push(vec![1.0, 2.0], 5.0);
        ds.push(vec![3.0], 6.0);
    }

    #[test]
    fn subset_selects_indices() {
        let ds = Dataset::from_univariate(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]);
        let sub = ds.subset(&[2, 0]);
        assert_eq!(sub.targets(), &[30.0, 10.0]);
    }

    #[test]
    fn tail_returns_last_n() {
        let ds = Dataset::from_univariate(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]);
        let t = ds.tail(2);
        assert_eq!(t.targets(), &[20.0, 30.0]);
        let all = ds.tail(10);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn drain_front_drops_oldest_and_preserves_order() {
        let mut ds = Dataset::from_univariate(&[1.0, 2.0, 3.0, 4.0], &[10.0, 20.0, 30.0, 40.0]);
        ds.drain_front(2);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.targets(), &[30.0, 40.0]);
        assert_eq!(ds.features()[0], vec![3.0]);
        ds.drain_front(10);
        assert!(ds.is_empty());
    }

    #[test]
    fn split_at_preserves_order() {
        let ds = Dataset::from_univariate(&[1.0, 2.0, 3.0, 4.0], &[1.0, 2.0, 3.0, 4.0]);
        let (train, test) = ds.split_at(3);
        assert_eq!(train.len(), 3);
        assert_eq!(test.len(), 1);
        assert_eq!(test.targets()[0], 4.0);
    }
}
