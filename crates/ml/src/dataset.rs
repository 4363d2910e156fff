//! Training data container shared by all regressors.
//!
//! A [`Dataset`] is the one layout every model reads its training rows
//! from: the input sizes and the peak-memory targets, in two parallel
//! vectors. Sizey learns from one feature, a task's input size, so an
//! observation is one `(input, target)` pair. Appending one copies two
//! values, so growing a history allocates nothing per row beyond the
//! vectors' amortised growth.

/// A supervised regression dataset: one input per observation and its
/// target (peak memory in bytes for the Sizey use case).
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    inputs: Vec<f64>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Creates a dataset from parallel input/target slices (input size →
    /// peak memory).
    ///
    /// # Panics
    /// Panics if the two slices have different lengths.
    pub fn from_univariate(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(
            xs.len(),
            ys.len(),
            "inputs and targets must have the same number of rows"
        );
        Dataset {
            inputs: xs.to_vec(),
            targets: ys.to_vec(),
        }
    }

    /// Appends one observation.
    pub fn push(&mut self, input: f64, target: f64) {
        self.inputs.push(input);
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

    /// Borrow the inputs.
    pub fn inputs(&self) -> &[f64] {
        &self.inputs
    }

    /// Borrow the targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Returns a new dataset containing only the observations at `indices`,
    /// in that order.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            inputs: indices.iter().map(|&i| self.inputs[i]).collect(),
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
        self.inputs.drain(..n);
        self.targets.drain(..n);
    }

    /// Copies the last `n` observations (or all of them when fewer exist)
    /// into `out`, reusing its buffers, for callers that extract a recent
    /// window on every online-learning step.
    pub fn tail_into(&self, n: usize, out: &mut Dataset) {
        let start = self.len().saturating_sub(n);
        out.inputs.clear();
        out.inputs.extend_from_slice(&self.inputs[start..]);
        out.targets.clear();
        out.targets.extend_from_slice(&self.targets[start..]);
    }

    /// Iterates over `(input, target)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.inputs
            .iter()
            .copied()
            .zip(self.targets.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_univariate_and_accessors() {
        let ds = Dataset::from_univariate(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(ds.len(), 2);
        assert!(!ds.is_empty());
        assert_eq!(
            (ds.inputs(), ds.targets()),
            (&[1.0, 2.0][..], &[3.0, 4.0][..])
        );
    }

    #[test]
    #[should_panic(expected = "same number of rows")]
    fn from_univariate_rejects_length_mismatch() {
        let _ = Dataset::from_univariate(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn drain_front_drops_oldest_and_preserves_order() {
        let mut ds = Dataset::from_univariate(&[1.0, 2.0, 3.0, 4.0], &[10.0, 20.0, 30.0, 40.0]);
        ds.drain_front(2);
        assert_eq!(
            (ds.inputs(), ds.targets()),
            (&[3.0, 4.0][..], &[30.0, 40.0][..])
        );
        ds.drain_front(10);
        assert!(ds.is_empty());
        ds.push(1.0, 1.0);
        assert_eq!(ds.len(), 1);
    }

    /// Every row operation keeps inputs and targets aligned.
    #[test]
    fn row_operations_keep_inputs_and_targets_aligned() {
        let mut ds = Dataset::new();
        for i in 0..6 {
            ds.push(10.0 * i as f64, i as f64);
        }
        let pairs: Vec<(f64, f64)> = ds.iter().collect();
        assert_eq!(
            pairs,
            (0..6)
                .map(|i| (10.0 * i as f64, i as f64))
                .collect::<Vec<_>>()
        );

        let sub = ds.subset(&[4, 1, 4]);
        assert_eq!(
            sub.iter().collect::<Vec<_>>(),
            [(40.0, 4.0), (10.0, 1.0), (40.0, 4.0)]
        );

        let mut tail = Dataset::from_univariate(&[7.0], &[7.0]);
        ds.tail_into(2, &mut tail);
        assert_eq!(tail.iter().collect::<Vec<_>>(), [(40.0, 4.0), (50.0, 5.0)]);
        ds.tail_into(10, &mut tail);
        assert_eq!((tail.inputs(), tail.targets()), (ds.inputs(), ds.targets()));

        ds.drain_front(4);
        ds.push(60.0, 6.0);
        assert_eq!(
            ds.iter().collect::<Vec<_>>(),
            [(40.0, 4.0), (50.0, 5.0), (60.0, 6.0)]
        );
    }
}
