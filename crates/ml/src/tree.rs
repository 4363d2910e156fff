//! CART-style regression tree.
//!
//! The tree is the building block of the random-forest model class. Splits
//! greedily minimise the within-node variance (equivalently maximise variance
//! reduction) and are searched over candidate thresholds at the midpoints
//! between consecutive distinct input values.
//!
//! The split search sorts once per tree, not once per node. Growth gathers
//! the sample's inputs into a contiguous column and stable-sorts the sample
//! by it at the root. Every node then owns a `[lo, hi)` range of that sorted
//! list and of the sample in its original order. A split stable-partitions
//! both lists in place, so each child's ranges are already sorted and the
//! search at a node is one linear scan. Stable-partitioning a stable-sorted
//! list gives the same list as stable-sorting the partitioned one (ties keep
//! their sample order), so the tree is, bit for bit, the one a per-node sort
//! grows.

use crate::dataset::Dataset;
use crate::model::{validate_query, validate_training_data, ModelClass, ModelError, Regressor};

/// Hyper-parameters for [`RegressionTree`]. A node of two or more samples
/// may split, and every leaf keeps at least one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum depth of the tree (root has depth 0).
    pub max_depth: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 12 }
    }
}

/// A single node of the fitted tree, stored in a flat arena. A split sends
/// inputs `<= threshold` left.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// CART regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    config: TreeConfig,
    nodes: Vec<Node>,
    fitted: bool,
}

/// The best split found at a node.
struct SplitCandidate {
    threshold: f64,
    score: f64,
}

/// The buffers one tree grows in. A sample position `p` in `0..m` (a `u32`)
/// names the `p`-th entry of the training index list, so positions follow
/// the order the sample was given in (the bootstrap order, for a forest
/// tree).
struct Growth<'a> {
    config: &'a TreeConfig,
    /// Sample size.
    m: usize,
    /// Target of each sample position.
    y: Vec<f64>,
    /// Input of each sample position.
    x: Vec<f64>,
    /// Sample positions in their original order, partitioned split by split.
    /// Sums and leaf means read it, so they add in the sample order.
    order: Vec<u32>,
    /// Sample positions sorted by input (ties in sample order), partitioned
    /// split by split.
    sorted: Vec<u32>,
    /// Side of the split being applied, by sample position.
    goes_left: Vec<bool>,
    /// Holds the right-hand side of a stable partition.
    right: Vec<u32>,
    nodes: Vec<Node>,
}

impl<'a> Growth<'a> {
    /// Gathers the inputs and targets of the rows `indices` selects and
    /// sorts the sample once.
    fn new(config: &'a TreeConfig, data: &Dataset, indices: &[usize], nodes: Vec<Node>) -> Self {
        let m = indices.len();
        let y: Vec<f64> = indices.iter().map(|&i| data.targets()[i]).collect();
        let x: Vec<f64> = indices.iter().map(|&i| data.inputs()[i]).collect();
        let positions = 0..u32::try_from(m).expect("a tree trains on fewer than 2^32 rows");
        let mut sorted: Vec<u32> = positions.clone().collect();
        // Positions are unique, so breaking value ties by position gives the
        // stable order without a stable sort's scratch buffer.
        sorted.sort_unstable_by(|&a, &b| x[a as usize].total_cmp(&x[b as usize]).then(a.cmp(&b)));
        Growth {
            config,
            m,
            y,
            x,
            order: positions.collect(),
            sorted,
            goes_left: vec![false; m],
            right: vec![0; m],
            nodes,
        }
    }

    fn mean(&self, lo: usize, hi: usize) -> f64 {
        if lo == hi {
            0.0
        } else {
            self.order[lo..hi]
                .iter()
                .map(|&p| self.y[p as usize])
                .sum::<f64>()
                / (hi - lo) as f64
        }
    }

    fn best_split(&self, lo: usize, hi: usize) -> Option<SplitCandidate> {
        let n = hi - lo;
        let node = &self.order[lo..hi];
        let parent_sum: f64 = node.iter().map(|&p| self.y[p as usize]).sum();
        let parent_sq: f64 = node
            .iter()
            .map(|&p| self.y[p as usize] * self.y[p as usize])
            .sum();
        let parent_sse = parent_sq - parent_sum * parent_sum / n as f64;

        let mut best: Option<SplitCandidate> = None;
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for (prev_pos, pair) in self.sorted[lo..hi].windows(2).enumerate() {
            let (prev, next) = (pair[0] as usize, pair[1] as usize);
            let y_prev = self.y[prev];
            left_sum += y_prev;
            left_sq += y_prev * y_prev;

            let x_prev = self.x[prev];
            let x_next = self.x[next];
            if x_prev == x_next {
                continue; // cannot split between identical values
            }
            // `prev` goes left and `next` right: neither side is empty.
            let n_left = prev_pos + 1;
            let n_right = n - n_left;
            let right_sum = parent_sum - left_sum;
            let right_sq = parent_sq - left_sq;
            let left_sse = left_sq - left_sum * left_sum / n_left as f64;
            let right_sse = right_sq - right_sum * right_sum / n_right as f64;
            let gain = parent_sse - (left_sse + right_sse);
            if gain > best.as_ref().map_or(1e-12, |b| b.score) {
                best = Some(SplitCandidate {
                    threshold: 0.5 * (x_prev + x_next),
                    score: gain,
                });
            }
        }
        best
    }

    /// Sends the node `[lo, hi)` to its children: both lists are stably
    /// partitioned in place, left (`x <= threshold`) first. Returns the
    /// boundary.
    fn partition(&mut self, lo: usize, hi: usize, threshold: f64) -> usize {
        for &p in &self.order[lo..hi] {
            let p = p as usize;
            self.goes_left[p] = self.x[p] <= threshold;
        }
        let mid = lo + stable_partition(&mut self.order[lo..hi], &self.goes_left, &mut self.right);
        stable_partition(&mut self.sorted[lo..hi], &self.goes_left, &mut self.right);
        mid
    }

    /// Grows the subtree over `[lo, hi)` in pre-order and returns its root.
    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let split = if depth >= self.config.max_depth || hi - lo < 2 {
            None
        } else {
            self.best_split(lo, hi)
        };
        let Some(SplitCandidate { threshold, .. }) = split else {
            let value = self.mean(lo, hi);
            self.nodes.push(Node::Leaf { value });
            return self.nodes.len() - 1;
        };
        let mid = self.partition(lo, hi, threshold);
        // Reserve a slot for this split node, then build children.
        let node_pos = self.nodes.len();
        self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
        let left = self.grow(lo, mid, depth + 1);
        let right = self.grow(mid, hi, depth + 1);
        self.nodes[node_pos] = Node::Split {
            threshold,
            left,
            right,
        };
        node_pos
    }
}

/// Moves the positions of `list` that go left to its front and the rest
/// behind them, each side in its original order. Returns the left count.
/// The loop has no branch on the side, which a predictor would miss half the
/// time: each position is written to both sides and only its own side's
/// cursor advances. `right` is at least as long as `list`.
fn stable_partition(list: &mut [u32], goes_left: &[bool], right: &mut [u32]) -> usize {
    let mut n_left = 0;
    let mut n_right = 0;
    for r in 0..list.len() {
        let p = list[r];
        let left = goes_left[p as usize];
        list[n_left] = p;
        right[n_right] = p;
        n_left += usize::from(left);
        n_right += usize::from(!left);
    }
    list[n_left..].copy_from_slice(&right[..n_right]);
    n_left
}

impl RegressionTree {
    /// Creates an unfitted tree with the given configuration.
    pub fn new(config: TreeConfig) -> Self {
        RegressionTree {
            config,
            nodes: Vec::new(),
            fitted: false,
        }
    }

    /// Creates an unfitted tree with default configuration.
    pub fn with_defaults() -> Self {
        RegressionTree::new(TreeConfig::default())
    }

    /// The configuration used by this tree.
    pub fn config(&self) -> TreeConfig {
        self.config
    }

    /// Number of nodes in the fitted tree (0 before fitting).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the fitted tree.
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Fits the tree on the observations of `data` selected by `indices`
    /// (duplicates allowed — this is how the random forest trains on a
    /// bootstrap resample without materialising the sample). The result is
    /// bit-identical to fitting on `data.subset(&indices)`: the sample keeps
    /// the order of `indices` throughout.
    pub fn fit_with_indices(
        &mut self,
        data: &Dataset,
        indices: Vec<usize>,
    ) -> Result<(), ModelError> {
        validate_training_data(data)?;
        self.grow(data, indices);
        Ok(())
    }

    /// The one growth path of [`Regressor::fit`] and
    /// [`RegressionTree::fit_with_indices`]. `indices` is freed once the
    /// growth buffers hold the sample.
    fn grow(&mut self, data: &Dataset, indices: Vec<usize>) {
        let mut nodes = std::mem::take(&mut self.nodes);
        nodes.clear();
        let mut growth = Growth::new(&self.config, data, &indices, nodes);
        drop(indices);
        growth.grow(0, growth.m, 0);
        self.nodes = growth.nodes;
        self.fitted = true;
    }
}

impl Regressor for RegressionTree {
    fn fit(&mut self, data: &Dataset) -> Result<(), ModelError> {
        validate_training_data(data)?;
        self.grow(data, (0..data.len()).collect());
        Ok(())
    }

    fn predict(&self, features: &[f64]) -> Result<f64, ModelError> {
        if !self.fitted || self.nodes.is_empty() {
            return Err(ModelError::NotFitted);
        }
        let x = validate_query(features)?;
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return Ok(*value),
                Node::Split {
                    threshold,
                    left,
                    right,
                } => {
                    idx = if x <= *threshold { *left } else { *right };
                }
            }
        }
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn class(&self) -> ModelClass {
        // A lone tree only exists as a forest component; report the forest
        // class so pool bookkeeping stays within the paper's four classes.
        ModelClass::RandomForest
    }

    fn name(&self) -> String {
        "regression-tree".to_string()
    }

    fn clone_box(&self) -> Box<dyn Regressor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_piecewise_constant_function_exactly() {
        // y = 10 for x < 5, y = 20 for x >= 5
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| if x < 5.0 { 10.0 } else { 20.0 })
            .collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut t = RegressionTree::with_defaults();
        t.fit(&data).unwrap();
        assert_eq!(t.predict(&[2.0]).unwrap(), 10.0);
        assert_eq!(t.predict(&[7.0]).unwrap(), 20.0);
    }

    #[test]
    fn depth_zero_returns_global_mean() {
        let data = Dataset::from_univariate(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]);
        let mut t = RegressionTree::new(TreeConfig { max_depth: 0 });
        t.fit(&data).unwrap();
        assert!((t.predict(&[1.0]).unwrap() - 20.0).abs() < 1e-12);
        assert_eq!(t.n_nodes(), 1);
    }

    #[test]
    fn constant_targets_produce_single_leaf() {
        let data = Dataset::from_univariate(&[1.0, 2.0, 3.0, 4.0], &[5.0; 4]);
        let mut t = RegressionTree::with_defaults();
        t.fit(&data).unwrap();
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict(&[100.0]).unwrap(), 5.0);
    }

    #[test]
    fn prediction_is_within_observed_target_range() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut t = RegressionTree::with_defaults();
        t.fit(&data).unwrap();
        let p = t.predict(&[1000.0]).unwrap();
        assert!((0.0..=99.0 * 99.0).contains(&p));
    }

    #[test]
    fn identical_inputs_different_targets_average() {
        let data = Dataset::from_univariate(&[3.0, 3.0], &[10.0, 30.0]);
        let mut t = RegressionTree::with_defaults();
        t.fit(&data).unwrap();
        assert!((t.predict(&[3.0]).unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn errors_before_fit() {
        let t = RegressionTree::with_defaults();
        assert!(matches!(t.predict(&[1.0]), Err(ModelError::NotFitted)));
    }
}
