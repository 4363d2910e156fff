//! CART-style regression tree.
//!
//! The tree is the building block of the random-forest model class. Splits
//! greedily minimise the within-node variance (equivalently maximise variance
//! reduction) and are searched over candidate thresholds at the midpoints
//! between consecutive distinct input values.
//!
//! Growth works on one sorted order of the rows. The caller gives the rows
//! the sample is drawn from sorted by `(input, row)`; a forest sorts once for
//! all its trees ([`RegressionTree::fit_presorted`]). The tree counts its
//! sample into that order, in O(m) for m draws from a window of m rows: a
//! walk of the rows in sorted order gives each run of bit-equal inputs one
//! counter, and a pass over the draws in draw order places each copy at
//! its run's next slot. No run needs a sort: the copies of its rows come
//! out in draw order. So the sample comes out sorted by input with ties in
//! sample order, as a stable sort of the sample orders it, and its inputs
//! and targets are gathered once into contiguous sorted columns.
//!
//! In a univariate tree each node holds the samples whose inputs lie in an
//! interval, so every node is a `[lo, hi)` range of the sorted columns and
//! the split search is one contiguous scan. A split cuts the range where
//! the inputs stop passing the threshold and never reorders the columns.
//! Only the list of sample positions in their original order is stably
//! partitioned, by each position's rank in the sorted order, so each node's
//! sums and leaf mean still add its targets in sample order. The tree is,
//! bit for bit, the one a per-node sort grows.

use crate::dataset::Dataset;
use crate::model::{
    validate_query, validate_rows, validate_training_data, ModelClass, ModelError, Regressor,
};
use std::cmp::Ordering;

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

/// The order [`RegressionTree::fit_presorted`] takes rows in: by input
/// (`f64::total_cmp`), ties by row.
pub(crate) fn cmp_rows(inputs: &[f64], a: u32, b: u32) -> Ordering {
    inputs[a as usize]
        .total_cmp(&inputs[b as usize])
        .then(a.cmp(&b))
}

/// The rows `window_start..inputs.len()` in [`cmp_rows`] order.
pub(crate) fn sorted_rows(inputs: &[f64], window_start: usize) -> Vec<u32> {
    let end = u32::try_from(inputs.len()).expect("a tree trains on fewer than 2^32 rows");
    let mut rows: Vec<u32> = (window_start as u32..end).collect();
    // Rows are unique, so breaking ties by row needs no stable sort.
    rows.sort_unstable_by(|&a, &b| cmp_rows(inputs, a, b));
    rows
}

/// The buffers one tree grows in. A sample position `p` in `0..m` (a `u32`)
/// names the `p`-th draw, so positions follow the order the sample was
/// given in (the bootstrap order, for a forest tree).
struct Growth<'a> {
    config: &'a TreeConfig,
    /// Target of each sample position.
    y: &'a [f64],
    /// The sample's inputs, sorted (ties in sample order).
    sx: &'a [f64],
    /// The sample's targets, in the order of `sx`.
    sy: &'a [f64],
    /// Index in `sx` of each sample position.
    rank: &'a [u32],
    /// Sample positions in their original order, partitioned split by split.
    /// Sums and leaf means read it, so they add in the sample order.
    order: &'a mut [u32],
    /// Holds the right-hand side of a stable partition.
    right: &'a mut [u32],
    nodes: Vec<Node>,
}

/// Counts the sample `draws` into `sorted_rows`, the rows `window_start..`
/// of `data` in [`cmp_rows`] order: fills each position's target `y` and
/// `rank`, and the sorted columns `sx` and `sy`. `counts` holds two zeroed
/// counters per window row.
fn count_sample(
    data: &Dataset,
    window_start: usize,
    sorted_rows: &[u32],
    draws: &[usize],
    [y, sx, sy]: [&mut [f64]; 3],
    rank: &mut [u32],
    counts: &mut [u32],
) {
    let (inputs, targets) = (data.inputs(), data.targets());
    // A counting sort keyed by run: the rows of a run of bit-equal inputs
    // share one key, so the copies of all its rows come out in draw order.
    // `key` first counts each window row's draws, then holds its run;
    // `next[run]` is the run's next free slot in the sorted sample.
    let (key, next) = counts.split_at_mut(sorted_rows.len());
    for &row in draws {
        key[row - window_start] += 1;
    }
    let (mut runs, mut filled, mut run_bits) = (0, 0, None);
    for &row in sorted_rows {
        let bits = Some(inputs[row as usize].to_bits());
        if bits != run_bits {
            run_bits = bits;
            next[runs] = filled;
            runs += 1;
        }
        let r = row as usize - window_start;
        filled += key[r];
        key[r] = (runs - 1) as u32;
    }
    for (p, &row) in draws.iter().enumerate() {
        let slot = &mut next[key[row - window_start] as usize];
        let i = *slot as usize;
        *slot += 1;
        rank[p] = i as u32;
        y[p] = targets[row];
        sx[i] = inputs[row];
        sy[i] = targets[row];
    }
}

impl Growth<'_> {
    /// The sum and the sum of squares of the node's targets, added in
    /// sample order from `-0.0`, where `Iterator::sum` starts.
    fn sums(&self, lo: usize, hi: usize) -> (f64, f64) {
        let (mut sum, mut sq) = (-0.0, -0.0);
        for &p in &self.order[lo..hi] {
            let y = self.y[p as usize];
            sum += y;
            sq += y * y;
        }
        (sum, sq)
    }

    /// The threshold of the best split of the node `[lo, hi)` (two or more
    /// samples) whose targets add up to `sum` and their squares to `sq`: the
    /// midpoint of the boundary with the largest gain above `1e-12`, the
    /// first of equal gains.
    fn best_split(&self, lo: usize, hi: usize, sum: f64, sq: f64) -> Option<f64> {
        let n = hi - lo;
        let parent_sse = sq - sum * sum / n as f64;
        let (xs, ys) = (&self.sx[lo..hi], &self.sy[lo..hi]);

        // The best boundary so far is kept as two scalars, not as a
        // candidate written on every improvement: the loop runs faster.
        let mut best_score = 1e-12;
        let mut best_pos = None;
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for (prev_pos, (pair, &y_prev)) in xs.windows(2).zip(ys).enumerate() {
            left_sum += y_prev;
            left_sq += y_prev * y_prev;
            if pair[0] == pair[1] {
                continue; // cannot split between identical values
            }
            // `prev` goes left and `next` right: neither side is empty.
            let n_left = prev_pos + 1;
            let n_right = n - n_left;
            let right_sum = sum - left_sum;
            let right_sq = sq - left_sq;
            let left_sse = left_sq - left_sum * left_sum / n_left as f64;
            let right_sse = right_sq - right_sum * right_sum / n_right as f64;
            let gain = parent_sse - (left_sse + right_sse);
            if gain > best_score {
                best_score = gain;
                best_pos = Some(prev_pos);
            }
        }
        best_pos.map(|p| 0.5 * (xs[p] + xs[p + 1]))
    }

    /// Sends the node `[lo, hi)` to its children, left (`x <= threshold`)
    /// first, and returns the boundary. The sorted columns stay as they are:
    /// the left child is the prefix of the node that passes the threshold.
    /// That prefix is found in the inputs themselves, not taken from the
    /// split scan, because the midpoint threshold can round onto the next
    /// input or overflow to ±inf.
    fn partition(&mut self, lo: usize, hi: usize, threshold: f64) -> usize {
        let cut = lo + self.sx[lo..hi].partition_point(|&x| x <= threshold);
        let cut32 = cut as u32;
        let n_left = stable_partition(&mut self.order[lo..hi], self.right, |p| {
            self.rank[p as usize] < cut32
        });
        debug_assert_eq!(lo + n_left, cut);
        cut
    }

    /// Grows the subtree over `[lo, hi)` in pre-order and returns its root.
    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let n = hi - lo;
        let (sum, sq) = self.sums(lo, hi);
        let split = if depth >= self.config.max_depth || n < 2 {
            None
        } else {
            self.best_split(lo, hi, sum, sq)
        };
        let Some(threshold) = split else {
            // An empty sample grows one leaf of 0.
            let value = if n == 0 { 0.0 } else { sum / n as f64 };
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
fn stable_partition(list: &mut [u32], right: &mut [u32], goes_left: impl Fn(u32) -> bool) -> usize {
    let mut n_left = 0;
    let mut n_right = 0;
    for r in 0..list.len() {
        let p = list[r];
        let left = goes_left(p);
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
    /// (duplicates allowed). The result is bit-identical to fitting on
    /// `data.subset(&indices)`: the sample keeps the order of `indices`
    /// throughout. Sorts the rows of `data` first; a caller that fits
    /// several trees on one dataset sorts once and calls
    /// [`RegressionTree::fit_presorted`].
    ///
    /// # Panics
    ///
    /// If an index is out of bounds.
    pub fn fit_with_indices(
        &mut self,
        data: &Dataset,
        indices: Vec<usize>,
    ) -> Result<(), ModelError> {
        validate_training_data(data)?;
        self.grow(data, 0, &sorted_rows(data.inputs(), 0), &indices);
        Ok(())
    }

    /// Fits the tree on a sample of the rows `window_start..` of `data`:
    /// sample position `p` is row `draws[p]` (duplicates allowed — this is
    /// how the random forest trains on a bootstrap resample without
    /// materialising it). `sorted_rows` holds the rows `window_start..`
    /// sorted by input (`f64::total_cmp`), ties by row. One such order
    /// serves every sample of the window, so the tree sorts nothing. The
    /// result is bit-identical to [`RegressionTree::fit_with_indices`] on
    /// `draws`. Only the window's rows are validated.
    ///
    /// # Panics
    ///
    /// If `sorted_rows` does not hold as many rows as the window, or a draw
    /// lies outside it.
    pub fn fit_presorted(
        &mut self,
        data: &Dataset,
        window_start: usize,
        sorted_rows: &[u32],
        draws: &[usize],
    ) -> Result<(), ModelError> {
        let window = window_start.min(data.len());
        validate_rows(&data.inputs()[window..], &data.targets()[window..])?;
        assert_eq!(
            sorted_rows.len(),
            data.len() - window_start,
            "the sorted rows are the window's"
        );
        debug_assert!(sorted_rows
            .windows(2)
            .all(|w| cmp_rows(data.inputs(), w[0], w[1]) == Ordering::Less));
        self.grow(data, window_start, sorted_rows, draws);
        Ok(())
    }

    /// The one growth path of every fit.
    fn grow(&mut self, data: &Dataset, window_start: usize, sorted_rows: &[u32], draws: &[usize]) {
        let m = draws.len();
        let positions = u32::try_from(m).expect("a tree trains on fewer than 2^32 rows");
        // Two allocations hold the growth buffers and the sample count's
        // two counters per window row: on the forest's smallest fits,
        // allocation is much of the cost.
        let mut columns = vec![0.0; 3 * m];
        let (y, rest) = columns.split_at_mut(m);
        let (sx, sy) = rest.split_at_mut(m);
        let mut lists = vec![0u32; 3 * m + 2 * sorted_rows.len()];
        let (rank, rest) = lists.split_at_mut(m);
        let (order, rest) = rest.split_at_mut(m);
        let (right, counts) = rest.split_at_mut(m);
        count_sample(
            data,
            window_start,
            sorted_rows,
            draws,
            [y, sx, sy],
            rank,
            counts,
        );
        order.iter_mut().zip(0..positions).for_each(|(o, p)| *o = p);
        let mut nodes = std::mem::take(&mut self.nodes);
        nodes.clear();
        let mut growth = Growth {
            config: &self.config,
            y,
            sx,
            sy,
            rank,
            order,
            right,
            nodes,
        };
        growth.grow(0, m, 0);
        self.nodes = growth.nodes;
        self.fitted = true;
    }
}

impl Regressor for RegressionTree {
    fn fit(&mut self, data: &Dataset) -> Result<(), ModelError> {
        validate_training_data(data)?;
        let draws: Vec<usize> = (0..data.len()).collect();
        self.grow(data, 0, &sorted_rows(data.inputs(), 0), &draws);
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

    /// The counting sort against a sort of the sample: inputs drawn from a
    /// few values (runs of distinct rows with equal inputs, and ±0, which
    /// compare equal but sort apart), a window, and draws with duplicates
    /// in any order. Ties must go by sample position.
    #[test]
    fn counted_sample_is_the_sorted_sample() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let values = [-0.0, 0.0, 1.0, 2.5, -3.0, f64::MAX];
        for _ in 0..300 {
            let n: usize = rng.gen_range(1..40);
            let xs: Vec<f64> = (0..n)
                .map(|_| values[rng.gen_range(0..values.len())])
                .collect();
            let ys: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let data = Dataset::from_univariate(&xs, &ys);
            let window_start = rng.gen_range(0..n);
            let m = rng.gen_range(0..2 * n);
            let draws: Vec<usize> = (0..m).map(|_| rng.gen_range(window_start..n)).collect();
            let rows = sorted_rows(&xs, window_start);
            let (mut y, mut sx, mut sy) = (vec![0.0; m], vec![0.0; m], vec![0.0; m]);
            let (mut rank, mut counts) = (vec![0; m], vec![0; 2 * rows.len()]);
            let columns = [&mut y[..], &mut sx[..], &mut sy[..]];
            count_sample(
                &data,
                window_start,
                &rows,
                &draws,
                columns,
                &mut rank,
                &mut counts,
            );

            let mut sorted: Vec<usize> = (0..m).collect();
            sorted.sort_by(|&a, &b| xs[draws[a]].total_cmp(&xs[draws[b]]).then(a.cmp(&b)));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let want_x: Vec<f64> = sorted.iter().map(|&p| xs[draws[p]]).collect();
            let want_y: Vec<f64> = sorted.iter().map(|&p| ys[draws[p]]).collect();
            assert_eq!(bits(&sx), bits(&want_x));
            assert_eq!(sy, want_y);
            for (i, &p) in sorted.iter().enumerate() {
                assert_eq!(rank[p] as usize, i);
                assert_eq!(y[p], ys[draws[p]]);
            }
        }
    }

    #[test]
    fn errors_before_fit() {
        let t = RegressionTree::with_defaults();
        assert!(matches!(t.predict(&[1.0]), Err(ModelError::NotFitted)));
    }
}
