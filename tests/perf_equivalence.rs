//! Equivalence proptests for the hot-path overhaul: every optimized kernel
//! must be **bit-identical** to the straightforward implementation it
//! replaced.
//!
//! * k-NN: pre-scaled buffer + `select_nth_unstable` partial selection vs.
//!   scale-per-row + stable full sort,
//! * regression tree: one presort + in-place stable partitions vs. a stable
//!   sort of every node's index list,
//! * linear regression: five scalar sums and an inline 2×2 solve vs. the
//!   Gram matrix of `[1, x]` rows solved by general Gaussian elimination,
//! * `Cluster::select_node`: the free-capacity index (segment tree +
//!   ordered-by-free set) vs. the naive linear scans, across random
//!   occupancy states, policies and degenerate allocations,
//! * the four paper baselines: per-key state learned once per successful
//!   observe vs. refitting the key's whole history on every predict.
//!
//! Sizey's RAQ, gating and offset kernels are held to the paper reference
//! inside `sizey-core` (its test-only `reference.rs` oracle), and the MLP's
//! flat training kernel to its former loop inside `sizey-ml`
//! (`mlp::reference`).

use proptest::prelude::*;
use sizey_core::{ModelPool, PoolScratch};
use sizey_ml::forest::{ForestConfig, RandomForestRegression};
use sizey_ml::knn::{KnnConfig, KnnRegression, KnnWeighting};
use sizey_ml::linear::{solve_normal_equations, LinearConfig, LinearRegression};
use sizey_ml::model::{ModelError, Regressor};
use sizey_ml::scaler::MinMaxScaler;
use sizey_ml::tree::{RegressionTree, TreeConfig};
use sizey_sim::{Node, Placement};
use sizey_suite::prelude::*;

// ---------------------------------------------------------------------------
// k-NN: optimized selection vs. the straightforward reference.
// ---------------------------------------------------------------------------

/// The pre-overhaul k-NN, verbatim but for one thing: the min-max scaler is
/// fitted on the first `epoch` inputs only (all of them for a fresh fit; the
/// inputs up to the last rescale for a model grown by `partial_fit`). Every
/// stored input is re-scaled per query, and distances are ranked by a stable
/// full sort.
fn naive_knn_predict(
    config: KnnConfig,
    inputs: &[f64],
    epoch: usize,
    targets: &[f64],
    query: f64,
) -> f64 {
    // Min-max scaler parameters, exactly as `MinMaxScaler::fit` computes
    // them.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in &inputs[..epoch] {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    let range = hi - lo;
    let scale = if range > 1e-12 { range } else { 1.0 };
    let transform = |v: f64| (v - lo) / scale;
    let scaled_query = transform(query);
    let mut dists: Vec<(usize, f64)> = inputs
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let d = transform(x) - scaled_query;
            (i, d * d)
        })
        .collect();
    dists.sort_by(|a, b| a.1.total_cmp(&b.1));
    let k = config.k.max(1).min(dists.len());
    dists.truncate(k);
    match config.weighting {
        KnnWeighting::Uniform => {
            let sum: f64 = dists.iter().map(|&(i, _)| targets[i]).sum();
            sum / dists.len() as f64
        }
        KnnWeighting::InverseDistance => {
            let exact: Vec<usize> = dists
                .iter()
                .filter(|(_, d)| *d == 0.0)
                .map(|&(i, _)| i)
                .collect();
            if !exact.is_empty() {
                let sum: f64 = exact.iter().map(|&i| targets[i]).sum();
                return sum / exact.len() as f64;
            }
            let mut weight_sum = 0.0;
            let mut value_sum = 0.0;
            for &(i, d2) in &dists {
                let w = 1.0 / d2.sqrt();
                weight_sum += w;
                value_sum += w * targets[i];
            }
            value_sum / weight_sum
        }
    }
}

/// A one-feature dataset of `(input, target)` pairs.
fn univariate(pairs: &[(f64, f64)]) -> Dataset {
    let xs: Vec<f64> = pairs.iter().map(|(x, _)| *x).collect();
    let ys: Vec<f64> = pairs.iter().map(|(_, y)| *y).collect();
    Dataset::from_univariate(&xs, &ys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn knn_partial_selection_is_bit_identical_to_the_full_sort(
        raw in proptest::collection::vec((0.0f64..1e10, 1e8f64..1e11), 1..40),
        query in 0.0f64..1e10,
        k in 1usize..12,
        uniform in 0u8..2,
    ) {
        let uniform = uniform == 1;
        let inputs: Vec<f64> = raw.iter().map(|(x, _)| *x).collect();
        let targets: Vec<f64> = raw.iter().map(|(_, t)| *t).collect();
        let config = KnnConfig {
            k,
            weighting: if uniform {
                KnnWeighting::Uniform
            } else {
                KnnWeighting::InverseDistance
            },
        };
        let mut model = KnnRegression::new(config);
        model.fit(&univariate(&raw)).unwrap();
        let optimized = model.predict(&[query]).unwrap();
        let reference = naive_knn_predict(config, &inputs, inputs.len(), &targets, query);
        prop_assert_eq!(
            optimized.to_bits(),
            reference.to_bits(),
            "optimized {} vs reference {}",
            optimized,
            reference
        );
    }

    /// A fit followed by `partial_fit`s of one or more rows at a time. The
    /// amortised growth path keeps the scaler of its last epoch reset (the
    /// fit, or a `partial_fit` whose drift or row count forced a rescale)
    /// until the next one, so after every update it must predict bit for bit
    /// what the naive k-NN predicts over all rows so far with the scaler
    /// fitted on the rows up to that reset. Some streams stay inside the
    /// first rows' range, so that only the periodic bound resets them.
    #[test]
    fn knn_partial_fit_growth_matches_the_reference(
        first in proptest::collection::vec((0.0f64..1e10, 1e8f64..1e11), 2..20),
        stream in proptest::collection::vec((0.0f64..1e10, 1e8f64..1e11), 1..150),
        chunk in 1usize..4,
        inside in 0u8..2,
        queries in proptest::collection::vec(0.0f64..1e10, 1..4),
        k in 1usize..8,
    ) {
        let config = KnnConfig {
            k,
            weighting: KnnWeighting::InverseDistance,
        };
        let mut first = first;
        if inside == 1 {
            first.extend([(0.0, 1e8), (1e10, 1e8)]);
        }
        let mut model = KnnRegression::new(config);
        model.fit(&univariate(&first)).unwrap();
        let mut seen = first.clone();
        let mut epoch = seen.len();
        for update in stream.chunks(chunk) {
            model.partial_fit(&univariate(update)).unwrap();
            seen.extend_from_slice(update);
            if model.rows_since_rescale() == 0 {
                epoch = seen.len();
            }
            let inputs: Vec<f64> = seen.iter().map(|(x, _)| *x).collect();
            let targets: Vec<f64> = seen.iter().map(|(_, y)| *y).collect();
            for &query in &queries {
                let optimized = model.predict(&[query]).unwrap();
                let reference = naive_knn_predict(config, &inputs, epoch, &targets, query);
                prop_assert_eq!(
                    optimized.to_bits(),
                    reference.to_bits(),
                    "{} rows, epoch of {}",
                    seen.len(),
                    epoch
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Regression tree: presorted growth vs. the per-node sort.
// ---------------------------------------------------------------------------

/// A node of the reference tree. Its variants and fields are named like the
/// library's private arena node, so the two arenas print the same `Debug`
/// text exactly when they are equal (`f64`'s `Debug` output round-trips).
#[derive(Debug)]
enum TreeNode {
    Leaf {
        value: f64,
    },
    Split {
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// The per-node-sort tree growth the presorted one replaced, verbatim at the
/// settings the tree keeps as constants (a node splits from
/// `MIN_SAMPLES_SPLIT` samples, a leaf keeps `MIN_SAMPLES_LEAF`): every node
/// stable-sorts a copy of its index list by input, and every split allocates
/// both children's lists.
const MIN_SAMPLES_SPLIT: usize = 2;
const MIN_SAMPLES_LEAF: usize = 1;

struct NaiveTree {
    config: TreeConfig,
    nodes: Vec<TreeNode>,
}

impl NaiveTree {
    fn grow(config: TreeConfig, data: &Dataset, indices: Vec<usize>) -> Self {
        let mut tree = NaiveTree {
            config,
            nodes: Vec::new(),
        };
        tree.build(data, indices, 0);
        tree
    }

    /// The best `(threshold, score)`.
    fn best_split(&self, data: &Dataset, indices: &[usize]) -> Option<(f64, f64)> {
        let n = indices.len();
        if n < MIN_SAMPLES_SPLIT {
            return None;
        }
        let (x, y) = (data.inputs(), data.targets());
        let parent_sum: f64 = indices.iter().map(|&i| y[i]).sum();
        let parent_sq: f64 = indices.iter().map(|&i| y[i] * y[i]).sum();
        let parent_sse = parent_sq - parent_sum * parent_sum / n as f64;

        let mut best: Option<(f64, f64)> = None;
        let mut order: Vec<usize> = indices.to_vec();
        order.sort_by(|&a, &b| x[a].total_cmp(&x[b]));
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for split_pos in 1..n {
            let prev = order[split_pos - 1];
            let y_prev = y[prev];
            left_sum += y_prev;
            left_sq += y_prev * y_prev;

            let x_prev = x[prev];
            let x_next = x[order[split_pos]];
            if x_prev == x_next {
                continue;
            }
            let n_left = split_pos;
            let n_right = n - split_pos;
            if n_left < MIN_SAMPLES_LEAF || n_right < MIN_SAMPLES_LEAF {
                continue;
            }
            let right_sum = parent_sum - left_sum;
            let right_sq = parent_sq - left_sq;
            let left_sse = left_sq - left_sum * left_sum / n_left as f64;
            let right_sse = right_sq - right_sum * right_sum / n_right as f64;
            let gain = parent_sse - (left_sse + right_sse);
            if gain > best.map_or(1e-12, |b| b.1) {
                best = Some((0.5 * (x_prev + x_next), gain));
            }
        }
        best
    }

    fn build(&mut self, data: &Dataset, indices: Vec<usize>, depth: usize) -> usize {
        let mean = if indices.is_empty() {
            0.0
        } else {
            indices.iter().map(|&i| data.targets()[i]).sum::<f64>() / indices.len() as f64
        };
        if depth >= self.config.max_depth || indices.len() < MIN_SAMPLES_SPLIT {
            self.nodes.push(TreeNode::Leaf { value: mean });
            return self.nodes.len() - 1;
        }
        match self.best_split(data, &indices) {
            None => {
                self.nodes.push(TreeNode::Leaf { value: mean });
                self.nodes.len() - 1
            }
            Some((threshold, _)) => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                    .into_iter()
                    .partition(|&i| data.inputs()[i] <= threshold);
                let node_pos = self.nodes.len();
                self.nodes.push(TreeNode::Leaf { value: mean });
                let left = self.build(data, left_idx, depth + 1);
                let right = self.build(data, right_idx, depth + 1);
                self.nodes[node_pos] = TreeNode::Split {
                    threshold,
                    left,
                    right,
                };
                node_pos
            }
        }
    }

    fn depth(&self, idx: usize) -> usize {
        match &self.nodes[idx] {
            TreeNode::Leaf { .. } => 0,
            TreeNode::Split { left, right, .. } => 1 + self.depth(*left).max(self.depth(*right)),
        }
    }

    fn predict(&self, x: f64) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                TreeNode::Leaf { value } => return *value,
                TreeNode::Split {
                    threshold,
                    left,
                    right,
                } => idx = if x <= *threshold { *left } else { *right },
            }
        }
    }
}

/// The `nodes: [..]` arena of a fitted tree's `Debug` text.
fn tree_arena(tree: &RegressionTree) -> String {
    let text = format!("{tree:?}");
    let start = text
        .find("nodes: ")
        .expect("RegressionTree prints its arena")
        + "nodes: ".len();
    let end = text
        .find(", fitted: ")
        .expect("arena is followed by fitted");
    text[start..end].to_string()
}

/// Holds a fitted tree to the reference grown from the same sample: arena,
/// node count, depth, and the prediction at every training input and at
/// every finite split threshold.
fn assert_tree_matches(
    tree: &RegressionTree,
    naive: &NaiveTree,
    inputs: &[f64],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(tree_arena(tree), format!("{:?}", naive.nodes));
    prop_assert_eq!(tree.n_nodes(), naive.nodes.len());
    prop_assert_eq!(tree.depth(), naive.depth(0));
    let thresholds = naive.nodes.iter().filter_map(|node| match node {
        TreeNode::Split { threshold, .. } if threshold.is_finite() => Some(*threshold),
        _ => None,
    });
    for probe in inputs.iter().copied().chain(thresholds) {
        let got = tree.predict(&[probe]).unwrap();
        prop_assert_eq!(
            got.to_bits(),
            naive.predict(probe).to_bits(),
            "probe {:?}",
            probe
        );
    }
    Ok(())
}

/// An input value: mostly runs of small integers (ties, including ±0), some
/// continuous values, and a few near ±`f64::MAX`. Those stand in for ±inf,
/// which training rejects before growth: the midpoint of two of them
/// overflows to an infinite threshold. The float just above 1 has a
/// midpoint with 1 that rounds to 1, so a row can sit on a threshold.
fn tree_feature() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => (0u8..5).prop_map(f64::from),
        1 => prop_oneof![Just(-0.0), Just(1.0 + f64::EPSILON)],
        4 => -1e6f64..1e6,
        1 => prop_oneof![Just(f64::MAX), Just(-f64::MAX), Just(1e308), Just(-1e308)],
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The presorted growth vs. the per-node sort, on the full sample, on
    /// a bootstrap (duplicated indices, any order) and on a bootstrap of a
    /// window `window_start..` grown from a caller-given sorted row order,
    /// as a forest grows its trees, for depths 0–9. Targets include `-0.0`,
    /// which pins the fold start of the node sums. Also pins
    /// `fit_with_indices(d, idx)` to `fit(&d.subset(&idx))`, the rejection
    /// of ±inf inputs by every entry point, and that `fit_presorted`
    /// validates only its window.
    #[test]
    fn presorted_tree_growth_matches_the_per_node_sort(
        raw in proptest::collection::vec(
            (tree_feature(), prop_oneof![
                4 => (0u8..4).prop_map(|k| f64::from(k) * 1e9),
                1 => Just(-0.0),
                4 => 1e8f64..1e11,
            ]),
            1..120,
        ),
        max_depth in 0usize..10,
        bootstrap in proptest::collection::vec(0usize..1_000, 1..240),
        window_start in 0usize..1_000,
    ) {
        let inputs: Vec<f64> = raw.iter().map(|r| r.0).collect();
        let data = univariate(&raw);
        let config = TreeConfig { max_depth };

        let mut full = RegressionTree::new(config);
        full.fit(&data).unwrap();
        let naive = NaiveTree::grow(config, &data, (0..inputs.len()).collect());
        assert_tree_matches(&full, &naive, &inputs)?;

        let indices: Vec<usize> = bootstrap.iter().map(|&i| i % inputs.len()).collect();
        let mut indexed = RegressionTree::new(config);
        indexed.fit_with_indices(&data, indices.clone()).unwrap();
        let naive = NaiveTree::grow(config, &data, indices.clone());
        assert_tree_matches(&indexed, &naive, &inputs)?;

        let mut subset = RegressionTree::new(config);
        subset.fit(&data.subset(&indices)).unwrap();
        prop_assert_eq!(format!("{indexed:?}"), format!("{subset:?}"));

        let n = inputs.len();
        let window_start = window_start % n;
        let draws: Vec<usize> = bootstrap.iter().map(|&i| window_start + i % (n - window_start)).collect();
        let mut rows: Vec<u32> = (window_start as u32..n as u32).collect();
        rows.sort_by(|&a, &b| inputs[a as usize].total_cmp(&inputs[b as usize]).then(a.cmp(&b)));
        let mut windowed = RegressionTree::new(config);
        windowed.fit_presorted(&data, window_start, &rows, &draws).unwrap();
        let naive = NaiveTree::grow(config, &data, draws.clone());
        assert_tree_matches(&windowed, &naive, &inputs)?;

        for bad in [f64::INFINITY, f64::NEG_INFINITY] {
            let mut poisoned = inputs.clone();
            poisoned[indices[0]] = bad;
            let poisoned = Dataset::from_univariate(&poisoned, data.targets());
            prop_assert!(RegressionTree::new(config).fit(&poisoned).is_err());
            prop_assert!(RegressionTree::new(config)
                .fit_with_indices(&poisoned, indices.clone())
                .is_err());

            let mut in_window = inputs.clone();
            in_window[draws[0]] = bad;
            let in_window = Dataset::from_univariate(&in_window, data.targets());
            prop_assert!(RegressionTree::new(config)
                .fit_presorted(&in_window, window_start, &rows, &draws)
                .is_err());
            if window_start > 0 {
                // A row before the window is never read.
                let mut before = inputs.clone();
                before[0] = bad;
                let before = Dataset::from_univariate(&before, data.targets());
                let mut tree = RegressionTree::new(config);
                tree.fit_presorted(&before, window_start, &rows, &draws).unwrap();
                prop_assert_eq!(format!("{tree:?}"), format!("{windowed:?}"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Linear regression: five scalar sums and an inline 2×2 solve vs. the Gram
// matrix of `[1, x]` rows solved by general Gaussian elimination.
// ---------------------------------------------------------------------------

/// The general dense solver the inline 2×2 solve replaced, verbatim:
/// Gaussian elimination with partial pivoting of the row-major `n × n`
/// system `a · x = b`, `None` when a pivot is below `1e-12`.
fn general_elimination(mut a: Vec<f64>, b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    let mut x = b.to_vec();
    for col in 0..n {
        let mut pivot_row = col;
        let mut pivot_val = a[col * n + col].abs();
        for r in (col + 1)..n {
            let v = a[r * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-12 {
            return None;
        }
        if pivot_row != col {
            for c in 0..n {
                a.swap(col * n + c, pivot_row * n + c);
            }
            x.swap(col, pivot_row);
        }
        let pivot = a[col * n + col];
        for r in (col + 1)..n {
            let factor = a[r * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            a[r * n + col] = 0.0;
            for c in (col + 1)..n {
                a[r * n + c] -= factor * a[col * n + c];
            }
            x[r] -= factor * x[col];
        }
    }
    for col in (0..n).rev() {
        let mut sum = x[col];
        for c in (col + 1)..n {
            sum -= a[col * n + c] * x[c];
        }
        x[col] = sum / a[col * n + col];
    }
    Some(x)
}

/// The former ridge solve over the general solver: the tiny ridge and the
/// refusal of a singular system and of non-finite coefficients.
fn reference_ridge_solve(gram: &[f64], moments: &[f64], l2: f64) -> Result<Vec<f64>, ModelError> {
    let n = moments.len();
    let mut a = gram.to_vec();
    for i in 0..n {
        a[i * n + i] += l2.max(1e-10);
    }
    let coeffs = general_elimination(a, moments).ok_or_else(singular)?;
    if coeffs.iter().any(|c| !c.is_finite()) {
        return Err(ModelError::Numerical(
            "normal-equation solve produced non-finite coefficients".to_string(),
        ));
    }
    Ok(coeffs)
}

fn singular() -> ModelError {
    ModelError::Numerical("matrix is singular".to_string())
}

/// The former sufficient statistics: the Gram matrix (row-major) and moment
/// vector of the augmented rows `[1, x]`.
fn reference_gram(pairs: &[(f64, f64)]) -> (Vec<f64>, Vec<f64>) {
    let mut gram = vec![0.0; 4];
    let mut moments = vec![0.0; 2];
    for &(x, y) in pairs {
        let row = [1.0, x];
        for (i, &xi) in row.iter().enumerate() {
            moments[i] += xi * y;
            for (j, &xj) in row.iter().enumerate() {
                gram[i * 2 + j] += xi * xj;
            }
        }
    }
    (gram, moments)
}

fn solve_bits(solved: Result<&[f64], &ModelError>) -> Result<Vec<u64>, ModelError> {
    solved
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .map_err(Clone::clone)
}

/// A Gram or moment entry: small integers, values a ridge term cancels,
/// pivots just either side of `1e-12`, continuous and huge values, and ±inf.
fn system_entry() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => (-3i8..4).prop_map(f64::from),
        2 => prop_oneof![Just(-1e-8), Just(-1e-10), Just(-1.0), Just(-1e3)],
        1 => prop_oneof![Just(5e-13), Just(2e-12), Just(-5e-13)],
        3 => -1e6f64..1e6,
        1 => prop_oneof![Just(1e300), Just(-1e300), Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The inline 2×2 solve vs. the general elimination, bit for bit, at
    /// two levels. Directly, on arbitrary 2×2 systems and ridge strengths,
    /// including ones that come out singular or non-finite; in a third of
    /// the cases the ridge cancels the leading entry to an exact zero pivot,
    /// which the solve refuses as singular, and in another third the first
    /// column's two entries tie in magnitude, where partial pivoting must
    /// keep the rows in place. And
    /// through `LinearRegression`, whose five scalar sums must solve to the
    /// coefficients of the former `[1, x]` Gram matrix after every
    /// `partial_fit` and after a batch `fit`, and predict the same bits, on
    /// random one-feature data, on identical inputs (a rank-deficient Gram
    /// matrix that only the ridge makes solvable, never singular) and on
    /// inputs whose squares overflow the Gram matrix (refused, the previous
    /// coefficients keep serving).
    #[test]
    fn inline_linear_solve_matches_the_general_elimination(
        system in ((system_entry(), system_entry(), system_entry(), system_entry()),
                   (system_entry(), system_entry())),
        l2 in prop_oneof![Just(0.0), Just(1e-8), Just(1e-3), Just(1.0), -1.0f64..1.0],
        shape in 0u8..3,
        pairs in proptest::collection::vec((0.0f64..1e10, 1e8f64..1e11), 1..40),
        family in 0u8..3,
        queries in proptest::collection::vec(0.0f64..2e10, 1..4),
    ) {
        let ((mut g00, g01, mut g10, g11), (m0, m1)) = system;
        let lambda = l2.max(1e-10);
        if shape == 1 {
            (g00, g10) = (-lambda, 0.0);
            prop_assert_eq!(
                solve_normal_equations([[g00, g01], [g10, g11]], [m0, m1], l2),
                Err(singular())
            );
        } else if shape == 2 {
            g10 = -(g00 + lambda);
        }
        prop_assert_eq!(
            solve_bits(solve_normal_equations([[g00, g01], [g10, g11]], [m0, m1], l2).as_ref().map(|c| &c[..])),
            solve_bits(reference_ridge_solve(&[g00, g01, g10, g11], &[m0, m1], l2).as_deref())
        );

        let pairs: Vec<(f64, f64)> = match family {
            0 => pairs,
            1 => pairs.iter().map(|&(_, y)| (pairs[0].0, y)).collect(),
            _ => pairs.iter().map(|&(x, y)| (x * 1e150 + 1e155, y)).collect(),
        };
        let config = LinearConfig { l2: l2.abs() };
        let mut grown = LinearRegression::new(config);
        let mut serving: Vec<f64> = Vec::new();
        for end in 1..=pairs.len() {
            grown.partial_fit(&univariate(&pairs[end - 1..end])).unwrap();
            let (gram, moments) = reference_gram(&pairs[..end]);
            let want = reference_ridge_solve(&gram, &moments, config.l2);
            prop_assert!(want != Err(singular()), "singular after {} rows", end);
            prop_assert_eq!(grown.is_solved(), want.is_ok(), "after {} rows", end);
            if let Ok(coeffs) = want {
                serving = coeffs;
            }
            prop_assert_eq!(solve_bits(Ok(grown.coefficients())), solve_bits(Ok(&serving)));
        }
        let (gram, moments) = reference_gram(&pairs);
        let want = reference_ridge_solve(&gram, &moments, config.l2);
        prop_assert!(family != 2 || want.is_err(), "an overflowing Gram matrix solved");
        let mut batch = LinearRegression::new(config);
        prop_assert_eq!(batch.fit(&univariate(&pairs)).is_ok(), want.is_ok());
        prop_assert_eq!(
            solve_bits(Ok(batch.coefficients())),
            solve_bits(Ok(want.as_deref().unwrap_or(&[])))
        );
        for q in queries {
            let expected: Option<f64> = (!serving.is_empty())
                .then(|| [1.0, q].iter().zip(&serving).map(|(x, c)| x * c).sum());
            prop_assert_eq!(
                grown.predict(&[q]).ok().map(f64::to_bits),
                expected.map(f64::to_bits)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental learning path: every per-observe shortcut vs. the batch
// reference it amortises.
// ---------------------------------------------------------------------------

/// Asserts that an estimate averaged from the positive `targets` is finite
/// and inside their range, up to the rounding of the average: a weighted
/// mean of a single target, `w * t / w`, can land an ulp outside it.
fn within_targets(p: f64, targets: impl Iterator<Item = f64>) -> Result<(), TestCaseError> {
    let (lo, hi) = targets.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), y| {
        (lo.min(y), hi.max(y))
    });
    prop_assert!(p.is_finite());
    prop_assert!(
        p >= lo * (1.0 - 1e-12) && p <= hi * (1.0 + 1e-12),
        "p = {} outside [{}, {}]",
        p,
        lo,
        hi
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The O(1) `MinMaxScaler::observe` update vs. a batch `fit` on the
    /// same values: **bit-identical** (the min/max fold is order-exact).
    #[test]
    fn incremental_scaler_matches_the_batch_fit(
        values in proptest::collection::vec(-1e12f64..1e12, 1..60),
        split in 0usize..60,
    ) {
        let split = split.min(values.len());

        let mut batch = MinMaxScaler::default();
        batch.fit(&values);
        // Pure incremental and batch-prefix-then-incremental must both land
        // on exactly the batch parameters.
        let mut incremental = MinMaxScaler::default();
        for &v in &values {
            incremental.observe(v);
        }
        let mut resumed = MinMaxScaler::default();
        resumed.fit(&values[..split]);
        for &v in &values[split..] {
            resumed.observe(v);
        }
        for grown in [&incremental, &resumed] {
            prop_assert_eq!(grown.shift().to_bits(), batch.shift().to_bits());
            prop_assert_eq!(grown.scale().to_bits(), batch.scale().to_bits());
        }
    }

    /// A fit followed by a `partial_fit` of the remaining rows vs. one batch
    /// fit on the concatenated data. The Gram/moment accumulation visits rows
    /// in the same order either way, so the solved coefficients — and every
    /// prediction — must be bit-identical.
    #[test]
    fn incremental_linear_fit_is_bit_identical_to_the_batch_fit(
        pairs in proptest::collection::vec((0.0f64..1e9, 1e6f64..1e10), 3..40),
        split in 1usize..39,
        queries in proptest::collection::vec(0.0f64..1e9, 1..5),
    ) {
        let split = split.min(pairs.len() - 1);
        let mut batch = LinearRegression::new(LinearConfig::default());
        batch.fit(&univariate(&pairs)).unwrap();
        let mut incremental = LinearRegression::new(LinearConfig::default());
        incremental.fit(&univariate(&pairs[..split])).unwrap();
        incremental.partial_fit(&univariate(&pairs[split..])).unwrap();
        prop_assert_eq!(incremental.coefficients(), batch.coefficients());
        for q in &queries {
            let i = incremental.predict(std::slice::from_ref(q)).unwrap();
            let b = batch.predict(std::slice::from_ref(q)).unwrap();
            prop_assert_eq!(i.to_bits(), b.to_bits());
        }
    }

    /// The amortised k-NN growth path, one row at a time: while the epoch
    /// scaler is stale, predictions may diverge from a fresh fit, but they
    /// must stay finite and inside the observed target range (k-NN averages
    /// stored targets, whatever neighbourhood the stale parameters select);
    /// and after every epoch reset, forced by drift or by the periodic
    /// bound, the model must predict bit for bit what a fresh `fit` on the
    /// same rows predicts.
    #[test]
    fn amortised_knn_divergence_is_bounded_by_the_target_range(
        stream in proptest::collection::vec((0.0f64..1e10, 1e8f64..1e11), 3..150),
        query in 0.0f64..1e10,
        k in 1usize..6,
    ) {
        let config = KnnConfig { k, ..KnnConfig::default() };
        let mut amortised = KnnRegression::new(config);
        amortised.fit(&univariate(&stream[..2])).unwrap();
        for end in 3..=stream.len() {
            amortised.partial_fit(&univariate(&stream[end - 1..end])).unwrap();
            let seen = &stream[..end];
            let p = amortised.predict(&[query]).unwrap();
            within_targets(p, seen.iter().map(|&(_, y)| y))?;
            if amortised.rows_since_rescale() == 0 {
                let mut fresh = KnnRegression::new(config);
                fresh.fit(&univariate(seen)).unwrap();
                prop_assert_eq!(
                    p.to_bits(),
                    fresh.predict(&[query]).unwrap().to_bits(),
                    "after the reset at {} rows",
                    end
                );
            }
        }
    }

    /// The credit-banked, windowed forest refresh: per-observe work is
    /// bounded, and like the k-NN bound above, predictions are averages of
    /// leaf means so they can never leave the observed target range no
    /// matter which trees the credit schedule refreshed. Forests of the
    /// pool's 24 trees and of the grid's 16 and 32 earn refresh credit at
    /// different rates, and streams past 256 rows refresh on a window that
    /// no longer holds the first rows.
    #[test]
    fn windowed_forest_refresh_stays_within_the_target_range(
        stream in proptest::collection::vec((0.0f64..1e10, 1e8f64..1e11), 4..300),
        query in 0.0f64..1e10,
        n_trees in prop_oneof![Just(16usize), Just(24usize), Just(32usize)],
    ) {
        let config = ForestConfig {
            n_trees,
            ..ForestConfig::default()
        };
        let mut forest = RandomForestRegression::new(config);
        let seed = Dataset::from_univariate(
            &[stream[0].0, stream[1].0, stream[2].0],
            &[stream[0].1, stream[1].1, stream[2].1],
        );
        forest.fit(&seed).unwrap();
        for &(x, y) in &stream[3..] {
            forest
                .partial_fit(&Dataset::from_univariate(&[x], &[y]))
                .unwrap();
        }
        let p = forest.predict(&[query]).unwrap();
        within_targets(p, stream.iter().map(|&(_, y)| y))?;
    }
}

// ---------------------------------------------------------------------------
// Baselines: learning once per successful observe vs. refitting the key's
// whole history on every predict.
// ---------------------------------------------------------------------------

/// The four baselines' estimators as they were before they learned
/// incrementally, verbatim over a plain observation list: every call refits
/// the key's whole history, with each method's parameters the constants
/// of its module. Two changes to Witt-Percentile: it returns `None` rather
/// than the preset below its minimum history, and it skips non-finite
/// peaks.
mod from_scratch {
    use sizey_baselines::{tovar_ppm, witt_lr, witt_percentile, witt_wastage, Observation};
    use sizey_ml::linear::LinearRegression;
    use sizey_ml::metrics::{percentile, std_dev};
    use sizey_ml::model::Regressor;
    use sizey_ml::Dataset;

    fn expected_cost(alloc: f64, peaks: &[f64]) -> f64 {
        let n = peaks.len() as f64;
        peaks
            .iter()
            .map(|&peak| {
                if alloc >= peak {
                    alloc - peak
                } else {
                    alloc + (tovar_ppm::NODE_MEMORY_BYTES - peak)
                }
            })
            .sum::<f64>()
            / n
    }

    pub fn tovar_ppm(observations: &[Observation]) -> Option<f64> {
        let peaks: Vec<f64> = observations.iter().map(|o| o.peak_bytes).collect();
        if peaks.len() < tovar_ppm::MIN_HISTORY {
            return None;
        }
        let mut best = None;
        let mut best_cost = f64::INFINITY;
        for &candidate in &peaks {
            let alloc = candidate * (1.0 + tovar_ppm::HEADROOM);
            let cost = expected_cost(alloc, &peaks);
            if cost < best_cost {
                best_cost = cost;
                best = Some(alloc);
            }
        }
        best
    }

    pub fn witt_lr(observations: &[Observation], input: f64) -> Option<f64> {
        if observations.len() < witt_lr::MIN_HISTORY {
            return None;
        }
        let xs: Vec<f64> = observations.iter().map(|o| o.input_bytes).collect();
        let ys: Vec<f64> = observations.iter().map(|o| o.peak_bytes).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut model = LinearRegression::with_defaults();
        model.fit(&data).ok()?;
        let prediction = model.predict(&[input]).ok()?;
        let residuals: Vec<f64> = observations
            .iter()
            .filter_map(|o| {
                model
                    .predict(&[o.input_bytes])
                    .ok()
                    .map(|p| o.peak_bytes - p)
            })
            .collect();
        let offset = std_dev(&residuals) * witt_lr::OFFSET_SIGMAS;
        Some((prediction + offset).max(128e6))
    }

    fn wastage_cost(alloc: f64, peak: f64) -> f64 {
        if alloc >= peak {
            alloc - peak
        } else {
            alloc + witt_wastage::FAILURE_PENALTY * peak
        }
    }

    pub fn witt_wastage(observations: &[Observation], input: f64) -> Option<f64> {
        if observations.len() < witt_wastage::MIN_HISTORY {
            return None;
        }
        let xs: Vec<f64> = observations.iter().map(|o| o.input_bytes).collect();
        let ys: Vec<f64> = observations.iter().map(|o| o.peak_bytes).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut model = LinearRegression::with_defaults();
        model.fit(&data).ok()?;
        let base_predictions: Vec<f64> = observations
            .iter()
            .map(|o| model.predict(&[o.input_bytes]).unwrap_or(o.peak_bytes))
            .collect();
        let residuals: Vec<f64> = observations
            .iter()
            .zip(base_predictions.iter())
            .map(|(o, p)| o.peak_bytes - p)
            .collect();
        let mut best_shift = 0.0;
        let mut best_cost = f64::INFINITY;
        for q in witt_wastage::CANDIDATE_QUANTILES {
            let shift = percentile(&residuals, q).max(0.0);
            let cost: f64 = observations
                .iter()
                .zip(base_predictions.iter())
                .map(|(o, p)| wastage_cost(p + shift, o.peak_bytes))
                .sum();
            if cost < best_cost {
                best_cost = cost;
                best_shift = shift;
            }
        }
        let prediction = model.predict(&[input]).ok()? + best_shift;
        Some(prediction.max(128e6))
    }

    pub fn witt_percentile(observations: &[Observation]) -> Option<f64> {
        // Non-finite peaks are not learned from (they used to poison every
        // later predict); the rest is the former estimator.
        let peaks: Vec<f64> = observations
            .iter()
            .map(|o| o.peak_bytes)
            .filter(|p| p.is_finite())
            .collect();
        if peaks.len() < witt_percentile::MIN_HISTORY {
            return None;
        }
        Some(percentile(&peaks, witt_percentile::PERCENTILE))
    }
}

/// Input sizes and peaks for the baseline equivalence: a few repeated values
/// (duplicate peaks tie Tovar's argmin; identical inputs leave the Gram
/// matrix singular, so the ridge escalates), continuous values, and rarely a
/// value that poisons a key (NaN, ±inf) or overflows its normal equations
/// so that every later solve fails (±1e300).
fn baseline_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => (1u8..4).prop_map(|k| f64::from(k) * 1e9),
        6 => 1e8f64..1e11,
        1 => prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(1e300),
            Just(-1e300),
        ],
    ]
}

/// The four live baselines, as a snapshot/restore cycle rebuilds them.
struct LiveBaselines {
    tovar: TovarPpm,
    lr: WittLr,
    wastage: WittWastage,
    percentile: WittPercentile,
}

/// Restores `live`'s snapshot into `fresh`.
fn restored<P: CheckpointPredictor>(live: &P, mut fresh: P) -> P {
    fresh
        .restore(&live.snapshot())
        .expect("a fresh instance accepts the snapshot");
    fresh
}

/// Asserts one prediction's bits against the reference's `(allocation, raw)`.
fn assert_same_prediction(
    method: &str,
    got: Prediction,
    raw: Option<f64>,
    allocation: f64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        got.allocation_bytes.to_bits(),
        allocation.to_bits(),
        "{} allocation {} vs {}",
        method,
        got.allocation_bytes,
        allocation
    );
    prop_assert_eq!(
        got.raw_estimate_bytes.map(f64::to_bits),
        raw.map(f64::to_bits),
        "{} raw estimate {:?} vs {:?}",
        method,
        got.raw_estimate_bytes,
        raw
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Tovar-PPM, Witt-LR, Witt-Wastage and Witt-Percentile, which learn
    /// once per successful observe, vs. their former estimators, which
    /// refit the key's whole history on every predict. One random stream
    /// over 1–3 keys of successes, out-of-memory failures and predicts at
    /// attempts 0–3; the live predictors are snapshotted and restored into fresh instances at a
    /// random point and carry on. Every allocation and raw estimate must be
    /// bit-identical.
    #[test]
    fn baselines_match_the_from_scratch_estimators(
        ops in proptest::collection::vec(
            (0u8..10, 0usize..3, baseline_value(), baseline_value(), 0u8..4),
            1..160,
        ),
        n_keys in 1usize..4,
        restore_at in 0usize..200,
    ) {
        let fresh = || LiveBaselines {
            tovar: TovarPpm::new(),
            lr: WittLr::new(),
            wastage: WittWastage::new(),
            percentile: WittPercentile::new(),
        };
        let mut live = fresh();
        let mut history: Vec<Vec<sizey_baselines::Observation>> = vec![Vec::new(); n_keys];

        for (step, &(kind, key, input, peak, attempt)) in ops.iter().enumerate() {
            if step == restore_at {
                let empty = fresh();
                live = LiveBaselines {
                    tovar: restored(&live.tovar, empty.tovar),
                    lr: restored(&live.lr, empty.lr),
                    wastage: restored(&live.wastage, empty.wastage),
                    percentile: restored(&live.percentile, empty.percentile),
                };
            }
            let key = key % n_keys;
            let task_type = TaskTypeId::new(format!("t{key}"));
            if kind < 6 {
                let succeeded = kind < 5;
                let record = TaskRecord {
                    workflow: "wf".into(),
                    task_type,
                    machine: MachineId::new("m"),
                    sequence: step as u64,
                    input_bytes: input,
                    peak_memory_bytes: peak,
                    allocated_memory_bytes: 64e9,
                    runtime_seconds: 60.0,
                    concurrent_tasks: 0,
                    queue_delay_seconds: 0.0,
                    outcome: if succeeded {
                        TaskOutcome::Succeeded
                    } else {
                        TaskOutcome::FailedOutOfMemory
                    },
                };
                live.tovar.observe(&record);
                live.lr.observe(&record);
                live.wastage.observe(&record);
                live.percentile.observe(&record);
                if succeeded {
                    history[key].push(sizey_baselines::Observation {
                        input_bytes: input,
                        peak_bytes: peak,
                    });
                }
                continue;
            }
            let task = TaskSubmission {
                workflow: "wf".into(),
                task_type,
                machine: MachineId::new("m"),
                sequence: step as u64,
                input_bytes: input,
                preset_memory_bytes: 7e9 + key as f64 * 1e9,
            };
            let attempt = u32::from(attempt);
            let ctx = if attempt == 0 {
                AttemptContext::first()
            } else {
                AttemptContext::retry(attempt, 32e9)
            };
            let observations = &history[key];
            let doubled = |raw: Option<f64>| {
                raw.unwrap_or(task.preset_memory_bytes) * 2.0_f64.powi(attempt as i32)
            };

            let raw = from_scratch::tovar_ppm(observations);
            let (raw, allocation) = if attempt > 0 {
                (None, sizey_baselines::tovar_ppm::NODE_MEMORY_BYTES)
            } else {
                (raw, raw.unwrap_or(task.preset_memory_bytes))
            };
            assert_same_prediction("Tovar-PPM", live.tovar.predict(&task, ctx), raw, allocation)?;
            let raw = from_scratch::witt_lr(observations, input);
            assert_same_prediction("Witt-LR", live.lr.predict(&task, ctx), raw, doubled(raw))?;
            let raw = from_scratch::witt_wastage(observations, input);
            assert_same_prediction(
                "Witt-Wastage",
                live.wastage.predict(&task, ctx),
                raw,
                doubled(raw),
            )?;
            let raw = from_scratch::witt_percentile(observations);
            assert_same_prediction(
                "Witt-Percentile",
                live.percentile.predict(&task, ctx),
                raw,
                doubled(raw),
            )?;
        }
    }
}

// ---------------------------------------------------------------------------
// Cluster::select_node: free-capacity index vs. the naive linear scans.
// ---------------------------------------------------------------------------

/// The pre-overhaul node selection, verbatim.
fn naive_select_node(
    nodes: &[Node],
    allocation_bytes: f64,
    policy: SchedulePolicy,
) -> Option<usize> {
    match policy {
        SchedulePolicy::FirstFit | SchedulePolicy::Backfill => nodes
            .iter()
            .find(|n| n.fits(allocation_bytes))
            .map(|n| n.id),
        SchedulePolicy::BestFit => nodes
            .iter()
            .filter(|n| n.fits(allocation_bytes))
            .min_by(|a, b| {
                (a.free_bytes() - allocation_bytes).total_cmp(&(b.free_bytes() - allocation_bytes))
            })
            .map(|n| n.id),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_select_node_matches_the_linear_scan(
        node_count in 1usize..12,
        node_mem_gb in 4.0f64..64.0,
        slots in 1usize..4,
        extra_pool in (0usize..4, 8.0f64..128.0, 1usize..6),
        ops in proptest::collection::vec((0.1f64..40.0, 0u8..2), 1..60),
        probes in proptest::collection::vec(0.05f64..80.0, 1..10),
    ) {
        let mut config = SimulationConfig {
            node_count,
            node_memory_bytes: node_mem_gb * 1e9,
            slots_per_node: slots,
            ..SimulationConfig::default()
        };
        let (extra_count, extra_mem_gb, extra_slots) = extra_pool;
        if extra_count > 0 {
            config = config.with_extra_pool(NodePoolSpec {
                count: extra_count,
                memory_bytes: extra_mem_gb * 1e9,
                slots: extra_slots,
            });
        }
        let mut cluster = sizey_sim::Cluster::new(&config);
        let mut placements: Vec<(Placement, f64)> = Vec::new();

        for (alloc_gb, place) in ops {
            let place = place == 1;
            let alloc = alloc_gb * 1e9;
            // Every mutation is followed by a full policy comparison, so the
            // index is validated across arbitrary occupancy states, not just
            // the final one.
            if place || placements.is_empty() {
                if let Some(p) = cluster.try_place(alloc) {
                    placements.push((p, alloc));
                }
            } else {
                let (p, released) = placements.swap_remove(placements.len() / 2);
                cluster.release(p, released);
            }
            for &probe_gb in &probes {
                let probe = probe_gb * 1e9;
                for policy in SchedulePolicy::ALL {
                    prop_assert_eq!(
                        cluster.select_node(probe, policy),
                        naive_select_node(cluster.nodes(), probe, policy),
                        "policy {:?}, probe {} bytes",
                        policy,
                        probe
                    );
                }
            }
            // Exact-boundary and degenerate allocations: free amounts
            // themselves, NaN and infinity must agree as well.
            let boundary: Vec<f64> = cluster
                .nodes()
                .iter()
                .map(|n| n.free_bytes())
                .chain([f64::NAN, f64::INFINITY, 0.0])
                .collect();
            for probe in boundary {
                for policy in SchedulePolicy::ALL {
                    prop_assert_eq!(
                        cluster.select_node(probe, policy),
                        naive_select_node(cluster.nodes(), probe, policy),
                        "policy {:?}, boundary probe {} bytes",
                        policy,
                        probe
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sizey's full retrain: one worker queue for the MLP and the forest's trees
// vs. every member fitted alone.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A pool of all four classes runs its full retrain with the MLP's fit
    /// at the head of the forest's tree queue; a pool of one class fits its
    /// member alone, on the calling thread. Fed the same rows (incremental
    /// updates, then one full retrain on all of them), every member must
    /// predict bit for bit what its class's single-member pool predicts.
    #[test]
    fn concurrent_retrain_matches_sequential_fits(
        rows in proptest::collection::vec((0.0f64..1e10, 1e8f64..1e11), 1..601),
        seed in 0u64..u64::MAX,
        queries in proptest::collection::vec(0.0f64..2e10, 1..6),
    ) {
        let config = |model_classes: Vec<ModelClass>| SizeyConfig {
            model_classes,
            seed,
            hyperparameter_optimization: false,
            history_window: None,
            retrain_interval: 0,
            ..SizeyConfig::default()
        };
        let feed = |config: SizeyConfig| {
            let retrain = SizeyConfig {
                retrain_interval: 1,
                ..config.clone()
            };
            let mut pool = ModelPool::new(&config);
            let mut scratch = PoolScratch::default();
            let (last, head) = rows.split_last().unwrap();
            for &(input, peak) in head {
                pool.observe_success(input, peak, &config, &mut scratch);
            }
            pool.observe_success(last.0, last.1, &retrain, &mut scratch);
            assert_eq!(pool.model_epoch(), 1);
            pool
        };
        let together = feed(config(ModelClass::ALL.to_vec()));
        let alone: Vec<ModelPool> = ModelClass::ALL
            .iter()
            .map(|&class| feed(config(vec![class])))
            .collect();
        for &query in &queries {
            let concurrent = together.member_estimates(query);
            for (&class, single) in ModelClass::ALL.iter().zip(&alone) {
                let bits = |estimates: &[(ModelClass, f64)]| {
                    estimates
                        .iter()
                        .find(|&&(c, _)| c == class)
                        .map(|&(_, e)| e.to_bits())
                };
                prop_assert_eq!(
                    bits(&single.member_estimates(query)),
                    bits(&concurrent),
                    "{} on {} rows, seed {}",
                    class,
                    rows.len(),
                    seed
                );
            }
        }
    }
}
