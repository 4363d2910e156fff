//! The gating mechanism combining pool outputs (Section II-D).
//!
//! Given the pool's individual estimates and their RAQ scores, the gating
//! mechanism assigns each predictor a weight and produces a single aggregate
//! estimate — either by picking the best model (Argmax) or by a softmax
//! consensus over the RAQ scores (Interpolation, Eq. 4).
//!
//! [`gate_with`] is the kernel the predict path runs, allocation-free over
//! a caller-owned weights buffer. The plain statement of the gate it must
//! match bit for bit is the test-only `reference.rs` module of this crate.

use crate::config::GatingStrategy;

/// Applies the gating strategy to the pool estimates and their RAQ scores,
/// writing one weight per pool member into the caller-owned `weights`
/// buffer. Returns the aggregate estimate and the index of the dominant
/// model (the largest weight; the first one wins ties).
///
/// # Panics
/// Panics if `estimates` and `raq_scores` have different lengths or are
/// empty — the pool never calls the gate without at least one fitted model.
pub fn gate_with(
    strategy: GatingStrategy,
    estimates: &[f64],
    raq_scores: &[f64],
    weights: &mut Vec<f64>,
) -> (f64, usize) {
    assert_eq!(
        estimates.len(),
        raq_scores.len(),
        "one RAQ score per estimate required"
    );
    assert!(!estimates.is_empty(), "cannot gate an empty pool");

    match strategy {
        GatingStrategy::Argmax => {
            let best = argmax(raq_scores);
            weights.clear();
            weights.resize(estimates.len(), 0.0);
            weights[best] = 1.0;
            (estimates[best], best)
        }
        GatingStrategy::Interpolation { beta } => {
            let beta = beta.max(1.0);
            softmax_into(raq_scores, beta, weights);
            let estimate = estimates
                .iter()
                .zip(weights.iter())
                .map(|(e, w)| e * w)
                .sum();
            (estimate, argmax(weights))
        }
    }
}

/// Index of the maximum value (first one wins ties).
fn argmax(values: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, v) in values.iter().enumerate() {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

/// Numerically stable softmax with sharpness `beta` (Eq. 4), written into a
/// caller-owned buffer. Same values and summation order as collecting the
/// exponentials into a fresh vector.
fn softmax_into(scores: &[f64], beta: f64, out: &mut Vec<f64>) {
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    out.clear();
    out.extend(scores.iter().map(|s| (beta * (s - max)).exp()));
    let sum: f64 = out.iter().sum();
    for w in out.iter_mut() {
        *w /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, Gate};

    /// The gate through the kernel, asserted bit-equal to the reference.
    fn gate(strategy: GatingStrategy, estimates: &[f64], raq_scores: &[f64]) -> Gate {
        let mut weights = Vec::new();
        let (estimate, dominant) = gate_with(strategy, estimates, raq_scores, &mut weights);
        let kernel = Gate {
            estimate,
            weights,
            dominant,
        };
        assert_eq!(
            reference::gate_bits(&kernel),
            reference::gate_bits(&reference::gate(strategy, estimates, raq_scores))
        );
        kernel
    }

    #[test]
    fn argmax_strategy_selects_highest_raq() {
        let d = gate(GatingStrategy::Argmax, &[1e9, 2e9, 3e9], &[0.2, 0.9, 0.5]);
        assert_eq!(d.estimate, 2e9);
        assert_eq!(d.dominant, 1);
        assert_eq!(d.weights, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn argmax_ties_pick_the_first() {
        let d = gate(GatingStrategy::Argmax, &[1e9, 2e9], &[0.5, 0.5]);
        assert_eq!(d.dominant, 0);
    }

    #[test]
    fn interpolation_weights_form_a_simplex() {
        let d = gate(
            GatingStrategy::Interpolation { beta: 3.0 },
            &[1e9, 2e9, 4e9],
            &[0.3, 0.6, 0.1],
        );
        let sum: f64 = d.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(d.weights.iter().all(|&w| (0.0..=1.0).contains(&w)));
        assert_eq!(d.dominant, 1);
    }

    #[test]
    fn interpolation_estimate_is_between_extremes() {
        let estimates = [1e9, 5e9];
        let d = gate(
            GatingStrategy::Interpolation { beta: 2.0 },
            &estimates,
            &[0.5, 0.5],
        );
        assert!(d.estimate > 1e9 && d.estimate < 5e9);
        // Equal scores => simple average.
        assert!((d.estimate - 3e9).abs() < 1e-3);
    }

    #[test]
    fn large_beta_approaches_argmax() {
        let estimates = [1e9, 5e9];
        let raq = [0.4, 0.6];
        let soft = gate(
            GatingStrategy::Interpolation { beta: 200.0 },
            &estimates,
            &raq,
        );
        let hard = gate(GatingStrategy::Argmax, &estimates, &raq);
        assert!((soft.estimate - hard.estimate).abs() / hard.estimate < 1e-6);
    }

    #[test]
    fn beta_below_one_is_clamped() {
        let a = gate(
            GatingStrategy::Interpolation { beta: 0.0 },
            &[1e9, 2e9],
            &[0.2, 0.8],
        );
        let b = gate(
            GatingStrategy::Interpolation { beta: 1.0 },
            &[1e9, 2e9],
            &[0.2, 0.8],
        );
        assert!((a.estimate - b.estimate).abs() < 1e-6);
    }

    #[test]
    fn interpolation_matches_hand_computed_softmax() {
        // Eq. 4 with beta = 2 over RAQ scores [0.9, 0.5]: the weight of the
        // better model is the logistic of beta * (0.9 - 0.5) = 0.8,
        //   w0 = 1 / (1 + e^-0.8) = 0.6899744811276125,
        // and the aggregate over estimates [2, 6] GB is
        //   0.6899744811276125 * 2e9 + 0.3100255188723875 * 6e9
        //   = 3.24010207548955e9.
        let d = gate(
            GatingStrategy::Interpolation { beta: 2.0 },
            &[2.0e9, 6.0e9],
            &[0.9, 0.5],
        );
        assert!((d.weights[0] - 0.6899744811276125).abs() < 1e-12);
        assert!((d.weights[1] - 0.3100255188723875).abs() < 1e-12);
        assert!((d.estimate - 3.24010207548955e9).abs() < 0.5);
        assert_eq!(d.dominant, 0);
    }

    #[test]
    fn argmax_and_interpolation_agree_on_the_dominant_model() {
        // Softmax is monotone, so whenever the RAQ maximum is unique the two
        // strategies must name the same dominant model even though their
        // aggregate estimates differ.
        let estimates = [1.0e9, 2.0e9, 3.0e9];
        let raq = [0.2, 0.8, 0.6];
        let hard = gate(GatingStrategy::Argmax, &estimates, &raq);
        let soft = gate(
            GatingStrategy::Interpolation { beta: 4.0 },
            &estimates,
            &raq,
        );
        assert_eq!(hard.dominant, 1);
        assert_eq!(soft.dominant, 1);
        // Argmax returns the winner's estimate verbatim; interpolation blends.
        assert_eq!(hard.estimate, 2.0e9);
        assert!(soft.estimate > 1.0e9 && soft.estimate < 3.0e9);
    }

    #[test]
    fn equal_raq_scores_average_the_estimates() {
        // With identical scores every weight is 1/n, so the interpolated
        // estimate is the plain mean while Argmax falls back to the first.
        let estimates = [1.0e9, 2.0e9, 6.0e9];
        let raq = [0.4, 0.4, 0.4];
        let soft = gate(
            GatingStrategy::Interpolation { beta: 8.0 },
            &estimates,
            &raq,
        );
        assert!((soft.estimate - 3.0e9).abs() < 1e-3);
        for w in &soft.weights {
            assert!((w - 1.0 / 3.0).abs() < 1e-12);
        }
        let hard = gate(GatingStrategy::Argmax, &estimates, &raq);
        assert_eq!(hard.dominant, 0);
        assert_eq!(hard.estimate, 1.0e9);
    }

    #[test]
    #[should_panic(expected = "cannot gate an empty pool")]
    fn gating_empty_pool_panics() {
        let _ = gate_with(GatingStrategy::Argmax, &[], &[], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "one RAQ score per estimate")]
    fn mismatched_lengths_panic() {
        let _ = gate_with(GatingStrategy::Argmax, &[1.0], &[0.1, 0.2], &mut Vec::new());
    }
}
