//! The Resource Allocation Quality (RAQ) score (Section II-C).
//!
//! The RAQ score rates each pool member for the task currently being sized.
//! It combines
//!
//! * the **accuracy score** (Eq. 1) — the model's mean bounded relative error
//!   over the historical task instances of the same (task type, machine)
//!   combination, and
//! * the **efficiency score** (Eq. 2) — how small the model's current
//!   estimate is relative to the largest estimate in the pool, punishing
//!   outlying overestimates.
//!
//! Both sub-scores and the combined RAQ (Eq. 3) are normalised to `[0, 1]`.
//!
//! These are the kernels the predict path runs: Eq. 1 sums contributions
//! cached when each pair was observed, and Eq. 2 is folded into Eq. 3. The
//! plain statement of Eqs. 1–3 they must match bit for bit is the test-only
//! `reference.rs` module of this crate.

use sizey_ml::metrics::bounded_relative_error;

/// The contribution of one `(prediction, actual)` pair to the accuracy score
/// of Eq. 1. Pool members cache this value when the pair is recorded, so a
/// prediction sums cached contributions instead of re-scoring the
/// prequential history on every call.
#[inline]
pub fn pair_accuracy(pred: f64, actual: f64) -> f64 {
    1.0 - bounded_relative_error(pred, actual, 1.0)
}

/// The accuracy score of one model (Eq. 1) over **cached** per-pair
/// contributions ([`pair_accuracy`]) of its prequential `(prediction,
/// actual)` pairs. Returns 0 when no history exists — a model we know
/// nothing about should never be preferred on accuracy.
pub fn accuracy_score_cached(scores: &[f64]) -> f64 {
    if scores.is_empty() {
        return 0.0;
    }
    let sum: f64 = scores.iter().sum();
    (sum / scores.len() as f64).clamp(0.0, 1.0)
}

/// Combines accuracy and efficiency into the RAQ score (Eq. 3):
/// `RAQ = (1 - alpha) * AS + alpha * ES`.
pub fn raq_score(accuracy: f64, efficiency: f64, alpha: f64) -> f64 {
    let alpha = alpha.clamp(0.0, 1.0);
    ((1.0 - alpha) * accuracy + alpha * efficiency).clamp(0.0, 1.0)
}

/// RAQ scores of the whole pool (Eq. 3) from each model's accuracy score
/// ([`accuracy_score_cached`]) and current estimate, written into a
/// caller-owned buffer. The Eq. 2 efficiency score `1 − estimate / max` is
/// computed inline from the pool maximum; a pool whose maximum is not
/// positive and finite scores 0 efficiency throughout.
pub fn pool_raq_scores_into(accuracies: &[f64], estimates: &[f64], alpha: f64, out: &mut Vec<f64>) {
    debug_assert_eq!(accuracies.len(), estimates.len());
    let max = estimates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let degenerate = estimates.is_empty() || !max.is_finite() || max <= 0.0;
    out.clear();
    out.extend(accuracies.iter().zip(estimates.iter()).map(|(&acc, &e)| {
        let eff = if degenerate {
            0.0
        } else {
            (1.0 - e / max).clamp(0.0, 1.0)
        };
        raq_score(acc, eff, alpha)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    /// Eq. 1 through the kernel (cached pair contributions), asserted
    /// bit-equal to the reference.
    fn accuracy(history: &[(f64, f64)]) -> f64 {
        let scores: Vec<f64> = history.iter().map(|&(p, a)| pair_accuracy(p, a)).collect();
        let kernel = accuracy_score_cached(&scores);
        assert_eq!(kernel.to_bits(), reference::accuracy(history).to_bits());
        kernel
    }

    /// Eqs. 1–3 through the kernel, asserted bit-equal to the reference.
    fn pool_raq(histories: &[Vec<(f64, f64)>], estimates: &[f64], alpha: f64) -> Vec<f64> {
        let accuracies: Vec<f64> = histories.iter().map(|h| accuracy(h)).collect();
        let mut kernel = Vec::new();
        pool_raq_scores_into(&accuracies, estimates, alpha, &mut kernel);
        let expected = reference::raq(&accuracies, estimates, alpha);
        assert_eq!(
            kernel.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        kernel
    }

    /// Eq. 2 alone: with α = 1 the RAQ score is the efficiency score.
    fn efficiency(estimates: &[f64]) -> Vec<f64> {
        let kernel = pool_raq(&vec![Vec::new(); estimates.len()], estimates, 1.0);
        assert_eq!(kernel, reference::efficiency(estimates));
        kernel
    }

    #[test]
    fn perfect_predictions_give_accuracy_one() {
        assert_eq!(accuracy(&[(2e9, 2e9), (4e9, 4e9)]), 1.0);
    }

    #[test]
    fn accuracy_bounds_large_errors_at_zero_contribution() {
        // A 10x overestimate contributes 0 (bounded at 1), so with one
        // perfect prediction the mean is 0.5.
        assert!((accuracy(&[(20e9, 2e9), (4e9, 4e9)]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accuracy_of_empty_history_is_zero() {
        assert_eq!(accuracy(&[]), 0.0);
    }

    #[test]
    fn accuracy_matches_equation_one_example() {
        // Errors of 10% and 30% => scores 0.9 and 0.7 => mean 0.8.
        assert!((accuracy(&[(1.1e9, 1.0e9), (0.7e9, 1.0e9)]) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn efficiency_of_largest_estimate_is_zero() {
        let scores = efficiency(&[2e9, 4e9, 8e9]);
        assert_eq!(scores[2], 0.0);
        assert!((scores[0] - 0.75).abs() < 1e-12);
        assert!((scores[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn efficiency_handles_equal_and_degenerate_estimates() {
        assert_eq!(efficiency(&[3e9, 3e9]), vec![0.0, 0.0]);
        assert_eq!(efficiency(&[]), Vec::<f64>::new());
        assert_eq!(efficiency(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn raq_interpolates_between_accuracy_and_efficiency() {
        assert_eq!(raq_score(0.8, 0.2, 0.0), 0.8);
        assert_eq!(raq_score(0.8, 0.2, 1.0), 0.2);
        assert!((raq_score(0.8, 0.2, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn raq_clamps_alpha_and_result() {
        assert_eq!(raq_score(0.8, 0.2, 7.0), 0.2);
        assert!(raq_score(2.0, 2.0, 0.5) <= 1.0);
    }

    #[test]
    fn accuracy_denominator_is_the_actual_value() {
        // Eq. 1 normalises by the actual peak: a 2x overestimate of a 1 GB
        // peak caps at error 1 (score 0), while a half-sized underestimate is
        // error 0.5 (score 0.5).
        assert!((accuracy(&[(2.0e9, 1.0e9)]) - 0.0).abs() < 1e-12);
        assert!((accuracy(&[(0.5e9, 1.0e9)]) - 0.5).abs() < 1e-12);
        // Zero actual and zero prediction is a perfect score.
        assert_eq!(accuracy(&[(0.0, 0.0)]), 1.0);
    }

    #[test]
    fn worked_example_through_equations_one_to_three() {
        // Three models sized for the same submission, alpha = 0.25.
        //
        // Accuracy (Eq. 1):
        //   model 0: errors 0.2 and 0.1      -> AS = (0.8 + 0.9) / 2 = 0.85
        //   model 1: error 0.5               -> AS = 0.5
        //   model 2: error 3.0, capped at 1  -> AS = 0.0
        // Efficiency (Eq. 2) for estimates [2, 3, 4] GB:
        //   ES = [1 - 2/4, 1 - 3/4, 1 - 4/4] = [0.5, 0.25, 0.0]
        // RAQ (Eq. 3) = 0.75 * AS + 0.25 * ES:
        //   [0.75*0.85 + 0.25*0.5, 0.75*0.5 + 0.25*0.25, 0.0]
        //   = [0.7625, 0.4375, 0.0]
        let histories = vec![
            vec![(1.2e9, 1.0e9), (0.9e9, 1.0e9)],
            vec![(1.5e9, 1.0e9)],
            vec![(4.0e9, 1.0e9)],
        ];
        let raq = pool_raq(&histories, &[2.0e9, 3.0e9, 4.0e9], 0.25);
        assert!((raq[0] - 0.7625).abs() < 1e-12, "raq[0] = {}", raq[0]);
        assert!((raq[1] - 0.4375).abs() < 1e-12, "raq[1] = {}", raq[1]);
        assert!((raq[2] - 0.0).abs() < 1e-12, "raq[2] = {}", raq[2]);
    }

    #[test]
    fn pool_scores_combine_both_components() {
        let histories = vec![
            vec![(1.0e9, 1.0e9)], // perfectly accurate
            vec![(3.0e9, 1.0e9)], // wildly inaccurate
        ];
        let estimates = vec![1.0e9, 5.0e9];
        // alpha = 0: pure accuracy.
        let raq0 = pool_raq(&histories, &estimates, 0.0);
        assert!(raq0[0] > raq0[1]);
        // alpha = 1: pure efficiency — the smaller estimate wins.
        let raq1 = pool_raq(&histories, &estimates, 1.0);
        assert!(raq1[0] > raq1[1]);
        assert_eq!(raq1[1], 0.0);
        for s in raq0.iter().chain(raq1.iter()) {
            assert!((0.0..=1.0).contains(s));
        }
    }
}
