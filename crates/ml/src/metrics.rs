//! Regression quality metrics and summary statistics.
//!
//! These are used both by the hyper-parameter search (validation scores) and
//! by the Sizey core crate (accuracy sub-score, offset strategies, figure
//! reproduction statistics).

/// Mean squared error.
pub fn mse(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    if y_true.is_empty() {
        return 0.0;
    }
    y_true
        .iter()
        .zip(y_pred.iter())
        .map(|(t, p)| {
            let d = t - p;
            d * d
        })
        .sum::<f64>()
        / y_true.len() as f64
}

/// Mean absolute percentage error (as a fraction, not percent). Observations
/// with a zero true value are skipped.
pub fn mape(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    let mut sum = 0.0;
    let mut n = 0usize;
    for (t, p) in y_true.iter().zip(y_pred.iter()) {
        if *t != 0.0 {
            sum += ((t - p) / t).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Relative error of one prediction, `|pred - actual| / actual`, bounded at
/// `cap` as in Eq. (1) of the paper. Returns `cap` when the actual value is
/// zero but the prediction is not.
pub fn bounded_relative_error(pred: f64, actual: f64, cap: f64) -> f64 {
    if actual == 0.0 {
        return if pred == 0.0 { 0.0 } else { cap };
    }
    ((pred - actual) / actual).abs().min(cap)
}

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance. Returns 0 for slices shorter than 2.
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// Population standard deviation.
pub fn std_dev(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

/// Median of a slice (averaging the two central elements for even lengths).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Percentile using linear interpolation between closest ranks, matching the
/// default behaviour of `numpy.percentile`. `p` is in `[0, 100]`.
/// Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    percentile_in_place(&mut sorted, p)
}

/// [`percentile`] over a caller-owned buffer, sorting it in place — the
/// allocation-free twin used by the predict hot path (offset strategies).
/// Identical arithmetic: same total-order sort, same interpolation.
pub fn percentile_in_place(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    percentile_of_sorted(values, p)
}

/// [`percentile`] of a slice that is already sorted ascending under
/// `total_cmp`: no copy, no sort, O(1). Callers that keep their values
/// sorted, or read several percentiles of one buffer, sort once and call
/// this. Returns 0 for an empty slice.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_matches_hand_computation() {
        let t = [1.0, 2.0, 3.0];
        let p = [1.0, 3.0, 5.0];
        assert!((mse(&t, &p) - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_targets() {
        let t = [0.0, 2.0];
        let p = [1.0, 3.0];
        assert!((mape(&t, &p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bounded_relative_error_caps_outliers() {
        assert_eq!(bounded_relative_error(10.0, 1.0, 1.0), 1.0);
        assert!((bounded_relative_error(1.5, 1.0, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(bounded_relative_error(0.0, 0.0, 1.0), 0.0);
        assert_eq!(bounded_relative_error(3.0, 0.0, 1.0), 1.0);
    }

    #[test]
    fn mean_variance_std_dev() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((variance(&v) - 4.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn median_and_percentiles() {
        let v = [1.0, 3.0, 2.0, 4.0];
        assert!((median(&v) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // The sorted-slice entry point reads the same values without sorting.
        let sorted = [1.0, 2.0, 3.0, 4.0];
        for p in [0.0, 25.0, 50.0, 95.0, 100.0] {
            assert_eq!(
                percentile_of_sorted(&sorted, p).to_bits(),
                percentile(&v, p).to_bits()
            );
        }
        assert_eq!(percentile_of_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_interpolates_linearly() {
        let v = [0.0, 10.0];
        assert!((percentile(&v, 25.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&v, 95.0) - 9.5).abs() < 1e-12);
    }
}
