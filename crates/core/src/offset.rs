//! Prediction offsets and their dynamic selection (Section II-E).
//!
//! Sizey aims for accurate predictions, so small under-predictions would
//! immediately cause task failures. A safety offset is therefore added to the
//! aggregated estimate. Four candidate strategies are maintained — the
//! standard deviation of the prediction errors, the standard deviation of the
//! under-prediction errors, the median absolute error, and the median
//! under-prediction error — and during online learning the strategy that
//! *would have* caused the least wastage on the already executed tasks is
//! selected.
//!
//! [`OffsetStrategy::offset_with`] and [`select_dynamic_offset_with`] are
//! the kernels the predict path runs, over caller-owned buffers. The plain
//! statement of §II-E they must match bit for bit is the test-only
//! `reference.rs` module of this crate.

use sizey_ml::metrics::{percentile_in_place, std_dev};

/// The four offset strategies of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OffsetStrategy {
    /// Standard deviation of all prediction errors.
    StdDev,
    /// Standard deviation of the under-prediction errors only.
    StdDevUnderpredictions,
    /// Median absolute prediction error.
    MedianError,
    /// Median under-prediction error.
    MedianErrorUnderpredictions,
}

impl OffsetStrategy {
    /// All candidate strategies considered by the dynamic selection.
    pub const ALL: [OffsetStrategy; 4] = [
        OffsetStrategy::StdDev,
        OffsetStrategy::StdDevUnderpredictions,
        OffsetStrategy::MedianError,
        OffsetStrategy::MedianErrorUnderpredictions,
    ];

    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            OffsetStrategy::StdDev => "std-dev",
            OffsetStrategy::StdDevUnderpredictions => "std-dev-under",
            OffsetStrategy::MedianError => "median-error",
            OffsetStrategy::MedianErrorUnderpredictions => "median-error-under",
        }
    }

    /// Computes the offset (in bytes) this strategy derives from the history
    /// of `(prediction, actual)` pairs, over caller-owned buffers (the
    /// median strategies sort the scratch buffer in place). An empty history
    /// needs no offset.
    pub fn offset_with(&self, history: &[(f64, f64)], scratch: &mut OffsetScratch) -> f64 {
        if history.is_empty() {
            return 0.0;
        }
        // error > 0 means the model under-predicted (actual above estimate).
        let errors = &mut scratch.errors;
        errors.clear();
        errors.extend(history.iter().map(|&(pred, actual)| actual - pred));
        let values = &mut scratch.values;
        values.clear();
        let value = match self {
            OffsetStrategy::StdDev => std_dev(errors),
            OffsetStrategy::StdDevUnderpredictions => {
                values.extend(errors.iter().copied().filter(|e| *e > 0.0));
                std_dev(values)
            }
            OffsetStrategy::MedianError => {
                values.extend(errors.iter().map(|e| e.abs()));
                percentile_in_place(values, 50.0)
            }
            OffsetStrategy::MedianErrorUnderpredictions => {
                values.extend(errors.iter().copied().filter(|e| *e > 0.0));
                percentile_in_place(values, 50.0)
            }
        };
        value.max(0.0)
    }
}

/// Reusable buffers for the offset computations on the predict hot path.
#[derive(Debug, Default, Clone)]
pub struct OffsetScratch {
    /// Signed prediction errors (`actual - pred`).
    errors: Vec<f64>,
    /// Strategy-specific working set (under-predictions or absolute errors);
    /// the median strategies sort it in place.
    values: Vec<f64>,
}

impl std::fmt::Display for OffsetStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Hypothetical wastage (in bytes, duration-free) of sizing the historical
/// tasks with `prediction + offset`: sufficient allocations waste their
/// surplus, insufficient allocations waste the whole allocation plus the
/// overshoot of the subsequent retry. The retry follows Sizey's failure
/// handling (maximum ever observed, roughly twice the typical peak), so its
/// cost is approximated as `2 × actual`.
fn hypothetical_wastage(history: &[(f64, f64)], offset: f64) -> f64 {
    history
        .iter()
        .map(|&(pred, actual)| {
            let alloc = pred + offset;
            if alloc >= actual {
                alloc - actual
            } else {
                alloc + 2.0 * actual
            }
        })
        .sum()
}

/// Selects the offset strategy that would have caused the least wastage on
/// the observed history (the paper's dynamic offset selection), together with
/// the offset value it yields, over caller-owned buffers. Candidates are
/// tried in [`OffsetStrategy::ALL`] order and the first wins ties.
pub fn select_dynamic_offset_with(
    history: &[(f64, f64)],
    scratch: &mut OffsetScratch,
) -> (OffsetStrategy, f64) {
    let mut best = (
        OffsetStrategy::StdDev,
        OffsetStrategy::StdDev.offset_with(history, scratch),
    );
    let mut best_cost = f64::INFINITY;
    for strategy in OffsetStrategy::ALL {
        let offset = strategy.offset_with(history, scratch);
        let cost = hypothetical_wastage(history, offset);
        if cost < best_cost {
            best_cost = cost;
            best = (strategy, offset);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    /// One strategy's offset through the kernel, asserted bit-equal to the
    /// reference.
    fn offset(strategy: OffsetStrategy, history: &[(f64, f64)]) -> f64 {
        let kernel = strategy.offset_with(history, &mut OffsetScratch::default());
        let expected = reference::strategy_offset(strategy, history);
        assert_eq!(kernel.to_bits(), expected.to_bits(), "{strategy}");
        kernel
    }

    /// The dynamic selection through the kernel, asserted bit-equal to the
    /// reference.
    fn select(history: &[(f64, f64)]) -> (OffsetStrategy, f64) {
        let (strategy, offset) = select_dynamic_offset_with(history, &mut OffsetScratch::default());
        let expected = reference::dynamic_offset(history);
        assert_eq!(
            (strategy, offset.to_bits()),
            (expected.0, expected.1.to_bits())
        );
        (strategy, offset)
    }

    #[test]
    fn empty_history_gives_zero_offset() {
        for s in OffsetStrategy::ALL {
            assert_eq!(offset(s, &[]), 0.0);
        }
    }

    #[test]
    fn perfect_predictions_need_no_offset() {
        let history = vec![(1e9, 1e9), (2e9, 2e9)];
        for s in OffsetStrategy::ALL {
            assert_eq!(offset(s, &history), 0.0, "{s}");
        }
    }

    #[test]
    fn median_error_under_matches_manual_value() {
        // Errors: +1 GB, +3 GB, -2 GB → under-predictions {1, 3} → median 2.
        let history = vec![(1e9, 2e9), (1e9, 4e9), (5e9, 3e9)];
        let s = OffsetStrategy::MedianErrorUnderpredictions;
        assert!((offset(s, &history) - 2e9).abs() < 1e-3);
    }

    #[test]
    fn median_error_uses_absolute_errors() {
        let history = vec![(1e9, 2e9), (5e9, 3e9)];
        // |errors| = {1 GB, 2 GB} → median 1.5 GB.
        assert!((offset(OffsetStrategy::MedianError, &history) - 1.5e9).abs() < 1e-3);
    }

    #[test]
    fn std_dev_strategies_are_nonnegative() {
        let history = vec![(1e9, 0.5e9), (1e9, 1.5e9), (1e9, 3e9)];
        for s in OffsetStrategy::ALL {
            assert!(offset(s, &history) >= 0.0);
        }
    }

    #[test]
    fn only_overpredictions_yield_zero_underprediction_offsets() {
        let history = vec![(5e9, 1e9), (6e9, 2e9)];
        assert_eq!(
            offset(OffsetStrategy::StdDevUnderpredictions, &history),
            0.0
        );
        assert_eq!(
            offset(OffsetStrategy::MedianErrorUnderpredictions, &history),
            0.0
        );
    }

    #[test]
    fn hypothetical_wastage_penalises_failures() {
        let history = vec![(1e9, 2e9)];
        // offset 0: alloc 1 < 2 → waste 1 + 2·2 = 5.
        assert!((hypothetical_wastage(&history, 0.0) - 5e9).abs() < 1e-3);
        // offset 1.5 GB: alloc 2.5 ≥ 2 → waste 0.5.
        assert!((hypothetical_wastage(&history, 1.5e9) - 0.5e9).abs() < 1e-3);
    }

    #[test]
    fn dynamic_selection_prefers_covering_systematic_underprediction() {
        // Model systematically under-predicts by ~2 GB: strategies that
        // produce a ~2 GB offset should win over near-zero offsets.
        let history: Vec<(f64, f64)> = (1..=20)
            .map(|i| (i as f64 * 1e9, i as f64 * 1e9 + 2e9))
            .collect();
        let (strategy, chosen) = select(&history);
        assert!(chosen >= 1.9e9, "{strategy} offset {chosen}");
        let cost_selected = hypothetical_wastage(&history, chosen);
        for s in OffsetStrategy::ALL {
            let cost = hypothetical_wastage(&history, offset(s, &history));
            assert!(cost_selected <= cost + 1e-6);
        }
    }

    #[test]
    fn dynamic_selection_avoids_oversized_offsets_for_accurate_models() {
        // Accurate model with small symmetric noise: the cheapest offset is a
        // small one (median-based), not a large one.
        let history: Vec<(f64, f64)> = (1..=50)
            .map(|i| {
                let actual = 10e9;
                let noise = if i % 2 == 0 { 0.1e9 } else { -0.1e9 };
                (actual + noise, actual)
            })
            .collect();
        let (_, chosen) = select(&history);
        assert!(chosen <= 0.2e9, "offset {chosen} should stay small");
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> =
            OffsetStrategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
