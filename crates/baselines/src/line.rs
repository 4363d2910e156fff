//! The per-key regression line Witt-LR and Witt-Wastage learn
//! incrementally: one success folded into the normal equations, and solved,
//! per observe.

use crate::history::Observation;
use sizey_ml::dataset::Dataset;
use sizey_ml::linear::LinearRegression;
use sizey_ml::model::Regressor;

/// A key's regression of peak memory on input size, and the intercept shift
/// its method derived from the residuals.
///
/// The answer is `None` exactly when a fresh fit over the key's whole
/// history would fail or is not attempted: below `min_history`, after the
/// solve fails, and forever once a non-finite row arrives (a fresh fit
/// would reject it on every later call).
#[derive(Debug, Clone)]
pub(crate) struct IncrementalLine {
    pub(crate) model: LinearRegression,
    /// Set by the first non-finite row.
    poisoned: bool,
    /// The fitted answer's shift; `None` while there is no answer.
    pub(crate) shift: Option<f64>,
}

impl Default for IncrementalLine {
    fn default() -> Self {
        IncrementalLine {
            model: LinearRegression::with_defaults(),
            poisoned: false,
            shift: None,
        }
    }
}

impl IncrementalLine {
    /// Folds the newest observation (the last of `observations`) into the
    /// normal equations, through `scratch`'s one-row dataset, and clears the
    /// answer. Returns true when the key has `min_history` observations and
    /// the update's solve succeeded, i.e. when the caller should derive a new
    /// shift from the fresh coefficients.
    pub(crate) fn absorb(
        &mut self,
        observations: &[Observation],
        min_history: usize,
        scratch: &mut LineScratch,
    ) -> bool {
        self.shift = None;
        if self.poisoned {
            return false;
        }
        let newest = observations.last().expect("observe hands over the new row");
        scratch.point.drain_front(usize::MAX);
        scratch.point.push(newest.input_bytes, newest.peak_bytes);
        if self.model.partial_fit(&scratch.point).is_err() {
            self.poisoned = true;
            return false;
        }
        observations.len() >= min_history && self.model.is_solved()
    }

    /// The line at `input` plus the shift, or `None` without an answer (or
    /// for a non-finite input, which the model rejects).
    ///
    /// Floored at a small positive allocation: a non-positive estimate (from
    /// extrapolating a downward-sloping fit) would make the doubling-based
    /// failure handling of both methods useless.
    pub(crate) fn evaluate(&self, input: f64) -> Option<f64> {
        let shift = self.shift?;
        Some((self.model.predict(&[input]).ok()? + shift).max(128e6))
    }
}

/// Buffers every observe reuses: the one-row dataset of the update and the
/// residual pass's vectors.
#[derive(Debug, Default, Clone)]
pub(crate) struct LineScratch {
    pub(crate) point: Dataset,
    pub(crate) fitted: Vec<f64>,
    pub(crate) residuals: Vec<f64>,
}

impl LineScratch {
    /// Refills `fitted` with the line at every observed input (the observed
    /// peak where the model refuses) and `residuals` with peak minus fit.
    pub(crate) fn residual_pass(&mut self, model: &LinearRegression, observations: &[Observation]) {
        self.fitted.clear();
        self.residuals.clear();
        for o in observations {
            let p = model.predict(&[o.input_bytes]).unwrap_or(o.peak_bytes);
            self.fitted.push(p);
            self.residuals.push(o.peak_bytes - p);
        }
    }
}
