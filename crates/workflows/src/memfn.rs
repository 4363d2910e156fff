//! Memory-response, input-size, and runtime models for task types.
//!
//! Every abstract task type in the synthetic workloads is described by three
//! small generative models:
//!
//! * an [`InputModel`] for the size of its input data,
//! * a [`MemoryModel`] mapping input size to peak memory consumption — this
//!   is where the paper's observed task behaviours live (linear like
//!   MarkDuplicates, non-linear like BaseRecalibrator, near-constant,
//!   threshold/bimodal, heavy-tailed),
//! * a [`RuntimeModel`] mapping input size to wall-clock runtime.
//!
//! All models are deterministic functions of the input plus a caller-provided
//! RNG, so workload generation is reproducible from a seed.

use crate::sampling;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Distribution of a task type's input size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InputModel {
    /// Uniform between the two bounds (bytes).
    Uniform {
        /// Lower bound in bytes.
        lo: f64,
        /// Upper bound in bytes.
        hi: f64,
    },
    /// Log-uniform between the two bounds (bytes); models inputs spanning
    /// orders of magnitude.
    LogUniform {
        /// Lower bound in bytes.
        lo: f64,
        /// Upper bound in bytes.
        hi: f64,
    },
    /// Normal with a floor (bytes).
    Normal {
        /// Mean input size in bytes.
        mean: f64,
        /// Standard deviation in bytes.
        std_dev: f64,
        /// Smallest possible input in bytes.
        min: f64,
    },
}

impl InputModel {
    /// Draws one input size in bytes.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            InputModel::Uniform { lo, hi } => sampling::uniform(rng, lo, hi),
            InputModel::LogUniform { lo, hi } => sampling::log_uniform(rng, lo, hi),
            InputModel::Normal { mean, std_dev, min } => {
                sampling::truncated_normal(rng, mean, std_dev, min)
            }
        }
    }

    /// A representative central value (used for presets and documentation).
    pub fn typical(&self) -> f64 {
        match *self {
            InputModel::Uniform { lo, hi } => 0.5 * (lo + hi),
            InputModel::LogUniform { lo, hi } => (lo.ln() * 0.5 + hi.ln() * 0.5).exp(),
            InputModel::Normal { mean, .. } => mean,
        }
    }
}

/// Mapping from input size to peak memory consumption (bytes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MemoryModel {
    /// `peak = slope * input + intercept`, with multiplicative log-normal
    /// noise of coefficient `noise_cv`. The dominant pattern reported by the
    /// paper and prior work (Witt et al.).
    Linear {
        /// Bytes of memory per byte of input.
        slope: f64,
        /// Base memory in bytes.
        intercept: f64,
        /// Coefficient of variation of the multiplicative noise.
        noise_cv: f64,
    },
    /// `peak = coefficient * (input / scale)^exponent + intercept` — captures
    /// super-linear growth such as the quadratic BaseRecalibrator example.
    Power {
        /// Multiplier in bytes.
        coefficient: f64,
        /// Input normalisation constant in bytes.
        scale: f64,
        /// Growth exponent (2.0 = quadratic in the scaled input).
        exponent: f64,
        /// Base memory in bytes.
        intercept: f64,
        /// Coefficient of variation of the multiplicative noise.
        noise_cv: f64,
    },
    /// Input-independent consumption around a mean value — tools that load a
    /// fixed reference database.
    Constant {
        /// Mean peak memory in bytes.
        mean: f64,
        /// Coefficient of variation of the multiplicative noise.
        noise_cv: f64,
    },
    /// Two regimes split by an input-size threshold — tools that switch
    /// algorithms or spill to a second data structure for large inputs.
    Threshold {
        /// Input-size threshold in bytes.
        threshold: f64,
        /// Mean peak memory below the threshold, in bytes.
        below_mean: f64,
        /// Mean peak memory at or above the threshold, in bytes.
        above_mean: f64,
        /// Coefficient of variation of the multiplicative noise.
        noise_cv: f64,
    },
    /// Linear growth that saturates towards a ceiling — tools with an
    /// internal cap or streaming behaviour.
    Saturating {
        /// Asymptotic peak memory in bytes.
        ceiling: f64,
        /// Base memory in bytes.
        floor: f64,
        /// Input size (bytes) at which ~63% of the ceiling is reached.
        scale: f64,
        /// Coefficient of variation of the multiplicative noise.
        noise_cv: f64,
    },
}

impl MemoryModel {
    /// The noise-free expected peak memory for a given input size.
    pub fn expected(&self, input_bytes: f64) -> f64 {
        match *self {
            MemoryModel::Linear {
                slope, intercept, ..
            } => slope * input_bytes + intercept,
            MemoryModel::Power {
                coefficient,
                scale,
                exponent,
                intercept,
                ..
            } => coefficient * (input_bytes / scale).powf(exponent) + intercept,
            MemoryModel::Constant { mean, .. } => mean,
            MemoryModel::Threshold {
                threshold,
                below_mean,
                above_mean,
                ..
            } => {
                if input_bytes < threshold {
                    below_mean
                } else {
                    above_mean
                }
            }
            MemoryModel::Saturating {
                ceiling,
                floor,
                scale,
                ..
            } => floor + (ceiling - floor) * (1.0 - (-input_bytes / scale).exp()),
        }
    }

    /// Draws a peak memory sample (expected value times multiplicative
    /// noise), floored at 16 MB so that no task is free.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, input_bytes: f64) -> f64 {
        let cv = match *self {
            MemoryModel::Linear { noise_cv, .. }
            | MemoryModel::Power { noise_cv, .. }
            | MemoryModel::Constant { noise_cv, .. }
            | MemoryModel::Threshold { noise_cv, .. }
            | MemoryModel::Saturating { noise_cv, .. } => noise_cv,
        };
        let noise = sampling::multiplicative_noise(rng, cv);
        (self.expected(input_bytes) * noise).max(16e6)
    }
}

/// A mid-run regime change composed onto any [`MemoryModel`].
///
/// Real workloads are not stationary: a pipeline upgrade, a reference-data
/// refresh, or a dataset shift can change a task type's memory response in
/// the middle of a run (cf. the paper's error-over-time analysis, Fig. 12).
/// A `DriftSpec` models that as a deterministic changepoint in *arrival
/// order*: every instance whose submission [`sequence`] is at or past
/// [`changepoint`](DriftSpec::changepoint) has its true peak transformed by
///
/// ```text
/// peak' = max(peak * memory_scale + slope_delta_bytes_per_input_byte * input, 16 MB)
/// ```
///
/// The transform is applied *after* sampling (on emission from the
/// [`WorkflowStream`](crate::WorkflowStream)), so it consumes no RNG draws:
/// every other field of a drifted workload equals the stationary one, and a
/// drifted workload with `memory_scale = 1.0, slope_delta = 0.0` is
/// bit-identical to a stationary one.
///
/// [`sequence`]: crate::TaskInstance::sequence
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftSpec {
    /// Arrival-sequence index of the first drifted instance. `0` drifts the
    /// whole run; an index past the workload length never fires.
    pub changepoint: u64,
    /// Multiplicative shift of the post-changepoint peak (scale shift).
    pub memory_scale: f64,
    /// Additional bytes of peak memory per byte of input after the
    /// changepoint (slope change). May be negative.
    pub slope_delta_bytes_per_input_byte: f64,
}

impl DriftSpec {
    /// A pure scale shift at `changepoint`.
    pub fn scale_shift(changepoint: u64, memory_scale: f64) -> Self {
        DriftSpec {
            changepoint,
            memory_scale,
            slope_delta_bytes_per_input_byte: 0.0,
        }
    }

    /// Transforms a sampled peak if `sequence` is past the changepoint.
    /// Floored at 16 MB like [`MemoryModel::sample`].
    pub fn apply(&self, sequence: u64, input_bytes: f64, true_peak_bytes: f64) -> f64 {
        if sequence < self.changepoint {
            return true_peak_bytes;
        }
        (true_peak_bytes * self.memory_scale + self.slope_delta_bytes_per_input_byte * input_bytes)
            .max(16e6)
    }
}

/// Mapping from input size to task runtime (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeModel {
    /// Base runtime in seconds regardless of input.
    pub base_seconds: f64,
    /// Additional seconds per gigabyte of input.
    pub seconds_per_gb: f64,
    /// Coefficient of variation of the multiplicative noise.
    pub noise_cv: f64,
}

impl RuntimeModel {
    /// The noise-free expected runtime in seconds.
    pub fn expected(&self, input_bytes: f64) -> f64 {
        self.base_seconds + self.seconds_per_gb * input_bytes / 1e9
    }

    /// Draws a runtime sample, floored at one second.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, input_bytes: f64) -> f64 {
        let noise = sampling::multiplicative_noise(rng, self.noise_cv);
        (self.expected(input_bytes) * noise).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn input_models_sample_within_expected_ranges() {
        let mut rng = StdRng::seed_from_u64(1);
        let u = InputModel::Uniform { lo: 1e9, hi: 2e9 };
        let l = InputModel::LogUniform { lo: 1e6, hi: 1e9 };
        let n = InputModel::Normal {
            mean: 5e9,
            std_dev: 1e9,
            min: 1e9,
        };
        for _ in 0..500 {
            let su = u.sample(&mut rng);
            assert!((1e9..2e9).contains(&su));
            let sl = l.sample(&mut rng);
            assert!((1e6..1e9).contains(&sl));
            assert!(n.sample(&mut rng) >= 1e9);
        }
    }

    #[test]
    fn input_typical_is_central() {
        assert_eq!(InputModel::Uniform { lo: 2.0, hi: 4.0 }.typical(), 3.0);
        assert_eq!(
            InputModel::Normal {
                mean: 7.0,
                std_dev: 1.0,
                min: 0.0
            }
            .typical(),
            7.0
        );
        let log_typ = InputModel::LogUniform { lo: 1e2, hi: 1e4 }.typical();
        assert!((log_typ - 1e3).abs() < 1.0);
    }

    #[test]
    fn linear_memory_model_is_linear_in_expectation() {
        let m = MemoryModel::Linear {
            slope: 4.0,
            intercept: 1e9,
            noise_cv: 0.0,
        };
        assert_eq!(m.expected(0.0), 1e9);
        assert_eq!(m.expected(1e9), 5e9);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(m.sample(&mut rng, 1e9), 5e9);
    }

    #[test]
    fn power_model_grows_superlinearly() {
        let m = MemoryModel::Power {
            coefficient: 1e9,
            scale: 1e9,
            exponent: 2.0,
            intercept: 0.0,
            noise_cv: 0.0,
        };
        let a = m.expected(1e9);
        let b = m.expected(2e9);
        assert!((b / a - 4.0).abs() < 1e-9, "quadratic growth expected");
    }

    #[test]
    fn threshold_model_switches_regimes() {
        let m = MemoryModel::Threshold {
            threshold: 1e9,
            below_mean: 1e9,
            above_mean: 8e9,
            noise_cv: 0.0,
        };
        assert_eq!(m.expected(0.5e9), 1e9);
        assert_eq!(m.expected(2e9), 8e9);
    }

    #[test]
    fn saturating_model_approaches_ceiling() {
        let m = MemoryModel::Saturating {
            ceiling: 10e9,
            floor: 1e9,
            scale: 1e9,
            noise_cv: 0.0,
        };
        assert!(m.expected(0.0) - 1e9 < 1e-6);
        assert!(m.expected(10e9) > 9.9e9);
        assert!(m.expected(10e9) < 10e9);
    }

    #[test]
    fn constant_model_ignores_input() {
        let m = MemoryModel::Constant {
            mean: 3e9,
            noise_cv: 0.0,
        };
        assert_eq!(m.expected(1.0), m.expected(1e12));
    }

    #[test]
    fn memory_samples_are_floored() {
        let m = MemoryModel::Constant {
            mean: 1.0,
            noise_cv: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(m.sample(&mut rng, 0.0), 16e6);
    }

    #[test]
    fn memory_noise_spreads_samples() {
        let m = MemoryModel::Linear {
            slope: 1.0,
            intercept: 1e9,
            noise_cv: 0.3,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let samples: Vec<f64> = (0..200).map(|_| m.sample(&mut rng, 1e9)).collect();
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max / min > 1.5, "noise should spread samples: {min}..{max}");
    }

    #[test]
    fn drift_spec_is_identity_before_the_changepoint_and_transforms_after() {
        let drift = DriftSpec {
            changepoint: 10,
            memory_scale: 2.0,
            slope_delta_bytes_per_input_byte: 1.0,
        };
        assert_eq!(drift.apply(9, 1e9, 4e9), 4e9);
        assert_eq!(drift.apply(10, 1e9, 4e9), 9e9);
        assert_eq!(drift.apply(11, 0.0, 4e9), 8e9);
        // The 16 MB floor holds even under shrinking drift.
        let shrink = DriftSpec::scale_shift(0, 0.0);
        assert_eq!(shrink.apply(5, 1e9, 4e9), 16e6);
        // The identity drift really is the identity.
        let id = DriftSpec::scale_shift(0, 1.0);
        assert_eq!(id.apply(0, 123.0, 7.5e9), 7.5e9);
    }

    #[test]
    fn runtime_model_scales_with_input() {
        let r = RuntimeModel {
            base_seconds: 60.0,
            seconds_per_gb: 30.0,
            noise_cv: 0.0,
        };
        assert_eq!(r.expected(0.0), 60.0);
        assert_eq!(r.expected(2e9), 120.0);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(r.sample(&mut rng, 2e9) >= 1.0);
    }
}
