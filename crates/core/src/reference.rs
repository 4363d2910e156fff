//! The paper's decision layer (§II-C–E) as plain code: the test oracle the
//! optimised predict path is held to.
//!
//! Every function implements one equation or rule of the paper, headed by
//! the section it comes from. Nothing here is tuned for speed: vectors are
//! allocated per call, no per-pair score is cached, windows are taken by
//! slicing the full histories and nothing is ever trimmed. The library
//! kernels (`raq`, `gating`, `offset`, `failure`, the pool's gated pipeline)
//! must agree with these functions **bit for bit**, so summation orders
//! match theirs — a constraint on the fast path, not on this file.
//!
//! [`ReferenceSizey`] shadows one [`SizeyPredictor`]. It never trains a
//! model: before each observe (and on each predict) it reads the live
//! pool's fitted-member estimates and observation count, which carry
//! everything training decides (incremental updates, full, drift and
//! window-trim retrains). It keeps its own prequential pairs, aggregate
//! pairs and maximum observed peak, and derives every allocation from them
//! with the functions below.
//!
//! A change to a Sizey decision edits this file first, citing the sentence
//! of the paper that justifies it.

use crate::config::{
    GatingStrategy, OffsetMode, SizeyConfig, COLD_START_OBSERVATIONS, MIN_HISTORY,
};
use crate::offset::OffsetStrategy;
use crate::pool::{PoolScratch, ACCURACY_WINDOW, OFFSET_HISTORY_WINDOW};
use crate::sizey::SizeyPredictor;
use sizey_ml::metrics::{median, std_dev};
use sizey_ml::model::ModelClass;
use sizey_provenance::{TaskMachineKey, TaskOutcome, TaskRecord};
use sizey_sim::{AttemptContext, Prediction, TaskSubmission};
use std::collections::BTreeMap;

/// §II-C, Eq. 1 — accuracy score of one model: the mean over its last
/// [`ACCURACY_WINDOW`] prequential `(prediction, actual)` pairs of
/// `1 − min(|prediction − actual| / actual, 1)`. A zero actual scores 1 for
/// a zero prediction and 0 otherwise; no history scores 0.
pub(crate) fn accuracy(pairs: &[(f64, f64)]) -> f64 {
    let window = &pairs[pairs.len().saturating_sub(ACCURACY_WINDOW)..];
    if window.is_empty() {
        return 0.0;
    }
    let sum: f64 = window
        .iter()
        .map(|&(prediction, actual)| {
            let error = if actual == 0.0 {
                if prediction == 0.0 {
                    0.0
                } else {
                    1.0
                }
            } else {
                ((prediction - actual) / actual).abs().min(1.0)
            };
            1.0 - error
        })
        .sum();
    (sum / window.len() as f64).clamp(0.0, 1.0)
}

/// §II-C, Eq. 2 — efficiency score of each estimate: `1 − estimate / max`
/// over the pool's current estimates, so the largest scores 0. A pool whose
/// maximum is not positive and finite scores 0 throughout.
pub(crate) fn efficiency(estimates: &[f64]) -> Vec<f64> {
    let max = estimates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if estimates.is_empty() || !max.is_finite() || max <= 0.0 {
        return vec![0.0; estimates.len()];
    }
    estimates
        .iter()
        .map(|&estimate| (1.0 - estimate / max).clamp(0.0, 1.0))
        .collect()
}

/// §II-C, Eq. 3 — RAQ score `(1 − α) · AS + α · ES`, α clamped to `[0, 1]`.
pub(crate) fn raq(accuracies: &[f64], estimates: &[f64], alpha: f64) -> Vec<f64> {
    let alpha = alpha.clamp(0.0, 1.0);
    accuracies
        .iter()
        .zip(efficiency(estimates))
        .map(|(&accuracy, efficiency)| {
            ((1.0 - alpha) * accuracy + alpha * efficiency).clamp(0.0, 1.0)
        })
        .collect()
}

/// The outcome of gating: the aggregate estimate, one weight per model and
/// the index of the heaviest model.
#[derive(Debug)]
pub(crate) struct Gate {
    pub estimate: f64,
    pub weights: Vec<f64>,
    pub dominant: usize,
}

/// A gate's bit patterns, for bit-equality assertions.
pub(crate) fn gate_bits(gate: &Gate) -> (u64, Vec<u64>, usize) {
    let weights = gate.weights.iter().map(|w| w.to_bits()).collect();
    (gate.estimate.to_bits(), weights, gate.dominant)
}

/// Index of the largest value; the first one wins ties.
fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &value) in values.iter().enumerate() {
        if value > values[best] {
            best = i;
        }
    }
    best
}

/// §II-D — gating. Argmax hands all weight to the model with the highest
/// RAQ score. Interpolation (Eq. 4) weights model `i` by
/// `exp(β · RAQ_i) / Σ_j exp(β · RAQ_j)`, β clamped at 1, shifted by the
/// largest score for numerical stability, and returns the weighted mean.
pub(crate) fn gate(strategy: GatingStrategy, estimates: &[f64], raq: &[f64]) -> Gate {
    match strategy {
        GatingStrategy::Argmax => {
            let best = argmax(raq);
            let mut weights = vec![0.0; estimates.len()];
            weights[best] = 1.0;
            Gate {
                estimate: estimates[best],
                weights,
                dominant: best,
            }
        }
        GatingStrategy::Interpolation { beta } => {
            let beta = beta.max(1.0);
            let max = raq.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = raq.iter().map(|s| (beta * (s - max)).exp()).collect();
            let sum: f64 = exps.iter().sum();
            let weights: Vec<f64> = exps.iter().map(|e| e / sum).collect();
            let estimate = estimates.iter().zip(&weights).map(|(e, w)| e * w).sum();
            Gate {
                estimate,
                dominant: argmax(&weights),
                weights,
            }
        }
    }
}

/// §II-E — the four offset strategies over `(prediction, actual)` pairs,
/// with error `actual − prediction` (positive = under-prediction): the
/// standard deviation of all errors or of the under-predictions, and the
/// median absolute error or the median under-prediction. Never negative.
pub(crate) fn strategy_offset(strategy: OffsetStrategy, history: &[(f64, f64)]) -> f64 {
    let errors: Vec<f64> = history
        .iter()
        .map(|&(pred, actual)| actual - pred)
        .collect();
    let under: Vec<f64> = errors.iter().copied().filter(|e| *e > 0.0).collect();
    let value = match strategy {
        OffsetStrategy::StdDev => std_dev(&errors),
        OffsetStrategy::StdDevUnderpredictions => std_dev(&under),
        OffsetStrategy::MedianError => {
            median(&errors.iter().map(|e| e.abs()).collect::<Vec<f64>>())
        }
        OffsetStrategy::MedianErrorUnderpredictions => median(&under),
    };
    value.max(0.0)
}

/// §II-E — the wastage sizing `history` with `prediction + offset` would
/// have caused, in bytes: a sufficient allocation wastes its surplus, an
/// insufficient one wastes itself plus a retry priced at `2 × actual`.
fn offset_wastage(history: &[(f64, f64)], offset: f64) -> f64 {
    history
        .iter()
        .map(|&(pred, actual)| {
            let allocation = pred + offset;
            if allocation >= actual {
                allocation - actual
            } else {
                allocation + 2.0 * actual
            }
        })
        .sum()
}

/// §II-E — dynamic offset selection: the strategy whose offset would have
/// wasted least on `history`, first in [`OffsetStrategy::ALL`] on ties (and
/// std-dev if every cost is infinite or NaN).
pub(crate) fn dynamic_offset(history: &[(f64, f64)]) -> (OffsetStrategy, f64) {
    let mut best = (
        OffsetStrategy::StdDev,
        strategy_offset(OffsetStrategy::StdDev, history),
    );
    let mut best_cost = f64::INFINITY;
    for strategy in OffsetStrategy::ALL {
        let offset = strategy_offset(strategy, history);
        let cost = offset_wastage(history, offset);
        if cost < best_cost {
            best_cost = cost;
            best = (strategy, offset);
        }
    }
    best
}

/// §II-E — the offset a pool adds, over its last [`OFFSET_HISTORY_WINDOW`]
/// `(aggregate estimate, actual)` pairs.
pub(crate) fn offset(mode: OffsetMode, aggregate: &[(f64, f64)]) -> f64 {
    let window = &aggregate[aggregate.len().saturating_sub(OFFSET_HISTORY_WINDOW)..];
    match mode {
        OffsetMode::None => 0.0,
        OffsetMode::Fixed(strategy) => strategy_offset(strategy, window),
        OffsetMode::Dynamic => dynamic_offset(window).1,
    }
}

/// First-attempt allocation: estimate plus offset, never negative. Cold
/// start: while the pool has seen fewer than [`COLD_START_OBSERVATIONS`]
/// tasks and an offset policy is active, keep 15 % head-room over the raw
/// estimate.
pub(crate) fn first_attempt_allocation(
    config: &SizeyConfig,
    estimate: f64,
    offset: f64,
    n_observations: usize,
) -> f64 {
    let allocation = (estimate + offset).max(0.0);
    if config.offset != OffsetMode::None && n_observations < COLD_START_OBSERVATIONS {
        allocation.max(estimate * 1.15)
    } else {
        allocation
    }
}

/// §II-E, failure handling — retry `attempt` (≥ 1) of a failed task
/// allocates the maximum memory ever observed for its pool (never less than
/// the failed allocation), and every further retry doubles it.
pub(crate) fn retry_allocation(
    max_observed: Option<f64>,
    failed_allocation: f64,
    attempt: u32,
) -> f64 {
    let base = max_observed.map_or(failed_allocation, |m| m.max(failed_allocation));
    base * 2f64.powi(attempt as i32 - 1)
}

/// What the reference remembers of one (task type, machine) pool.
#[derive(Debug, Default)]
struct PoolHistory {
    /// Every prequential `(prediction, actual)` pair, per model class.
    prequential: BTreeMap<ModelClass, Vec<(f64, f64)>>,
    /// Every `(aggregate estimate, actual)` pair.
    aggregate: Vec<(f64, f64)>,
    /// Largest successful peak or exhausted allocation.
    max_observed: Option<f64>,
}

/// §II-C–D for one query: the RAQ-gated aggregate of the pool's estimates
/// and the dominant model, or `None` while the pool has fewer than
/// [`MIN_HISTORY`] observations or no member can estimate.
fn gated(
    config: &SizeyConfig,
    history: &PoolHistory,
    n_observations: usize,
    estimates: &[(ModelClass, f64)],
) -> Option<(f64, ModelClass)> {
    if n_observations < MIN_HISTORY || estimates.is_empty() {
        return None;
    }
    let accuracies: Vec<f64> = estimates
        .iter()
        .map(|(class, _)| history.prequential.get(class).map_or(0.0, |p| accuracy(p)))
        .collect();
    let values: Vec<f64> = estimates.iter().map(|&(_, v)| v).collect();
    let decision = gate(
        config.gating,
        &values,
        &raq(&accuracies, &values, config.alpha),
    );
    Some((decision.estimate, estimates[decision.dominant].0))
}

/// Shadows one [`SizeyPredictor`]: call [`observe`](Self::observe) before
/// the live predictor observes the same record, and
/// [`predict`](Self::predict) to get what the paper says the live
/// predictor's answer must be.
pub(crate) struct ReferenceSizey {
    config: SizeyConfig,
    pools: BTreeMap<TaskMachineKey, PoolHistory>,
}

impl ReferenceSizey {
    pub(crate) fn new(config: SizeyConfig) -> Self {
        ReferenceSizey {
            config,
            pools: BTreeMap::new(),
        }
    }

    /// The live pool's observation count and its fitted members'
    /// non-negative, finite estimates for `input` (`None` without a pool).
    fn live_pool(
        live: &SizeyPredictor,
        key: &TaskMachineKey,
        input: f64,
    ) -> Option<(usize, Vec<(ModelClass, f64)>)> {
        let pool = live.pool_for(key)?;
        let mut scratch = PoolScratch::default();
        pool.individual_estimates_into(input, &mut scratch);
        Some((pool.n_observations(), scratch.estimates))
    }

    /// Records one completed attempt, reading the live pool as it was
    /// before learning from it.
    pub(crate) fn observe(&mut self, live: &SizeyPredictor, record: &TaskRecord) {
        let key = record.key();
        let live_pool = Self::live_pool(live, &key, record.input_bytes);
        let history = self.pools.entry(key).or_default();
        let observed = match record.outcome {
            TaskOutcome::Succeeded => {
                let peak = record.peak_memory_bytes;
                if let Some((n_observations, estimates)) = live_pool {
                    // Prequential: each member is scored on what it would
                    // have predicted before seeing this task, and the offset
                    // history on the aggregate those scores gate.
                    for &(class, estimate) in &estimates {
                        history
                            .prequential
                            .entry(class)
                            .or_default()
                            .push((estimate, peak));
                    }
                    if let Some((estimate, _)) =
                        gated(&self.config, history, n_observations, &estimates)
                    {
                        history.aggregate.push((estimate, peak));
                    }
                }
                peak
            }
            TaskOutcome::FailedOutOfMemory => record.allocated_memory_bytes,
        };
        if observed.is_finite() {
            history.max_observed = Some(history.max_observed.map_or(observed, |m| m.max(observed)));
        }
    }

    /// The allocation the paper prescribes for `task` at `ctx`.
    pub(crate) fn predict(
        &self,
        live: &SizeyPredictor,
        task: &TaskSubmission,
        ctx: AttemptContext,
    ) -> Prediction {
        let key = task.key();
        let history = self.pools.get(&key);
        let preset = Prediction {
            allocation_bytes: task.preset_memory_bytes,
            raw_estimate_bytes: None,
            selected_model: None,
        };
        if ctx.attempt > 0 {
            let failed = ctx
                .last_allocation_bytes
                .unwrap_or(task.preset_memory_bytes);
            return Prediction {
                allocation_bytes: retry_allocation(
                    history.and_then(|h| h.max_observed),
                    failed,
                    ctx.attempt,
                ),
                ..preset
            };
        }
        // Unknown task types are sized by the user preset.
        let Some(history) = history else {
            return preset;
        };
        let (n_observations, estimates) = Self::live_pool(live, &key, task.input_bytes)
            .expect("the live predictor has a pool for every observed key");
        let Some((estimate, dominant)) = gated(&self.config, history, n_observations, &estimates)
        else {
            return preset;
        };
        let offset = offset(self.config.offset, &history.aggregate);
        Prediction {
            allocation_bytes: first_attempt_allocation(
                &self.config,
                estimate,
                offset,
                n_observations,
            ),
            raw_estimate_bytes: Some(estimate),
            selected_model: Some(dominant.name()),
        }
    }
}

mod tests {
    use super::*;
    use crate::config::DriftPolicy;
    use crate::gating::gate_with;
    use crate::offset::{select_dynamic_offset_with, OffsetScratch};
    use crate::pool::ModelPool;
    use crate::raq::{accuracy_score_cached, pair_accuracy, pool_raq_scores_into};
    use proptest::prelude::*;
    use sizey_provenance::{MachineId, TaskTypeId};
    use sizey_sim::MemoryPredictor;

    /// (task type, machine) pairs of the oracle stream; the first draws two
    /// thirds of the records so its histories outgrow every window.
    const KEYS: [(&str, &str); 3] = [("align", "m1"), ("align", "m2"), ("sort", "m1")];

    fn bits(p: &Prediction) -> (u64, Option<u64>, Option<&'static str>) {
        (
            p.allocation_bytes.to_bits(),
            p.raw_estimate_bytes.map(f64::to_bits),
            p.selected_model,
        )
    }

    /// A value drawn from the numerical edges {0, subnormal, 1, 1e300} or,
    /// half the time, an ordinary one.
    fn edge((pick, ordinary): (usize, f64)) -> f64 {
        match pick {
            0 => 0.0,
            1 => f64::MIN_POSITIVE / 3.0,
            2 => 1.0,
            3 => 1e300,
            _ => ordinary,
        }
    }

    /// The flags in `key`'s drift window. An observe that empties a
    /// non-empty window fired the detector: nothing else clears it.
    fn drift_flags(live: &SizeyPredictor, key: &TaskMachineKey) -> usize {
        live.pool_for(key).map_or(0, ModelPool::drift_flags_len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The oracle: a live predictor and its reference shadow see the
        /// same stream of first attempts, OOM failures, retries and
        /// successes, and every prediction agrees bit for bit.
        #[test]
        fn predictor_matches_the_paper_reference(
            alpha in 0.0f64..1.0,
            gating in (0u8..2, 0.25f64..16.0),
            offset_mode in 0usize..6,
            bounds in (0usize..3, 4usize..24),
            drift_on in 0u8..2,
            pool in (1usize..16, 0usize..30),
            stream in prop::collection::vec((0usize..6, 1.0e9f64..20.0e9, 0.6f64..1.6), 40..200),
        ) {
            let (window_on, window) = bounds;
            let (class_mask, retrain_interval) = pool;
            let config = SizeyConfig {
                alpha,
                gating: if gating.0 == 0 {
                    GatingStrategy::Argmax
                } else {
                    GatingStrategy::Interpolation { beta: gating.1 }
                },
                offset: match offset_mode {
                    0 => OffsetMode::None,
                    1 => OffsetMode::Dynamic,
                    i => OffsetMode::Fixed(OffsetStrategy::ALL[i - 2]),
                },
                retrain_interval,
                model_classes: ModelClass::ALL
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| class_mask & (1 << i) != 0)
                    .map(|(_, class)| class)
                    .collect(),
                history_window: (window_on == 1).then_some(window),
                drift: if drift_on == 1 {
                    DriftPolicy::Retrain
                } else {
                    DriftPolicy::Off
                },
                ..SizeyConfig::default()
            };
            let mut live = SizeyPredictor::new(config.clone());
            let mut reference = ReferenceSizey::new(config);
            let mut fires = 0;
            for (i, &(key, input, noise)) in stream.iter().enumerate() {
                let (task_type, machine) = KEYS[key.saturating_sub(3)];
                // A regime change half-way makes the detector fire.
                let regime = if i < stream.len() / 2 { 1.0 } else { 2.5 };
                let peak = (1.5 * input + 1e9) * noise * regime;
                let task = TaskSubmission {
                    workflow: "wf".into(),
                    task_type: TaskTypeId::new(task_type),
                    machine: MachineId::new(machine),
                    sequence: i as u64,
                    input_bytes: input,
                    preset_memory_bytes: 24e9,
                };
                let mut ctx = AttemptContext::first();
                loop {
                    let got = live.predict(&task, ctx);
                    let want = reference.predict(&live, &task, ctx);
                    prop_assert_eq!(bits(&got), bits(&want), "record {} attempt {}", i, ctx.attempt);
                    let succeeded = got.allocation_bytes >= peak;
                    let record = TaskRecord {
                        workflow: "wf".into(),
                        task_type: task.task_type.clone(),
                        machine: task.machine.clone(),
                        sequence: i as u64,
                        input_bytes: input,
                        peak_memory_bytes: if succeeded { peak } else { got.allocation_bytes },
                        allocated_memory_bytes: got.allocation_bytes,
                        runtime_seconds: 60.0,
                        concurrent_tasks: 1,
                        queue_delay_seconds: 0.0,
                        outcome: if succeeded {
                            TaskOutcome::Succeeded
                        } else {
                            TaskOutcome::FailedOutOfMemory
                        },
                    };
                    reference.observe(&live, &record);
                    let key = record.key();
                    let before = drift_flags(&live, &key);
                    live.observe(&record);
                    if before > 0 && drift_flags(&live, &key) == 0 {
                        fires += 1;
                    }
                    if succeeded || ctx.attempt == 4 {
                        break;
                    }
                    ctx = AttemptContext::retry(ctx.attempt + 1, got.allocation_bytes);
                }
                // An unknown key, and a retry the engine kept no allocation for.
                let mut probe = task.clone();
                probe.task_type = TaskTypeId::new("unseen");
                let first = AttemptContext::first();
                prop_assert_eq!(bits(&live.predict(&probe, first)), bits(&reference.predict(&live, &probe, first)));
                let orphan = AttemptContext { attempt: 2, last_allocation_bytes: None };
                prop_assert_eq!(bits(&live.predict(&task, orphan)), bits(&reference.predict(&live, &task, orphan)));
            }
            // The regime change must exercise the drift response, not just
            // the detector's bookkeeping.
            prop_assert_eq!(fires > 0, drift_on == 1, "{} drift fires", fires);
        }

        /// The kernels against the reference at numerical edges: estimates
        /// and peaks from {0, subnormal, 1, 1e300} plus ordinary values.
        #[test]
        fn kernels_match_the_reference_at_numerical_edges(
            estimates in prop::collection::vec((0usize..8, 1.0f64..1e12), 1..7),
            pairs in prop::collection::vec(((0usize..8, 1.0f64..1e12), (0usize..8, 1.0f64..1e12)), 0..90),
            zero_pool in 0u8..4,
            alpha in 0.0f64..1.0,
            beta in 0.0f64..32.0,
        ) {
            // One pool in four estimates all zeros: Eq. 2's `max ≤ 0` branch.
            let estimates: Vec<f64> = estimates
                .into_iter()
                .map(|e| if zero_pool == 0 { 0.0 } else { edge(e) })
                .collect();
            let pairs: Vec<(f64, f64)> = pairs.into_iter().map(|(p, a)| (edge(p), edge(a))).collect();
            // Member i is scored on the pairs from i on.
            let histories: Vec<&[(f64, f64)]> =
                (0..estimates.len()).map(|i| &pairs[i.min(pairs.len())..]).collect();
            let accuracies: Vec<f64> = histories
                .iter()
                .map(|h| {
                    let window = &h[h.len().saturating_sub(ACCURACY_WINDOW)..];
                    let scores: Vec<f64> = window.iter().map(|&(p, a)| pair_accuracy(p, a)).collect();
                    let kernel = accuracy_score_cached(&scores);
                    (kernel.to_bits() == accuracy(h).to_bits()).then_some(kernel)
                })
                .collect::<Option<_>>()
                .expect("Eq. 1 kernel equals the reference");
            let mut scores = Vec::new();
            pool_raq_scores_into(&accuracies, &estimates, alpha, &mut scores);
            let expected = raq(&accuracies, &estimates, alpha);
            prop_assert_eq!(
                scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                expected.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
            );
            prop_assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)), "RAQ {:?}", scores);
            if zero_pool == 0 {
                prop_assert!(efficiency(&estimates).iter().all(|&e| e == 0.0));
            }
            for strategy in [GatingStrategy::Argmax, GatingStrategy::Interpolation { beta }] {
                let mut weights = Vec::new();
                let (estimate, dominant) = gate_with(strategy, &estimates, &scores, &mut weights);
                let kernel = Gate { estimate, weights, dominant };
                prop_assert_eq!(gate_bits(&kernel), gate_bits(&gate(strategy, &estimates, &scores)));
                let sum: f64 = kernel.weights.iter().sum();
                prop_assert!((sum - 1.0).abs() <= 1e-12, "weights sum to {}", sum);
            }
            let mut scratch = OffsetScratch::default();
            for strategy in OffsetStrategy::ALL {
                prop_assert_eq!(
                    strategy.offset_with(&pairs, &mut scratch).to_bits(),
                    strategy_offset(strategy, &pairs).to_bits()
                );
            }
            let (strategy, chosen) = select_dynamic_offset_with(&pairs, &mut scratch);
            let (want_strategy, want) = dynamic_offset(&pairs);
            prop_assert_eq!((strategy, chosen.to_bits()), (want_strategy, want.to_bits()));
        }
    }
}
