//! The Sizey predictor: the paper's method end to end, behind the split
//! read/write predictor API.
//!
//! For every submitted task, Sizey
//!
//! 1. looks up the provenance history of the (task type, machine)
//!    combination; unknown task types fall back to the user preset,
//! 2. lets every pool member produce an estimate, scores them with the RAQ
//!    score, and gates them into a single estimate (Argmax or Interpolation),
//! 3. adds a dynamically selected safety offset,
//! 4. on failure escalates to the maximum memory ever observed and then
//!    doubles,
//! 5. after every completed task updates its models online (incremental or
//!    full retrain).
//!
//! Steps 1–4 are the **read path**: [`SizeyPredictor`] implements
//! [`MemoryPredictor::predict`] on `&self`, so any number of threads can
//! size tasks concurrently (the concurrent serving layer in
//! [`crate::serve`] relies on this). Step 5 is the **write path**,
//! [`MemoryPredictor::observe`] on `&mut self` — the only place model state
//! changes. The predictor holds **no per-task retry state**: the allocation
//! a retry escalates from arrives in the engine-owned
//! [`AttemptContext`], which is what makes leaks
//! of in-flight bookkeeping structurally impossible (terminally failed
//! tasks used to strand an `inflight_allocations` entry forever).

// Serving threads size tasks through this module on every submission;
// the marker opts it into the no-panic-hot-path lint rule.
#![doc = "lint:hot-path"]

use crate::config::{OffsetMode, SizeyConfig, COLD_START_OBSERVATIONS};
use crate::failure::failure_allocation;
use crate::offset::{select_dynamic_offset_with, OffsetScratch};
use crate::pool::{ModelPool, PoolScratch};
use sizey_provenance::{ProvenanceStore, TaskMachineKey, TaskOutcome, TaskRecord};
use sizey_sim::{
    AttemptContext, CheckpointPredictor, MemoryPredictor, Prediction, PredictorState, StateError,
    TaskSubmission,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

thread_local! {
    /// Scratch buffers for the read path. `predict` is `&self` and may run
    /// on any number of threads concurrently, so the buffers are recycled
    /// per thread rather than per predictor; after the first prediction on a
    /// thread the steady-state predict path performs zero heap allocations
    /// (asserted by the counting-allocator harness behind
    /// `cargo xtask lint --dynamic`). `observe` borrows the same buffers for
    /// its pre-learning aggregate estimate and its model-update datasets.
    static POOL_SCRATCH: RefCell<PoolScratch> = RefCell::new(PoolScratch::default());
}

/// The Sizey online memory predictor.
///
/// Cloning produces an independent predictor whose `predict` results are
/// bit-identical to the original's at the moment of the clone, and which
/// neither side can change for the other afterwards. The pools are shared
/// copy-on-write (the first `observe` of a key on either side copies that
/// key's pool, nothing else) and the provenance store is copied. What the
/// serving layer publishes for lock-free reads is the cheaper
/// [`published_view`](SizeyPredictor::published_view), not a clone.
#[derive(Clone)]
pub struct SizeyPredictor {
    config: SizeyConfig,
    // A BTreeMap, not HashMap: the snapshot and diagnostics paths iterate
    // the pools, and the deterministic-replay contract needs a stable,
    // platform-independent order (enforced by the no-hash-iter lint).
    //
    // Each pool sits behind its own `Arc` and every writer goes through
    // `Arc::make_mut`: a clone or a published view shares all pools with
    // this predictor, and a pool is copied only when one side writes to it
    // while the other still holds it.
    pools: BTreeMap<TaskMachineKey, Arc<ModelPool>>,
    store: ProvenanceStore,
}

impl std::fmt::Debug for SizeyPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SizeyPredictor")
            .field("pools", &self.pools.len())
            .field("records", &self.store.len())
            .field("config", &self.config)
            .finish()
    }
}

impl SizeyPredictor {
    /// Creates a Sizey predictor with the given configuration.
    ///
    /// # Panics
    ///
    /// If `config.alpha` is NaN.
    pub fn new(config: SizeyConfig) -> Self {
        crate::config::assert_alpha_is_a_number(config.alpha);
        // A bounded-history predictor also bounds its provenance store, the
        // journal snapshots are taken from. Predictions read only the pools
        // (the retry escalation's per-key maximum included), so retaining a
        // recent window keeps memory O(window) and costs only restorability:
        // `restore` refuses a snapshot taken after the store evicted.
        let store = match config.history_window {
            Some(window) => ProvenanceStore::with_retention(window.max(1)),
            None => ProvenanceStore::new(),
        };
        SizeyPredictor {
            config,
            pools: BTreeMap::new(),
            store,
        }
    }

    /// The read-only view the serving layer publishes for lock-free
    /// predicts: everything [`predict`](MemoryPredictor::predict) reads —
    /// the configuration and the pools, **shared** with this predictor — and
    /// nothing it does not: the view's provenance store is empty (so it
    /// snapshots to an empty journal). Its cost
    /// is one map of `Arc` bumps, whatever the pools hold.
    ///
    /// The view is immutable in effect: this predictor's later writes copy
    /// the pools they touch instead of changing the view's.
    pub fn published_view(&self) -> SizeyPredictor {
        SizeyPredictor {
            config: self.config.clone(),
            pools: self.pools.clone(),
            store: ProvenanceStore::new(),
        }
    }

    /// Re-allocates every pool, in key order, as a fresh clone of itself.
    /// Learned state is unchanged; only where it lives moves. A pool grown
    /// one observe at a time (seeding, [`restore`](Self::restore)) ends up
    /// scattered across the heap between the other pools' pieces, while a
    /// clone is laid out in one go — at 2,000 keys that is ~0.5 µs of a
    /// ~1.9 µs predict. The serving layer packs each shard once before it
    /// publishes the first view; after that every copy-on-write copy is a
    /// packed one anyway.
    pub fn pack_pools(&mut self) {
        for pool in self.pools.values_mut() {
            *pool = Arc::new(ModelPool::clone(pool));
        }
    }

    /// Number of keys whose pool is the same allocation here and in `other`
    /// — what a clone or [`published_view`](SizeyPredictor::published_view)
    /// still shares with the predictor it came from (memory diagnostics).
    pub fn pools_shared_with(&self, other: &SizeyPredictor) -> usize {
        self.pools
            .iter()
            .filter(|(key, pool)| {
                other
                    .pools
                    .get(*key)
                    .is_some_and(|theirs| Arc::ptr_eq(pool, theirs))
            })
            .count()
    }

    /// Creates a Sizey predictor with the paper's default configuration
    /// (α = 0, Interpolation gating, dynamic offset, incremental updates).
    pub fn with_defaults() -> Self {
        SizeyPredictor::new(SizeyConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &SizeyConfig {
        &self.config
    }

    /// The internal provenance store (all observed records).
    pub fn provenance(&self) -> &ProvenanceStore {
        &self.store
    }

    /// Number of (task type, machine) pools instantiated so far.
    pub fn n_pools(&self) -> usize {
        self.pools.len()
    }

    /// Total full retrains run across all pools (the sum of the pools'
    /// model epochs).
    pub fn total_full_retrains(&self) -> u64 {
        self.pools.values().map(|pool| pool.model_epoch()).sum()
    }

    /// Per-pool completions since the last full retrain (diagnostics; also
    /// exercised by the lifecycle round-trip tests to pin the counter's
    /// snapshot/restore behaviour).
    pub fn since_full_retrain(&self) -> BTreeMap<TaskMachineKey, usize> {
        self.pools
            .iter()
            .map(|(key, pool)| (key.clone(), pool.since_full_retrain()))
            .collect()
    }

    /// The pool of a (task type, machine) key, once it has one. The key is
    /// two shared handles, so a caller builds it without copying a string.
    pub(crate) fn pool_for(&self, key: &TaskMachineKey) -> Option<&ModelPool> {
        self.pools.get(key).map(Arc::as_ref)
    }

    /// Computes the offset for the given pool's current state. The offset
    /// window ([`crate::pool::OFFSET_HISTORY_WINDOW`]) is borrowed straight
    /// from the pool's aggregate history — no per-predict copy of the window.
    fn offset_for(&self, pool: &ModelPool, scratch: &mut OffsetScratch) -> f64 {
        let h = pool.aggregate_history();
        // lint:allow(no-panic-hot-path): the range start is
        // saturating_sub-clamped to at most h.len(), so the window slice
        // cannot be out of bounds for any history length.
        let history = &h[h.len().saturating_sub(crate::pool::OFFSET_HISTORY_WINDOW)..];
        if history.is_empty() {
            return 0.0;
        }
        match self.config.offset {
            OffsetMode::None => 0.0,
            OffsetMode::Fixed(strategy) => strategy.offset_with(history, scratch),
            OffsetMode::Dynamic => select_dynamic_offset_with(history, scratch).1,
        }
    }
}

impl MemoryPredictor for SizeyPredictor {
    fn name(&self) -> String {
        "Sizey".to_string()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        if ctx.attempt > 0 {
            // Failure handling: maximum ever observed, then doubling (the
            // engine clamps the grant to the largest node). The failed
            // attempt's allocation is engine-owned state handed in
            // through the context; with no record of it, escalation starts
            // from the user preset.
            let last = ctx
                .last_allocation_bytes
                .unwrap_or(task.preset_memory_bytes);
            let max_observed = self.pool_for(&task.key()).and_then(ModelPool::max_observed);
            return Prediction {
                allocation_bytes: failure_allocation(max_observed, last, ctx.attempt),
                raw_estimate_bytes: None,
                selected_model: None,
            };
        }

        // One pool lookup serves the whole first-attempt path, which learns
        // from the input size alone, the paper's one feature.
        let Some(pool) = self.pool_for(&task.key()) else {
            // Unknown task type: submit with the user-provided, usually
            // conservative estimate.
            return Prediction {
                allocation_bytes: task.preset_memory_bytes,
                raw_estimate_bytes: None,
                selected_model: None,
            };
        };
        POOL_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            match pool.gated_estimate_with(task.input_bytes, &self.config, scratch) {
                None => {
                    // Not enough history yet: fall back to the preset.
                    Prediction {
                        allocation_bytes: task.preset_memory_bytes,
                        raw_estimate_bytes: None,
                        selected_model: None,
                    }
                }
                Some(gating) => {
                    let offset = self.offset_for(pool, &mut scratch.offset);
                    let mut allocation = (gating.estimate + offset).max(0.0);
                    // Cold-start guard: while the offset histories are still
                    // too short to be trustworthy, keep a relative head-room
                    // above the raw estimate. A failure of a large,
                    // long-running task costs far more than a few percent of
                    // temporary over-allocation, and the regular offsets
                    // take over once enough history exists.
                    // `OffsetMode::None` promises the raw estimate
                    // untouched, so the guard only applies when an offset
                    // policy is active.
                    if self.config.offset != OffsetMode::None
                        && pool.n_observations() < COLD_START_OBSERVATIONS
                    {
                        allocation = allocation.max(gating.estimate * 1.15);
                    }
                    Prediction {
                        allocation_bytes: allocation,
                        raw_estimate_bytes: Some(gating.estimate),
                        selected_model: Some(gating.dominant.name()),
                    }
                }
            }
        })
    }

    fn observe(&mut self, record: &TaskRecord) {
        self.store.insert(record.clone());
        // The record's key is two shared handles, so one `entry` both finds
        // an existing pool and creates a key's first one without copying a
        // string.
        let shared = self
            .pools
            .entry(record.key())
            .or_insert_with(|| Arc::new(ModelPool::new(&self.config)));
        // Copies the pool first if a clone or published view still holds it.
        let pool = Arc::make_mut(shared);

        match record.outcome {
            TaskOutcome::Succeeded => POOL_SCRATCH.with(|cell| {
                pool.observe_success(
                    record.input_bytes,
                    record.peak_memory_bytes,
                    &self.config,
                    &mut cell.borrow_mut(),
                )
            }),
            TaskOutcome::FailedOutOfMemory => {
                // The exhausted allocation is a lower bound on the true peak.
                pool.observe_failure(record.allocated_memory_bytes, &self.config);
            }
        }
    }
}

/// Event-sourced snapshot/restore: Sizey's learned state — model pools,
/// offset histories, provenance — is a deterministic function of the
/// observation stream (the stochastic pool members are seeded from
/// [`SizeyConfig::seed`]), so the snapshot is the provenance store's record
/// journal. Restoring replays the journal through
/// [`MemoryPredictor::observe`] on a freshly built predictor with the *same
/// configuration*, which reconstructs every pool bit for bit. A bounded
/// [`SizeyConfig::history_window`] store journals only its retained suffix,
/// so such a snapshot says how much it lost and restore refuses it with
/// [`StateError::TruncatedJournal`].
impl CheckpointPredictor for SizeyPredictor {
    fn snapshot(&self) -> PredictorState {
        // The journal *shares* the store's records: `observe` deep-clones
        // each record exactly once into the store's `Arc`, and a snapshot
        // only bumps reference counts.
        PredictorState {
            journal: self.store.all_records(),
            evicted: self.store.evicted(),
        }
    }

    fn restore(&mut self, state: &PredictorState) -> Result<(), StateError> {
        if !self.store.is_empty() {
            return Err(StateError::NotFresh {
                observed: self.store.len(),
            });
        }
        for record in state.replayable_journal()? {
            self.observe(record);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GatingStrategy;
    use sizey_provenance::{MachineId, TaskTypeId};

    /// A NaN α would make every gated estimate NaN, and the offset's
    /// `max(0)` would size the first attempt at 0 bytes.
    #[test]
    #[should_panic(expected = "SizeyConfig::alpha must not be NaN")]
    fn a_nan_alpha_is_refused_at_construction() {
        let _ = SizeyPredictor::new(SizeyConfig {
            alpha: f64::NAN,
            ..SizeyConfig::default()
        });
    }

    fn submission(seq: u64, input: f64) -> TaskSubmission {
        TaskSubmission {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: seq,
            input_bytes: input,
            preset_memory_bytes: 20e9,
        }
    }

    fn success(seq: u64, input: f64, peak: f64) -> TaskRecord {
        TaskRecord {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: seq,
            input_bytes: input,
            peak_memory_bytes: peak,
            allocated_memory_bytes: peak * 1.5,
            runtime_seconds: 60.0,
            concurrent_tasks: 1,
            queue_delay_seconds: 0.0,
            outcome: TaskOutcome::Succeeded,
        }
    }

    /// Teaches the predictor a clean linear relationship peak = 2·input + 1 GB.
    fn train(p: &mut SizeyPredictor, n: u64) {
        for i in 1..=n {
            let input = i as f64 * 1e9;
            p.observe(&success(i, input, 2.0 * input + 1e9));
        }
    }

    #[test]
    fn unknown_task_type_uses_preset() {
        let p = SizeyPredictor::with_defaults();
        let pred = p.predict(&submission(0, 1e9), AttemptContext::first());
        assert_eq!(pred.allocation_bytes, 20e9);
        assert!(pred.raw_estimate_bytes.is_none());
        assert!(pred.selected_model.is_none());
    }

    #[test]
    fn learns_and_beats_the_preset() {
        let mut p = SizeyPredictor::with_defaults();
        train(&mut p, 15);
        let pred = p.predict(&submission(100, 5e9), AttemptContext::first());
        let truth = 11e9;
        assert!(pred.raw_estimate_bytes.is_some());
        assert!(
            pred.allocation_bytes < 20e9,
            "learned allocation {} should beat the 20 GB preset",
            pred.allocation_bytes
        );
        assert!(
            pred.allocation_bytes >= truth * 0.6,
            "allocation {} suspiciously below the true peak {}",
            pred.allocation_bytes,
            truth
        );
        assert!(pred.selected_model.is_some());
    }

    #[test]
    fn drift_policy_adapts_faster_after_a_regime_change() {
        use crate::config::DriftPolicy;
        let mut adaptive =
            SizeyPredictor::new(SizeyConfig::default().with_drift_policy(DriftPolicy::Retrain));
        let mut frozen = SizeyPredictor::with_defaults();
        // Regime A: peak = 2·input + 1 GB over inputs 1..=40 GB, as many
        // rows as a drift trigger keeps.
        train(&mut adaptive, 40);
        train(&mut frozen, 40);
        // Regime B: inputs of 1..=15 GB suddenly need 6·input + 9 GB.
        let mut seq = 41;
        for round in 0..2 {
            for i in 1..=15u64 {
                let input = i as f64 * 1e9;
                let record = success(seq + round * 15 + i, input, 6.0 * input + 9e9);
                adaptive.observe(&record);
                frozen.observe(&record);
            }
        }
        seq += 31;
        let query = submission(seq, 8e9);
        let truth = 6.0 * 8e9 + 9e9;
        let a = adaptive.predict(&query, AttemptContext::first());
        let f = frozen.predict(&query, AttemptContext::first());
        let a_raw = a.raw_estimate_bytes.unwrap();
        let f_raw = f.raw_estimate_bytes.unwrap();
        assert!(
            a_raw > f_raw,
            "the drift-aware predictor ({a_raw:.3e}) should sit above the frozen one \
             ({f_raw:.3e}) after the regime change"
        );
        assert!(
            a_raw >= 0.75 * truth,
            "drift-aware raw estimate {a_raw:.3e} still far below the new-regime truth {truth:.3e}"
        );
    }

    #[test]
    fn offset_makes_allocation_at_least_the_raw_estimate() {
        let mut p = SizeyPredictor::with_defaults();
        train(&mut p, 20);
        let pred = p.predict(&submission(200, 7e9), AttemptContext::first());
        let raw = pred.raw_estimate_bytes.unwrap();
        assert!(pred.allocation_bytes >= raw);
    }

    #[test]
    fn failure_handling_escalates_to_max_observed_then_doubles() {
        let mut p = SizeyPredictor::with_defaults();
        train(&mut p, 10);
        // Max observed peak so far: 2*10 GB + 1 GB = 21 GB.
        let first_retry = p.predict(&submission(50, 3e9), AttemptContext::retry(1, 20e9));
        assert!((first_retry.allocation_bytes - 21e9).abs() < 1e-3);
        let second_retry = p.predict(
            &submission(50, 3e9),
            AttemptContext::retry(2, first_retry.allocation_bytes),
        );
        assert!((second_retry.allocation_bytes - 42e9).abs() < 1e-3);
    }

    #[test]
    fn failed_attempts_raise_the_failure_baseline() {
        let mut p = SizeyPredictor::with_defaults();
        train(&mut p, 5);
        let mut failed = success(60, 3e9, 30e9);
        failed.outcome = TaskOutcome::FailedOutOfMemory;
        failed.allocated_memory_bytes = 30e9;
        p.observe(&failed);
        let retry = p.predict(&submission(61, 3e9), AttemptContext::retry(1, 20e9));
        assert!(retry.allocation_bytes >= 30e9);
    }

    #[test]
    fn argmax_configuration_reports_model_classes() {
        let cfg = SizeyConfig::default().with_gating(GatingStrategy::Argmax);
        let mut p = SizeyPredictor::new(cfg);
        train(&mut p, 12);
        let pred = p.predict(&submission(80, 4e9), AttemptContext::first());
        let model = pred.selected_model.unwrap();
        assert!(
            [
                "linear-regression",
                "knn-regression",
                "mlp-regression",
                "random-forest-regression"
            ]
            .contains(&model),
            "unexpected model name {model}"
        );
    }

    #[test]
    fn every_completion_is_journaled() {
        let mut p = SizeyPredictor::with_defaults();
        train(&mut p, 8);
        assert_eq!(p.provenance().len(), 8);
        assert_eq!(p.n_pools(), 1);
    }

    #[test]
    fn no_offset_mode_returns_raw_estimate() {
        let cfg = SizeyConfig {
            offset: OffsetMode::None,
            ..SizeyConfig::default()
        };
        let mut p = SizeyPredictor::new(cfg);
        train(&mut p, 10);
        let pred = p.predict(&submission(70, 6e9), AttemptContext::first());
        assert_eq!(pred.allocation_bytes, pred.raw_estimate_bytes.unwrap());
    }

    /// Satellite regression: the 1.15× cold-start head-room used to be
    /// applied even under `OffsetMode::None`, so a pool with fewer than
    /// `COLD_START_OBSERVATIONS` (10) observations violated the
    /// "raw estimate" contract. The old `no_offset_mode_returns_raw_estimate`
    /// test only passed because it trained exactly 10 tasks.
    #[test]
    fn no_offset_mode_returns_raw_estimate_during_cold_start() {
        let cfg = SizeyConfig {
            offset: OffsetMode::None,
            ..SizeyConfig::default()
        };
        let mut p = SizeyPredictor::new(cfg);
        // Fewer observations than the cold-start threshold, but enough for
        // the pool to produce a gated estimate.
        train(&mut p, 6);
        let pred = p.predict(&submission(70, 4e9), AttemptContext::first());
        let raw = pred.raw_estimate_bytes.expect("pool is warm enough");
        assert_eq!(
            pred.allocation_bytes, raw,
            "OffsetMode::None must return the raw estimate even before \
             COLD_START_OBSERVATIONS tasks have been observed"
        );
        // The guard still protects cold starts whenever offsets are active.
        let mut dynamic = SizeyPredictor::with_defaults();
        train(&mut dynamic, 6);
        let guarded = dynamic.predict(&submission(70, 4e9), AttemptContext::first());
        let raw = guarded.raw_estimate_bytes.unwrap();
        assert!(guarded.allocation_bytes >= raw * 1.15 - 1e-3);
    }

    /// Regression for the in-flight allocation leak: the predictor used to
    /// keep a per-task `inflight_allocations` entry that was only evicted on
    /// success, so every task that exhausted `max_attempts` leaked one entry
    /// forever. Retry state is engine-owned now — predict is `&self` and
    /// cannot retain anything — so a terminally failed task leaves no trace:
    /// a later retry of the same sequence number with no engine context
    /// escalates from the preset, never from a stale allocation.
    #[test]
    fn terminally_failed_tasks_leave_no_retry_state_behind() {
        let p = SizeyPredictor::with_defaults();
        let task = submission(7, 3e9);
        // Simulate an exhausted retry chain: escalating failures, none of
        // which succeed. Records carry the escalated allocations.
        let mut allocation = 20e9;
        for attempt in 1..=4u32 {
            allocation = p
                .predict(&task, AttemptContext::retry(attempt, allocation))
                .allocation_bytes;
        }
        assert!(allocation > 100e9, "escalation reached {allocation}");
        // The task is abandoned. A fresh task recycling sequence 7 with no
        // engine-recorded previous attempt starts from the preset, exactly
        // like a brand-new predictor — stale in-flight state cannot exist.
        let ctx = AttemptContext {
            attempt: 1,
            last_allocation_bytes: None,
        };
        let fresh = SizeyPredictor::with_defaults();
        assert_eq!(
            p.predict(&task, ctx).allocation_bytes,
            fresh.predict(&task, ctx).allocation_bytes
        );
        assert_eq!(p.predict(&task, ctx).allocation_bytes, 20e9);
    }

    /// Snapshot → restore reconstructs the learned state bit for bit: the
    /// restored predictor's decisions and provenance equal the uninterrupted
    /// original's, and its own snapshot equals the state it was restored
    /// from.
    #[test]
    fn snapshot_restore_round_trip_is_bit_identical() {
        let mut original = SizeyPredictor::with_defaults();
        train(&mut original, 18);
        let mut failed = success(60, 3e9, 30e9);
        failed.outcome = TaskOutcome::FailedOutOfMemory;
        failed.allocated_memory_bytes = 30e9;
        original.observe(&failed);
        let state = original.snapshot();
        assert_eq!(state.journal.len(), 19);
        assert_eq!(state.evicted, 0);

        let mut restored = SizeyPredictor::with_defaults();
        restored.restore(&state).unwrap();
        for (seq, input) in [(200u64, 2.5e9), (201, 7e9), (202, 13.5e9)] {
            let task = submission(seq, input);
            assert_eq!(
                original.predict(&task, AttemptContext::first()),
                restored.predict(&task, AttemptContext::first()),
                "restored decision diverged for input {input}"
            );
            assert_eq!(
                original.predict(&task, AttemptContext::retry(1, 20e9)),
                restored.predict(&task, AttemptContext::retry(1, 20e9))
            );
        }
        assert_eq!(restored.provenance().len(), original.provenance().len());
        assert_eq!(restored.n_pools(), original.n_pools());
        assert_eq!(restored.snapshot(), state);
    }

    #[test]
    fn restore_rejects_non_fresh_targets() {
        let mut original = SizeyPredictor::with_defaults();
        train(&mut original, 5);
        let state = original.snapshot();
        assert!(matches!(
            original.restore(&state),
            Err(StateError::NotFresh { observed: 5 })
        ));
    }

    /// The read path is `&self` and the predictor is `Sync`: concurrent
    /// predictions between observes are safe by construction.
    #[test]
    fn predictor_is_sync_and_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<SizeyPredictor>();
    }

    /// The bounded-history mode behind million-task streaming replays:
    /// provenance and (via the pools) training data both stay bounded while
    /// the predictor keeps learning from the recent window. Its snapshot journals only that window, so it names the
    /// evicted count and a restore refuses it rather than rebuild a
    /// different predictor.
    #[test]
    fn bounded_history_window_keeps_predictor_state_bounded() {
        let cfg = SizeyConfig::default().with_history_window(32);
        let mut p = SizeyPredictor::new(cfg);
        for i in 1..=700u64 {
            let input = (i % 40 + 1) as f64 * 1e9;
            p.observe(&success(i, input, 2.0 * input + 1e9));
        }
        assert!(p.provenance().len() <= 32, "store {}", p.provenance().len());
        assert_eq!(p.provenance().total_inserted(), 700);
        // Still predicting sensibly from the retained window.
        let pred = p.predict(&submission(1000, 5e9), AttemptContext::first());
        assert!(pred.raw_estimate_bytes.is_some());
        assert!(
            pred.allocation_bytes < 20e9,
            "learned allocation {} should beat the 20 GB preset",
            pred.allocation_bytes
        );
        let state = p.snapshot();
        assert_eq!(state.journal.len(), 32);
        assert_eq!(state.evicted, 668);
        let mut fresh = SizeyPredictor::new(SizeyConfig::default().with_history_window(32));
        assert!(matches!(
            fresh.restore(&state),
            Err(StateError::TruncatedJournal { evicted: 668 })
        ));
        // Refused before any replay: the target is still fresh.
        assert!(fresh.provenance().is_empty());
        // A window the run never filled evicts nothing, so its snapshot is
        // the unbounded one and restores.
        let mut small = SizeyPredictor::new(SizeyConfig::default().with_history_window(32));
        train(&mut small, 10);
        let state = small.snapshot();
        assert_eq!(state.evicted, 0);
        fresh.restore(&state).unwrap();
    }

    /// Packing moves the pools and nothing else: decisions before and after
    /// are bit-identical, the packed predictor keeps learning bit-identically
    /// to an unpacked one, and an earlier view keeps the old allocations.
    #[test]
    fn packing_pools_changes_addresses_not_decisions() {
        let mut packed = SizeyPredictor::with_defaults();
        let mut plain = SizeyPredictor::with_defaults();
        train(&mut packed, 30);
        train(&mut plain, 30);
        let view = packed.published_view();
        packed.pack_pools();
        assert_eq!(packed.pools_shared_with(&view), 0);
        for i in 31..=60u64 {
            let record = success(i, i as f64 * 1e9, 3e9 * i as f64);
            packed.observe(&record);
            plain.observe(&record);
            let task = submission(100 + i, 7e9);
            assert_eq!(
                packed.predict(&task, AttemptContext::first()),
                plain.predict(&task, AttemptContext::first())
            );
        }
        assert_eq!(packed.total_full_retrains(), plain.total_full_retrains());
    }

    #[test]
    fn separate_machines_get_separate_pools() {
        let mut p = SizeyPredictor::with_defaults();
        train(&mut p, 5);
        let mut other = success(200, 1e9, 3e9);
        other.machine = MachineId::new("other-machine");
        p.observe(&other);
        assert_eq!(p.n_pools(), 2);
    }
}
