//! Property tests for the concurrent serving layer and the offset
//! strategies' empty-history contract.
//!
//! The sharded [`ConcurrentSizey`] service must be a *drop-in* replacement for
//! the serial [`SizeyPredictor`]: driven single-threaded through the same
//! replay, every allocation decision must be bit-identical. This holds
//! because all of Sizey's learned state is keyed by (task type, machine)
//! and the service routes every predict and observe of a key to the same
//! shard — the property test is the proof that no hidden cross-key state
//! was missed. The same fact makes a service's checkpoint independent of its
//! shard count: a [`PredictorState`] snapshot restores into any number of
//! shards and the run continues bit-identically.

use proptest::prelude::*;
use sizey_core::{ConcurrentSizey, SizeyConfig, SizeyPredictor};
use sizey_core::{OffsetScratch, OffsetStrategy};
use sizey_ml::metrics::{median, std_dev};
use sizey_sim::{replay_workflow, CheckpointPredictor, PredictorState, SimulationConfig};
use sizey_workflows::{
    generate_workflow, workflow_by_name, GeneratorConfig, TaskInstance, WORKFLOW_NAMES,
};

fn small_workload(name: &str, seed: u64) -> Vec<TaskInstance> {
    let spec = workflow_by_name(name).expect("known workflow");
    generate_workflow(
        &spec,
        &GeneratorConfig {
            scale: 0.01,
            seed,
            min_instances: 6,
            drift: None,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sharded concurrent predictor produces bit-identical decisions to
    /// the serial `SizeyPredictor` when driven single-threaded through the
    /// same replay, for any workload, seed and shard count.
    #[test]
    fn sharded_service_is_bit_identical_to_serial_sizey(
        seed in 0u64..3000,
        wf_idx in 0usize..6,
        shards in 1usize..9,
    ) {
        let name = WORKFLOW_NAMES[wf_idx];
        let instances = small_workload(name, seed);
        let sim = SimulationConfig::default();

        let mut serial = SizeyPredictor::with_defaults();
        let serial_report = replay_workflow(name, &instances, &mut serial, &sim);

        let mut shared = ConcurrentSizey::sizey(SizeyConfig::default(), shards);
        let shared_report = replay_workflow(name, &instances, &mut shared, &sim);

        prop_assert_eq!(serial_report.events.len(), shared_report.events.len());
        for (a, b) in serial_report.events.iter().zip(&shared_report.events) {
            prop_assert_eq!(a.sequence, b.sequence);
            prop_assert_eq!(a.attempt, b.attempt);
            // Bitwise equality, not tolerance: the shard must run the exact
            // same arithmetic on the exact same state.
            prop_assert_eq!(a.allocated_bytes, b.allocated_bytes);
            prop_assert_eq!(a.raw_estimate_bytes, b.raw_estimate_bytes);
            prop_assert_eq!(&a.selected_model, &b.selected_model);
            prop_assert_eq!(a.success, b.success);
            prop_assert_eq!(a.wastage_gbh, b.wastage_gbh);
        }
        prop_assert_eq!(
            serial_report.aggregates.unfinished_instances,
            shared_report.aggregates.unfinished_instances
        );
    }

    /// The lifecycle guarantee, extended to services: a service checkpointed
    /// mid-workflow and restored — through the text codec — into a service
    /// of **any** shard count continues the replay bit-identically to the
    /// uninterrupted original, and at the original shard count it also
    /// re-snapshots to the checkpoint.
    #[test]
    fn service_snapshot_restores_into_any_shard_count(
        seed in 0u64..3000,
        wf_idx in 0usize..6,
        from in 1usize..9,
        to in 1usize..9,
        cut_frac in 0.0f64..1.0,
    ) {
        let name = WORKFLOW_NAMES[wf_idx];
        let instances = small_workload(name, seed);
        let cut = (instances.len() as f64 * cut_frac) as usize;
        let sim = SimulationConfig::default();

        let mut original = ConcurrentSizey::sizey(SizeyConfig::default(), from);
        replay_workflow(name, &instances[..cut], &mut original, &sim);
        let state = original.snapshot();
        let parsed = PredictorState::from_state_string(&state.to_state_string())
            .map_err(|e| TestCaseError::fail(format!("codec failed: {e}")))?;
        prop_assert_eq!(&parsed, &state, "text codec round-trip changed the state");

        let mut restored = ConcurrentSizey::sizey(SizeyConfig::default(), to);
        restored
            .restore(&parsed)
            .map_err(|e| TestCaseError::fail(format!("restore failed: {e}")))?;
        if from == to {
            prop_assert_eq!(restored.snapshot(), state);
        }

        let original_tail = replay_workflow(name, &instances[cut..], &mut original, &sim);
        let restored_tail = replay_workflow(name, &instances[cut..], &mut restored, &sim);
        // Bitwise equality of every field of every attempt.
        prop_assert_eq!(original_tail.events, restored_tail.events);
    }

    /// Histories with no under-predictions must keep yielding a 0.0 offset
    /// for the under-prediction strategies: they filter the error list down
    /// to an empty slice and silently rely on `std_dev`/`median` returning
    /// 0 for it. Lock that contract in for arbitrary over-predicting
    /// histories.
    #[test]
    fn overpredicting_histories_yield_exactly_zero_underprediction_offsets(
        margins in proptest::collection::vec(0.0f64..5e9, 1..40),
    ) {
        // actual = 10 GB, prediction over-shoots by `margin` ≥ 0: no entry
        // is an under-prediction.
        let history: Vec<(f64, f64)> = margins
            .iter()
            .map(|&margin| (10e9 + margin, 10e9))
            .collect();
        let mut scratch = OffsetScratch::default();
        for strategy in [
            OffsetStrategy::StdDevUnderpredictions,
            OffsetStrategy::MedianErrorUnderpredictions,
        ] {
            prop_assert_eq!(strategy.offset_with(&history, &mut scratch), 0.0);
        }
    }
}

/// The empty-slice behavior the offset strategies depend on, asserted at
/// the metrics level so a future "more correct" NaN-returning refactor
/// cannot slip through.
#[test]
fn empty_slice_metrics_are_zero_not_nan() {
    assert_eq!(std_dev(&[]), 0.0);
    assert_eq!(median(&[]), 0.0);
    for strategy in OffsetStrategy::ALL {
        let offset = strategy.offset_with(&[], &mut OffsetScratch::default());
        assert_eq!(offset, 0.0, "{strategy}");
    }
}
