//! Property tests for the predictor snapshot/restore lifecycle: a predictor
//! restored from a [`PredictorState`] checkpoint must be **bit-identical**
//! to the uninterrupted original — same predictions (exact `f64` equality),
//! same state — for any predictor class, workload, seed and mid-workflow cut
//! point; the text codec must round-trip states losslessly, and survive
//! hostile bytes without panicking.

use proptest::prelude::*;
use sizey_provenance::TraceError;
use sizey_suite::prelude::*;
use std::sync::Arc;

fn small_workload(name: &str, seed: u64) -> Vec<TaskInstance> {
    let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
    generate_workflow(
        &spec,
        &GeneratorConfig {
            scale: 0.01,
            seed,
            min_instances: 8,
            drift: None,
        },
    )
}

/// Drives one instance through a predictor the way the replay engine does —
/// predict, retry on (simulated) OOM up to three attempts, observe the
/// outcome — and returns every prediction made. Failures exercise the
/// journal's failed-record path.
fn drive(predictor: &mut dyn CheckpointPredictor, inst: &TaskInstance) -> Vec<Prediction> {
    let submission = TaskSubmission {
        workflow: inst.workflow.clone(),
        task_type: inst.task_type.clone(),
        machine: inst.machine.clone(),
        sequence: inst.sequence,
        input_bytes: inst.input_bytes,
        preset_memory_bytes: inst.preset_memory_bytes,
    };
    let mut predictions = Vec::new();
    let mut last_allocation: Option<f64> = None;
    for attempt in 0..3u32 {
        let ctx = AttemptContext {
            attempt,
            last_allocation_bytes: last_allocation,
        };
        let prediction = predictor.predict(&submission, ctx);
        let allocation = prediction.allocation_bytes.max(128e6);
        predictions.push(prediction);
        let success = allocation >= inst.true_peak_bytes;
        let record = TaskRecord {
            workflow: inst.workflow.clone(),
            task_type: inst.task_type.clone(),
            machine: inst.machine.clone(),
            sequence: inst.sequence,
            input_bytes: inst.input_bytes,
            peak_memory_bytes: if success {
                inst.true_peak_bytes
            } else {
                allocation
            },
            allocated_memory_bytes: allocation,
            runtime_seconds: inst.base_runtime_seconds,
            concurrent_tasks: 1,
            queue_delay_seconds: 0.0,
            outcome: if success {
                TaskOutcome::Succeeded
            } else {
                TaskOutcome::FailedOutOfMemory
            },
        };
        predictor.observe(&record);
        last_allocation = Some(allocation);
        if success {
            break;
        }
    }
    predictions
}

/// Checkpoints `spec`'s predictor mid-workflow at `cut` and asserts the
/// restored copy stays in lockstep with the uninterrupted original for the
/// rest of the workload — predictions equal bit for bit, final snapshots
/// equal.
fn assert_checkpoint_is_bit_identical(
    method: &MethodSpec,
    instances: &[TaskInstance],
    cut: usize,
) -> Result<(), TestCaseError> {
    let mut original = method.build();
    for inst in &instances[..cut] {
        drive(original.as_mut(), inst);
    }
    let state = original.snapshot();

    // The codec is part of the contract: restore from the *serialised* form.
    let text = state.to_state_string();
    let parsed = PredictorState::from_state_string(&text)
        .map_err(|e| TestCaseError::fail(format!("codec failed: {e}")))?;
    prop_assert_eq!(&parsed, &state, "text codec round-trip changed the state");

    let mut restored = method
        .restore(&parsed)
        .map_err(|e| TestCaseError::fail(format!("restore failed: {e}")))?;
    prop_assert_eq!(
        restored.snapshot(),
        state,
        "restored predictor does not reproduce the checkpoint"
    );

    for inst in &instances[cut..] {
        let a = drive(original.as_mut(), inst);
        let b = drive(restored.as_mut(), inst);
        prop_assert_eq!(
            a,
            b,
            "post-restore predictions diverged for {}/{}",
            inst.task_type.as_str(),
            inst.sequence
        );
    }
    prop_assert_eq!(
        original.snapshot(),
        restored.snapshot(),
        "final states diverged after lockstep continuation"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sizey: model pools, offset histories and diagnostics all survive a
    /// mid-workflow checkpoint bit for bit.
    #[test]
    fn sizey_mid_workflow_checkpoint_is_bit_identical(
        seed in 0u64..3000,
        wf_idx in 0usize..6,
        cut_permille in 0usize..1000,
    ) {
        let name = sizey_workflows::WORKFLOW_NAMES[wf_idx];
        let instances = small_workload(name, seed);
        let cut = cut_permille * instances.len() / 1000;
        assert_checkpoint_is_bit_identical(
            &MethodSpec::sizey_defaults(),
            &instances,
            cut,
        )?;
    }

    /// Same property for every other predictor class of the default suite:
    /// the four baselines that journal through the shared `History`, and the
    /// stateless preset. Each case checks all five, so no class depends on
    /// the draw.
    #[test]
    fn baseline_mid_workflow_checkpoint_is_bit_identical(
        seed in 0u64..3000,
        wf_idx in 0usize..6,
        cut_permille in 0usize..1000,
    ) {
        let name = sizey_workflows::WORKFLOW_NAMES[wf_idx];
        let instances = small_workload(name, seed);
        let cut = cut_permille * instances.len() / 1000;
        for method in MethodSpec::default_suite()
            .iter()
            .filter(|m| !matches!(m, MethodSpec::Sizey(_)))
        {
            assert_checkpoint_is_bit_identical(method, &instances, cut)?;
        }
    }

    /// Satellite regression: `since_full_retrain` is learned state — a
    /// restored predictor must reconstruct every pool's retrain counter from
    /// the journal replay, or its next periodic full retrain fires at the
    /// wrong observation and predictions drift from the original thereafter.
    #[test]
    fn since_full_retrain_counters_survive_snapshot_restore(
        seed in 0u64..3000,
        wf_idx in 0usize..6,
    ) {
        let name = sizey_workflows::WORKFLOW_NAMES[wf_idx];
        let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
        let instances = generate_workflow(
            &spec,
            &GeneratorConfig {
                scale: 0.01,
                seed,
                min_instances: 30,
                drift: None,
            },
        );
        let mut original = SizeyPredictor::with_defaults();
        for inst in &instances {
            drive(&mut original, inst);
        }
        let counters = original.since_full_retrain();
        prop_assert!(!counters.is_empty());
        let state = original.snapshot();
        let mut restored = SizeyPredictor::with_defaults();
        restored
            .restore(&state)
            .map_err(|e| TestCaseError::fail(format!("restore failed: {e}")))?;
        prop_assert_eq!(restored.since_full_retrain(), counters);
    }

    /// The serialised text form itself round-trips losslessly for states
    /// with arbitrary finite floats in the journal.
    #[test]
    fn state_codec_round_trips_arbitrary_records(
        peaks in proptest::collection::vec(1e6f64..1e12, 1..20),
        evicted in prop_oneof![Just(0u64), 1u64..1000, Just(u64::MAX)],
    ) {
        let state = PredictorState {
            journal: journal(&peaks, "t"),
            evicted,
        };
        let parsed = PredictorState::from_state_string(&state.to_state_string()).unwrap();
        prop_assert_eq!(parsed, state);
    }
}

/// A journal of one record per peak, every fourth a failure, under `task_type`.
fn journal(peaks: &[f64], task_type: &str) -> Vec<Arc<TaskRecord>> {
    peaks
        .iter()
        .enumerate()
        .map(|(i, peak)| {
            Arc::new(TaskRecord {
                workflow: "wf".into(),
                task_type: TaskTypeId::new(task_type),
                machine: MachineId::new("m"),
                sequence: i as u64,
                input_bytes: peak / 3.0,
                peak_memory_bytes: *peak,
                allocated_memory_bytes: peak * 1.37,
                runtime_seconds: peak % 977.0,
                concurrent_tasks: (i % 7) as u32,
                queue_delay_seconds: peak % 13.0,
                outcome: if i % 4 == 0 {
                    TaskOutcome::FailedOutOfMemory
                } else {
                    TaskOutcome::Succeeded
                },
            })
        })
        .collect()
}

/// Applies one byte edit to a serialised state: `kind` 0 overwrites, 1
/// inserts before and 2 deletes the byte at `pos` (modulo the length).
fn mutate(bytes: &mut Vec<u8>, (kind, pos, byte): (u8, usize, u8)) {
    let at = pos % bytes.len();
    match kind {
        0 => bytes[at] = byte,
        1 => bytes.insert(at, byte),
        _ => {
            bytes.remove(at);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Byte-level fuzz of the checkpoint parser — `from_state_string`, and
    /// the trace codec it runs on the journal. After 1–8 random overwrites,
    /// insertions or deletions of a valid state, the parser never panics,
    /// every parse error names a line of the input (or the one just past
    /// its end), and whatever parses prints to a fixed point. Printed text
    /// is compared rather than states, because a mutated number can parse
    /// to NaN.
    #[test]
    fn state_codec_survives_byte_mutations(
        peaks in proptest::collection::vec(1e6f64..1e12, 4..16),
        edits in proptest::collection::vec(
            (
                0u8..3,
                0usize..1 << 16,
                prop_oneof![
                    4 => 0u8..=255,
                    1 => Just(b'\t'),
                    1 => Just(b'\n'),
                    1 => Just(b'\\'),
                    1 => b'0'..=b'9',
                ],
            ),
            1..9,
        ),
    ) {
        let state = PredictorState {
            journal: journal(&peaks, "align\tv2\\"),
            evicted: 311,
        };
        let mut bytes = state.to_state_string().into_bytes();
        for &edit in &edits {
            mutate(&mut bytes, edit);
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let parsed = std::panic::catch_unwind(|| PredictorState::from_state_string(&text))
            .map_err(|_| TestCaseError::fail(format!("parser panicked on {text:?}")))?;
        match parsed {
            Ok(state) => {
                let printed = state.to_state_string();
                let reparsed = PredictorState::from_state_string(&printed).map_err(|e| {
                    TestCaseError::fail(format!("printed state does not parse: {e}\n{printed:?}"))
                })?;
                prop_assert_eq!(reparsed.to_state_string(), printed);
            }
            Err(
                StateError::Parse { line, .. }
                | StateError::Trace(TraceError::Parse { line, .. }),
            ) => {
                let lines = text.lines().count();
                prop_assert!(
                    (1..=lines + 1).contains(&line),
                    "error line {} outside 1..={} in {:?}",
                    line,
                    lines + 1,
                    text
                );
            }
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error kind: {other}")));
            }
        }
    }
}

/// The numerical edges fed through every predictor: not-a-number, both
/// infinities, both zeros, the smallest subnormal and a huge finite value.
const EDGES: [f64; 7] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,
    1e300,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every predictor of the default suite observes a key whose records
    /// carry one of [`EDGES`] every few records, as the input size or as the
    /// peak (successes and failures alike, as a hand-edited journal could).
    /// After each observe, first attempts and retries for an ordinary and
    /// for an edge input stay finite and positive, and the final state
    /// snapshots, prints, parses and restores.
    #[test]
    fn every_predictor_survives_numerical_edges(
        edge_idx in 0usize..EDGES.len(),
        edge_as_input in 0u8..2,
        every in 3usize..12,
        peaks in proptest::collection::vec(1e8f64..4e10, 40..41),
    ) {
        let edge = EDGES[edge_idx];
        let edge_as_input = edge_as_input == 1;
        for method in MethodSpec::default_suite() {
            let mut predictor = method.build();
            for (i, &peak) in peaks.iter().enumerate() {
                let edged = i % every == every - 1;
                let input = if edged && edge_as_input { edge } else { peak / 4.0 };
                let peak = if edged && !edge_as_input { edge } else { peak };
                for probe_input in [2e9, edge] {
                    let task = TaskSubmission {
                        workflow: "wf".into(),
                        task_type: TaskTypeId::new("t"),
                        machine: MachineId::new("m"),
                        sequence: i as u64,
                        input_bytes: probe_input,
                        preset_memory_bytes: 8e9,
                    };
                    let first = predictor.predict(&task, AttemptContext::first());
                    let retry = predictor.predict(
                        &task,
                        AttemptContext {
                            attempt: 1,
                            last_allocation_bytes: Some(first.allocation_bytes),
                        },
                    );
                    for (attempt, p) in [first, retry].iter().enumerate() {
                        prop_assert!(
                            p.allocation_bytes.is_finite() && p.allocation_bytes > 0.0,
                            "{} attempt {} allocated {} after {} records (edge {}, as input: {}, probe input {})",
                            method.name(), attempt, p.allocation_bytes, i, edge, edge_as_input, probe_input
                        );
                    }
                }
                predictor.observe(&TaskRecord {
                    workflow: "wf".into(),
                    task_type: TaskTypeId::new("t"),
                    machine: MachineId::new("m"),
                    sequence: i as u64,
                    input_bytes: input,
                    peak_memory_bytes: peak,
                    allocated_memory_bytes: 8e9,
                    runtime_seconds: 60.0,
                    concurrent_tasks: 1,
                    queue_delay_seconds: 0.0,
                    outcome: if i % 5 == 4 {
                        TaskOutcome::FailedOutOfMemory
                    } else {
                        TaskOutcome::Succeeded
                    },
                });
            }
            let text = predictor.snapshot().to_state_string();
            let parsed = PredictorState::from_state_string(&text)
                .map_err(|e| TestCaseError::fail(format!("{}: codec failed: {e}", method.name())))?;
            let restored = method
                .restore(&parsed)
                .map_err(|e| TestCaseError::fail(format!("{}: restore failed: {e}", method.name())))?;
            prop_assert_eq!(restored.snapshot().to_state_string(), text);
        }
    }
}
