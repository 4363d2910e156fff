//! Predictor snapshot/restore lifecycle.
//!
//! Every sizing method in the workspace learns exclusively from the stream of
//! [`TaskRecord`]s fed through [`MemoryPredictor::observe`] — the learned
//! state of a predictor is a pure, deterministic function of its
//! configuration plus that ordered stream (stochastic pool members are seeded
//! from the configuration). A snapshot therefore does not serialise model
//! weights; it is an **event-sourced checkpoint**: the ordered observation
//! journal, plus how many records a bounded history evicted before it.
//! Predictions write nothing, so the journal is all there is to carry.
//! Restoring replays the journal through a freshly built predictor, which
//! provably reconstructs the exact learned state — restored predictors are
//! *bit-identical* to uninterrupted ones (the workspace's property tests
//! assert this across workloads, seeds and mid-workflow cut points).
//!
//! The trade-offs of this design are deliberate:
//!
//! * **Fidelity** — replay goes through the only write path that exists, so
//!   a snapshot can never drift from what the predictor would actually have
//!   learned. There is no second serialisation of model internals to keep in
//!   sync with four model classes.
//! * **Restore cost** — restoring re-trains the models, so it costs one
//!   online-learning pass over the journal. Checkpoints are taken on the
//!   read path ([`CheckpointPredictor::snapshot`] is `&self`) and are cheap;
//!   restores are the rare warm-start/recovery operation.
//! * **Wall-clock telemetry** (e.g. Sizey's per-step training times) is
//!   re-measured during the restore replay rather than carried over — it is
//!   wall-clock data and would be stale on the restoring host anyway.
//! * **Bounded history** — a predictor that evicts old records (Sizey with a
//!   `history_window`) can only journal the retained suffix, and replaying a
//!   suffix rebuilds a different predictor. Such a snapshot records how many
//!   records it lost, and restore refuses it with
//!   [`StateError::TruncatedJournal`] instead of returning an impostor
//!   ([`PredictorState::replayable_journal`] is the one check every method
//!   restores through).
//!
//! [`PredictorState`] round-trips through a plain-text format (the journal
//! reuses the provenance TSV trace codec) so checkpoints can be written to a
//! checkpoint directory, diffed, and shipped between runs. `f64` values are
//! printed with Rust's shortest-round-trip formatting, so the text form is
//! lossless.
#![doc = "lint:hot-path"]

use crate::predictor::{MemoryPredictor, PresetPredictor};
use serde::{Deserialize, Serialize};
use sizey_provenance::{from_trace_string, to_trace_string, TaskRecord, TraceError};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Magic first line of the serialised [`PredictorState`] format.
const STATE_HEADER: &str = "sizey-predictor-state v2";

/// Line of the `journal` marker: after the header and the eviction count.
const JOURNAL_MARKER_LINE: usize = 3;

/// A serialisable snapshot of one predictor's learned state.
///
/// See the [module docs](self) for why this is an observation journal rather
/// than serialised model weights.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PredictorState {
    /// Every record the predictor has observed, in observation order — the
    /// event source the learned state is rebuilt from. Records are
    /// reference-counted and **shared** with the predictor's own store:
    /// snapshotting bumps `Arc` counts instead of deep-cloning the journal
    /// a second time.
    pub journal: Vec<Arc<TaskRecord>>,
    /// How many of the oldest records a bounded history had evicted when
    /// the snapshot was taken (0 for a complete journal).
    pub evicted: u64,
}

impl PredictorState {
    /// An empty state (what a stateless or freshly built predictor
    /// snapshots to).
    pub fn empty() -> Self {
        PredictorState::default()
    }

    /// Serialises the state into the plain-text checkpoint format.
    pub fn to_state_string(&self) -> String {
        let mut out = String::new();
        out.push_str(STATE_HEADER);
        out.push('\n');
        out.push_str(&format!("evicted {}\n", self.evicted));
        out.push_str("journal\n");
        out.push_str(&to_trace_string(&self.journal));
        out
    }

    /// Parses a state from the plain-text checkpoint format.
    pub fn from_state_string(content: &str) -> Result<Self, StateError> {
        let mut lines = content.lines();
        match lines.next() {
            Some(first) if first.trim() == STATE_HEADER => {}
            other => {
                return Err(StateError::Parse {
                    line: 1,
                    message: format!("expected {STATE_HEADER:?}, found {other:?}"),
                })
            }
        }
        let decl = lines.next().unwrap_or_default();
        let rest = decl.strip_prefix("evicted ").ok_or(StateError::Parse {
            line: 2,
            message: format!("expected \"evicted <n>\", found {decl:?}"),
        })?;
        let evicted = rest.trim().parse().map_err(|e| StateError::Parse {
            line: 2,
            message: format!("invalid eviction count {rest:?}: {e}"),
        })?;
        match lines.next() {
            Some(marker) if marker.trim() == "journal" => {}
            other => {
                return Err(StateError::Parse {
                    line: JOURNAL_MARKER_LINE,
                    message: format!("expected \"journal\" marker, found {other:?}"),
                })
            }
        }
        let remainder: Vec<&str> = lines.collect();
        // The trace codec counts from its own header, which is the line
        // after the marker: report where in *this* file the journal broke.
        let journal = from_trace_string(&remainder.join("\n"))
            .map_err(|e| match e {
                TraceError::Parse { line, message } => TraceError::Parse {
                    line: line + JOURNAL_MARKER_LINE,
                    message,
                },
                other => other,
            })?
            .into_iter()
            .map(Arc::new)
            .collect();
        Ok(PredictorState { journal, evicted })
    }

    /// The journal to replay on restore, or [`StateError::TruncatedJournal`]
    /// when a bounded history had evicted records before the snapshot: a
    /// suffix of the journal would rebuild a different predictor.
    pub fn replayable_journal(&self) -> Result<&[Arc<TaskRecord>], StateError> {
        match self.evicted {
            0 => Ok(&self.journal),
            evicted => Err(StateError::TruncatedJournal { evicted }),
        }
    }

    /// Writes the state to a checkpoint file.
    pub fn write_state_file(&self, path: impl AsRef<Path>) -> Result<(), StateError> {
        fs::write(path, self.to_state_string()).map_err(StateError::Io)
    }

    /// Reads a state from a checkpoint file.
    pub fn read_state_file(path: impl AsRef<Path>) -> Result<Self, StateError> {
        let content = fs::read_to_string(path).map_err(StateError::Io)?;
        Self::from_state_string(&content)
    }
}

/// Errors produced by the snapshot/restore lifecycle.
#[derive(Debug)]
pub enum StateError {
    /// Underlying I/O failure while reading or writing a checkpoint file.
    Io(io::Error),
    /// A malformed checkpoint file.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The journal section of a checkpoint failed to parse; line numbers
    /// count from the top of the checkpoint, like [`StateError::Parse`]'s.
    Trace(TraceError),
    /// [`CheckpointPredictor::restore`] was called on a predictor that has
    /// already observed records; restore requires a freshly built instance
    /// (otherwise the replayed journal would be interleaved with existing
    /// state and the bit-identity guarantee would be silently lost).
    NotFresh {
        /// Number of records the target predictor had already observed.
        observed: usize,
    },
    /// The state's journal had lost its oldest records to a bounded history
    /// when it was taken, so replaying it cannot rebuild the predictor.
    TruncatedJournal {
        /// Number of records evicted before the snapshot.
        evicted: u64,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            StateError::Parse { line, message } => {
                write!(f, "checkpoint parse error at line {line}: {message}")
            }
            StateError::Trace(e) => write!(f, "checkpoint journal error: {e}"),
            StateError::NotFresh { observed } => write!(
                f,
                "restore requires a freshly built predictor (target has already \
                 observed {observed} records)"
            ),
            StateError::TruncatedJournal { evicted } => write!(
                f,
                "checkpoint journal is truncated: a bounded history evicted {evicted} \
                 records before the snapshot, so replaying it cannot rebuild the predictor"
            ),
        }
    }
}

impl std::error::Error for StateError {}

impl From<TraceError> for StateError {
    fn from(e: TraceError) -> Self {
        StateError::Trace(e)
    }
}

/// A predictor whose learned state can be checkpointed and restored.
///
/// `snapshot` runs on the read path (`&self`) and must capture everything a
/// fresh instance needs to become bit-identical; `restore` must be called on
/// a **freshly built** instance with the same configuration (it replays the
/// journal through [`MemoryPredictor::observe`] and fails with
/// [`StateError::NotFresh`] otherwise).
pub trait CheckpointPredictor: MemoryPredictor {
    /// Captures a serialisable snapshot of all learned state.
    fn snapshot(&self) -> PredictorState;

    /// Rebuilds the snapshotted state on this freshly built instance.
    fn restore(&mut self, state: &PredictorState) -> Result<(), StateError>;
}

impl CheckpointPredictor for PresetPredictor {
    fn snapshot(&self) -> PredictorState {
        // The preset baseline is stateless: nothing to journal.
        PredictorState::empty()
    }

    fn restore(&mut self, state: &PredictorState) -> Result<(), StateError> {
        // The journal (if any) replays as no-ops; presets learn nothing.
        state.replayable_journal().map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_provenance::{MachineId, TaskOutcome, TaskTypeId};

    fn record(seq: u64, outcome: TaskOutcome) -> TaskRecord {
        TaskRecord {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: seq,
            input_bytes: 1.5e9 + seq as f64 * 0.1,
            peak_memory_bytes: 3.00000000001e9,
            allocated_memory_bytes: 4e9,
            runtime_seconds: 61.25,
            concurrent_tasks: 2,
            queue_delay_seconds: 0.5,
            outcome,
        }
    }

    #[test]
    fn state_round_trips_through_text() {
        let state = PredictorState {
            journal: vec![
                Arc::new(record(0, TaskOutcome::Succeeded)),
                Arc::new(record(1, TaskOutcome::FailedOutOfMemory)),
            ],
            evicted: 7,
        };
        let text = state.to_state_string();
        let parsed = PredictorState::from_state_string(&text).unwrap();
        assert_eq!(parsed, state);
    }

    #[test]
    fn empty_state_round_trips() {
        let state = PredictorState::empty();
        let parsed = PredictorState::from_state_string(&state.to_state_string()).unwrap();
        assert_eq!(parsed, state);
        assert!(parsed.journal.is_empty());
        assert_eq!(parsed.evicted, 0);
    }

    #[test]
    fn malformed_states_report_line_numbers() {
        let missing_header = PredictorState::from_state_string("nope\n");
        assert!(matches!(
            missing_header,
            Err(StateError::Parse { line: 1, .. })
        ));
        // A checkpoint in the retired counters format is refused at its
        // header.
        let v1 =
            PredictorState::from_state_string("sizey-predictor-state v1\ncounters 0\njournal\n");
        assert!(matches!(v1, Err(StateError::Parse { line: 1, .. })));
        let bad_count = PredictorState::from_state_string("sizey-predictor-state v2\nevicted x\n");
        assert!(matches!(bad_count, Err(StateError::Parse { line: 2, .. })));
        let no_count = PredictorState::from_state_string("sizey-predictor-state v2\n");
        assert!(matches!(no_count, Err(StateError::Parse { line: 2, .. })));
        let too_big = format!("sizey-predictor-state v2\nevicted {}0\n", u64::MAX);
        assert!(matches!(
            PredictorState::from_state_string(&too_big),
            Err(StateError::Parse { line: 2, .. })
        ));
        let no_journal = PredictorState::from_state_string("sizey-predictor-state v2\nevicted 0\n");
        assert!(matches!(no_journal, Err(StateError::Parse { line: 3, .. })));
        // Journal errors are file-absolute too: header, eviction count,
        // marker and trace header put the first record on line 5.
        let state = PredictorState {
            journal: vec![Arc::new(record(0, TaskOutcome::Succeeded))],
            evicted: 1,
        };
        let bad_outcome = state.to_state_string().replace("\tok\n", "\texploded\n");
        let parsed = PredictorState::from_state_string(&bad_outcome);
        assert!(
            matches!(
                parsed,
                Err(StateError::Trace(TraceError::Parse { line: 5, .. }))
            ),
            "{parsed:?}"
        );
    }

    #[test]
    fn preset_predictor_snapshots_empty_and_restores() {
        let preset = PresetPredictor;
        assert_eq!(preset.snapshot(), PredictorState::empty());
        let mut fresh = PresetPredictor;
        fresh.restore(&preset.snapshot()).unwrap();
        let truncated = PredictorState {
            journal: Vec::new(),
            evicted: 3,
        };
        assert!(matches!(
            fresh.restore(&truncated),
            Err(StateError::TruncatedJournal { evicted: 3 })
        ));
    }

    #[test]
    fn state_files_round_trip() {
        // Names are tenant-supplied: separators in them must not break the
        // file apart.
        let mut hostile = record(4, TaskOutcome::FailedOutOfMemory);
        hostile.workflow = "wf\r\n".into();
        hostile.task_type = TaskTypeId::new("align\tv2");
        hostile.machine = MachineId::new("rack\\node");
        let state = PredictorState {
            journal: vec![
                Arc::new(record(3, TaskOutcome::Succeeded)),
                Arc::new(hostile),
            ],
            evicted: 2,
        };
        let dir = std::env::temp_dir().join("sizey-lifecycle-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.txt");
        state.write_state_file(&path).unwrap();
        assert_eq!(PredictorState::read_state_file(&path).unwrap(), state);
    }
}
