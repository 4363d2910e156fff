//! Shared per-(task type, machine) history bookkeeping used by all baseline
//! methods.

use sizey_provenance::{TaskMachineKey, TaskOutcome, TaskRecord};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Observation history of successful executions, grouped per
/// (task type, machine) combination, with each key's learned state `S`
/// stored beside its observations so that an observe or a predict costs one
/// map lookup.
///
/// Each baseline folds a success into its per-key state when it is
/// observed (a running cost sum, incremental normal equations, a sorted
/// sample) and keeps the fitted answer there; predict only reads it.
/// Failed attempts never change a key's observations or state.
///
/// The history also keeps a **journal** of every record passed to
/// [`History::observe`] (including failed attempts) in observation order.
/// The journal is the event source backing the snapshot/restore lifecycle
/// ([`sizey_sim::lifecycle`]): the observations and every key's state are a
/// deterministic function of it, so replaying it through a fresh predictor
/// re-derives the learned state bit for bit, and a snapshot never
/// serialises the derived state.
///
/// The journal grows with every observation — a deliberate trade-off: the
/// baselines now mirror the provenance-database model the paper attaches to
/// the workflow system (Sizey's `ProvenanceStore` retains exactly the same
/// records), and retaining the full record is what makes any moment's state
/// checkpointable without a second serialisation of derived structures. A
/// deployment that needs bounded memory and no checkpoints can periodically
/// swap the predictor for a fresh one restored from a truncated journal.
#[derive(Debug, Default, Clone)]
pub struct History<S> {
    /// Probed with an owned key on observe and predict: the ids are shared
    /// handles, so building one copies no string.
    keys: BTreeMap<TaskMachineKey, KeyHistory<S>>,
    /// Reference-counted so snapshots share the records instead of
    /// deep-cloning the journal a second time.
    journal: Vec<Arc<TaskRecord>>,
}

/// One key's successful observations in arrival order, and the state a
/// baseline derived from them.
#[derive(Debug, Default, Clone)]
struct KeyHistory<S> {
    observations: Vec<Observation>,
    state: S,
}

/// One successful task execution as seen by a baseline method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Input size in bytes.
    pub input_bytes: f64,
    /// Measured peak memory in bytes.
    pub peak_bytes: f64,
}

impl<S: Default> History<S> {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Records a finished attempt. Every record enters the journal, so
    /// snapshots stay a faithful event log. Only a successful execution
    /// carries a true peak measurement: it is appended to its key's
    /// observations, which are returned (the new one last) together with the
    /// key's state for the caller to fold it in. A failed attempt returns
    /// `None` (failure handling is the responsibility of each method).
    pub fn observe(&mut self, record: &TaskRecord) -> Option<(&[Observation], &mut S)> {
        self.journal.push(Arc::new(record.clone()));
        if record.outcome != TaskOutcome::Succeeded {
            return None;
        }
        let entry = self.keys.entry(record.key()).or_default();
        entry.observations.push(Observation {
            input_bytes: record.input_bytes,
            peak_bytes: record.peak_memory_bytes,
        });
        Some((&entry.observations, &mut entry.state))
    }

    /// The state of the (task type, machine) key, once it has at least one
    /// successful observation.
    pub fn state(&self, key: &TaskMachineKey) -> Option<&S> {
        self.keys.get(key).map(|entry| &entry.state)
    }

    /// Every record ever observed, in observation order — the event source
    /// for the snapshot/restore lifecycle.
    pub fn journal(&self) -> &[Arc<TaskRecord>] {
        &self.journal
    }

    /// True when nothing has been observed yet (fresh instance).
    pub fn is_fresh(&self) -> bool {
        self.journal.is_empty()
    }
}

/// Implements [`sizey_sim::lifecycle::CheckpointPredictor`] for a baseline
/// whose entire learned state lives in a `history: History` field: the
/// snapshot is the history's journal, and restore replays it through
/// `observe` on a fresh instance. Baselines never evict, so a state that
/// lost records to a bounded history is refused like everywhere else.
macro_rules! impl_history_checkpoint {
    ($ty:ty) => {
        impl sizey_sim::lifecycle::CheckpointPredictor for $ty {
            fn snapshot(&self) -> sizey_sim::lifecycle::PredictorState {
                sizey_sim::lifecycle::PredictorState {
                    journal: self.history.journal().to_vec(),
                    evicted: 0,
                }
            }

            fn restore(
                &mut self,
                state: &sizey_sim::lifecycle::PredictorState,
            ) -> Result<(), sizey_sim::lifecycle::StateError> {
                if !self.history.is_fresh() {
                    return Err(sizey_sim::lifecycle::StateError::NotFresh {
                        observed: self.history.journal().len(),
                    });
                }
                for record in state.replayable_journal()? {
                    sizey_sim::MemoryPredictor::observe(self, record);
                }
                Ok(())
            }
        }
    };
}

pub(crate) use impl_history_checkpoint;

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_provenance::{MachineId, TaskTypeId};

    fn state(h: &History<usize>, task_type: &str) -> Option<usize> {
        h.state(&TaskMachineKey::new(task_type, "m")).copied()
    }

    fn record(peak: f64, outcome: TaskOutcome) -> TaskRecord {
        TaskRecord {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: 0,
            input_bytes: 1e9,
            peak_memory_bytes: peak,
            allocated_memory_bytes: peak * 2.0,
            runtime_seconds: 60.0,
            concurrent_tasks: 0,
            queue_delay_seconds: 0.0,
            outcome,
        }
    }

    /// Counts the observations each success hands to its key's state.
    fn peaks_seen(h: &mut History<usize>, record: &TaskRecord) -> Option<Vec<f64>> {
        let (observations, state) = h.observe(record)?;
        *state += 1;
        Some(observations.iter().map(|o| o.peak_bytes).collect())
    }

    #[test]
    fn only_successful_records_reach_the_key() {
        let mut h = History::new();
        assert!(state(&h, "t").is_none());
        assert!(peaks_seen(&mut h, &record(9e9, TaskOutcome::FailedOutOfMemory)).is_none());
        assert!(state(&h, "t").is_none(), "a failure creates no key");
        assert_eq!(
            peaks_seen(&mut h, &record(1e9, TaskOutcome::Succeeded)),
            Some(vec![1e9])
        );
        assert!(peaks_seen(&mut h, &record(8e9, TaskOutcome::FailedOutOfMemory)).is_none());
        assert_eq!(state(&h, "t"), Some(1), "failures leave the state alone");
        assert!(state(&h, "unknown").is_none());
    }

    #[test]
    fn observations_preserve_arrival_order() {
        let mut h = History::new();
        let mut last = None;
        for i in [3, 1, 5, 2, 4] {
            last = peaks_seen(&mut h, &record(i as f64 * 1e9, TaskOutcome::Succeeded));
        }
        assert_eq!(last, Some(vec![3e9, 1e9, 5e9, 2e9, 4e9]));
        assert_eq!(state(&h, "t"), Some(5));
    }

    #[test]
    fn journal_keeps_every_record_in_order() {
        let mut h = History::new();
        assert!(h.is_fresh());
        peaks_seen(&mut h, &record(1e9, TaskOutcome::Succeeded));
        peaks_seen(&mut h, &record(9e9, TaskOutcome::FailedOutOfMemory));
        peaks_seen(&mut h, &record(2e9, TaskOutcome::Succeeded));
        assert!(!h.is_fresh());
        assert_eq!(h.journal().len(), 3, "failures enter the journal too");
        assert_eq!(h.journal()[1].outcome, TaskOutcome::FailedOutOfMemory);
        // Replaying the journal into a fresh history re-derives the
        // observations and the state.
        let mut replayed = History::new();
        let mut last = None;
        for r in h.journal().to_vec() {
            last = peaks_seen(&mut replayed, &r).or(last);
        }
        assert_eq!(last, Some(vec![1e9, 2e9]));
        assert_eq!(state(&replayed, "t"), state(&h, "t"));
        assert_eq!(replayed.journal().len(), 3);
    }
}
