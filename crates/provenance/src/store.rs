//! The in-memory provenance store: the observation journal.
//!
//! The store plays the role of the provenance database attached to the
//! scientific workflow management system in the paper's Fig. 3: when a task
//! finishes, its monitoring data is appended. In this workspace it is the
//! **journal** — the ordered record log a predictor snapshots
//! ([`ProvenanceStore::all_records`]) and restores from. The per-key training
//! history Sizey predicts from lives in its model pools, so the store answers
//! no per-key queries. It is thread-safe so several threads can append while
//! others take snapshots.
//!
//! ## Bounded retention
//!
//! By default the store retains every record forever. For streaming replays
//! whose working set must stay bounded (million-task traces), a **retention
//! limit** turns the record log into a ring buffer: once more than `limit`
//! records are stored, the oldest are evicted, and snapshots hold the
//! retained records only. [`ProvenanceStore::total_inserted`] and
//! [`ProvenanceStore::evicted`] expose the all-time counters, so a journal
//! that has lost its head can say so.

use crate::record::TaskRecord;
use parking_lot::RwLock;
use std::collections::VecDeque;
use std::sync::Arc;

/// Thread-safe, append-only record log with optional bounded retention.
#[derive(Debug, Default)]
pub struct ProvenanceStore {
    inner: RwLock<StoreInner>,
}

/// Cloning takes a consistent snapshot of the whole store under its read
/// lock. Records are `Arc`-shared, so the clone copies pointers, not the
/// monitoring data.
impl Clone for ProvenanceStore {
    fn clone(&self) -> Self {
        ProvenanceStore {
            inner: RwLock::new(self.inner.read().clone()),
        }
    }
}

#[derive(Debug, Default, Clone)]
struct StoreInner {
    /// Retained records in insertion order.
    records: VecDeque<Arc<TaskRecord>>,
    /// All-time number of inserted records (retained + evicted).
    total_inserted: u64,
    /// Retention limit; `None` keeps everything (the default).
    retention: Option<usize>,
}

impl ProvenanceStore {
    /// Creates an empty store with unlimited retention.
    pub fn new() -> Self {
        ProvenanceStore::default()
    }

    /// Creates an empty store that retains at most `limit` records,
    /// evicting the oldest beyond that (ring-buffer behaviour).
    pub fn with_retention(limit: usize) -> Self {
        let store = ProvenanceStore::default();
        store.inner.write().retention = Some(limit.max(1));
        store
    }

    /// Appends a finished task record, evicting the oldest one when the
    /// retention limit is exceeded.
    pub fn insert(&self, record: TaskRecord) {
        let mut inner = self.inner.write();
        inner.records.push_back(Arc::new(record));
        inner.total_inserted += 1;
        if inner.retention.is_some_and(|cap| inner.records.len() > cap) {
            inner.records.pop_front();
        }
    }

    /// Number of currently retained records.
    pub fn len(&self) -> usize {
        self.inner.read().records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All-time number of inserted records, including evicted ones.
    pub fn total_inserted(&self) -> u64 {
        self.inner.read().total_inserted
    }

    /// Number of records evicted by the retention limit so far.
    pub fn evicted(&self) -> u64 {
        let inner = self.inner.read();
        inner.total_inserted - inner.records.len() as u64
    }

    /// A snapshot of every retained record in insertion order.
    pub fn all_records(&self) -> Vec<Arc<TaskRecord>> {
        self.inner.read().records.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MachineId, TaskOutcome, TaskTypeId};

    fn record(task: &str, seq: u64, peak: f64) -> TaskRecord {
        TaskRecord {
            workflow: "wf".into(),
            task_type: TaskTypeId::new(task),
            machine: MachineId::new("m1"),
            sequence: seq,
            input_bytes: 1e9 + seq as f64,
            peak_memory_bytes: peak,
            allocated_memory_bytes: peak * 2.0,
            runtime_seconds: 60.0,
            concurrent_tasks: 1,
            queue_delay_seconds: 0.0,
            outcome: TaskOutcome::Succeeded,
        }
    }

    fn sequences(store: &ProvenanceStore) -> Vec<u64> {
        store.all_records().iter().map(|r| r.sequence).collect()
    }

    #[test]
    fn records_keep_insertion_order() {
        let store = ProvenanceStore::new();
        assert!(store.is_empty());
        for seq in 0..10 {
            store.insert(record(
                if seq % 2 == 0 { "a" } else { "b" },
                seq,
                seq as f64,
            ));
        }
        assert_eq!(store.len(), 10);
        assert_eq!(sequences(&store), (0..10).collect::<Vec<_>>());
        assert_eq!(store.all_records()[3].task_type, TaskTypeId::new("b"));
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let store = Arc::new(ProvenanceStore::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for i in 0..50 {
                        store.insert(record("a", t * 100 + i, 1e9));
                        let _ = store.all_records();
                    }
                });
            }
        });
        assert_eq!(store.len(), 200);
    }

    #[test]
    fn retention_limit_evicts_oldest_records() {
        let store = ProvenanceStore::with_retention(5);
        for seq in 0..12 {
            store.insert(record("a", seq, seq as f64));
        }
        assert_eq!(store.len(), 5);
        assert_eq!(store.total_inserted(), 12);
        assert_eq!(store.evicted(), 7);
        assert_eq!(sequences(&store), vec![7, 8, 9, 10, 11]);
    }

    #[test]
    fn bounded_and_unbounded_agree_on_retained_suffix() {
        let bounded = ProvenanceStore::with_retention(4);
        let unbounded = ProvenanceStore::new();
        for seq in 0..9 {
            let r = record("a", seq, (seq + 1) as f64);
            bounded.insert(r.clone());
            unbounded.insert(r);
        }
        let full = unbounded.all_records();
        assert_eq!(&full[full.len() - 4..], &bounded.all_records()[..]);
        assert_eq!(unbounded.evicted(), 0);
    }
}
