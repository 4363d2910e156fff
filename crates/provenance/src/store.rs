//! The in-memory provenance store: the observation journal.
//!
//! The store plays the role of the provenance database attached to the
//! scientific workflow management system in the paper's Fig. 3: when a task
//! finishes, its monitoring data is appended. In this workspace it is the
//! **journal** — the ordered record log a predictor snapshots
//! ([`ProvenanceStore::all_records`]) and restores from. The per-key training
//! history Sizey predicts from lives in its model pools, so the store keeps
//! no per-key index: the query methods scan the retained records. The store
//! is thread-safe so the simulator can complete tasks from several worker
//! threads while others read.
//!
//! ## Bounded retention
//!
//! By default the store retains every record forever. For streaming replays
//! whose working set must stay bounded (million-task traces), a **retention
//! limit** turns the record log into a ring buffer: once more than `limit`
//! records are stored, the oldest are evicted, and every query answers from
//! the retained records only. [`ProvenanceStore::total_inserted`] and
//! [`ProvenanceStore::evicted`] expose the all-time counters, so a journal
//! that has lost its head can say so.

use crate::record::{TaskMachineKey, TaskOutcome, TaskRecord, TaskTypeId};
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
    /// Number of currently running tasks, maintained by the execution
    /// environment and exposed to predictors as context.
    running_tasks: u32,
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

    /// The retained records `keep` accepts, in insertion order.
    fn retained(&self, keep: impl Fn(&TaskRecord) -> bool) -> Vec<Arc<TaskRecord>> {
        let inner = self.inner.read();
        inner.records.iter().filter(|r| keep(r)).cloned().collect()
    }

    /// All retained records for one (task type, machine) combination, in
    /// insertion order.
    pub fn history(&self, key: &TaskMachineKey) -> Vec<Arc<TaskRecord>> {
        self.retained(|r| r.task_type == key.task_type && r.machine == key.machine)
    }

    /// All retained records of a task type regardless of machine, in
    /// insertion order.
    pub fn history_for_task_type(&self, task_type: &TaskTypeId) -> Vec<Arc<TaskRecord>> {
        self.retained(|r| r.task_type == *task_type)
    }

    /// Only the successful retained records for a (task type, machine)
    /// combination. Models are trained on successful executions — failed
    /// attempts never observed the true peak.
    pub fn successful_history(&self, key: &TaskMachineKey) -> Vec<Arc<TaskRecord>> {
        self.retained(|r| {
            r.outcome == TaskOutcome::Succeeded
                && r.task_type == key.task_type
                && r.machine == key.machine
        })
    }

    /// Number of retained executions for a (task type, machine) combination.
    pub fn count(&self, key: &TaskMachineKey) -> usize {
        self.history(key).len()
    }

    /// True when a retained record has this task type, on any machine.
    pub fn knows_task_type(&self, task_type: &TaskTypeId) -> bool {
        let inner = self.inner.read();
        inner.records.iter().any(|r| r.task_type == *task_type)
    }

    /// Largest peak memory among the retained records of a (task type,
    /// machine) combination, if any.
    pub fn max_observed_peak(&self, key: &TaskMachineKey) -> Option<f64> {
        self.history(key)
            .iter()
            .map(|r| r.peak_memory_bytes)
            .reduce(f64::max)
    }

    /// The distinct task types of the retained records, sorted.
    pub fn task_types(&self) -> Vec<TaskTypeId> {
        let mut types: Vec<TaskTypeId> = self
            .all_records()
            .iter()
            .map(|r| r.task_type.clone())
            .collect();
        types.sort();
        types.dedup();
        types
    }

    /// A snapshot of every retained record in insertion order.
    pub fn all_records(&self) -> Vec<Arc<TaskRecord>> {
        self.retained(|_| true)
    }

    /// Sets the number of currently running tasks (maintained by the
    /// execution environment).
    pub fn set_running_tasks(&self, n: u32) {
        self.inner.write().running_tasks = n;
    }

    /// The number of currently running tasks.
    pub fn running_tasks(&self) -> u32 {
        self.inner.read().running_tasks
    }

    /// Removes all records and resets the all-time counters (used between
    /// simulated workflow executions). The retention limit is kept.
    pub fn clear(&self) {
        let mut inner = self.inner.write();
        inner.records.clear();
        inner.total_inserted = 0;
        inner.running_tasks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MachineId;

    fn record(task: &str, machine: &str, seq: u64, peak: f64, outcome: TaskOutcome) -> TaskRecord {
        TaskRecord {
            workflow: "wf".to_string(),
            task_type: TaskTypeId::new(task),
            machine: MachineId::new(machine),
            sequence: seq,
            input_bytes: 1e9 + seq as f64,
            peak_memory_bytes: peak,
            allocated_memory_bytes: peak * 2.0,
            runtime_seconds: 60.0,
            concurrent_tasks: 1,
            queue_delay_seconds: 0.0,
            outcome,
        }
    }

    #[test]
    fn insert_and_query_by_key() {
        let store = ProvenanceStore::new();
        store.insert(record("a", "m1", 0, 1e9, TaskOutcome::Succeeded));
        store.insert(record("a", "m2", 1, 2e9, TaskOutcome::Succeeded));
        store.insert(record("b", "m1", 2, 3e9, TaskOutcome::Succeeded));
        assert_eq!(store.len(), 3);

        let key = TaskMachineKey::new("a", "m1");
        let hist = store.history(&key);
        assert_eq!(hist.len(), 1);
        assert_eq!(hist[0].peak_memory_bytes, 1e9);
        assert_eq!(store.count(&key), 1);
        assert_eq!(store.count(&TaskMachineKey::new("a", "m2")), 1);
        assert_eq!(store.count(&TaskMachineKey::new("z", "m1")), 0);
    }

    #[test]
    fn history_preserves_insertion_order() {
        let store = ProvenanceStore::new();
        for seq in 0..10 {
            store.insert(record("a", "m1", seq, seq as f64, TaskOutcome::Succeeded));
        }
        let hist = store.history(&TaskMachineKey::new("a", "m1"));
        let seqs: Vec<u64> = hist.iter().map(|r| r.sequence).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn successful_history_filters_failures() {
        let store = ProvenanceStore::new();
        store.insert(record("a", "m1", 0, 1e9, TaskOutcome::Succeeded));
        store.insert(record("a", "m1", 1, 2e9, TaskOutcome::FailedOutOfMemory));
        let key = TaskMachineKey::new("a", "m1");
        assert_eq!(store.history(&key).len(), 2);
        assert_eq!(store.successful_history(&key).len(), 1);
    }

    #[test]
    fn history_for_task_type_spans_machines() {
        let store = ProvenanceStore::new();
        store.insert(record("a", "m1", 0, 1e9, TaskOutcome::Succeeded));
        store.insert(record("a", "m2", 1, 2e9, TaskOutcome::Succeeded));
        assert_eq!(store.history_for_task_type(&TaskTypeId::new("a")).len(), 2);
        assert!(store.knows_task_type(&TaskTypeId::new("a")));
        assert!(!store.knows_task_type(&TaskTypeId::new("b")));
    }

    #[test]
    fn max_observed_peak_tracks_maximum() {
        let store = ProvenanceStore::new();
        let key = TaskMachineKey::new("a", "m1");
        assert_eq!(store.max_observed_peak(&key), None);
        store.insert(record("a", "m1", 0, 1e9, TaskOutcome::Succeeded));
        store.insert(record("a", "m1", 1, 5e9, TaskOutcome::FailedOutOfMemory));
        store.insert(record("a", "m1", 2, 3e9, TaskOutcome::Succeeded));
        assert_eq!(store.max_observed_peak(&key), Some(5e9));
    }

    #[test]
    fn task_types_are_sorted_and_unique() {
        let store = ProvenanceStore::new();
        store.insert(record("b", "m1", 0, 1.0, TaskOutcome::Succeeded));
        store.insert(record("a", "m1", 1, 1.0, TaskOutcome::Succeeded));
        store.insert(record("a", "m2", 2, 1.0, TaskOutcome::Succeeded));
        let types = store.task_types();
        assert_eq!(types, vec![TaskTypeId::new("a"), TaskTypeId::new("b")]);
    }

    #[test]
    fn running_tasks_counter() {
        let store = ProvenanceStore::new();
        assert_eq!(store.running_tasks(), 0);
        store.set_running_tasks(7);
        assert_eq!(store.running_tasks(), 7);
    }

    #[test]
    fn clear_resets_everything() {
        let store = ProvenanceStore::new();
        store.insert(record("a", "m1", 0, 1.0, TaskOutcome::Succeeded));
        store.set_running_tasks(3);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.running_tasks(), 0);
        assert!(store.task_types().is_empty());
        assert_eq!(store.total_inserted(), 0);
        assert_eq!(store.evicted(), 0);
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let store = Arc::new(ProvenanceStore::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for i in 0..50 {
                        store.insert(record("a", "m1", t * 100 + i, 1e9, TaskOutcome::Succeeded));
                        let _ = store.history(&TaskMachineKey::new("a", "m1"));
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
            store.insert(record("a", "m1", seq, seq as f64, TaskOutcome::Succeeded));
        }
        assert_eq!(store.len(), 5);
        assert_eq!(store.total_inserted(), 12);
        assert_eq!(store.evicted(), 7);
        let hist = store.history(&TaskMachineKey::new("a", "m1"));
        let seqs: Vec<u64> = hist.iter().map(|r| r.sequence).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10, 11]);
        assert_eq!(store.count(&TaskMachineKey::new("a", "m1")), 5);
    }

    #[test]
    fn queries_forget_evicted_records() {
        let store = ProvenanceStore::with_retention(2);
        let key = TaskMachineKey::new("a", "m1");
        store.insert(record("a", "m1", 0, 9e9, TaskOutcome::FailedOutOfMemory));
        store.insert(record("b", "m1", 1, 1e9, TaskOutcome::Succeeded));
        store.insert(record("b", "m1", 2, 2e9, TaskOutcome::Succeeded));
        store.insert(record("b", "m1", 3, 3e9, TaskOutcome::Succeeded));
        // The "a" record (and its 9 GB peak) has been evicted. The store is
        // the journal, so it answers from what it still holds; the retry
        // escalation reads the model pool's maximum, not this.
        assert!(store.history(&key).is_empty());
        assert_eq!(store.max_observed_peak(&key), None);
        assert!(!store.knows_task_type(&TaskTypeId::new("a")));
        assert_eq!(store.task_types(), vec![TaskTypeId::new("b")]);
        assert_eq!(store.evicted(), 2);
    }

    #[test]
    fn bounded_and_unbounded_agree_on_retained_suffix() {
        let bounded = ProvenanceStore::with_retention(4);
        let unbounded = ProvenanceStore::new();
        for seq in 0..9 {
            let r = record("a", "m1", seq, (seq + 1) as f64, TaskOutcome::Succeeded);
            bounded.insert(r.clone());
            unbounded.insert(r);
        }
        let full = unbounded.history(&TaskMachineKey::new("a", "m1"));
        let tail = bounded.history(&TaskMachineKey::new("a", "m1"));
        assert_eq!(&full[full.len() - 4..], &tail[..]);
        assert_eq!(
            bounded.max_observed_peak(&TaskMachineKey::new("a", "m1")),
            unbounded.max_observed_peak(&TaskMachineKey::new("a", "m1")),
        );
    }
}
