//! The in-memory provenance store.
//!
//! The store plays the role of the provenance database attached to the
//! scientific workflow management system in the paper's Fig. 3: when a task
//! is submitted, Sizey retrieves all historical executions of the same
//! (task type, machine) combination; when a task finishes, its monitoring
//! data is appended. The store is thread-safe so the simulator can complete
//! tasks from several worker threads while predictors query concurrently.
//!
//! ## Bounded retention
//!
//! By default the store retains every record forever. For streaming replays
//! whose working set must stay bounded (million-task traces), a **retention
//! limit** turns the record log into a ring buffer: once more than `limit`
//! records are stored, the oldest are evicted. Records keep stable,
//! monotonically increasing ids, so the per-key indexes stay consistent
//! across evictions; [`ProvenanceStore::total_inserted`] and
//! [`ProvenanceStore::evicted`] expose the all-time counters. Two pieces of
//! state deliberately survive eviction so that bounding the store never
//! weakens safety-critical answers:
//!
//! * [`max_observed_peak`](ProvenanceStore::max_observed_peak) is a running
//!   maximum over **all** inserted records, evicted or not (the
//!   failure-handling escalation must never forget a large peak), and
//! * [`knows_task_type`](ProvenanceStore::knows_task_type) stays true for a
//!   task type whose records have all been evicted.

use crate::record::{TaskMachineKey, TaskOutcome, TaskRecord, TaskTypeId};
use parking_lot::RwLock;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Thread-safe, indexed provenance store.
#[derive(Debug, Default)]
pub struct ProvenanceStore {
    inner: RwLock<StoreInner>,
}

/// Cloning takes a consistent snapshot of the whole store under its read
/// lock. Records are `Arc`-shared, so the deep part of the clone is the
/// index maps, not the monitoring data.
impl Clone for ProvenanceStore {
    fn clone(&self) -> Self {
        ProvenanceStore {
            inner: RwLock::new(self.inner.read().clone()),
        }
    }
}

#[derive(Debug, Default, Clone)]
struct StoreInner {
    /// Retained records in insertion order. Record `i` of the deque has the
    /// stable id `base + i`.
    records: VecDeque<Arc<TaskRecord>>,
    /// Stable id of the oldest retained record (number of evictions so far).
    base: u64,
    /// Index: (task type, machine) -> stable record ids, insertion order.
    by_key: HashMap<TaskMachineKey, VecDeque<u64>>,
    /// Index: task type -> stable record ids (across machines).
    by_task_type: HashMap<TaskTypeId, VecDeque<u64>>,
    /// All-time maximum peak per key; survives eviction.
    max_peak_by_key: HashMap<TaskMachineKey, f64>,
    /// All-time number of inserted records (retained + evicted).
    total_inserted: u64,
    /// Retention limit; `None` keeps everything (the default).
    retention: Option<usize>,
    /// Number of currently running tasks, maintained by the execution
    /// environment and exposed to predictors as context.
    running_tasks: u32,
}

impl StoreInner {
    fn get(&self, id: u64) -> Option<&Arc<TaskRecord>> {
        id.checked_sub(self.base)
            .and_then(|offset| self.records.get(offset as usize))
    }

    /// Evicts the oldest retained record, unlinking it from both indexes
    /// (the oldest record's id is by construction at the front of its
    /// per-key lists).
    fn evict_front(&mut self) {
        let Some(record) = self.records.pop_front() else {
            return;
        };
        let id = self.base;
        self.base += 1;
        if let Some(ids) = self.by_key.get_mut(&record.key()) {
            if ids.front() == Some(&id) {
                ids.pop_front();
            }
        }
        if let Some(ids) = self.by_task_type.get_mut(&record.task_type) {
            if ids.front() == Some(&id) {
                ids.pop_front();
            }
        }
        // Empty index entries are kept on purpose: `knows_task_type` must
        // keep answering true after the type's records age out.
    }
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

    /// Changes the retention limit. `None` disables eviction; a limit
    /// smaller than the current size evicts immediately.
    pub fn set_retention(&self, limit: Option<usize>) {
        let mut inner = self.inner.write();
        inner.retention = limit.map(|l| l.max(1));
        if let Some(cap) = inner.retention {
            while inner.records.len() > cap {
                inner.evict_front();
            }
        }
    }

    /// The current retention limit (`None` = unlimited).
    pub fn retention(&self) -> Option<usize> {
        self.inner.read().retention
    }

    /// Appends a finished task record.
    pub fn insert(&self, record: TaskRecord) {
        let mut inner = self.inner.write();
        let id = inner.base + inner.records.len() as u64;
        let key = record.key();
        let task_type = record.task_type.clone();
        let peak = record.peak_memory_bytes;
        inner.records.push_back(Arc::new(record));
        inner.by_key.entry(key.clone()).or_default().push_back(id);
        inner
            .by_task_type
            .entry(task_type)
            .or_default()
            .push_back(id);
        inner
            .max_peak_by_key
            .entry(key)
            .and_modify(|m| *m = m.max(peak))
            .or_insert(peak);
        inner.total_inserted += 1;
        if let Some(cap) = inner.retention {
            while inner.records.len() > cap {
                inner.evict_front();
            }
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
        self.inner.read().base
    }

    /// All retained records for one (task type, machine) combination, in
    /// insertion order. This is the query Sizey issues on every task
    /// submission.
    pub fn history(&self, key: &TaskMachineKey) -> Vec<Arc<TaskRecord>> {
        let inner = self.inner.read();
        inner
            .by_key
            .get(key)
            .map(|ids| {
                ids.iter()
                    .filter_map(|&id| inner.get(id).cloned())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All retained records of a task type regardless of machine, in
    /// insertion order.
    pub fn history_for_task_type(&self, task_type: &TaskTypeId) -> Vec<Arc<TaskRecord>> {
        let inner = self.inner.read();
        inner
            .by_task_type
            .get(task_type)
            .map(|ids| {
                ids.iter()
                    .filter_map(|&id| inner.get(id).cloned())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Only the successful retained records for a (task type, machine)
    /// combination. Models are trained on successful executions — failed
    /// attempts never observed the true peak.
    pub fn successful_history(&self, key: &TaskMachineKey) -> Vec<Arc<TaskRecord>> {
        self.history(key)
            .into_iter()
            .filter(|r| r.outcome == TaskOutcome::Succeeded)
            .collect()
    }

    /// Number of retained executions for a (task type, machine) combination.
    pub fn count(&self, key: &TaskMachineKey) -> usize {
        self.inner.read().by_key.get(key).map_or(0, VecDeque::len)
    }

    /// True when the task type has been observed before on any machine —
    /// including types whose records have since been evicted.
    pub fn knows_task_type(&self, task_type: &TaskTypeId) -> bool {
        self.inner.read().by_task_type.contains_key(task_type)
    }

    /// Largest peak memory ever observed for a (task type, machine)
    /// combination, if any — an all-time maximum that survives eviction, so
    /// the failure-handling strategy never forgets a large peak.
    pub fn max_observed_peak(&self, key: &TaskMachineKey) -> Option<f64> {
        self.inner.read().max_peak_by_key.get(key).copied()
    }

    /// All distinct task types seen so far (including evicted ones).
    pub fn task_types(&self) -> Vec<TaskTypeId> {
        let inner = self.inner.read();
        let mut types: Vec<TaskTypeId> = inner.by_task_type.keys().cloned().collect();
        types.sort();
        types
    }

    /// A snapshot of every retained record in insertion order.
    pub fn all_records(&self) -> Vec<Arc<TaskRecord>> {
        self.inner.read().records.iter().map(Arc::clone).collect()
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
        inner.base = 0;
        inner.by_key.clear();
        inner.by_task_type.clear();
        inner.max_peak_by_key.clear();
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
    fn max_peak_and_task_types_survive_eviction() {
        let store = ProvenanceStore::with_retention(2);
        let key = TaskMachineKey::new("a", "m1");
        store.insert(record("a", "m1", 0, 9e9, TaskOutcome::FailedOutOfMemory));
        store.insert(record("b", "m1", 1, 1e9, TaskOutcome::Succeeded));
        store.insert(record("b", "m1", 2, 2e9, TaskOutcome::Succeeded));
        store.insert(record("b", "m1", 3, 3e9, TaskOutcome::Succeeded));
        // The "a" record (and its 9 GB peak) has been evicted...
        assert!(store.history(&key).is_empty());
        // ...but the safety-critical answers survive.
        assert_eq!(store.max_observed_peak(&key), Some(9e9));
        assert!(store.knows_task_type(&TaskTypeId::new("a")));
    }

    #[test]
    fn set_retention_trims_immediately_and_can_be_lifted() {
        let store = ProvenanceStore::new();
        for seq in 0..10 {
            store.insert(record("a", "m1", seq, 1.0, TaskOutcome::Succeeded));
        }
        store.set_retention(Some(3));
        assert_eq!(store.len(), 3);
        assert_eq!(store.evicted(), 7);
        store.set_retention(None);
        for seq in 10..20 {
            store.insert(record("a", "m1", seq, 1.0, TaskOutcome::Succeeded));
        }
        assert_eq!(store.len(), 13);
        assert_eq!(store.retention(), None);
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
