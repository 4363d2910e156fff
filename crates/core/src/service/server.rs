//! The async request-queue serving front-end: per-shard submission queues,
//! micro-batched observes, lock-free snapshot predicts.
//!
//! [`AsyncService`] composes the pieces of this subsystem into the pipeline
//! sketched in the [module docs](super):
//!
//! ```text
//! observe(record) ──route──▶ [shard queue] ──▶ micro-batcher (worker thread)
//!                                                │  observe_shard(batch)
//!                                                ▼
//! predict(task)  ◀──wait-free load── [SnapshotCell] ◀── publish view
//! ```
//!
//! * **Predicts never take a lock.** Every shard's learned state is
//!   published as an immutable snapshot in a
//!   [`SnapshotCell`]; `predict` routes by the stable shard hash, takes the
//!   snapshot wait-free and runs the ordinary read path on it, which writes
//!   nothing: a snapshot predict leaves no trace in the live predictor or
//!   its checkpoint. A concurrent observe batch, retrain or snapshot
//!   publication cannot block it.
//! * **Observes are asynchronous.** `observe` enqueues onto the owning
//!   shard's bounded queue and returns; the shard's worker drains the queue
//!   in micro-batches (size cap + time window), applies them under the shard
//!   write lock (a due full retrain runs inside the observe that found it
//!   due), and publishes a fresh snapshot — the predictor's
//!   [`published_view`](SizeyPredictor::published_view), taken by
//!   [`clone_shard`](ConcurrentPredictor::clone_shard). The view shares
//!   its model pools with the live predictor and leaves out what `predict`
//!   never reads, so a publish costs one `Arc` bump per resident key and the
//!   next batch copies only the pools it writes to.
//! * **Backpressure is explicit.** Queues are bounded; the admission policy
//!   either blocks the submitter ([`AdmissionPolicy::Block`]) or sheds the
//!   record and counts it ([`AdmissionPolicy::Shed`]). The queue bound is an
//!   invariant, not a target.
//! * **Shutdown drains.** Dropping (or [`AsyncService::shutdown`]) closes
//!   the queues — rejecting new work — and joins the workers, which first
//!   process everything already accepted: accepted observes are never lost.
//!
//! **Bit-identity.** Records of one (task type, machine) key always land on
//! one shard's queue in submission order, so each shard's predictor consumes
//! the exact per-key record sequence the locked [`ConcurrentSizey`] path would
//! have applied — and the snapshot holds that predictor's pools themselves,
//! which the predictor's later writes copy rather than change.
//! After a [`flush`](AsyncService::flush), predictions through the snapshot
//! path are therefore bit-identical to the locked path and to a serial
//! predictor fed the same per-key sequences (pinned by the
//! `service_equivalence` proptests).
//!
//! [`ConcurrentSizey`]: crate::serve::ConcurrentSizey

// The predict path of the serving layer lives here; the marker opts the
// module into the no-panic-hot-path lint rule.
#![doc = "lint:hot-path"]

use crate::config::SizeyConfig;
use crate::serve::ConcurrentPredictor;
use crate::service::queue::BoundedQueue;
use crate::service::snapshot::SnapshotCell;
use crate::sizey::SizeyPredictor;
use parking_lot::{Condvar, Mutex};
use sizey_provenance::TaskRecord;
use sizey_sim::{AttemptContext, MemoryPredictor, Prediction, TaskSubmission};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What happens to an observe submission when its shard queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block the submitting thread until the queue has room: backpressure
    /// propagates to the client, no record is ever dropped. The default.
    #[default]
    Block,
    /// Reject the record immediately and count it in
    /// [`ServiceStats::shed`]: the submitter stays fast under overload and
    /// the model simply learns from a sample of the traffic.
    Shed,
}

/// Tuning knobs of the [`AsyncService`] (see the [module docs](self) for
/// how each stage uses them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Bound of each per-shard submission queue.
    pub queue_capacity: usize,
    /// Most records one micro-batch applies under a single shard
    /// write-lock hold.
    pub batch_max: usize,
    /// How long the micro-batcher waits for stragglers after the first
    /// record of a batch arrives.
    pub batch_window: Duration,
    /// Full-queue behaviour: block the submitter or shed the record.
    pub admission: AdmissionPolicy,
    /// Has no effect, and nothing reads it: every full retrain runs inside
    /// the observe that found it due, which keeps the service bit-identical
    /// to a serial predictor for any batching. ROADMAP item 8 deletes it
    /// together with the benchmark's use of it.
    #[deprecated(note = "has no effect: full retrains always run inside observe")]
    pub deferred_retrains: bool,
}

impl Default for ServiceConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 1024,
            batch_max: 64,
            batch_window: Duration::from_micros(200),
            admission: AdmissionPolicy::Block,
            deferred_retrains: false,
        }
    }
}

/// A point-in-time reading of the service's monotonic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Predictions served (all through the lock-free snapshot path).
    pub predicts: u64,
    /// Observe submissions attempted.
    pub submitted: u64,
    /// Observe submissions accepted onto a shard queue.
    pub accepted: u64,
    /// Observe submissions rejected by admission control (full queue under
    /// [`AdmissionPolicy::Shed`], or any submission after shutdown began).
    pub shed: u64,
    /// Records applied to shard predictors by the workers.
    pub observed: u64,
    /// Micro-batches applied.
    pub batches: u64,
    /// Snapshots published (one per micro-batch that contained records).
    pub snapshots_published: u64,
    /// Always reads 0: no retrain is left for the workers to run, because
    /// every full retrain runs inside the observe that found it due. ROADMAP
    /// item 8 deletes it together with the benchmark's use of it.
    #[deprecated(note = "always 0: full retrains always run inside observe")]
    pub retrains_installed: u64,
    /// Always reads 0: no retrain is ever left waiting, because every full
    /// retrain runs inside the observe that found it due. ROADMAP item 8
    /// deletes it together with the benchmark's use of it.
    #[deprecated(note = "always 0: full retrains always run inside observe")]
    pub retrain_backlog: u64,
}

#[derive(Default)]
struct Counters {
    predicts: AtomicU64,
    submitted: AtomicU64,
    accepted: AtomicU64,
    shed: AtomicU64,
    observed: AtomicU64,
    batches: AtomicU64,
    snapshots_published: AtomicU64,
}

/// A countdown barrier: `flush` enqueues one marker per shard and waits
/// until every worker has arrived (i.e. processed everything queued before
/// the marker on its shard).
struct FlushGate {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl FlushGate {
    fn new(count: usize) -> Self {
        FlushGate {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    fn arrive(&self) {
        let mut remaining = self.remaining.lock();
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock();
        while *remaining > 0 {
            remaining = self.done.wait(remaining);
        }
    }
}

/// One message on a shard's submission queue.
enum ShardMsg {
    /// A monitoring record to learn from.
    Observe(TaskRecord),
    /// A flush barrier marker: the worker arrives at the gate once every
    /// message queued before it has been applied and published.
    Flush(Arc<FlushGate>),
}

struct ServiceInner {
    service: ConcurrentPredictor<SizeyPredictor>,
    queues: Vec<BoundedQueue<ShardMsg>>,
    snapshots: Vec<SnapshotCell<SizeyPredictor>>,
    config: ServiceConfig,
    counters: Counters,
}

/// The async Sizey serving front-end. See the [module docs](self) for the
/// pipeline and guarantees. Tenants share one service through an
/// `Arc<AsyncService>`: it drains and joins when the last reference drops.
pub struct AsyncService {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

/// The async Sizey service (the name the serving layer's callers use).
pub type AsyncSizey = AsyncService;

impl AsyncService {
    /// Wraps an existing sharded service: packs each shard's pools
    /// ([`SizeyPredictor::pack_pools`]), publishes its initial snapshot and
    /// spawns one micro-batching worker thread per shard.
    pub fn new(service: ConcurrentPredictor<SizeyPredictor>, config: ServiceConfig) -> Self {
        let shards = service.shard_count();
        for shard in 0..shards {
            service.with_shard_mut(shard, SizeyPredictor::pack_pools);
        }
        let snapshots = (0..shards)
            .map(|shard| SnapshotCell::new(Arc::new(service.clone_shard(shard))))
            .collect();
        let queues = (0..shards)
            .map(|_| BoundedQueue::new(config.queue_capacity))
            .collect();
        let inner = Arc::new(ServiceInner {
            service,
            queues,
            snapshots,
            config,
            counters: Counters::default(),
        });
        let workers = (0..shards)
            .map(|shard| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, shard))
            })
            .collect();
        AsyncService { inner, workers }
    }

    /// Number of shards (= submission queues = worker threads).
    pub fn shard_count(&self) -> usize {
        self.inner.service.shard_count()
    }

    /// Sizes one attempt through the **lock-free path**: routes to the
    /// owning shard, takes its current snapshot wait-free and predicts on
    /// it. Never blocks on observes, retrains or snapshot publications. The
    /// snapshot lags the live predictor by at most one micro-batch; use
    /// [`flush`](AsyncService::flush) first when a caller needs every
    /// accepted observe reflected.
    pub fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        self.inner.counters.predicts.fetch_add(1, Ordering::Relaxed);
        let shard = self.inner.service.shard_of_task(task);
        match self.inner.snapshots.get(shard) {
            Some(cell) => cell.load().predict(task, ctx),
            // Unreachable (routing is modulo the shard count), but the
            // locked path is a sound fallback and keeps this panic-free.
            None => self.inner.service.predict(task, ctx),
        }
    }

    /// Sizes one attempt through the **locked path** (shard read lock on
    /// the live predictor), bypassing the snapshot. Reference for the
    /// equivalence tests and for callers that need read-your-own-write
    /// without a flush.
    pub fn predict_locked(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        self.inner.service.predict(task, ctx)
    }

    /// Submits one finished attempt to the owning shard's queue and returns
    /// without waiting for it to be applied. Returns `true` when the record
    /// was accepted; `false` when admission control shed it (full queue
    /// under [`AdmissionPolicy::Shed`], or the service is shutting down).
    /// Under [`AdmissionPolicy::Block`] a full queue blocks instead — the
    /// submitter feels the backpressure.
    pub fn observe(&self, record: &TaskRecord) -> bool {
        self.inner
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        let shard = self.inner.service.shard_of_record(record);
        let Some(queue) = self.inner.queues.get(shard) else {
            self.inner.counters.shed.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let message = ShardMsg::Observe(record.clone());
        let outcome = match self.inner.config.admission {
            AdmissionPolicy::Block => queue.send(message),
            AdmissionPolicy::Shed => queue.try_send(message),
        };
        match outcome {
            Ok(()) => {
                self.inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.inner.counters.shed.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Waits until every observe accepted before this call has been applied
    /// to its shard predictor and published in a snapshot. After `flush`
    /// returns, [`predict`](AsyncService::predict) reflects all of them —
    /// the quiescent point the bit-identity guarantees are stated at.
    pub fn flush(&self) {
        let gate = Arc::new(FlushGate::new(self.inner.queues.len()));
        for queue in &self.inner.queues {
            // A closed queue means that worker already drained everything it
            // will ever see; arrive on its behalf.
            if queue.send(ShardMsg::Flush(Arc::clone(&gate))).is_err() {
                gate.arrive();
            }
        }
        gate.wait();
    }

    /// Current queue depth per shard (never above the configured capacity).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.inner.queues.iter().map(BoundedQueue::len).collect()
    }

    /// A point-in-time reading of the service counters. Reads atomics only,
    /// so a monitor polling it never waits behind a worker's retrain.
    #[allow(deprecated)]
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        ServiceStats {
            predicts: c.predicts.load(Ordering::Relaxed),
            submitted: c.submitted.load(Ordering::Relaxed),
            accepted: c.accepted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            observed: c.observed.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            snapshots_published: c.snapshots_published.load(Ordering::Relaxed),
            retrains_installed: 0,
            retrain_backlog: 0,
        }
    }

    /// The wrapped sharded service (telemetry, checkpoints). Mutating it
    /// directly bypasses the queues; the snapshots will catch up at the next
    /// micro-batch on the affected shard.
    pub fn service(&self) -> &ConcurrentPredictor<SizeyPredictor> {
        &self.inner.service
    }

    /// Graceful shutdown: closes every queue (new submissions are shed),
    /// waits for the workers to drain and apply everything already accepted,
    /// joins them, and returns the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        for queue in &self.inner.queues {
            queue.close();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// An async Sizey service: `shards` independent [`SizeyPredictor`]s with
    /// identical configuration behind the queue/snapshot front-end.
    pub fn sizey(config: SizeyConfig, shards: usize, service_config: ServiceConfig) -> Self {
        AsyncService::new(
            ConcurrentPredictor::new(shards, |_| SizeyPredictor::new(config.clone())),
            service_config,
        )
    }
}

impl Drop for AsyncService {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn worker_loop(inner: &ServiceInner, shard: usize) {
    let config = &inner.config;
    let (Some(queue), Some(cell)) = (inner.queues.get(shard), inner.snapshots.get(shard)) else {
        return;
    };
    let mut messages: Vec<ShardMsg> = Vec::with_capacity(config.batch_max);
    let mut records: Vec<TaskRecord> = Vec::with_capacity(config.batch_max);
    let mut gates: Vec<Arc<FlushGate>> = Vec::new();
    loop {
        messages.clear();
        // Blocks for the first message, then drains the micro-batch window.
        // 0 means closed-and-drained: every accepted message was processed.
        if queue.recv_batch(&mut messages, config.batch_max, config.batch_window) == 0 {
            break;
        }
        records.clear();
        for message in messages.drain(..) {
            match message {
                ShardMsg::Observe(record) => records.push(record),
                ShardMsg::Flush(gate) => gates.push(gate),
            }
        }
        if !records.is_empty() {
            // One write-lock hold per batch, records in submission order —
            // per-key order is exactly the serial predictor's.
            inner.service.observe_shard(shard, &records);
            // Publish the new state; predicts switch over wait-free.
            cell.store(Arc::new(inner.service.clone_shard(shard)));
            let c = &inner.counters;
            c.observed
                .fetch_add(records.len() as u64, Ordering::Relaxed);
            c.batches.fetch_add(1, Ordering::Relaxed);
            c.snapshots_published.fetch_add(1, Ordering::Relaxed);
        }
        // Arrive *after* the batch is applied and published: everything
        // queued before the marker is now visible to snapshot predicts.
        for gate in gates.drain(..) {
            gate.arrive();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_provenance::{MachineId, TaskOutcome, TaskTypeId};

    fn submission(task_type: &str, seq: u64, input: f64) -> TaskSubmission {
        TaskSubmission {
            workflow: "wf".into(),
            task_type: TaskTypeId::new(task_type),
            machine: MachineId::new("m"),
            sequence: seq,
            input_bytes: input,
            preset_memory_bytes: 20e9,
        }
    }

    fn record(task_type: &str, seq: u64, input: f64, peak: f64) -> TaskRecord {
        TaskRecord {
            workflow: "wf".into(),
            task_type: TaskTypeId::new(task_type),
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

    #[test]
    fn observes_flow_through_and_flush_makes_them_visible() {
        let service = AsyncSizey::sizey(SizeyConfig::default(), 4, ServiceConfig::default());
        for i in 1..=20u64 {
            let input = i as f64 * 1e9;
            assert!(service.observe(&record("align", i, input, 2.0 * input + 1e9)));
        }
        service.flush();
        let pred = service.predict(&submission("align", 100, 5e9), AttemptContext::first());
        assert!(pred.raw_estimate_bytes.is_some(), "snapshot must be warm");
        assert!(pred.allocation_bytes < 20e9);
        let stats = service.stats();
        assert_eq!(stats.accepted, 20);
        assert_eq!(stats.observed, 20);
        assert_eq!(stats.shed, 0);
        assert!(stats.snapshots_published >= 1);
    }

    #[test]
    fn snapshot_and_locked_paths_agree_after_flush() {
        let service = AsyncSizey::sizey(SizeyConfig::default(), 4, ServiceConfig::default());
        for task_type in ["a", "b", "c"] {
            for i in 1..=15u64 {
                let input = i as f64 * 1e9;
                service.observe(&record(task_type, i, input, 1.7 * input + 5e8));
            }
        }
        service.flush();
        for task_type in ["a", "b", "c", "unseen"] {
            let task = submission(task_type, 500, 6.5e9);
            assert_eq!(
                service.predict(&task, AttemptContext::first()),
                service.predict_locked(&task, AttemptContext::first()),
                "snapshot diverged from the locked path on {task_type}"
            );
        }
    }

    #[test]
    fn shed_admission_bounds_queues_and_counts_drops() {
        let config = ServiceConfig {
            queue_capacity: 4,
            // A huge window and batch so the worker sits on its first batch
            // while we overflow the queue.
            batch_max: 1024,
            batch_window: Duration::from_millis(300),
            admission: AdmissionPolicy::Shed,
            ..ServiceConfig::default()
        };
        let service = AsyncSizey::sizey(SizeyConfig::default(), 1, config);
        let mut accepted = 0u64;
        for i in 1..=200u64 {
            if service.observe(&record("t", i, 1e9, 2e9)) {
                accepted += 1;
            }
            assert!(
                service.queue_depths().iter().all(|&d| d <= 4),
                "queue exceeded its capacity bound"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 200);
        assert_eq!(stats.accepted, accepted);
        assert_eq!(stats.accepted + stats.shed, stats.submitted);
        let final_stats = service.shutdown();
        // Every accepted record was applied before the workers exited.
        assert_eq!(final_stats.observed, accepted);
    }

    #[test]
    fn shutdown_drains_accepted_observes() {
        let service = AsyncSizey::sizey(SizeyConfig::default(), 2, ServiceConfig::default());
        for i in 1..=50u64 {
            let input = (i % 10 + 1) as f64 * 1e9;
            service.observe(&record("drain", i, input, 2.0 * input));
        }
        // No flush: shutdown itself must drain the queues.
        let stats = service.shutdown();
        assert_eq!(stats.accepted, 50);
        assert_eq!(stats.observed, 50, "accepted observes were lost");
    }

    /// Runs `f` while this thread holds shard 0's write lock, as a worker
    /// does for a whole micro-batch (retrains included): shard 0's worker
    /// stalls at its next batch until `f` returns.
    fn with_shard_0_write_locked<R>(service: &AsyncSizey, f: impl FnOnce() -> R) -> R {
        service.service().with_shard_mut(0, |_| f())
    }

    /// `stats()` reads atomics only: it returns from another thread while
    /// the shard's write lock is held.
    #[test]
    fn stats_returns_while_a_shard_is_write_locked() {
        let service = Arc::new(AsyncSizey::sizey(
            SizeyConfig::default(),
            1,
            ServiceConfig::default(),
        ));
        for task_type in ["a", "b"] {
            for i in 1..=30u64 {
                let input = i as f64 * 1e9;
                service.observe(&record(task_type, i, input, 2.0 * input + 1e9));
            }
        }
        service.flush();
        let pred = service.predict(&submission("a", 900, 6e9), AttemptContext::first());
        assert!(pred.raw_estimate_bytes.is_some());
        let (tx, rx) = std::sync::mpsc::channel();
        let (during, stats_thread) = with_shard_0_write_locked(&service, || {
            let service = Arc::clone(&service);
            let stats_thread = std::thread::spawn(move || tx.send(service.stats()));
            (rx.recv_timeout(Duration::from_secs(30)), stats_thread)
        });
        let during = during.expect("stats() must return while the shard is write-locked");
        assert_eq!(during.observed, 60);
        stats_thread
            .join()
            .expect("stats thread")
            .expect("receiver outlives the send");
    }

    #[test]
    fn paused_shard_backs_up_then_drains_with_exact_accounting() {
        let config = ServiceConfig {
            queue_capacity: 8,
            batch_max: 4,
            admission: AdmissionPolicy::Shed,
            ..ServiceConfig::default()
        };
        // Single shard: holding its write lock stalls the whole service.
        let service = AsyncSizey::sizey(SizeyConfig::default(), 1, config);
        let (accepted, stalled) = with_shard_0_write_locked(&service, || {
            let mut accepted = 0u64;
            for i in 1..=100u64 {
                if service.observe(&record("chaos", i, 1e9, 2e9)) {
                    accepted += 1;
                }
            }
            (accepted, service.stats())
        });
        assert_eq!(stalled.submitted, 100);
        assert_eq!(stalled.accepted, accepted);
        assert_eq!(stalled.accepted + stalled.shed, stalled.submitted);
        // The stalled worker holds at most one batch (4) and the queue at
        // most its capacity (8), so at most 12 of the 100 were accepted.
        assert!(accepted <= 12, "accepted {accepted} while stalled");
        assert!(stalled.shed > 0, "a stalled worker must back the queue up");
        // Released: flush must apply every accepted record.
        service.flush();
        let drained = service.stats();
        assert_eq!(drained.observed, accepted);
        assert!(service.queue_depths().iter().all(|&d| d == 0));
        let final_stats = service.shutdown();
        assert_eq!(final_stats.observed, accepted);
    }

    /// Predicts on the lock-free path only read: the checkpoint taken after
    /// snapshot predicts equals the one taken before them, and it restores.
    #[test]
    fn snapshot_predicts_leave_the_checkpoint_unchanged() {
        use sizey_sim::CheckpointPredictor;
        let service = AsyncSizey::sizey(SizeyConfig::default(), 2, ServiceConfig::default());
        for i in 1..=15 {
            let input = i as f64 * 1e9;
            service.observe(&record("align", i, input, 2.0 * input + 1e9));
        }
        service.flush();
        let before = service.service().snapshot();
        for i in 0..20 {
            let pred = service.predict(&submission("align", 100 + i, 5e9), AttemptContext::first());
            assert!(pred.raw_estimate_bytes.is_some(), "snapshot must be warm");
        }
        assert_eq!(service.service().snapshot(), before);

        let mut restored = crate::serve::ConcurrentSizey::sizey(SizeyConfig::default(), 3);
        restored.restore(&before).expect("fresh service");
        assert_eq!(restored.snapshot(), before);
    }

    #[test]
    fn flush_on_idle_service_returns_immediately() {
        let service = AsyncSizey::sizey(SizeyConfig::default(), 4, ServiceConfig::default());
        service.flush();
        service.flush();
        assert_eq!(service.stats().observed, 0);
    }
}
