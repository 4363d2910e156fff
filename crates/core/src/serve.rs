//! Concurrent sharded prediction service.
//!
//! The split predictor API (`predict` on `&self`, `observe` on `&mut self`)
//! makes a single predictor safe to read from many threads, but one global
//! lock would serialize every observe against every predict. This module
//! adds the serving layer for heavy multi-tenant traffic:
//!
//! * **Sharding** — the key space is partitioned across `shards` independent
//!   predictor instances by a **stable FNV-1a hash** of
//!   [`TaskMachineKey`](sizey_provenance::TaskMachineKey) (task type ×
//!   machine). All learned state in Sizey
//!   and the baselines is keyed per (task type, machine), so routing every
//!   predict *and* observe of a key to the same shard reproduces the serial
//!   predictor's decisions bit for bit while letting unrelated keys proceed
//!   in parallel. The hash is pinned by this crate (not borrowed from std),
//!   so shard assignments are identical across binaries, rustc releases and
//!   platforms — which is what makes [`ServiceCheckpoint`]s portable.
//! * **Locking discipline** — each shard sits behind its own
//!   `parking_lot::RwLock`. Predictions take the shard's read lock (many
//!   concurrent readers); model updates take its write lock. A write stalls
//!   only the readers of its own shard, never the other `shards - 1`.
//! * **Batching** — [`ConcurrentPredictor::predict_batch`] fans a slice of
//!   submissions across scoped worker threads ([`sizey_ml::parallel`]
//!   spawns per call — small batches run inline instead), and
//!   [`ConcurrentPredictor::observe_batch`] groups records by shard so each
//!   write lock is taken once per batch instead of once per record (shards
//!   are updated in parallel, records within a shard in input order).
//!
//! [`SharedPredictor`] is a cheap cloneable handle implementing
//! [`MemoryPredictor`], so one concurrent service instance can sit behind
//! several [`WorkflowTenant`](sizey_sim::WorkflowTenant)s of a multi-tenant
//! replay — every tenant then learns from every tenant's completions.

use sizey_provenance::{MachineId, TaskRecord, TaskTypeId};
use sizey_sim::{
    AttemptContext, CheckpointPredictor, MemoryPredictor, Prediction, PredictorState, StateError,
    TaskSubmission,
};

use crate::config::SizeyConfig;
use crate::sizey::SizeyPredictor;
use parking_lot::RwLock;
use sizey_ml::parallel::{default_parallelism, parallel_map};
use std::sync::Arc;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Stable FNV-1a 64-bit hash of a (task type, machine) key.
///
/// The algorithm is pinned here by constant, so the value — and therefore
/// every shard assignment derived from it — is identical across binaries,
/// rustc releases and platforms. (The previous `DefaultHasher` routing was
/// only stable within one binary: std does not pin SipHash's parameters
/// across releases, which made per-shard checkpoint restores non-portable.)
///
/// The two components are separated by a `0xFF` byte, which cannot occur in
/// UTF-8, so `("ab", "c")` and `("a", "bc")` hash differently.
fn fnv1a_key(task_type: &TaskTypeId, machine: &MachineId) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in task_type.as_str().as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash ^= 0xFF;
    hash = hash.wrapping_mul(FNV_PRIME);
    for &byte in machine.as_str().as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Default number of shards: enough to keep a 16-thread pool busy without
/// fragmenting small key spaces.
pub const DEFAULT_SHARDS: usize = 16;

/// One prediction request of a batch: a task submission plus the
/// engine-owned retry context of this attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// The submitted task.
    pub task: TaskSubmission,
    /// Retry state of this attempt (use [`AttemptContext::first`] for first
    /// submissions).
    pub ctx: AttemptContext,
}

impl BatchRequest {
    /// A first-submission request.
    pub fn first(task: TaskSubmission) -> Self {
        BatchRequest {
            task,
            ctx: AttemptContext::first(),
        }
    }
}

/// A sharded, lock-striped predictor service.
///
/// Generic over the predictor type: any [`MemoryPredictor`] whose learned
/// state is partitioned by (task type, machine) — Sizey and all the
/// baselines — can be served concurrently. See the
/// [module docs](self) for the sharding and locking discipline.
pub struct ConcurrentPredictor<P> {
    shards: Vec<RwLock<P>>,
    threads: usize,
}

/// The concurrent Sizey service.
pub type ConcurrentSizey = ConcurrentPredictor<SizeyPredictor>;

impl<P: MemoryPredictor + Sync> ConcurrentPredictor<P> {
    /// Builds a service with `shards` independent predictor instances
    /// produced by `factory` (called once per shard, in shard order). Batch
    /// calls fan out across [`default_parallelism`] threads; tune with
    /// [`with_threads`](ConcurrentPredictor::with_threads).
    pub fn new(shards: usize, factory: impl FnMut(usize) -> P) -> Self {
        assert!(shards > 0, "a predictor service needs at least one shard");
        ConcurrentPredictor {
            shards: (0..shards).map(factory).map(RwLock::new).collect(),
            threads: default_parallelism(),
        }
    }

    /// Sets the number of worker threads used by the batch APIs.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic shard routing: every predict and observe of one
    /// (task type, machine) key lands on the same shard for the lifetime of
    /// the service. The underlying FNV-1a key hash is pinned by this
    /// crate, so the assignment is also stable across binaries and rustc
    /// releases — shard indices may be persisted (see [`ServiceCheckpoint`])
    /// and external routers (the async serving layer's per-shard queues)
    /// can compute them independently.
    ///
    /// Hashing the two components directly avoids cloning two `String`s into
    /// a [`TaskMachineKey`](sizey_provenance::TaskMachineKey) per request on
    /// the hot path.
    pub fn shard_of_parts(&self, task_type: &TaskTypeId, machine: &MachineId) -> usize {
        (fnv1a_key(task_type, machine) % self.shards.len() as u64) as usize
    }

    /// The shard a submission's key routes to.
    pub fn shard_of_task(&self, task: &TaskSubmission) -> usize {
        self.shard_of_parts(&task.task_type, &task.machine)
    }

    /// The shard a monitoring record's key routes to.
    pub fn shard_of_record(&self, record: &TaskRecord) -> usize {
        self.shard_of_parts(&record.task_type, &record.machine)
    }

    /// Sizes one attempt: takes the read lock of the task's shard, so any
    /// number of predictions proceed concurrently between model updates.
    pub fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        self.shards[self.shard_of_task(task)]
            .read()
            .predict(task, ctx)
    }

    /// Feeds one finished attempt to the owning shard (write lock).
    pub fn observe(&self, record: &TaskRecord) {
        self.shards[self.shard_of_record(record)]
            .write()
            .observe(record);
    }

    /// Batches below this size are sized inline: [`parallel_map`] spawns
    /// scoped OS threads per call (there is no persistent pool), and for a
    /// handful of microsecond-scale predictions the spawn/join cost would
    /// exceed the work being fanned out.
    const SEQUENTIAL_BATCH_CUTOFF: usize = 32;

    /// Sizes a whole batch of submissions, fanning the requests across
    /// scoped worker threads. Results come back in request order. This is
    /// the hot path of a prediction service: per-request cost is one shard
    /// read lock, so throughput scales with cores once the batch is large
    /// enough to amortize the per-call thread spawns (small batches run
    /// inline — `SEQUENTIAL_BATCH_CUTOFF`).
    pub fn predict_batch(&self, requests: &[BatchRequest]) -> Vec<Prediction> {
        if self.threads == 1 || requests.len() < Self::SEQUENTIAL_BATCH_CUTOFF {
            return requests
                .iter()
                .map(|request| self.predict(&request.task, request.ctx))
                .collect();
        }
        parallel_map(requests, self.threads, |request| {
            self.predict(&request.task, request.ctx)
        })
    }

    /// Applies a batch of monitoring records with write batching: records
    /// are grouped by shard, each shard's write lock is taken **once**, and
    /// the shards update in parallel. Within a shard, records apply in input
    /// order, so single-shard batches are indistinguishable from serial
    /// observes.
    ///
    /// Grouping uses a single tagged buffer and a stable sort (input order
    /// within each shard is preserved) instead of one accumulation vector
    /// per shard per call.
    pub fn observe_batch(&self, records: &[TaskRecord]) {
        let mut tagged: Vec<(usize, &TaskRecord)> = records
            .iter()
            .map(|record| (self.shard_of_record(record), record))
            .collect();
        tagged.sort_by_key(|(shard, _)| *shard);
        let groups: Vec<&[(usize, &TaskRecord)]> = tagged.chunk_by(|a, b| a.0 == b.0).collect();
        parallel_map(&groups, self.threads, |group| {
            let mut guard = self.shards[group[0].0].write();
            for (_, record) in *group {
                guard.observe(record);
            }
        });
    }

    /// Applies records to one specific shard, in order, under a single
    /// write-lock hold. The caller is responsible for routing: every record
    /// must belong to `shard` per [`ConcurrentPredictor::shard_of_record`]
    /// — the async serving layer's
    /// per-shard micro-batchers uphold this by construction. Panics when
    /// `shard >= shard_count()`.
    pub fn observe_shard(&self, shard: usize, records: &[TaskRecord]) {
        let mut guard = self.shards[shard].write();
        for record in records {
            guard.observe(record);
        }
    }

    /// Runs `f` on every shard under its read lock, in shard order —
    /// aggregation hook for telemetry (e.g. summing provenance sizes).
    pub fn map_shards<R>(&self, f: impl Fn(&P) -> R) -> Vec<R> {
        self.shards.iter().map(|shard| f(&shard.read())).collect()
    }

    /// Runs `f` on one shard's predictor under its write lock — the
    /// maintenance hook of the async serving layer (capped staged-retrain
    /// runs after each micro-batch). Panics when `shard >= shard_count()`.
    pub fn with_shard_mut<R>(&self, shard: usize, f: impl FnOnce(&mut P) -> R) -> R {
        f(&mut self.shards[shard].write())
    }

    /// Wraps the service in a cheap cloneable [`SharedPredictor`] handle.
    pub fn into_shared(self) -> SharedPredictor<P> {
        SharedPredictor(Arc::new(self))
    }
}

impl<P: Clone> ConcurrentPredictor<P> {
    /// Deep-clones one shard's predictor under its read lock. This is the
    /// snapshot primitive of the lock-free serving path: the clone shares no
    /// mutable state with the shard, so it can be published behind an
    /// immutable pointer and read without any lock while the shard keeps
    /// learning. Panics when `shard >= shard_count()`.
    pub fn clone_shard(&self, shard: usize) -> P {
        self.shards[shard].read().clone()
    }
}

/// A checkpoint of a whole sharded service: one [`PredictorState`] per
/// shard, in shard order.
///
/// Shard routing hashes with a stable FNV-1a hash pinned by this crate, so a
/// checkpoint restored **shard-by-shard**
/// ([`ConcurrentPredictor::from_checkpoint`]) is bit-exact across binaries,
/// rustc releases and platforms — the only requirement is the same shard
/// count. [`ServiceCheckpoint::merged`] folds the checkpoint into one
/// re-shardable state for re-sharding or warm-starting a single serial
/// predictor.
///
/// **Migration note (pre-FNV checkpoints):** checkpoints written by builds
/// that still routed with `std`'s `DefaultHasher` placed each key's history
/// on a shard the FNV routing may not agree with. Restoring such a file
/// shard-by-shard would strand histories on shards their keys no longer
/// route to; restore it once through [`ServiceCheckpoint::merged`] into a
/// fresh predictor (or replay it through
/// [`ConcurrentPredictor::observe_batch`]) and re-checkpoint. The text
/// format itself is unchanged (`sizey-service-checkpoint v1` — the format
/// never encoded the hash, which is exactly why the old files stay
/// parseable).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCheckpoint {
    /// Per-shard snapshots, indexed by shard.
    pub shards: Vec<PredictorState>,
}

/// Magic first line of the serialised [`ServiceCheckpoint`] format.
const SERVICE_CHECKPOINT_HEADER: &str = "sizey-service-checkpoint v1";

impl ServiceCheckpoint {
    /// Folds the per-shard states into a single [`PredictorState`]: journals
    /// are concatenated in shard order and counters are summed by name.
    ///
    /// All learned state in the workspace's predictors is keyed per
    /// (task type, machine), and every record of one key lives in exactly one
    /// shard (in observation order), so the merged journal preserves each
    /// key's history exactly — restoring it yields bit-identical
    /// *predictions* even though the cross-key interleaving differs from the
    /// original global observation order.
    pub fn merged(&self) -> PredictorState {
        let mut journal = Vec::with_capacity(self.shards.iter().map(|s| s.journal.len()).sum());
        let mut counters: Vec<(String, u64)> = Vec::new();
        for shard in &self.shards {
            journal.extend(shard.journal.iter().cloned());
            for (name, value) in &shard.counters {
                match counters.iter_mut().find(|(n, _)| n == name) {
                    Some((_, total)) => *total += value,
                    None => counters.push((name.clone(), *value)),
                }
            }
        }
        counters.sort();
        PredictorState { journal, counters }
    }

    /// Serialises the checkpoint into a plain-text form (shard states are
    /// framed by `--- shard <i>` separators).
    pub fn to_checkpoint_string(&self) -> String {
        let mut out = String::new();
        out.push_str(SERVICE_CHECKPOINT_HEADER);
        out.push('\n');
        out.push_str(&format!("shards {}\n", self.shards.len()));
        for (i, shard) in self.shards.iter().enumerate() {
            out.push_str(&format!("--- shard {i}\n"));
            out.push_str(&shard.to_state_string());
        }
        out
    }

    /// Parses a checkpoint from the plain-text form.
    pub fn from_checkpoint_string(content: &str) -> Result<Self, StateError> {
        let mut lines = content.lines();
        match lines.next() {
            Some(first) if first.trim() == SERVICE_CHECKPOINT_HEADER => {}
            other => {
                return Err(StateError::Parse {
                    line: 1,
                    message: format!("expected {SERVICE_CHECKPOINT_HEADER:?}, found {other:?}"),
                })
            }
        }
        let n_shards: usize = match lines.next() {
            Some(decl) => decl
                .strip_prefix("shards ")
                .and_then(|rest| rest.trim().parse().ok())
                .ok_or(StateError::Parse {
                    line: 2,
                    message: format!("expected \"shards <n>\", found {decl:?}"),
                })?,
            None => {
                return Err(StateError::Parse {
                    line: 2,
                    message: "missing \"shards <n>\" line".to_string(),
                })
            }
        };
        // Each shard's frame line number and the lines under it. Not
        // pre-sized: `n_shards` is whatever the file claims.
        let mut frames: Vec<(usize, Vec<&str>)> = Vec::new();
        for (idx, line) in lines.enumerate() {
            let in_order = line
                .strip_prefix("--- shard ")
                .map(|index| index.trim().parse() == Ok(frames.len()));
            match (in_order, frames.last_mut()) {
                (Some(true), _) => frames.push((idx + 3, Vec::new())),
                (None, Some((_, text))) => text.push(line),
                _ => {
                    return Err(StateError::Parse {
                        line: idx + 3,
                        message: format!(
                            "expected \"--- shard {}\" frame, found {line:?}",
                            frames.len()
                        ),
                    })
                }
            }
        }
        if frames.len() != n_shards {
            return Err(StateError::Parse {
                line: 2,
                message: format!(
                    "checkpoint declares {n_shards} shards but contains {}",
                    frames.len()
                ),
            });
        }
        let shards = frames
            .into_iter()
            .map(|(frame_line, text)| {
                // The shard's line 1 is the file's line `frame_line + 1`.
                PredictorState::from_state_string(&text.join("\n")).map_err(|e| match e {
                    StateError::Parse { line, message } => StateError::Parse {
                        line: line + frame_line,
                        message,
                    },
                    other => other,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ServiceCheckpoint { shards })
    }
}

impl<P: CheckpointPredictor + Sync> ConcurrentPredictor<P> {
    /// Snapshots every shard under its read lock, in shard order. Writers
    /// are not blocked globally: each shard is locked briefly and
    /// independently, so the checkpoint is per-shard consistent (the unit of
    /// all learned state).
    pub fn checkpoint(&self) -> ServiceCheckpoint {
        ServiceCheckpoint {
            shards: self.map_shards(|p| p.snapshot()),
        }
    }

    /// Rebuilds a service from a checkpoint: `factory` builds one fresh
    /// predictor per shard (same configuration as the checkpointed service)
    /// and each shard restores its own state. The shard count is taken from
    /// the checkpoint. See [`ServiceCheckpoint`] for the same-binary caveat;
    /// to re-shard, restore [`ServiceCheckpoint::merged`] into a fresh
    /// predictor or feed it through [`ConcurrentPredictor::observe_batch`].
    pub fn from_checkpoint(
        checkpoint: &ServiceCheckpoint,
        mut factory: impl FnMut(usize) -> P,
    ) -> Result<Self, StateError> {
        // A `shards 0` file parses structurally, but an error (not a panic)
        // is the right answer on this recovery path.
        if checkpoint.shards.is_empty() {
            return Err(StateError::EmptyCheckpoint);
        }
        let mut shards = Vec::with_capacity(checkpoint.shards.len());
        for (i, state) in checkpoint.shards.iter().enumerate() {
            let mut predictor = factory(i);
            predictor.restore(state)?;
            shards.push(RwLock::new(predictor));
        }
        Ok(ConcurrentPredictor {
            shards,
            threads: default_parallelism(),
        })
    }
}

impl ConcurrentSizey {
    /// A concurrent Sizey service: `shards` independent [`SizeyPredictor`]s
    /// with identical configuration.
    pub fn sizey(config: SizeyConfig, shards: usize) -> Self {
        ConcurrentPredictor::new(shards, |_| SizeyPredictor::new(config.clone()))
    }

    /// A concurrent Sizey service with the paper's default configuration and
    /// [`DEFAULT_SHARDS`] shards.
    pub fn sizey_defaults() -> Self {
        Self::sizey(SizeyConfig::default(), DEFAULT_SHARDS)
    }

    /// Restores a concurrent Sizey service from a checkpoint taken with
    /// [`ConcurrentPredictor::checkpoint`]. The configuration must equal the
    /// checkpointed service's (learned state is a function of configuration
    /// plus observations); the shard count comes from the checkpoint.
    pub fn sizey_from_checkpoint(
        config: SizeyConfig,
        checkpoint: &ServiceCheckpoint,
    ) -> Result<Self, StateError> {
        ConcurrentPredictor::from_checkpoint(checkpoint, |_| SizeyPredictor::new(config.clone()))
    }
}

/// A cloneable handle to a [`ConcurrentPredictor`] that itself implements
/// [`MemoryPredictor`]: hand clones to several
/// [`WorkflowTenant`](sizey_sim::WorkflowTenant)s and they will share one
/// learned state across the whole cluster. `observe` through the handle
/// takes the owning shard's write lock internally, so `&mut self` on the
/// trait is satisfied without exclusive ownership.
pub struct SharedPredictor<P>(Arc<ConcurrentPredictor<P>>);

impl<P> Clone for SharedPredictor<P> {
    fn clone(&self) -> Self {
        SharedPredictor(Arc::clone(&self.0))
    }
}

impl<P> SharedPredictor<P> {
    /// The underlying service (for batch APIs and telemetry).
    pub fn service(&self) -> &ConcurrentPredictor<P> {
        &self.0
    }
}

impl<P: CheckpointPredictor + Sync> SharedPredictor<P> {
    /// Snapshots the shared service (see [`ConcurrentPredictor::checkpoint`]).
    pub fn checkpoint(&self) -> ServiceCheckpoint {
        self.0.checkpoint()
    }

    /// Restores a shared service from a checkpoint (see
    /// [`ConcurrentPredictor::from_checkpoint`]); tenants of a new run can
    /// warm-start from the learned state of a previous one.
    pub fn from_checkpoint(
        checkpoint: &ServiceCheckpoint,
        factory: impl FnMut(usize) -> P,
    ) -> Result<Self, StateError> {
        Ok(ConcurrentPredictor::from_checkpoint(checkpoint, factory)?.into_shared())
    }
}

/// The shared concurrent Sizey handle.
pub type SharedSizey = SharedPredictor<SizeyPredictor>;

impl SharedSizey {
    /// A shared concurrent Sizey service (see [`ConcurrentSizey::sizey`]).
    pub fn sizey(config: SizeyConfig, shards: usize) -> Self {
        ConcurrentSizey::sizey(config, shards).into_shared()
    }
}

impl<P: MemoryPredictor + Sync> MemoryPredictor for SharedPredictor<P> {
    fn name(&self) -> String {
        self.0.shards[0].read().name()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        self.0.predict(task, ctx)
    }

    fn observe(&mut self, record: &TaskRecord) {
        self.0.observe(record);
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

    fn train(observe: &mut dyn FnMut(&TaskRecord), task_type: &str, n: u64) {
        for i in 1..=n {
            let input = i as f64 * 1e9;
            observe(&record(task_type, i, input, 2.0 * input + 1e9));
        }
    }

    #[test]
    fn sharded_decisions_match_the_serial_predictor() {
        let mut serial = SizeyPredictor::with_defaults();
        let concurrent = ConcurrentSizey::sizey_defaults();
        for task_type in ["align", "sort", "call", "merge", "plot"] {
            train(&mut |r| serial.observe(r), task_type, 14);
            train(&mut |r| concurrent.observe(r), task_type, 14);
        }
        for task_type in ["align", "sort", "call", "merge", "plot"] {
            for (seq, input) in [(100, 3e9), (101, 7.5e9), (102, 11e9)] {
                let task = submission(task_type, seq, input);
                let a = serial.predict(&task, AttemptContext::first());
                let b = concurrent.predict(&task, AttemptContext::first());
                assert_eq!(a, b, "decision diverged for {task_type}/{seq}");
                let ra = serial.predict(&task, AttemptContext::retry(1, a.allocation_bytes));
                let rb = concurrent.predict(&task, AttemptContext::retry(1, b.allocation_bytes));
                assert_eq!(ra, rb);
            }
        }
    }

    #[test]
    fn predict_batch_matches_sequential_predicts_in_order() {
        let concurrent = ConcurrentSizey::sizey_defaults().with_threads(4);
        for task_type in ["a", "b", "c"] {
            train(&mut |r| concurrent.observe(r), task_type, 12);
        }
        let requests: Vec<BatchRequest> = (0..60)
            .map(|i| {
                let task_type = ["a", "b", "c"][i % 3];
                BatchRequest::first(submission(task_type, 200 + i as u64, (i + 1) as f64 * 5e8))
            })
            .collect();
        let batched = concurrent.predict_batch(&requests);
        assert_eq!(batched.len(), requests.len());
        for (request, prediction) in requests.iter().zip(&batched) {
            assert_eq!(*prediction, concurrent.predict(&request.task, request.ctx));
        }
        // Small batches take the inline path; same contract.
        let tiny = &requests[..5];
        for (request, prediction) in tiny.iter().zip(concurrent.predict_batch(tiny)) {
            assert_eq!(prediction, concurrent.predict(&request.task, request.ctx));
        }
    }

    #[test]
    fn observe_batch_is_equivalent_to_serial_observes() {
        let batched = ConcurrentSizey::sizey_defaults();
        let serial = ConcurrentSizey::sizey_defaults();
        let mut records = Vec::new();
        for task_type in ["x", "y"] {
            for i in 1..=15u64 {
                let input = i as f64 * 1e9;
                records.push(record(task_type, i, input, 1.5 * input + 5e8));
            }
        }
        batched.observe_batch(&records);
        for r in &records {
            serial.observe(r);
        }
        for task_type in ["x", "y"] {
            let task = submission(task_type, 900, 6e9);
            assert_eq!(
                batched.predict(&task, AttemptContext::first()),
                serial.predict(&task, AttemptContext::first())
            );
        }
        // Every record landed in exactly one shard.
        let total: usize = batched.map_shards(|p| p.provenance().len()).iter().sum();
        assert_eq!(total, records.len());
    }

    #[test]
    fn shard_routing_is_deterministic_and_in_range() {
        let service = ConcurrentSizey::sizey(SizeyConfig::default(), 7);
        for i in 0..50 {
            let task = submission(&format!("t{i}"), i, 1e9);
            let shard = service.shard_of_task(&task);
            assert!(shard < 7);
            assert_eq!(shard, service.shard_of_task(&task));
            // Submission and record routing must agree — otherwise a key's
            // observations and predictions could land on different shards.
            let r = record(&format!("t{i}"), i, 1e9, 2e9);
            assert_eq!(shard, service.shard_of_record(&r));
            assert_eq!(
                shard,
                service.shard_of_parts(&task.task_type, &task.machine)
            );
        }
    }

    /// Golden shard assignments: the FNV-1a routing hash is part of the
    /// [`ServiceCheckpoint`] portability contract, so its exact values are
    /// pinned here. If this test ever fails, the hash changed — which
    /// silently strands every persisted checkpoint's per-key history on
    /// shards their keys no longer route to. Bump the checkpoint header and
    /// write a migration before touching these constants.
    #[test]
    fn shard_routing_matches_golden_fnv_assignments() {
        // (task type, machine, fnv1a_key, key % 16, key % 7) — values
        // computed independently from the FNV-1a reference algorithm
        // (offset basis 0xcbf29ce484222325, prime 0x100000001b3, 0xFF
        // separator between the components).
        let golden: &[(&str, &str, u64, usize, usize)] = &[
            ("align", "node-a", 0x4c47_1dda_64c6_62d1, 1, 1),
            ("sort", "node-b", 0xd838_5d24_3fa9_6629, 9, 0),
            ("merge", "m", 0x830a_f0e8_92b8_4edf, 15, 2),
            ("variant-call", "gpu-17", 0x1e48_6c54_cd15_9963, 3, 1),
            ("t0", "m", 0x3faf_b2ee_1ee2_015d, 13, 4),
            ("", "", 0xaf64_724c_8602_eb6e, 14, 0),
        ];
        let sixteen = ConcurrentSizey::sizey(SizeyConfig::default(), 16);
        let seven = ConcurrentSizey::sizey(SizeyConfig::default(), 7);
        for &(task_type, machine, hash, mod16, mod7) in golden {
            let tt = TaskTypeId::new(task_type);
            let m = MachineId::new(machine);
            assert_eq!(
                fnv1a_key(&tt, &m),
                hash,
                "FNV-1a value changed for ({task_type:?}, {machine:?})"
            );
            assert_eq!(sixteen.shard_of_parts(&tt, &m), mod16);
            assert_eq!(seven.shard_of_parts(&tt, &m), mod7);
        }
        // The 0xFF separator keeps component boundaries unambiguous.
        assert_ne!(
            fnv1a_key(&TaskTypeId::new("ab"), &MachineId::new("c")),
            fnv1a_key(&TaskTypeId::new("a"), &MachineId::new("bc"))
        );
    }

    #[test]
    fn shared_handle_clones_share_learned_state() {
        let mut handle_a = SharedSizey::sizey(SizeyConfig::default(), 4);
        let handle_b = handle_a.clone();
        // Tenant A observes; tenant B predicts from the shared state.
        train(&mut |r| handle_a.observe(r), "shared", 14);
        let task = submission("shared", 500, 5e9);
        let through_b =
            sizey_sim::MemoryPredictor::predict(&handle_b, &task, AttemptContext::first());
        assert!(through_b.raw_estimate_bytes.is_some());
        assert!(through_b.allocation_bytes < 20e9);
        assert_eq!(handle_b.name(), "Sizey");
    }

    #[test]
    fn single_shard_still_works() {
        let service = ConcurrentSizey::sizey(SizeyConfig::default(), 1);
        train(&mut |r| service.observe(r), "only", 12);
        let p = service.predict(&submission("only", 50, 4e9), AttemptContext::first());
        assert!(p.raw_estimate_bytes.is_some());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ConcurrentSizey::sizey(SizeyConfig::default(), 0);
    }

    /// A service restored from a checkpoint is bit-identical to the
    /// original: same shard states, same decisions, and checkpointing the
    /// restored service reproduces the checkpoint.
    #[test]
    fn service_checkpoint_restores_bit_identically() {
        let original = ConcurrentSizey::sizey(SizeyConfig::default(), 4);
        for task_type in ["align", "sort", "call"] {
            train(&mut |r| original.observe(r), task_type, 14);
        }
        // Warm the predict path so shard diagnostics are non-trivial.
        for task_type in ["align", "sort"] {
            let _ = original.predict(&submission(task_type, 90, 5e9), AttemptContext::first());
        }
        let checkpoint = original.checkpoint();
        assert_eq!(checkpoint.shards.len(), 4);

        let restored =
            ConcurrentSizey::sizey_from_checkpoint(SizeyConfig::default(), &checkpoint).unwrap();
        assert_eq!(restored.shard_count(), 4);
        // Checkpointing the freshly restored service reproduces the
        // checkpoint exactly (before any further predicts advance the
        // offset-selection counters).
        assert_eq!(restored.checkpoint(), checkpoint);
        for task_type in ["align", "sort", "call", "unseen"] {
            for (seq, input) in [(100u64, 2e9), (101, 8.5e9)] {
                let task = submission(task_type, seq, input);
                assert_eq!(
                    original.predict(&task, AttemptContext::first()),
                    restored.predict(&task, AttemptContext::first()),
                    "restored service diverged on {task_type}/{seq}"
                );
            }
        }
    }

    /// The text codec round-trips a whole service checkpoint, and the merged
    /// state warm-starts a serial predictor with identical decisions (the
    /// re-sharding path: per-key histories survive the fold).
    #[test]
    fn checkpoint_codec_and_merge_round_trip() {
        let service = ConcurrentSizey::sizey(SizeyConfig::default(), 3);
        for task_type in ["x", "y"] {
            train(&mut |r| service.observe(r), task_type, 12);
        }
        let checkpoint = service.checkpoint();
        let text = checkpoint.to_checkpoint_string();
        let parsed = ServiceCheckpoint::from_checkpoint_string(&text).unwrap();
        assert_eq!(parsed, checkpoint);

        let mut serial = SizeyPredictor::with_defaults();
        serial.restore(&checkpoint.merged()).unwrap();
        for task_type in ["x", "y"] {
            let task = submission(task_type, 500, 6e9);
            assert_eq!(
                service.predict(&task, AttemptContext::first()),
                serial.predict(&task, AttemptContext::first()),
                "merged warm-start diverged on {task_type}"
            );
        }
        let total_records: usize = checkpoint.shards.iter().map(|s| s.journal.len()).sum();
        assert_eq!(checkpoint.merged().journal.len(), total_records);

        // Shared handles expose the same lifecycle.
        let shared = SharedSizey::from_checkpoint(&checkpoint, |_| {
            SizeyPredictor::new(SizeyConfig::default())
        })
        .unwrap();
        assert_eq!(shared.checkpoint(), checkpoint);
    }

    #[test]
    fn malformed_service_checkpoints_are_rejected() {
        assert!(matches!(
            ServiceCheckpoint::from_checkpoint_string("bogus"),
            Err(StateError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            ServiceCheckpoint::from_checkpoint_string("sizey-service-checkpoint v1\nshards 2\n"),
            Err(StateError::Parse { line: 2, .. })
        ));
        // Line numbers are file-absolute: shard 1's frame is line 7, its
        // state header line 8, its counter count line 9. A frame index out
        // of order or not a number is rejected where it stands, so is text
        // before the first frame, and a hostile count is a mismatch with the
        // frames present — not an allocation of that size.
        let empty_state = "sizey-predictor-state v1\ncounters 0\njournal\n";
        let bare = "sizey-service-checkpoint v1\n";
        let head: &str = &format!("{bare}shards 2\n--- shard 0\n{empty_state}");
        let ok = format!("{head}--- shard 1\n{empty_state}");
        assert!(ServiceCheckpoint::from_checkpoint_string(&ok).is_ok());
        let hostile: &str = &format!("shards {}\n", usize::MAX);
        for (prefix, tail, bad_line) in [
            (head, "--- shard 1\nnope\n", 8),
            (
                head,
                "--- shard 1\nsizey-predictor-state v1\ncounters x\n",
                9,
            ),
            (head, "--- shard 0\n", 7),
            (head, "--- shard 2\n", 7),
            (head, "--- shard one\n", 7),
            (bare, "shards 1\nstray\n", 3),
            (bare, hostile, 2),
        ] {
            let parsed = ServiceCheckpoint::from_checkpoint_string(&format!("{prefix}{tail}"));
            assert!(
                matches!(parsed, Err(StateError::Parse { line, .. }) if line == bad_line),
                "{tail:?}: {parsed:?}"
            );
        }
        // A `shards 0` file parses (structurally valid), but restoring a
        // service from it is an error, not a panic — this path handles
        // external data.
        let empty =
            ServiceCheckpoint::from_checkpoint_string("sizey-service-checkpoint v1\nshards 0\n")
                .unwrap();
        assert!(matches!(
            ConcurrentSizey::sizey_from_checkpoint(SizeyConfig::default(), &empty),
            Err(StateError::EmptyCheckpoint)
        ));
    }

    /// Snapshot counters are name-sorted (the `PredictorState` contract), so
    /// restoring a `merged()` checkpoint — which also name-sorts — and
    /// re-snapshotting reproduces it even when several offset strategies
    /// have non-zero tallies.
    #[test]
    fn merged_checkpoint_with_multiple_counters_round_trips() {
        use sizey_sim::MemoryPredictor;
        let mut predictor = SizeyPredictor::with_defaults();
        // Alternate between two histories so the dynamic offset selection
        // picks different strategies over time.
        for i in 1..=60u64 {
            let input = (i % 13 + 1) as f64 * 1e9;
            let noise = if i % 3 == 0 { 2.5e9 } else { -0.4e9 };
            predictor.observe(&record("mix", i, input, 1.7 * input + 1e9 + noise));
            let _ = predictor.predict(
                &submission("mix", 1000 + i, input * 1.1),
                AttemptContext::first(),
            );
        }
        let state = predictor.snapshot();
        let names: Vec<&str> = state.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "snapshot counters must be name-sorted");

        let service = ConcurrentSizey::sizey(SizeyConfig::default(), 3);
        for i in 1..=40u64 {
            let input = (i % 11 + 1) as f64 * 1e9;
            service.observe(&record("a", i, input, 2.0 * input + 5e8));
            let _ = service.predict(&submission("a", 2000 + i, input), AttemptContext::first());
        }
        let merged = service.checkpoint().merged();
        let mut restored = SizeyPredictor::with_defaults();
        restored.restore(&merged).unwrap();
        assert_eq!(
            restored.snapshot(),
            merged,
            "restored merged state must re-snapshot identically"
        );
    }
}
