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
//!   platforms — external routers (the async layer's per-shard queues) can
//!   compute them independently.
//! * **Locking discipline** — each shard sits behind its own
//!   `parking_lot::RwLock`. Predictions take the shard's read lock (many
//!   concurrent readers); model updates take its write lock. A write stalls
//!   only the readers of its own shard, never the other `shards - 1`.
//! * **Write batching** — [`ConcurrentPredictor::observe_batch`] groups
//!   records by shard so each write lock is taken once per batch instead of
//!   once per record (shards are updated in parallel, records within a shard
//!   in input order).
//! * **Sharing** — a [`ConcurrentPredictor`] is its own handle: `clone()`
//!   bumps one `Arc` and the clone implements [`MemoryPredictor`], so one
//!   service can sit behind several
//!   [`WorkflowTenant`](sizey_sim::WorkflowTenant)s of a multi-tenant replay
//!   — every tenant then learns from every tenant's completions.
//! * **Checkpointing** — the service is a [`CheckpointPredictor`]: it
//!   snapshots to the same [`PredictorState`] (and so the same text codec and
//!   file format) as a serial predictor, and restoring routes the journal
//!   through the shard hash — into any shard count.

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
/// rustc releases and platforms (std does not pin `DefaultHasher`'s SipHash
/// parameters across releases).
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

/// A sharded, lock-striped predictor service.
///
/// Generic over the predictor type: any [`MemoryPredictor`] whose learned
/// state is partitioned by (task type, machine) — Sizey and all the
/// baselines — can be served concurrently. See the
/// [module docs](self) for the sharding and locking discipline.
///
/// Cloning is cheap and **shares** the shards: hand clones to several
/// tenants (each clone is a [`MemoryPredictor`]) and they learn from one
/// another's completions. `observe` through the trait takes the owning
/// shard's write lock internally, so `&mut self` is satisfied without
/// exclusive ownership. [`clone_shard`](ConcurrentPredictor::clone_shard)
/// is the copy that stops following the shard: the read-only view the async
/// layer publishes.
pub struct ConcurrentPredictor<P> {
    shards: Arc<[RwLock<P>]>,
}

/// The concurrent Sizey service.
pub type ConcurrentSizey = ConcurrentPredictor<SizeyPredictor>;

impl<P> Clone for ConcurrentPredictor<P> {
    fn clone(&self) -> Self {
        ConcurrentPredictor {
            shards: Arc::clone(&self.shards),
        }
    }
}

impl<P: MemoryPredictor + Sync> ConcurrentPredictor<P> {
    /// Builds a service with `shards` independent predictor instances
    /// produced by `factory` (called once per shard, in shard order).
    pub fn new(shards: usize, factory: impl FnMut(usize) -> P) -> Self {
        assert!(shards > 0, "a predictor service needs at least one shard");
        ConcurrentPredictor {
            shards: (0..shards).map(factory).map(RwLock::new).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic shard routing: every predict and observe of one
    /// (task type, machine) key lands on the same shard for the lifetime of
    /// the service. The underlying FNV-1a key hash is pinned by this
    /// crate, so the assignment is also stable across binaries and rustc
    /// releases, and external routers (the async serving layer's per-shard
    /// queues) can compute it independently. It hashes the two ids'
    /// contents, not their shared handles' addresses.
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
        parallel_map(&groups, default_parallelism(), |group| {
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

    /// Runs `f` on one shard's predictor under its write lock — the async
    /// serving layer packs each shard's pools through it before publishing
    /// the first snapshot. Panics when `shard >= shard_count()`.
    pub fn with_shard_mut<R>(&self, shard: usize, f: impl FnOnce(&mut P) -> R) -> R {
        f(&mut self.shards[shard].write())
    }
}

impl<P: MemoryPredictor + Sync> MemoryPredictor for ConcurrentPredictor<P> {
    fn name(&self) -> String {
        self.shards[0].read().name()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        ConcurrentPredictor::predict(self, task, ctx)
    }

    fn observe(&mut self, record: &TaskRecord) {
        ConcurrentPredictor::observe(self, record);
    }
}

/// A service checkpoints to the same [`PredictorState`] as a serial
/// predictor. All learned state in the workspace's predictors is keyed per
/// (task type, machine), and every record of one key lives in exactly one
/// shard (in observation order), so the state preserves each key's history
/// exactly even though the cross-key interleaving differs from the global
/// observation order: restored into the shard count it was taken from, the
/// service re-snapshots to the same state; restored into any other shard
/// count, or into one serial predictor, it makes bit-identical predictions.
impl<P: CheckpointPredictor + Sync> CheckpointPredictor for ConcurrentPredictor<P> {
    /// Shard journals concatenated in shard order, eviction counts summed.
    /// Writers are not blocked globally: each shard is read-locked briefly
    /// and independently, so the snapshot is per-shard consistent (the unit
    /// of all learned state).
    fn snapshot(&self) -> PredictorState {
        let mut merged = PredictorState::empty();
        for shard in self.shards.iter() {
            let state = shard.read().snapshot();
            merged.journal.extend(state.journal);
            merged.evicted += state.evicted;
        }
        merged
    }

    /// Refuses a truncated journal ([`StateError::TruncatedJournal`]) before
    /// any shard replays a record, then routes every journal record to the
    /// shard its key hashes to (in journal order, so each key keeps its
    /// history) and restores every shard through its own `restore`, which
    /// is where [`StateError::NotFresh`] comes from.
    /// After an error the service is partly restored; build a new one.
    fn restore(&mut self, state: &PredictorState) -> Result<(), StateError> {
        let mut per_shard = vec![PredictorState::empty(); self.shards.len()];
        for record in state.replayable_journal()? {
            per_shard[self.shard_of_record(record)]
                .journal
                .push(Arc::clone(record));
        }
        for (shard, shard_state) in self.shards.iter().zip(&per_shard) {
            shard.write().restore(shard_state)?;
        }
        Ok(())
    }
}

impl ConcurrentSizey {
    /// A concurrent Sizey service: `shards` independent [`SizeyPredictor`]s
    /// with identical configuration.
    pub fn sizey(config: SizeyConfig, shards: usize) -> Self {
        ConcurrentPredictor::new(shards, |_| SizeyPredictor::new(config.clone()))
    }

    /// Takes one shard's [`published_view`](SizeyPredictor::published_view)
    /// under its read lock. This is the publish primitive of the lock-free
    /// serving path: the view predicts like the shard does now and no later
    /// write to the shard can change it, so it can sit behind an immutable
    /// pointer and be read without any lock while the shard keeps learning.
    /// The view shares every pool with the shard (a later write copies only
    /// the pool it touches) and leaves the provenance store behind, so the
    /// cost follows the key count, not the learned state. Panics when
    /// `shard >= shard_count()`.
    pub fn clone_shard(&self, shard: usize) -> SizeyPredictor {
        self.shards[shard].read().published_view()
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
        let concurrent = ConcurrentSizey::sizey(SizeyConfig::default(), 16);
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
    fn observe_batch_is_equivalent_to_serial_observes() {
        let batched = ConcurrentSizey::sizey(SizeyConfig::default(), 16);
        let serial = ConcurrentSizey::sizey(SizeyConfig::default(), 16);
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

    /// Golden shard assignments: the FNV-1a routing hash is pinned so every
    /// binary and every external router agrees on which shard owns a key. No
    /// checkpoint stores a shard index (restore re-routes the journal), so a
    /// hash change strands no persisted state — but it does move every key's
    /// traffic, so change these constants deliberately.
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
        let mut handle_a = ConcurrentSizey::sizey(SizeyConfig::default(), 4);
        let handle_b = handle_a.clone();
        // Tenant A observes; tenant B predicts from the shared state — both
        // through the trait, as a `Box<dyn MemoryPredictor>` tenant would.
        train(
            &mut |r| MemoryPredictor::observe(&mut handle_a, r),
            "shared",
            14,
        );
        let task = submission("shared", 500, 5e9);
        let through_b = MemoryPredictor::predict(&handle_b, &task, AttemptContext::first());
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

    /// Every prediction of `a` on seen and unseen keys is bit-equal to `b`'s.
    fn assert_same_decisions(a: &dyn MemoryPredictor, b: &dyn MemoryPredictor, seen: &[&str]) {
        for task_type in seen.iter().chain(&["unseen"]) {
            for (seq, input) in [(100u64, 2e9), (101, 8.5e9)] {
                let task = submission(task_type, seq, input);
                assert_eq!(
                    a.predict(&task, AttemptContext::first()),
                    b.predict(&task, AttemptContext::first()),
                    "restored predictor diverged on {task_type}/{seq}"
                );
            }
        }
    }

    /// A service restored from its own snapshot at the same shard count is
    /// bit-identical to the original: same decisions, and snapshotting the
    /// restored service reproduces the snapshot. Restore demands a fresh
    /// service.
    #[test]
    fn service_checkpoint_restores_bit_identically() {
        let original = ConcurrentSizey::sizey(SizeyConfig::default(), 4);
        for task_type in ["align", "sort", "call"] {
            train(&mut |r| original.observe(r), task_type, 14);
        }
        let checkpoint = original.snapshot();
        assert_eq!(checkpoint.journal.len(), 3 * 14);

        let mut restored = ConcurrentSizey::sizey(SizeyConfig::default(), 4);
        restored.restore(&checkpoint).unwrap();
        assert_eq!(restored.snapshot(), checkpoint);
        assert_same_decisions(&original, &restored, &["align", "sort", "call"]);
        assert!(matches!(
            restored.restore(&checkpoint),
            Err(StateError::NotFresh { observed }) if observed > 0
        ));
    }

    /// A bounded-history service's snapshot sums its shards' eviction
    /// counts, and restoring it is refused before any shard replays a
    /// record.
    #[test]
    fn bounded_service_checkpoint_is_refused() {
        let bounded = SizeyConfig::default().with_history_window(8);
        let service = ConcurrentSizey::sizey(bounded.clone(), 3);
        for task_type in ["align", "sort", "call"] {
            train(&mut |r| service.observe(r), task_type, 14);
        }
        let evicted: u64 = service
            .map_shards(|p| p.provenance().evicted())
            .iter()
            .sum();
        assert!(evicted > 0);
        let mut restored = ConcurrentSizey::sizey(bounded, 5);
        assert!(matches!(
            restored.restore(&service.snapshot()),
            Err(StateError::TruncatedJournal { evicted: n }) if n == evicted
        ));
        let replayed: usize = restored.map_shards(|p| p.provenance().len()).iter().sum();
        assert_eq!(replayed, 0);
    }

    /// The one state codec round-trips a service checkpoint, and the state
    /// warm-starts a service of another shard count or a serial predictor
    /// with identical decisions (re-sharding: per-key histories survive the
    /// merge and the re-routing).
    #[test]
    fn checkpoint_codec_and_merge_round_trip() {
        let service = ConcurrentSizey::sizey(SizeyConfig::default(), 3);
        for task_type in ["x", "y", "z"] {
            train(&mut |r| service.observe(r), task_type, 12);
        }
        let checkpoint = service.snapshot();
        let parsed = PredictorState::from_state_string(&checkpoint.to_state_string()).unwrap();
        assert_eq!(parsed, checkpoint);
        let per_shard: usize = service.map_shards(|p| p.provenance().len()).iter().sum();
        assert_eq!(checkpoint.journal.len(), per_shard);

        let mut resharded = ConcurrentSizey::sizey(SizeyConfig::default(), 7);
        resharded.restore(&parsed).unwrap();
        assert_eq!(resharded.snapshot().journal.len(), per_shard);
        assert_same_decisions(&service, &resharded, &["x", "y", "z"]);

        let mut serial = SizeyPredictor::with_defaults();
        serial.restore(&parsed).unwrap();
        assert_same_decisions(&service, &serial, &["x", "y", "z"]);
        // The serial store journals in restore order: the merged state.
        assert_eq!(serial.snapshot(), parsed);
    }
}
