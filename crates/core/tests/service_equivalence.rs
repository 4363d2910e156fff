//! Property tests for the async serving front-end.
//!
//! Four guarantees are pinned here:
//!
//! 1. **Snapshot ≡ locked ≡ ConcurrentSizey.** After a
//!    [`flush`](sizey_core::AsyncService::flush), the lock-free snapshot
//!    predict path is bit-identical to the locked path on the same service,
//!    and both are bit-identical to a locked [`ConcurrentSizey`] fed the same
//!    records directly — for any record stream, shard count and micro-batch
//!    geometry. This holds because per-shard queues preserve per-key
//!    submission order and a predictor's state is a pure function of its
//!    per-key record sequence; snapshots are read-only views of that state.
//! 2. **Backpressure invariants.** Queue depths never exceed the configured
//!    capacity and every submission is accounted for:
//!    `accepted + shed == submitted`, and after shutdown
//!    `observed == accepted`.
//! 3. **Shutdown drains.** Closing the service never deadlocks and never
//!    loses an accepted observe, whatever is still queued.
//! 4. **Published views are isolated and shared.** A
//!    [`published_view`](sizey_core::SizeyPredictor::published_view) keeps
//!    predicting what it predicted when it was taken, whatever the predictor
//!    it came from learns afterwards; taking views changes nothing the live
//!    predictor does; and a batch that wrote to *m* of *n* keys leaves
//!    exactly *n − m* pools shared between consecutive views.

use proptest::prelude::*;
use sizey_core::{
    AdmissionPolicy, AsyncSizey, ConcurrentSizey, OnlineMode, ServiceConfig, SizeyConfig,
    SizeyPredictor,
};
use sizey_provenance::{MachineId, TaskOutcome, TaskRecord, TaskTypeId};
use sizey_sim::{AttemptContext, MemoryPredictor, Prediction, TaskSubmission};
use std::time::Duration;

const TASK_TYPES: [&str; 5] = ["align", "sort", "merge", "variant-call", "qc"];
const MACHINES: [&str; 3] = ["node-a", "node-b", "gpu-17"];

fn record(type_idx: usize, machine_idx: usize, seq: u64, input_gb: f64, factor: f64) -> TaskRecord {
    let input = input_gb * 1e9;
    let peak = factor * input + 5e8;
    TaskRecord {
        workflow: "wf".into(),
        task_type: TaskTypeId::new(TASK_TYPES[type_idx % TASK_TYPES.len()]),
        machine: MachineId::new(MACHINES[machine_idx % MACHINES.len()]),
        sequence: seq,
        input_bytes: input,
        peak_memory_bytes: peak,
        allocated_memory_bytes: peak * 1.5,
        runtime_seconds: 30.0 + input_gb,
        concurrent_tasks: 1,
        queue_delay_seconds: 0.0,
        outcome: TaskOutcome::Succeeded,
    }
}

fn submission(type_idx: usize, machine_idx: usize, input_gb: f64) -> TaskSubmission {
    TaskSubmission {
        workflow: "wf".into(),
        task_type: TaskTypeId::new(TASK_TYPES[type_idx % TASK_TYPES.len()]),
        machine: MachineId::new(MACHINES[machine_idx % MACHINES.len()]),
        sequence: 9_000,
        input_bytes: input_gb * 1e9,
        preset_memory_bytes: 20e9,
    }
}

/// Every probe prediction over the first `types` × `machines` keys: two
/// inputs, first attempt and a retry.
fn probe(predictor: &SizeyPredictor, types: usize, machines: usize) -> Vec<Prediction> {
    let mut out = Vec::new();
    for t in 0..types {
        for m in 0..machines {
            for input_gb in [0.5, 7.0] {
                let task = submission(t, m, input_gb);
                for ctx in [AttemptContext::first(), AttemptContext::retry(1, 8e9)] {
                    out.push(predictor.predict(&task, ctx));
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Guarantee 4, isolation: a view taken at step *i* predicts at the end
    /// of the stream exactly what it predicted at step *i*, and the live
    /// predictor it was taken from ends bit-identical to a serial predictor
    /// that was fed the same stream and never published anything — over
    /// successes, OOM failures, `history_window` trims and the full retrains
    /// they and the retrain interval trigger.
    #[test]
    fn published_views_are_isolated_from_later_writes(
        stream in proptest::collection::vec(
            (0usize..2, 0usize..2, 1.0f64..12.0, 1.2f64..3.0, 0u8..6),
            10..90,
        ),
        window in prop_oneof![Just(None), Just(Some(6usize)), Just(Some(16usize))],
        view_every in 1usize..9,
    ) {
        let config = SizeyConfig {
            online: OnlineMode::incremental(4),
            history_window: window,
            ..SizeyConfig::default()
        };
        let mut live = SizeyPredictor::new(config.clone());
        let mut serial = SizeyPredictor::new(config);

        let mut views = Vec::new();
        for (step, &(t, m, input, factor, oom)) in stream.iter().enumerate() {
            let mut rec = record(t, m, step as u64 + 1, input, factor);
            if oom == 0 {
                rec.outcome = TaskOutcome::FailedOutOfMemory;
                rec.allocated_memory_bytes = rec.peak_memory_bytes * 0.8;
            }
            live.observe(&rec);
            serial.observe(&rec);
            if step % view_every == 0 {
                let view = live.published_view();
                let then = probe(&view, 2, 2);
                prop_assert_eq!(&then, &probe(&live, 2, 2), "view differs from its source");
                views.push((step, view, then));
            }
        }
        for (step, view, then) in &views {
            prop_assert_eq!(&probe(view, 2, 2), then, "view of step {} moved", step);
        }
        prop_assert_eq!(probe(&live, 2, 2), probe(&serial, 2, 2));
        prop_assert_eq!(live.total_full_retrains(), serial.total_full_retrains());
    }
}

/// Guarantee 4, sharing: between two consecutive published views of a batch
/// that touched *m* of *n* keys, exactly *n − m* pools are the same
/// allocation and *m* are not — a publish costs what the batch wrote, not
/// what the shard holds.
#[test]
fn consecutive_views_share_every_pool_the_batch_left_alone() {
    let (types, machines) = (TASK_TYPES.len(), MACHINES.len());
    let n = types * machines;
    let mut live = SizeyPredictor::with_defaults();
    let mut seq = 0;
    for round in 0..3 {
        for key in 0..n {
            seq += 1;
            live.observe(&record(
                key % types,
                key / types,
                seq,
                2.0 + round as f64,
                2.0,
            ));
        }
    }
    assert_eq!(live.n_pools(), n);
    let mut before = live.published_view();
    assert_eq!(before.pools_shared_with(&live), n);
    for m in [0, 1, 4, n] {
        // Two writes to each of the first `m` keys: a pool is copied at
        // most once per publish, however often the batch writes to it.
        for key in (0..m).chain(0..m) {
            seq += 1;
            live.observe(&record(key % types, key / types, seq, 5.0, 2.0));
        }
        let after = live.published_view();
        assert_eq!(after.pools_shared_with(&before), n - m, "batch of {m} keys");
        assert_eq!(after.pools_shared_with(&live), n);
        before = after;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Guarantee 1: for any record stream and service geometry, the
    /// flushed snapshot path, the locked path and a directly-driven
    /// `ConcurrentSizey` agree bitwise on every prediction.
    #[test]
    fn snapshot_locked_and_shared_paths_are_bit_identical_after_flush(
        stream in proptest::collection::vec(
            (0usize..5, 0usize..3, 1.0f64..12.0, 1.2f64..3.0),
            10..80,
        ),
        shards in 1usize..7,
        batch_max in 1usize..33,
        window_us in 0u64..500,
    ) {
        let config = ServiceConfig {
            batch_max,
            batch_window: Duration::from_micros(window_us),
            ..ServiceConfig::default()
        };
        let service = AsyncSizey::sizey(SizeyConfig::default(), shards, config);
        let reference = ConcurrentSizey::sizey(SizeyConfig::default(), shards);

        for (seq, &(t, m, input, factor)) in stream.iter().enumerate() {
            let rec = record(t, m, seq as u64 + 1, input, factor);
            prop_assert!(service.observe(&rec), "Block admission must accept");
            reference.observe(&rec);
        }
        service.flush();

        for t in 0..TASK_TYPES.len() {
            for m in 0..MACHINES.len() {
                for input_gb in [0.5, 4.0, 25.0] {
                    let task = submission(t, m, input_gb);
                    for ctx in [AttemptContext::first(), AttemptContext::retry(2, 8e9)] {
                        let snap = service.predict(&task, ctx);
                        let locked = service.predict_locked(&task, ctx);
                        let shared = reference.predict(&task, ctx);
                        prop_assert_eq!(&snap, &locked,
                            "snapshot vs locked diverged on {}/{}", t, m);
                        // Bitwise equality, not tolerance: the async service
                        // must run the exact same arithmetic on the exact
                        // same state as the locked reference.
                        prop_assert_eq!(&snap, &shared,
                            "async vs ConcurrentSizey diverged on {}/{}", t, m);
                    }
                }
            }
        }
        let stats = service.shutdown();
        prop_assert_eq!(stats.accepted, stream.len() as u64);
        prop_assert_eq!(stats.observed, stream.len() as u64);
        prop_assert_eq!(stats.shed, 0);
    }

    /// Guarantee 2: under shed admission the queue bound is an invariant
    /// and every submission is accounted as accepted or shed.
    #[test]
    fn backpressure_bounds_queues_and_accounts_for_every_submission(
        stream in proptest::collection::vec(
            (0usize..5, 0usize..3),
            20..150,
        ),
        capacity in 1usize..9,
        shards in 1usize..4,
    ) {
        let config = ServiceConfig {
            queue_capacity: capacity,
            // A long window keeps the workers busy waiting so queues
            // actually fill and shed under the test's submission burst.
            batch_max: 256,
            batch_window: Duration::from_millis(20),
            admission: AdmissionPolicy::Shed,
            ..ServiceConfig::default()
        };
        let service = AsyncSizey::sizey(SizeyConfig::default(), shards, config);
        let mut accepted = 0u64;
        for (seq, &(t, m)) in stream.iter().enumerate() {
            if service.observe(&record(t, m, seq as u64 + 1, 2.0, 2.0)) {
                accepted += 1;
            }
            for depth in service.queue_depths() {
                prop_assert!(depth <= capacity, "queue depth {} > bound {}", depth, capacity);
            }
        }
        let mid = service.stats();
        prop_assert_eq!(mid.submitted, stream.len() as u64);
        prop_assert_eq!(mid.accepted, accepted);
        prop_assert_eq!(mid.accepted + mid.shed, mid.submitted);

        let fin = service.shutdown();
        prop_assert_eq!(fin.observed, fin.accepted, "accepted observes were lost");
    }

    /// Guarantee 3: shutdown with arbitrarily full queues neither
    /// deadlocks nor drops accepted work, and post-shutdown submissions
    /// are shed, not silently swallowed.
    #[test]
    fn shutdown_drains_everything_accepted_without_deadlock(
        n in 1usize..120,
        shards in 1usize..5,
        batch_max in 1usize..17,
    ) {
        let config = ServiceConfig {
            batch_max,
            batch_window: Duration::from_micros(50),
            ..ServiceConfig::default()
        };
        let service = AsyncSizey::sizey(SizeyConfig::default(), shards, config);
        for seq in 0..n {
            service.observe(&record(seq, seq, seq as u64 + 1, 1.0, 2.0));
        }
        // No flush on purpose: shutdown itself must drain the queues.
        let stats = service.shutdown();
        prop_assert_eq!(stats.accepted, n as u64);
        prop_assert_eq!(stats.observed, n as u64);
    }
}

/// A shed-mode handle keeps serving predictions while its queues overflow:
/// the read path is independent of write-path congestion.
#[test]
fn predicts_keep_flowing_while_queues_overflow() {
    let config = ServiceConfig {
        queue_capacity: 2,
        batch_max: 512,
        batch_window: Duration::from_millis(50),
        admission: AdmissionPolicy::Shed,
        ..ServiceConfig::default()
    };
    let service = AsyncSizey::sizey(SizeyConfig::default(), 2, config);
    let mut sheds = 0u64;
    for seq in 0..500u64 {
        if !service.observe(&record(0, 0, seq + 1, 2.0, 2.0)) {
            sheds += 1;
        }
        // Predicts must complete regardless of queue congestion.
        let pred = service.predict(&submission(0, 0, 2.0), AttemptContext::first());
        assert!(pred.allocation_bytes > 0.0);
    }
    assert!(sheds > 0, "the test never actually congested the queues");
    let stats = service.shutdown();
    assert_eq!(stats.predicts, 500);
    assert_eq!(stats.observed, stats.accepted);
}
