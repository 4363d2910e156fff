//! The two serving workloads over `AsyncSizey`: `serve_mixed` drives the
//! write path (queue → batch apply → snapshot clone → publish), `serve_read`
//! bypasses it and drives the lock-free predict path.
//!
//! Both are closed loops with **one** client thread and **one** shard: a
//! workflow engine's submit thread waits for each `predict`, and one client
//! plus one shard worker is `nproc` runnable threads on the reference box.

use super::{sim::trace_cost, Pass, Workload};
use crate::digest::Fnv;
use crate::micro;
use crate::trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sizey_core::{
    AdmissionPolicy, AsyncService, AsyncSizey, ConcurrentPredictor, ServiceConfig, ServiceStats,
    SizeyConfig, SizeyPredictor,
};
use sizey_provenance::{MachineId, TaskOutcome, TaskRecord, TaskTypeId};
use sizey_sim::{AttemptContext, MemoryPredictor, TaskSubmission};
use std::time::{Duration, Instant};

pub const CLIENT: &str = "serve.client";
pub const PREDICT: &str = "service.predict";
pub const SUBMIT: &str = "service.observe";
pub const FLUSH: &str = "service.flush";

/// Records each key is seeded with before the clock starts.
const SEED_RECORDS: usize = 4;
/// `SizeyConfig::history_window` of the shard predictor.
const HISTORY_WINDOW: usize = 64;
/// Keys whose final predictions are checked against the locked path and the
/// serial reference.
const PROBE_KEYS: usize = 256;
/// Observes per phase-B burst.
const BURST: usize = 8;
/// `serve_read` submits one observe per this many predicts, so snapshots keep
/// swapping under the reader.
const OBSERVE_EVERY: usize = 1024;
/// `serve_read` times every this-many-th predict, so the timers do not
/// dominate a one-microsecond operation.
const SAMPLE_EVERY: usize = 16;
/// The traced pass samples `queue_depths()` every this many operations.
const DEPTH_EVERY: usize = 256;

/// Inline retrains and Block admission: nothing is shed and, with one
/// client, the shard applies exactly the submitted sequence — which is what
/// makes the serial-reference check possible.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 4096,
        batch_max: 128,
        batch_window: Duration::from_micros(100),
        admission: AdmissionPolicy::Block,
        deferred_retrains: false,
        ..ServiceConfig::default()
    }
}

pub fn sizey_config() -> SizeyConfig {
    SizeyConfig::default().with_history_window(HISTORY_WINDOW)
}

/// One operation of the seeded input stream: a task of some key with its
/// ground truth. `record` is what a completed run of `task` reports.
pub struct Op {
    pub key: u32,
    pub task: TaskSubmission,
    pub record: TaskRecord,
}

/// The seeded input stream. Key `k` is a distinct (task type, machine) pair
/// whose memory is linear in the input with its own slope and ±8 % noise, so
/// every pool learns a different model and some predictions do fall short.
pub struct Stream {
    rng: StdRng,
    slopes: Vec<f64>,
    sequence: u64,
}

impl Stream {
    pub fn new(keys: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let slopes = (0..keys).map(|_| rng.gen_range(1.5..3.0)).collect();
        Stream {
            rng,
            slopes,
            sequence: 0,
        }
    }

    pub fn keys(&self) -> usize {
        self.slopes.len()
    }

    /// The next operation of key `key`.
    pub fn op(&mut self, key: usize) -> Op {
        let task_type = TaskTypeId::new(format!("tenant-{key:05}"));
        let machine = MachineId::new(format!("node-{:02}", key % 16));
        let input = self.rng.gen_range(1e9..9e9);
        let peak = (self.slopes[key] * input + 5e8) * self.rng.gen_range(0.92..1.08);
        self.sequence += 1;
        Op {
            key: key as u32,
            task: TaskSubmission {
                workflow: "serve".into(),
                task_type: task_type.clone(),
                machine: machine.clone(),
                sequence: self.sequence,
                input_bytes: input,
                preset_memory_bytes: 40e9,
            },
            record: TaskRecord {
                workflow: "serve".into(),
                task_type,
                machine,
                sequence: self.sequence,
                input_bytes: input,
                peak_memory_bytes: peak,
                allocated_memory_bytes: peak * 1.5,
                runtime_seconds: self.rng.gen_range(30.0..300.0),
                concurrent_tasks: 1,
                queue_delay_seconds: 0.0,
                outcome: TaskOutcome::Succeeded,
            },
        }
    }

    /// `SEED_RECORDS` operations per key, key-major.
    pub fn seed_ops(&mut self) -> Vec<Op> {
        (0..self.keys())
            .flat_map(|key| (0..SEED_RECORDS).map(move |_| key))
            .map(|key| self.op(key))
            .collect()
    }
}

/// A one-shard (or `shards`-shard) predictor seeded with `SEED_RECORDS`
/// records for each of `keys` keys.
pub fn seeded(
    keys: usize,
    shards: usize,
    seed: u64,
) -> (ConcurrentPredictor<SizeyPredictor>, Stream, Vec<TaskRecord>) {
    let mut stream = Stream::new(keys, seed);
    let seeds: Vec<TaskRecord> = stream.seed_ops().into_iter().map(|op| op.record).collect();
    let inner = ConcurrentPredictor::new(shards, |_| SizeyPredictor::new(sizey_config()));
    inner.observe_batch(&seeds);
    (inner, stream, seeds)
}

/// What the client accumulates about sizing quality: each prediction is
/// scored against the ground truth of the task it was made for, with the
/// simulator's wastage rule (a short allocation wastes all of itself).
#[derive(Default)]
struct Quality {
    wastage_gbh: f64,
    oom_failures: u64,
    /// Predictions that were not a finite, positive allocation.
    invalid: u64,
}

impl Quality {
    fn score(&mut self, allocation_bytes: f64, truth: &TaskRecord) {
        if !(allocation_bytes.is_finite() && allocation_bytes > 0.0) {
            self.invalid += 1;
            return;
        }
        let wasted = if allocation_bytes >= truth.peak_memory_bytes {
            allocation_bytes - truth.peak_memory_bytes
        } else {
            self.oom_failures += 1;
            allocation_bytes
        };
        self.wastage_gbh += wasted / 1e9 * truth.runtime_seconds / 3600.0;
    }
}

fn stats_delta(before: &ServiceStats, after: &ServiceStats) -> ServiceStats {
    ServiceStats {
        predicts: after.predicts - before.predicts,
        submitted: after.submitted - before.submitted,
        accepted: after.accepted - before.accepted,
        shed: after.shed - before.shed,
        observed: after.observed - before.observed,
        batches: after.batches - before.batches,
        snapshots_published: after.snapshots_published - before.snapshots_published,
        retrains_installed: after.retrains_installed - before.retrains_installed,
        retrain_backlog: after.retrain_backlog,
    }
}

/// The checks every serve pass ends with, after its final flush:
/// exact accounting, snapshot path == locked path, and both bit-identical to
/// a serial `SizeyPredictor` fed the same records in the same order.
/// Returns the digest of the probe predictions and the failed-operation
/// count.
fn verify(
    service: &AsyncSizey,
    stats: &ServiceStats,
    applied: &[&TaskRecord],
    probes: &[TaskSubmission],
    invalid_predictions: u64,
    broken: &mut Vec<String>,
) -> (u64, u64) {
    if stats.accepted + stats.shed != stats.submitted {
        broken.push(format!(
            "accounting: accepted {} + shed {} != submitted {}",
            stats.accepted, stats.shed, stats.submitted
        ));
    }
    if stats.observed != stats.accepted {
        broken.push(format!(
            "after the final flush observed {} != accepted {}",
            stats.observed, stats.accepted
        ));
    }
    if stats.shed != 0 {
        broken.push(format!(
            "{} observes shed under Block admission",
            stats.shed
        ));
    }

    let mut serial = SizeyPredictor::new(sizey_config());
    for record in applied {
        serial.observe(record);
    }
    let mut digest = Fnv::default();
    let (mut off_locked, mut off_serial) = (0, 0);
    for task in probes {
        let ctx = AttemptContext::first();
        let snapshot = service.predict(task, ctx);
        off_locked += usize::from(snapshot != service.predict_locked(task, ctx));
        off_serial += usize::from(snapshot != serial.predict(task, ctx));
        digest.f64(snapshot.allocation_bytes);
        digest.f64(snapshot.raw_estimate_bytes.unwrap_or(f64::NAN));
        digest.str(snapshot.selected_model.unwrap_or(""));
    }
    if off_locked > 0 {
        broken.push(format!(
            "{off_locked} of {} probes: predict != predict_locked after flush",
            probes.len()
        ));
    }
    if off_serial > 0 {
        broken.push(format!(
            "{off_serial} of {} probes differ from the serial reference",
            probes.len()
        ));
    }
    let failed = stats.shed + (stats.accepted - stats.observed) + invalid_predictions;
    (digest.finish(), failed)
}

/// Probe tasks: the first `PROBE_KEYS` keys at a fixed input.
fn probes(stream: &mut Stream) -> Vec<TaskSubmission> {
    (0..PROBE_KEYS.min(stream.keys()))
        .map(|key| {
            let mut task = stream.op(key).task;
            task.input_bytes = 5e9;
            task
        })
        .collect()
}

/// Samples `queue_depths()` on the traced pass only.
struct DepthProbe {
    enabled: bool,
    ops: usize,
    max: usize,
}

impl DepthProbe {
    fn new(enabled: bool) -> Self {
        DepthProbe {
            enabled,
            ops: 0,
            max: 0,
        }
    }

    fn tick(&mut self, service: &AsyncSizey) {
        self.ops += 1;
        if self.enabled && self.ops.is_multiple_of(DEPTH_EVERY) {
            self.max = self
                .max
                .max(service.queue_depths().into_iter().max().unwrap_or(0));
        }
    }
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

pub struct ServeMixed {
    keys: usize,
    /// Phase A: this many `predict`-then-`observe` pairs, round-robin over
    /// keys, then `flush()`.
    pairs: usize,
    /// Phase B: this many bursts of `BURST` observes followed by `flush()`.
    bursts: usize,
    smoke: bool,
}

impl ServeMixed {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            ServeMixed {
                keys: 300,
                pairs: 1_500,
                bursts: 20,
                smoke,
            }
        } else {
            ServeMixed {
                keys: 2_000,
                pairs: 6_000,
                bursts: 40,
                smoke,
            }
        }
    }

    /// Phase A against `service`; returns its wall time. Shared with the
    /// two-shard layer metric.
    fn phase_a(
        service: &AsyncSizey,
        ops: &[Op],
        quality: &mut Quality,
        predict_ns: &mut Vec<u64>,
        depth: &mut DepthProbe,
    ) -> f64 {
        let start = Instant::now();
        for op in ops {
            trace::begin(op.key, op.task.sequence);
            let t0 = Instant::now();
            let prediction = service.predict(&op.task, AttemptContext::first());
            predict_ns.push(t0.elapsed().as_nanos() as u64);
            trace::end(PREDICT);
            quality.score(prediction.allocation_bytes, &op.record);
            trace::span(SUBMIT, op.key, op.task.sequence, || {
                service.observe(&op.record)
            });
            depth.tick(service);
        }
        trace::span(FLUSH, 0, 0, || service.flush());
        start.elapsed().as_secs_f64()
    }
}

impl Workload for ServeMixed {
    fn name(&self) -> &'static str {
        "serve_mixed"
    }

    fn why(&self) -> &'static str {
        "predict:observe 1:1 on one shard: queue, batch apply, snapshot clone and publish do nearly all the work"
    }

    fn prepare(&self, seed: u64, traced: bool) -> Box<dyn FnOnce() -> Pass + '_> {
        let (inner, mut stream, seeds) = seeded(self.keys, 1, seed);
        let phase_a: Vec<Op> = (0..self.pairs).map(|i| stream.op(i % self.keys)).collect();
        let phase_b: Vec<Op> = (0..self.bursts * BURST)
            .map(|i| stream.op((i * 7) % self.keys))
            .collect();
        let probes = probes(&mut stream);
        let service = AsyncService::new(inner, service_config());
        service.flush();

        Box::new(move || {
            let before = service.stats();
            let mut quality = Quality::default();
            let mut predict_ns = Vec::with_capacity(phase_a.len());
            let mut lag_ns = Vec::with_capacity(self.bursts);
            let mut depth = DepthProbe::new(traced);
            let start = Instant::now();
            trace::begin(0, 0);

            let wall_a = ServeMixed::phase_a(
                &service,
                &phase_a,
                &mut quality,
                &mut predict_ns,
                &mut depth,
            );

            // Phase B: each burst is timed from its first submit to the
            // return of the flush that makes it visible.
            for burst in phase_b.chunks(BURST) {
                let t0 = Instant::now();
                for op in burst {
                    trace::span(SUBMIT, op.key, op.task.sequence, || {
                        service.observe(&op.record)
                    });
                    depth.tick(&service);
                }
                trace::span(FLUSH, 0, 0, || service.flush());
                lag_ns.push(t0.elapsed().as_nanos() as u64);
            }

            trace::end(CLIENT);
            let wall_s = start.elapsed().as_secs_f64();
            let stats = stats_delta(&before, &service.stats());

            let mut broken = Vec::new();
            let applied: Vec<&TaskRecord> = seeds
                .iter()
                .chain(phase_a.iter().chain(&phase_b).map(|op| &op.record))
                .collect();
            let (digest, failed) = verify(
                &service,
                &stats,
                &applied,
                &probes,
                quality.invalid,
                &mut broken,
            );
            let observes_per_s = self.pairs as f64 / wall_a;
            Pass {
                wall_s,
                attempted: stats.predicts + stats.submitted,
                failed,
                digest,
                values: vec![
                    ("attempts_per_s", observes_per_s),
                    ("wastage_gbh", quality.wastage_gbh),
                    ("oom_failures", quality.oom_failures as f64),
                    ("observes_per_s", observes_per_s),
                ],
                counts: vec![
                    ("service.batches", stats.batches as f64),
                    (
                        "service.snapshots_published",
                        stats.snapshots_published as f64,
                    ),
                    (
                        "service.mean_batch_size",
                        stats.observed as f64 / stats.batches.max(1) as f64,
                    ),
                    ("service.max_queue_depth", depth.max as f64),
                    ("service.shed", stats.shed as f64),
                ],
                samples: vec![("predict", predict_ns), ("visible_lag", lag_ns)],
                broken,
                trace: traced.then(trace::finish),
            }
        })
    }

    fn layers(&self, seed: u64, plain: &Pass, traced: &Pass) -> Vec<(String, f64)> {
        let trace = traced.trace.as_ref().expect("traced pass carries a trace");
        let submit = trace.layer(SUBMIT);
        let flush = trace.layer(FLUSH);
        let mut out: Vec<(String, f64)> = traced.layer_counts().collect();
        out.extend([
            (
                "service.submit_p50_us".to_string(),
                submit.durations.percentile_ns(0.5) / 1e3,
            ),
            (
                "service.submit_p99_us".to_string(),
                submit.durations.percentile_ns(0.99) / 1e3,
            ),
            (
                "service.blocked_share".to_string(),
                submit.busy_s() / traced.wall_s,
            ),
            (
                "service.flush_ms".to_string(),
                flush.durations.percentile_ns(0.5) / 1e6,
            ),
        ]);
        out.extend(trace_cost(plain, traced, trace, 0.0));
        micro::run(micro::Group::Serve, seed, self.smoke, &mut out);
        let clone_ms = out
            .iter()
            .find(|(name, _)| name == "serve.clone_shard_ms.k2000")
            .map_or(0.0, |(_, v)| *v);
        out.push((
            "service.publish_share".to_string(),
            plain.count("service.snapshots_published") * clone_ms / 1e3 / plain.wall_s,
        ));

        // The same phase A over two shards: the scaling the one-shard
        // workload leaves out because it does not repeat on two cores.
        let (inner, mut stream, _) = seeded(self.keys, 2, seed);
        let ops: Vec<Op> = (0..self.pairs).map(|i| stream.op(i % self.keys)).collect();
        let service = AsyncService::new(inner, service_config());
        service.flush();
        let wall = ServeMixed::phase_a(
            &service,
            &ops,
            &mut Quality::default(),
            &mut Vec::new(),
            &mut DepthProbe::new(false),
        );
        out.push((
            "service.observes_per_s.shards2".to_string(),
            self.pairs as f64 / wall,
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// serve_read
// ---------------------------------------------------------------------------

pub struct ServeRead {
    keys: usize,
    predicts: usize,
    smoke: bool,
}

impl ServeRead {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            ServeRead {
                keys: 300,
                predicts: 200_000,
                smoke,
            }
        } else {
            ServeRead {
                keys: 2_000,
                predicts: 1_500_000,
                smoke,
            }
        }
    }
}

impl Workload for ServeRead {
    fn name(&self) -> &'static str {
        "serve_read"
    }

    fn why(&self) -> &'static str {
        "predicts only, one observe per 1024: snapshot load, gating, RAQ, offset and ML predict dominate; the write path is bypassed"
    }

    fn prepare(&self, seed: u64, traced: bool) -> Box<dyn FnOnce() -> Pass + '_> {
        let (inner, mut stream, seeds) = seeded(self.keys, 1, seed);
        // Four tasks per key, visited round-robin, so consecutive predicts
        // hit different pools and different inputs.
        let table: Vec<Op> = (0..self.keys * 4)
            .map(|i| stream.op(i % self.keys))
            .collect();
        let writes: Vec<Op> = (0..self.predicts / OBSERVE_EVERY)
            .map(|i| stream.op((i * 13) % self.keys))
            .collect();
        let probes = probes(&mut stream);
        let service = AsyncService::new(inner, service_config());
        service.flush();

        Box::new(move || {
            let before = service.stats();
            let mut quality = Quality::default();
            let mut predict_ns = Vec::with_capacity(self.predicts / SAMPLE_EVERY + 1);
            let mut depth = DepthProbe::new(traced);
            let mut writes_due = writes.iter();
            let start = Instant::now();
            trace::begin(0, 0);
            for i in 0..self.predicts {
                let op = &table[i % table.len()];
                let prediction = if i % SAMPLE_EVERY == 0 {
                    trace::begin(op.key, i as u64);
                    let t0 = Instant::now();
                    let prediction = service.predict(&op.task, AttemptContext::first());
                    predict_ns.push(t0.elapsed().as_nanos() as u64);
                    trace::end(PREDICT);
                    prediction
                } else {
                    service.predict(&op.task, AttemptContext::first())
                };
                quality.score(prediction.allocation_bytes, &op.record);
                if i % OBSERVE_EVERY == OBSERVE_EVERY - 1 {
                    if let Some(write) = writes_due.next() {
                        trace::span(SUBMIT, write.key, i as u64, || {
                            service.observe(&write.record)
                        });
                    }
                }
                depth.tick(&service);
            }
            trace::end(CLIENT);
            let wall_s = start.elapsed().as_secs_f64();
            service.flush();
            let stats = stats_delta(&before, &service.stats());

            let mut broken = Vec::new();
            let applied: Vec<&TaskRecord> = seeds
                .iter()
                .chain(
                    writes
                        .iter()
                        .take(stats.submitted as usize)
                        .map(|op| &op.record),
                )
                .collect();
            let (digest, failed) = verify(
                &service,
                &stats,
                &applied,
                &probes,
                quality.invalid,
                &mut broken,
            );
            let predicts_per_s = self.predicts as f64 / wall_s;
            Pass {
                wall_s,
                attempted: stats.predicts + stats.submitted,
                failed,
                digest,
                values: vec![
                    ("attempts_per_s", predicts_per_s),
                    ("wastage_gbh", quality.wastage_gbh),
                    ("oom_failures", quality.oom_failures as f64),
                    ("predicts_per_s", predicts_per_s),
                ],
                counts: vec![
                    ("service.batches", stats.batches as f64),
                    (
                        "service.snapshots_published",
                        stats.snapshots_published as f64,
                    ),
                    (
                        "service.mean_batch_size",
                        stats.observed as f64 / stats.batches.max(1) as f64,
                    ),
                    ("service.max_queue_depth", depth.max as f64),
                    ("service.shed", stats.shed as f64),
                ],
                samples: vec![("predict", predict_ns)],
                broken,
                trace: traced.then(trace::finish),
            }
        })
    }

    fn layers(&self, seed: u64, plain: &Pass, traced: &Pass) -> Vec<(String, f64)> {
        let trace = traced.trace.as_ref().expect("traced pass carries a trace");
        let mut out: Vec<(String, f64)> = traced.layer_counts().collect();
        out.extend(trace_cost(plain, traced, trace, 0.0));
        micro::run(micro::Group::Kernels, seed, self.smoke, &mut out);
        micro::run(micro::Group::Serve, seed, self.smoke, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(peak: f64, runtime: f64) -> TaskRecord {
        let mut record = Stream::new(1, 1).op(0).record;
        record.peak_memory_bytes = peak;
        record.runtime_seconds = runtime;
        record
    }

    #[test]
    fn quality_scores_surplus_shortfall_and_invalid_predictions() {
        let mut q = Quality::default();
        q.score(3e9, &truth(2e9, 3600.0)); // 1 GB surplus for an hour
        q.score(1e9, &truth(2e9, 1800.0)); // short: wastes its 1 GB for half an hour
        q.score(f64::NAN, &truth(2e9, 3600.0));
        q.score(0.0, &truth(2e9, 3600.0));
        q.score(-1.0, &truth(2e9, 3600.0));
        assert!((q.wastage_gbh - 1.5).abs() < 1e-12);
        assert_eq!((q.oom_failures, q.invalid), (1, 3));
    }

    #[test]
    fn the_input_stream_is_a_function_of_the_seed() {
        let ops = |seed| -> Vec<(f64, f64, u64)> {
            let mut s = Stream::new(5, seed);
            (0..10)
                .map(|i| s.op(i % 5))
                .map(|op| {
                    (
                        op.task.input_bytes,
                        op.record.peak_memory_bytes,
                        op.task.sequence,
                    )
                })
                .collect()
        };
        assert_eq!(ops(42), ops(42));
        assert_ne!(ops(42), ops(7));
        let mut s = Stream::new(3, 9);
        let seeds = s.seed_ops();
        assert_eq!(seeds.len(), 3 * SEED_RECORDS);
        assert!(seeds.iter().all(|op| op.record.peak_memory_bytes > 0.0
            && op.task.input_bytes == op.record.input_bytes
            && op.task.task_type == op.record.task_type));
    }

    #[test]
    fn failed_operations_count_shed_lost_and_invalid() {
        let service = AsyncService::new(seeded(4, 1, 3).0, service_config());
        let mut broken = Vec::new();
        // A fabricated reading: 10 submitted, 1 shed, 1 accepted but never
        // applied, 2 invalid predictions -> 4 failed, two checks broken.
        let stats = ServiceStats {
            submitted: 10,
            accepted: 9,
            shed: 1,
            observed: 8,
            ..ServiceStats::default()
        };
        let (_, failed) = verify(&service, &stats, &[], &[], 2, &mut broken);
        assert_eq!(failed, 4);
        assert_eq!(broken.len(), 2, "{broken:?}");
        let clean = ServiceStats {
            submitted: 5,
            accepted: 5,
            observed: 5,
            ..ServiceStats::default()
        };
        broken.clear();
        assert_eq!(verify(&service, &clean, &[], &[], 0, &mut broken).1, 0);
        assert!(broken.is_empty());
    }

    #[test]
    fn verify_catches_a_service_that_diverged_from_the_serial_reference() {
        let (inner, mut stream, seeds) = seeded(8, 1, 11);
        let probes = probes(&mut stream);
        let service = AsyncService::new(inner, service_config());
        let extra = stream.op(0);
        assert!(service.observe(&extra.record));
        service.flush();
        let stats = service.stats();
        let with_extra: Vec<&TaskRecord> = seeds.iter().chain([&extra.record]).collect();
        let mut broken = Vec::new();
        let (digest, failed) = verify(&service, &stats, &with_extra, &probes, 0, &mut broken);
        assert!(broken.is_empty(), "{broken:?}");
        assert_eq!(failed, 0);
        // Leave the extra record out of the reference: key 0 now differs.
        let without: Vec<&TaskRecord> = seeds.iter().collect();
        let (again, _) = verify(&service, &stats, &without, &probes, 0, &mut broken);
        assert_eq!(
            digest, again,
            "the digest is of the service, not the reference"
        );
        assert_eq!(broken.len(), 1, "{broken:?}");
        assert!(broken[0].contains("serial reference"));
    }
}
