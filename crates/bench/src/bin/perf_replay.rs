//! `perf_replay` — the reproducible performance harness for the
//! predict/observe hot path and the event-driven replay engine.
//!
//! Two pinned scenarios (fixed workflows, scale, seed, policy and cluster —
//! deliberately independent of the `SIZEY_BENCH_*` environment variables, so
//! two runs on different commits measure the same workload):
//!
//! * **replay** (the default): a multi-tenant sweep of materialised workloads
//!   through [`schedule_workflows`], the event-driven engine's collecting
//!   entry point, with one online-learning Sizey predictor per tenant,
//!   reporting end-to-end throughput in dispatched attempts per second and
//!   per-call latency percentiles of `MemoryPredictor::predict` and
//!   `MemoryPredictor::observe` (p50 / p90 / p99 / p999 / max, microseconds),
//!   plus the number of full model-pool retrains behind the observe tail.
//! * **scale** (`--scale`): a million-instance, 50-tenant workload through
//!   the same engine's *streaming* entry point
//!   ([`schedule_workflows_streaming`]) with bounded-history predictors and
//!   null sinks. The harness runs the same spec at a calibration fraction
//!   first and asserts that peak heap usage grows **at most logarithmically**
//!   with instance count — the bounded-memory contract of the streaming
//!   pipeline. The run fails loudly (non-zero exit) when the ratio of peaks
//!   exceeds the logarithmic bound.
//!
//! Either run rewrites its scenario inside `BENCH_replay.json` at the
//! repository root (schema `sizey-perf-replay/v2`), preserving the other
//! scenario's committed measurement — the perf trajectory tracked across
//! commits.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sizey-bench --bin perf_replay                    # full replay sweep
//! cargo run --release -p sizey-bench --bin perf_replay -- --smoke         # small CI smoke spec
//! cargo run --release -p sizey-bench --bin perf_replay -- --scale         # 1M-instance streaming run
//! cargo run --release -p sizey-bench --bin perf_replay -- --scale --smoke # CI bounded-RSS gate
//! cargo run --release -p sizey-bench --bin perf_replay -- --out /tmp/bench.json
//! ```

use sizey_bench::perf_json::{json_latency, print_latency, summarize, write_bench_json};
use sizey_core::{SizeyConfig, SizeyPredictor};
use sizey_sim::{
    schedule_workflows, schedule_workflows_streaming, AttemptContext, MemoryPredictor,
    NullRecordSink, NullSink, Prediction, SchedulePolicy, SimulationConfig, StreamingTenant,
    TaskSubmission, WorkflowTenant,
};
use sizey_workflows::{all_workflows, generate_workflow, stream_workflow, GeneratorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sizey_provenance::TaskRecord;

// ---------------------------------------------------------------------------
// Counting allocator: the measurement instrument of the bounded-RSS gate.
// ---------------------------------------------------------------------------

/// A passthrough [`System`] allocator that tracks live and peak heap bytes.
/// Registered for the whole binary so the streaming-scale scenario can assert
/// its bounded-memory contract without platform-specific RSS probes.
struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let now = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: a pure passthrough to the [`System`] allocator — layout
// contracts are forwarded untouched, so the GlobalAlloc invariants hold
// exactly as they do for `System` itself; the atomic counters never
// allocate and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: delegates to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    // SAFETY: delegates to `System.alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    // SAFETY: delegates to `System.dealloc`; `ptr`/`layout` come from a
    // prior alloc on this same (passthrough) allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: delegates to `System.realloc` under the caller's contract
    // (live `ptr`, matching `layout`, non-zero rounded `new_size`).
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            if new_size >= layout.size() {
                note_alloc(new_size - layout.size());
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        out
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Resets the peak-heap high-water mark to the currently live bytes, so the
/// next measurement window starts clean.
fn heap_reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak heap bytes since the last [`heap_reset_peak`].
fn heap_peak_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Pinned specs.
// ---------------------------------------------------------------------------

/// The pinned harness parameters of one replay-scenario mode.
struct PinnedSpec {
    mode: &'static str,
    /// Fraction of the paper's task volume per workflow.
    scale: f64,
    /// Workload generation seed.
    seed: u64,
    /// Number of tenant workflows (taken in `all_workflows()` order).
    tenants: usize,
    /// Seconds between consecutive instance arrivals of one tenant.
    submit_interval_seconds: f64,
    /// Arrival stagger between tenants, in seconds.
    arrival_stagger_seconds: f64,
}

const FULL: PinnedSpec = PinnedSpec {
    mode: "full",
    scale: 0.5,
    seed: 42,
    tenants: 6,
    submit_interval_seconds: 5.0,
    arrival_stagger_seconds: 600.0,
};

const SMOKE: PinnedSpec = PinnedSpec {
    mode: "smoke",
    scale: 0.01,
    seed: 42,
    tenants: 2,
    submit_interval_seconds: 5.0,
    arrival_stagger_seconds: 60.0,
};

/// The pinned parameters of one streaming-scale-scenario mode. The workload
/// is replayed twice — once at `calibration_scale`, once at `scale` — and
/// the two peak-heap measurements carry the logarithmic-growth assertion.
struct ScaleSpec {
    mode: &'static str,
    /// Fraction of the paper's task volume per workflow for the main run.
    scale: f64,
    /// Fraction for the smaller calibration run.
    calibration_scale: f64,
    /// Workload generation seed.
    seed: u64,
    /// Number of tenant workflows (cycling `all_workflows()`).
    tenants: usize,
    /// Seconds between consecutive instance arrivals of one tenant. Large
    /// enough that the pinned cluster keeps up with 50 tenants — the pending
    /// queue must stay bounded for the memory contract to be meaningful.
    submit_interval_seconds: f64,
    /// Arrival stagger between tenants, in seconds.
    arrival_stagger_seconds: f64,
    /// `SizeyConfig::history_window` for the per-tenant predictors.
    history_window: usize,
}

const SCALE_FULL: ScaleSpec = ScaleSpec {
    mode: "full",
    // 50 tenants cycling the six workflows produce ~113k instances per unit
    // of scale; 10x pushes the pinned run past a million task instances.
    scale: 10.0,
    calibration_scale: 1.25,
    seed: 42,
    tenants: 50,
    submit_interval_seconds: 600.0,
    arrival_stagger_seconds: 120.0,
    history_window: 256,
};

const SCALE_SMOKE: ScaleSpec = ScaleSpec {
    mode: "smoke",
    scale: 0.02,
    calibration_scale: 0.005,
    seed: 42,
    tenants: 50,
    submit_interval_seconds: 600.0,
    arrival_stagger_seconds: 120.0,
    history_window: 64,
};

/// Regression gate applied in `--smoke` mode: the replay exits non-zero when
/// the observe p50 exceeds this ceiling. The incremental learning path puts
/// the full-spec observe p50 in the single-digit microseconds; the ceiling is
/// set an order of magnitude above that so shared CI runners never trip it on
/// noise, while a reversion to the former O(history)-per-observe behaviour
/// (~290 us p50) fails loudly.
const SMOKE_OBSERVE_P50_CEILING_US: f64 = 120.0;

/// Slack factor of the bounded-RSS gate: the main run's peak heap must stay
/// within `slack * ln(n_main) / ln(n_calibration)` times the calibration
/// run's peak. A streaming pipeline whose memory is O(working set) passes
/// with a ratio near 1; any O(n) retention (materialised workload, unbounded
/// journal, stranded in-flight records) blows through the bound.
const HEAP_GROWTH_SLACK: f64 = 3.0;

// ---------------------------------------------------------------------------
// Predictor timing (replay scenario).
// ---------------------------------------------------------------------------

/// Wraps a Sizey predictor and records the wall-clock duration of every
/// `predict` and `observe` call in nanoseconds. The handles are shared with
/// the harness, which reads them back after the replay consumed the tenants;
/// on drop each wrapper also folds its predictor's full-retrain count into
/// the shared total, so the harness can report how many model-pool retrains
/// the observe tail paid for.
struct TimedPredictor {
    inner: SizeyPredictor,
    predict_ns: Arc<Mutex<Vec<u64>>>,
    observe_ns: Arc<Mutex<Vec<u64>>>,
    full_retrains: Arc<AtomicU64>,
}

impl MemoryPredictor for TimedPredictor {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        let start = Instant::now();
        let prediction = self.inner.predict(task, ctx);
        let elapsed = start.elapsed().as_nanos() as u64;
        self.predict_ns.lock().expect("timer lock").push(elapsed);
        prediction
    }

    fn observe(&mut self, record: &TaskRecord) {
        let start = Instant::now();
        self.inner.observe(record);
        let elapsed = start.elapsed().as_nanos() as u64;
        self.observe_ns.lock().expect("timer lock").push(elapsed);
    }
}

impl Drop for TimedPredictor {
    fn drop(&mut self) {
        self.full_retrains
            .fetch_add(self.inner.total_full_retrains(), Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Scenario: replay (materialised tenants, predict/observe latency).
// ---------------------------------------------------------------------------

fn run_replay(smoke: bool, out_path: &Path) {
    let spec = if smoke { SMOKE } else { FULL };
    println!("=== perf_replay ({} spec) ===", spec.mode);
    println!(
        "pinned workload: {} tenants, scale {}, seed {}, first-fit, \
         submit interval {} s, stagger {} s",
        spec.tenants,
        spec.scale,
        spec.seed,
        spec.submit_interval_seconds,
        spec.arrival_stagger_seconds
    );

    let generator = GeneratorConfig::scaled(spec.scale, spec.seed);
    let workflows = all_workflows();
    let predict_ns = Arc::new(Mutex::new(Vec::new()));
    let observe_ns = Arc::new(Mutex::new(Vec::new()));
    let full_retrains = Arc::new(AtomicU64::new(0));

    let tenants: Vec<WorkflowTenant> = workflows
        .iter()
        .cycle()
        .take(spec.tenants)
        .enumerate()
        .map(|(i, wf)| {
            let instances = generate_workflow(wf, &generator);
            WorkflowTenant::new(
                format!("{}-{i}", wf.name),
                instances,
                Box::new(TimedPredictor {
                    inner: SizeyPredictor::with_defaults(),
                    predict_ns: Arc::clone(&predict_ns),
                    observe_ns: Arc::clone(&observe_ns),
                    full_retrains: Arc::clone(&full_retrains),
                }),
            )
            .with_arrival_offset(i as f64 * spec.arrival_stagger_seconds)
        })
        .collect();
    let total_instances: usize = tenants.iter().map(|t| t.instances.len()).sum();

    let sim = SimulationConfig {
        submit_interval_seconds: spec.submit_interval_seconds,
        ..SimulationConfig::default().with_policy(SchedulePolicy::FirstFit)
    };

    let start = Instant::now();
    let result = schedule_workflows(tenants, &sim);
    let wall_seconds = start.elapsed().as_secs_f64();

    let attempts = result.stats.dispatched_attempts;
    let throughput = attempts as f64 / wall_seconds;
    let predict = summarize(
        Arc::try_unwrap(predict_ns)
            .expect("replay dropped its timer handles")
            .into_inner()
            .expect("timer lock"),
    );
    let observe = summarize(
        Arc::try_unwrap(observe_ns)
            .expect("replay dropped its timer handles")
            .into_inner()
            .expect("timer lock"),
    );
    let retrains = full_retrains.load(Ordering::Relaxed);

    println!();
    println!(
        "replayed {total_instances} instances / {attempts} attempts in {wall_seconds:.3} s \
         ({throughput:.0} attempts/s)"
    );
    print_latency("predict", &predict);
    print_latency("observe", &observe);
    println!("full model-pool retrains: {retrains} (the spikes behind the observe p99/p999 tail)");

    let body = format!(
        "{{\"mode\": \"{}\", \
         \"workload\": {{\"tenants\": {}, \"scale\": {}, \"seed\": {}, \
         \"policy\": \"first-fit\", \"submit_interval_seconds\": {}, \
         \"arrival_stagger_seconds\": {}}}, \
         \"instances\": {}, \"attempts\": {}, \"wall_seconds\": {:.6}, \
         \"throughput_attempts_per_sec\": {:.3}, \
         \"makespan_seconds\": {:.3}, \"full_retrains\": {}, \
         \"predict_latency_us\": {}, \"observe_latency_us\": {}}}",
        spec.mode,
        spec.tenants,
        spec.scale,
        spec.seed,
        spec.submit_interval_seconds,
        spec.arrival_stagger_seconds,
        total_instances,
        attempts,
        wall_seconds,
        throughput,
        result.makespan_seconds,
        retrains,
        json_latency(&predict),
        json_latency(&observe),
    );
    write_bench_json(out_path, "replay", &body);

    // CI latency gate: only in smoke mode (the full sweep is a measurement,
    // not a check), and only after the JSON landed so a failing run still
    // leaves its numbers behind for diagnosis.
    if smoke {
        if observe.p50_us > SMOKE_OBSERVE_P50_CEILING_US {
            eprintln!(
                "FAIL: smoke observe p50 {:.1} us exceeds the {:.0} us regression ceiling",
                observe.p50_us, SMOKE_OBSERVE_P50_CEILING_US
            );
            std::process::exit(1);
        }
        println!(
            "observe p50 gate: {:.1} us <= {:.0} us ceiling",
            observe.p50_us, SMOKE_OBSERVE_P50_CEILING_US
        );
    }
}

// ---------------------------------------------------------------------------
// Scenario: scale (streaming tenants, bounded-RSS gate).
// ---------------------------------------------------------------------------

/// One measured streaming replay at a given workload fraction.
struct ScaleRun {
    instances: usize,
    attempts: usize,
    wall_seconds: f64,
    makespan_seconds: f64,
    peak_pending_tasks: usize,
    peak_inflight_instances: usize,
    peak_heap_bytes: usize,
}

fn run_scale_once(spec: &ScaleSpec, scale: f64) -> ScaleRun {
    let generator = GeneratorConfig::scaled(scale, spec.seed);
    let workflows = all_workflows();
    heap_reset_peak();
    let tenants: Vec<StreamingTenant> = workflows
        .iter()
        .cycle()
        .take(spec.tenants)
        .enumerate()
        .map(|(i, wf)| {
            let config = SizeyConfig::default().with_history_window(spec.history_window);
            StreamingTenant::new(
                format!("{}-{i}", wf.name),
                stream_workflow(wf, &generator),
                Box::new(SizeyPredictor::new(config)),
            )
            .with_arrival_offset(i as f64 * spec.arrival_stagger_seconds)
        })
        .collect();

    let sim = SimulationConfig {
        submit_interval_seconds: spec.submit_interval_seconds,
        ..SimulationConfig::default().with_policy(SchedulePolicy::FirstFit)
    };

    let start = Instant::now();
    let result = schedule_workflows_streaming(tenants, &sim, &mut NullSink, &mut NullRecordSink);
    let wall_seconds = start.elapsed().as_secs_f64();
    let peak_heap_bytes = heap_peak_bytes();

    let instances: usize = result.reports.iter().map(|r| r.aggregates.instances).sum();
    assert_eq!(
        result.leaked_inflight_instances, 0,
        "streaming replay stranded in-flight instances"
    );
    ScaleRun {
        instances,
        attempts: result.stats.dispatched_attempts,
        wall_seconds,
        makespan_seconds: result.makespan_seconds,
        peak_pending_tasks: result.stats.peak_pending_tasks,
        peak_inflight_instances: result.peak_inflight_instances,
        peak_heap_bytes,
    }
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn run_scale(smoke: bool, out_path: &Path) {
    let spec = if smoke { SCALE_SMOKE } else { SCALE_FULL };
    println!("=== perf_replay --scale ({} spec) ===", spec.mode);
    println!(
        "pinned workload: {} tenants, scale {} (calibration {}), seed {}, first-fit, \
         submit interval {} s, stagger {} s, history window {}",
        spec.tenants,
        spec.scale,
        spec.calibration_scale,
        spec.seed,
        spec.submit_interval_seconds,
        spec.arrival_stagger_seconds,
        spec.history_window
    );

    let calibration = run_scale_once(&spec, spec.calibration_scale);
    println!(
        "calibration: {} instances / {} attempts in {:.3} s, peak heap {:.1} MB",
        calibration.instances,
        calibration.attempts,
        calibration.wall_seconds,
        mb(calibration.peak_heap_bytes)
    );

    let main_run = run_scale_once(&spec, spec.scale);
    let throughput = main_run.attempts as f64 / main_run.wall_seconds;
    println!(
        "streamed {} instances / {} attempts in {:.3} s ({throughput:.0} attempts/s), \
         peak heap {:.1} MB, peak pending {}, peak in-flight {}",
        main_run.instances,
        main_run.attempts,
        main_run.wall_seconds,
        mb(main_run.peak_heap_bytes),
        main_run.peak_pending_tasks,
        main_run.peak_inflight_instances,
    );

    // The bounded-memory contract: peak heap may grow at most
    // logarithmically with instance count (with slack). Guard the ratio
    // denominator — a degenerate calibration run would make the bound
    // meaningless rather than strict.
    assert!(
        calibration.instances > 1 && main_run.instances > calibration.instances,
        "scale spec must replay strictly more instances than its calibration run"
    );
    let growth = main_run.peak_heap_bytes as f64 / (calibration.peak_heap_bytes.max(1)) as f64;
    let bound =
        HEAP_GROWTH_SLACK * (main_run.instances as f64).ln() / (calibration.instances as f64).ln();
    let passed = growth <= bound;

    let body = format!(
        "{{\"mode\": \"{}\", \
         \"workload\": {{\"tenants\": {}, \"scale\": {}, \"calibration_scale\": {}, \
         \"seed\": {}, \"policy\": \"first-fit\", \"submit_interval_seconds\": {}, \
         \"arrival_stagger_seconds\": {}, \"history_window\": {}}}, \
         \"instances\": {}, \"attempts\": {}, \"wall_seconds\": {:.6}, \
         \"throughput_attempts_per_sec\": {:.3}, \"makespan_seconds\": {:.3}, \
         \"peak_pending_tasks\": {}, \"peak_inflight_instances\": {}, \
         \"peak_heap_bytes\": {}, \
         \"calibration\": {{\"instances\": {}, \"peak_heap_bytes\": {}}}, \
         \"heap_growth_ratio\": {:.4}, \"heap_growth_bound\": {:.4}}}",
        spec.mode,
        spec.tenants,
        spec.scale,
        spec.calibration_scale,
        spec.seed,
        spec.submit_interval_seconds,
        spec.arrival_stagger_seconds,
        spec.history_window,
        main_run.instances,
        main_run.attempts,
        main_run.wall_seconds,
        throughput,
        main_run.makespan_seconds,
        main_run.peak_pending_tasks,
        main_run.peak_inflight_instances,
        main_run.peak_heap_bytes,
        calibration.instances,
        calibration.peak_heap_bytes,
        growth,
        bound,
    );
    write_bench_json(out_path, "scale", &body);

    // The gate itself, after the JSON landed so a failing run still leaves
    // its numbers behind for diagnosis.
    if !passed {
        eprintln!(
            "FAIL: peak heap grew {growth:.2}x from {} to {} instances, \
             exceeding the logarithmic bound {bound:.2}x",
            calibration.instances, main_run.instances
        );
        std::process::exit(1);
    }
    println!(
        "bounded-RSS gate: peak heap {:.1} MB at {} instances vs {:.1} MB at {} \
         (growth {growth:.2}x <= bound {bound:.2}x)",
        mb(main_run.peak_heap_bytes),
        main_run.instances,
        mb(calibration.peak_heap_bytes),
        calibration.instances,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = args.iter().any(|a| a == "--scale");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // crates/bench/../../ == repository root.
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("BENCH_replay.json")
        });

    if scale {
        run_scale(smoke, &out_path);
    } else {
        run_replay(smoke, &out_path);
    }
}
