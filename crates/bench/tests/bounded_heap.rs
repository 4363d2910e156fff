//! The bounded-memory contract of the streaming pipeline: with
//! window-bounded Sizey predictors, peak heap grows at most logarithmically
//! with the number of task instances streamed through the event-driven
//! engine.
//!
//! The same pinned multi-tenant spec is replayed at a small calibration
//! scale and at a 7× larger main scale, and the ratio of the two peak-heap
//! readings must stay within `HEAP_GROWTH_SLACK · ln(n_main) / ln(n_cal)`. A
//! pipeline whose memory is O(working set) passes with a ratio near 1; any
//! O(n) retention (a materialised workload, an unbounded journal, stranded
//! in-flight records) blows through the bound. The negative control replays
//! the same spec with unbounded Sizey histories and asserts that it *does*
//! exceed the bound, so the gate is shown to catch O(n) retention.
//!
//! The measurement instrument is a `#[global_allocator]` that tracks live
//! and peak bytes. It needs a test binary of its own, and everything runs
//! inside one `#[test]`, so no other test thread allocates during a
//! measurement window.

use sizey_core::{SizeyConfig, SizeyPredictor};
use sizey_sim::{
    schedule_workflows_streaming, NullRecordSink, NullSink, SchedulePolicy, SimulationConfig,
    StreamingTenant,
};
use sizey_workflows::{all_workflows, stream_workflow, GeneratorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A passthrough [`System`] allocator that tracks live and peak heap bytes.
struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let now = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: a pure passthrough to the [`System`] allocator — layout contracts
// are forwarded untouched, so the GlobalAlloc invariants hold exactly as
// they do for `System` itself; the atomic counters never allocate and
// cannot re-enter the allocator.
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

/// Slack factor of the logarithmic bound.
const HEAP_GROWTH_SLACK: f64 = 3.0;
/// Workload fraction of the calibration run.
const CALIBRATION_SCALE: f64 = 0.05;
/// Workload fraction of the main run (~7× the calibration's instances).
const MAIN_SCALE: f64 = 0.4;

/// Instances streamed and the peak heap bytes while streaming them.
struct HeapRun {
    instances: usize,
    peak_bytes: usize,
}

/// Streams the pinned spec at `scale` — one tenant per workflow, seed 42,
/// first-fit, an arrival every 600 s per tenant, tenants staggered by
/// 120 s — through Sizey predictors with the given `history_window`.
fn streamed_replay(scale: f64, history_window: Option<usize>) -> HeapRun {
    let generator = GeneratorConfig::scaled(scale, 42);
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    let tenants: Vec<StreamingTenant> = all_workflows()
        .iter()
        .enumerate()
        .map(|(i, wf)| {
            let config = SizeyConfig {
                history_window,
                ..SizeyConfig::default()
            };
            StreamingTenant::new(
                format!("{}-{i}", wf.name),
                stream_workflow(wf, &generator),
                Box::new(SizeyPredictor::new(config)),
            )
            .with_arrival_offset(i as f64 * 120.0)
        })
        .collect();
    let sim = SimulationConfig {
        submit_interval_seconds: 600.0,
        ..SimulationConfig::default().with_policy(SchedulePolicy::FirstFit)
    };
    let result = schedule_workflows_streaming(tenants, &sim, &mut NullSink, &mut NullRecordSink);
    let peak_bytes = PEAK_BYTES.load(Ordering::Relaxed);
    assert_eq!(
        result.leaked_inflight_instances, 0,
        "streaming replay stranded in-flight instances"
    );
    HeapRun {
        instances: result.reports.iter().map(|r| r.aggregates.instances).sum(),
        peak_bytes,
    }
}

/// Peak-heap growth from the calibration to the main run, and the
/// logarithmic bound it must stay within.
fn growth_and_bound(history_window: Option<usize>) -> (f64, f64) {
    let calibration = streamed_replay(CALIBRATION_SCALE, history_window);
    let main = streamed_replay(MAIN_SCALE, history_window);
    assert!(
        calibration.instances > 1 && main.instances > 5 * calibration.instances,
        "the main run must stream several times the calibration's instances \
         ({} vs {})",
        main.instances,
        calibration.instances
    );
    let growth = main.peak_bytes as f64 / calibration.peak_bytes.max(1) as f64;
    let bound =
        HEAP_GROWTH_SLACK * (main.instances as f64).ln() / (calibration.instances as f64).ln();
    (growth, bound)
}

#[test]
fn windowed_streaming_peak_heap_grows_at_most_logarithmically() {
    let (growth, bound) = growth_and_bound(Some(8));
    assert!(
        growth <= bound,
        "peak heap grew {growth:.2}x, beyond the logarithmic bound {bound:.2}x"
    );

    // Negative control: unbounded histories retain O(n) state, and the gate
    // must catch it, or the assertion above proves nothing.
    let (growth, bound) = growth_and_bound(None);
    assert!(
        growth > bound,
        "unbounded histories grew only {growth:.2}x, within the bound {bound:.2}x: \
         the gate cannot tell O(n) retention from a bounded pipeline"
    );
}
