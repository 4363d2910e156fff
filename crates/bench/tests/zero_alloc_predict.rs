//! Dynamic allocation gate for the predict hot path, run by
//! `cargo xtask lint --dynamic`.
//!
//! The static lint rules prove the hot path never panics and never iterates
//! a hash map; this harness proves the stronger *dynamic* property the
//! PR 8 refactor establishes: once a serving thread is warm, a
//! `SizeyPredictor::predict` call performs **zero heap allocations** —
//! first-attempt predictions (model pool, RAQ scores, gating, offset
//! selection), retry escalations and unknown-task preset fallbacks alike,
//! and the first predict after an observe too: learning happens in
//! `observe`, so a predict only reads. The engine's per-attempt copies of a
//! task's identity are held to the same bar: a generated instance's
//! submission and a record's clone share the workflow, task type and
//! machine handles instead of copying their strings.
//!
//! The measurement instrument is a counting `#[global_allocator]`
//! (allocation *count*, not bytes: a single stray `Vec` or `String` of any
//! size is a failure). Everything runs inside one `#[test]` so no parallel
//! test thread can pollute the counter, and the harness deliberately runs
//! in the default debug profile — the release optimiser can elide dead
//! allocations, which would make the gate vacuous.

use sizey_core::{AsyncSizey, ServiceConfig, SizeyConfig, SizeyPredictor};
use sizey_provenance::{MachineId, TaskOutcome, TaskRecord, TaskTypeId};
use sizey_sim::{AttemptContext, MemoryPredictor, TaskSubmission};
use sizey_workflows::{profiles, stream_workflow, GeneratorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A passthrough [`System`] allocator that counts every allocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: a pure passthrough to the [`System`] allocator — layout contracts
// are forwarded untouched, so the GlobalAlloc invariants hold exactly as
// they do for `System` itself; the atomic counter never allocates and
// cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: delegates to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: delegates to `System.alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: delegates to `System.dealloc` with the caller's pointer and
    // layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: delegates to `System.realloc` with the caller's pointer,
    // layout and new size. A grow-in-place still hands out fresh capacity,
    // so it counts as an allocation.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn submission(sequence: u64, input: f64) -> TaskSubmission {
    TaskSubmission {
        workflow: "wf".into(),
        task_type: TaskTypeId::new("align"),
        machine: MachineId::new("node-a"),
        sequence,
        input_bytes: input,
        preset_memory_bytes: 20e9,
    }
}

fn success(sequence: u64, input: f64, peak: f64) -> TaskRecord {
    TaskRecord {
        workflow: "wf".into(),
        task_type: TaskTypeId::new("align"),
        machine: MachineId::new("node-a"),
        sequence,
        input_bytes: input,
        peak_memory_bytes: peak,
        allocated_memory_bytes: peak * 1.5,
        runtime_seconds: 60.0,
        concurrent_tasks: 1,
        queue_delay_seconds: 0.0,
        outcome: TaskOutcome::Succeeded,
    }
}

/// Allocations performed by `f`, measured on the global counter. The
/// closure's return value is kept alive past the measurement so its drop
/// cannot be optimised into the window.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before, out)
}

#[test]
fn steady_state_predict_performs_zero_heap_allocations() {
    let mut predictor = SizeyPredictor::with_defaults();
    // Train one (task type, machine) pool far enough that every model class
    // is fitted, the offset histories are populated and the cold-start
    // guard has disengaged. A second pool holds more rows than the first
    // ever will here, so predicting it sizes the thread's k-NN distance
    // table for the first pool's growth below.
    for i in 1..=30u64 {
        let input = (i % 10 + 1) as f64 * 1e9;
        predictor.observe(&success(i, input, 2.0 * input + 1e9));
    }
    let wide = TaskTypeId::new("wide");
    for i in 1..=40u64 {
        let input = (i % 10 + 1) as f64 * 1e9;
        predictor.observe(&TaskRecord {
            task_type: wide.clone(),
            ..success(i, input, 3.0 * input)
        });
    }

    // Warm-up: the first predictions on this thread initialise the
    // thread-local scratch and grow its buffers to the workload's widest
    // shape.
    let wide_task = TaskSubmission {
        task_type: wide,
        ..submission(500, 4e9)
    };
    assert!(predictor
        .predict(&wide_task, AttemptContext::first())
        .raw_estimate_bytes
        .is_some());
    let mut tasks: Vec<TaskSubmission> = (0..8u64)
        .map(|i| submission(100 + i, (i % 10 + 1) as f64 * 1e9 + 0.5e9))
        .collect();
    let unknown = TaskSubmission {
        task_type: TaskTypeId::new("never-observed"),
        ..submission(999, 3e9)
    };
    for task in &tasks {
        let p = predictor.predict(task, AttemptContext::first());
        assert!(p.raw_estimate_bytes.is_some(), "pool must be warm");
    }
    let _ = predictor.predict(&tasks[0], AttemptContext::retry(1, 20e9));
    let _ = predictor.predict(&unknown, AttemptContext::first());

    // The gate: steady-state first-attempt predictions allocate nothing —
    // not per call, not across varying inputs.
    let (allocs, last) = allocations_during(|| {
        let mut last = None;
        for round in 0..50u64 {
            for task in &mut tasks {
                task.input_bytes += round as f64 * 1e7;
                last = Some(predictor.predict(task, AttemptContext::first()));
            }
        }
        last
    });
    let last = last.expect("predictions ran");
    assert!(
        last.raw_estimate_bytes.is_some(),
        "gate must exercise the model path"
    );
    assert_eq!(
        allocs, 0,
        "steady-state predict must not touch the heap ({allocs} allocations in 400 calls)"
    );

    // The first predict after an observe reads the models the observe left
    // behind; it solves, retrains and grows nothing.
    predictor.observe(&success(31, 4e9, 9e9));
    let (allocs, first) =
        allocations_during(|| predictor.predict(&tasks[0], AttemptContext::first()));
    assert!(first.raw_estimate_bytes.is_some());
    assert_eq!(
        allocs, 0,
        "the first predict after an observe must not touch the heap ({allocs} allocations)"
    );

    // Retry escalation and the unknown-task preset fallback are hot-path
    // branches too.
    let (allocs, _) = allocations_during(|| {
        for attempt in 1..=4u32 {
            let _ = predictor.predict(&tasks[0], AttemptContext::retry(attempt, 20e9));
        }
        for _ in 0..100 {
            let _ = predictor.predict(&unknown, AttemptContext::first());
        }
    });
    assert_eq!(
        allocs, 0,
        "retry and preset-fallback predictions must not touch the heap"
    );

    // The async serving front-end's snapshot path is the same predict hot
    // path behind a wait-free snapshot load: once the service is quiescent
    // (flushed, workers parked) and this thread is warm, a snapshot predict
    // must be allocation-free too — the load is two atomic bumps and an
    // `Arc` refcount, never a clone of model state.
    let service = AsyncSizey::sizey(SizeyConfig::default(), 2, ServiceConfig::default());
    for i in 1..=30u64 {
        let input = (i % 10 + 1) as f64 * 1e9;
        assert!(service.observe(&success(i, input, 2.0 * input + 1e9)));
    }
    service.flush();
    // The snapshot must serve model estimates before the gate.
    for task in &tasks {
        let p = service.predict(task, AttemptContext::first());
        assert!(p.raw_estimate_bytes.is_some(), "snapshot must be warm");
    }
    let _ = service.predict(&unknown, AttemptContext::first());
    let (allocs, _) = allocations_during(|| {
        for _ in 0..100 {
            for task in &tasks {
                let _ = service.predict(task, AttemptContext::first());
            }
            let _ = service.predict(&unknown, AttemptContext::first());
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state snapshot predicts must not touch the heap ({allocs} allocations in 900 calls)"
    );
    drop(service);

    // The engine builds a submission from every instance it sizes and a
    // record for every attempt it finishes; neither copies a string.
    let inst = stream_workflow(&profiles::rnaseq(), &GeneratorConfig::scaled(0.05, 42))
        .next()
        .expect("the workflow has instances");
    let (allocs, submission) = allocations_during(|| TaskSubmission::from(&inst));
    assert_eq!(
        allocs, 0,
        "a submission must share its instance's identity ({allocs} allocations)"
    );
    assert_eq!(submission.task_type, inst.task_type);
    let record = success(32, 4e9, 9e9);
    let (allocs, copy) = allocations_during(|| record.clone());
    assert_eq!(
        allocs, 0,
        "a record clone must share its identity ({allocs} allocations)"
    );
    assert_eq!(copy, record);

    // Sanity check on the instrument itself: the counter must actually see
    // heap traffic, or the assertions above prove nothing.
    let (allocs, v) = allocations_during(|| vec![1u8, 2, 3]);
    assert!(allocs >= 1, "counting allocator failed to observe a Vec");
    drop(v);
}
