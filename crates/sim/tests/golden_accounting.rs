//! Golden fixture: a hand-computed 3-task replay pinning the exact
//! accounting numbers (GB·h wastage, failure counts, makespan, queue
//! delays). Every quantity below is derived by hand in the comments; if a
//! refactor of the replay engine, the scheduler or the accounting shifts any
//! Fig. 8 aggregate — even by a rounding mode — this test fails.

use sizey_provenance::TaskTypeId;
use sizey_sim::{replay_workflow, PresetPredictor, SimulationConfig};
use sizey_workflows::TaskInstance;

fn instance(seq: u64, name: &str, peak: f64, runtime: f64, preset: f64) -> TaskInstance {
    TaskInstance {
        workflow: "golden".into(),
        task_type: TaskTypeId::new(name),
        machine: sizey_provenance::MachineId::new("m"),
        sequence: seq,
        input_bytes: 1e9,
        true_peak_bytes: peak,
        base_runtime_seconds: runtime,
        preset_memory_bytes: preset,
        cpu_utilization_pct: 100.0,
        io_read_bytes: 1e9,
        io_write_bytes: 1e9,
    }
}

/// The fixture, replayed with the preset predictor (allocate the preset,
/// double on failure) on the default 8 × 128 GB cluster with ttf = 1.0:
///
/// * Task A — peak 2 GB, preset 4 GB, 1 h. Succeeds first try.
///   Wastage: (4 − 2) GB × 1 h = **2 GBh**. Runs 0 → 3600 s.
/// * Task B — peak 6 GB, preset 4 GB, 1 h. Attempt 0 allocates 4 GB and
///   fails after the full hour (ttf 1.0), wasting the whole allocation:
///   4 GB × 1 h = **4 GBh**. The retry doubles to 8 GB, succeeds, wasting
///   (8 − 6) GB × 1 h = **2 GBh**. Attempt 0 runs 0 → 3600; the retry is
///   submitted at 3600 and runs 3600 → 7200.
/// * Task C — peak 1 GB, preset 1 GB, 0.5 h. Succeeds exactly, **0 GBh**.
///   Submitted at time 0; the replay queues nothing, so C starts at 0 with
///   no queue delay and runs 0 → 1800.
///
/// Totals: wastage 2 + 4 + 2 + 0 = **8 GBh**, failures **1**, 4 attempt
/// events, makespan **7200 s** (B's retry ends last), zero queue delay,
/// total runtime 1 + 1 + 1 + 0.5 = **3.5 h**.
#[test]
fn golden_three_task_replay_matches_hand_computation() {
    let instances = vec![
        instance(0, "a", 2e9, 3600.0, 4e9),
        instance(1, "b", 6e9, 3600.0, 4e9),
        instance(2, "c", 1e9, 1800.0, 1e9),
    ];
    let mut p = PresetPredictor;
    let report = replay_workflow("golden", &instances, &mut p, &SimulationConfig::default());

    assert_eq!(report.events.len(), 4);
    assert_eq!(report.total_failures(), 1);
    assert_eq!(report.aggregates.unfinished_instances, 0);
    assert_eq!(report.aggregates.finished_instances(), 3);

    assert!(
        (report.total_wastage_gbh() - 8.0).abs() < 1e-12,
        "total wastage drifted: {}",
        report.total_wastage_gbh()
    );
    assert!((report.aggregates.total_runtime_hours() - 3.5).abs() < 1e-12);
    assert!((report.aggregates.makespan_seconds - 7200.0).abs() < 1e-9);
    assert!(report.aggregates.total_queue_delay_seconds.abs() < 1e-9);

    // Per-attempt wastage, in decision order.
    let wastage: Vec<f64> = report.events.iter().map(|e| e.wastage_gbh).collect();
    assert!((wastage[0] - 2.0).abs() < 1e-12, "A success: {wastage:?}");
    assert!((wastage[1] - 4.0).abs() < 1e-12, "B failure: {wastage:?}");
    assert!((wastage[2] - 2.0).abs() < 1e-12, "B retry: {wastage:?}");
    assert!((wastage[3] - 0.0).abs() < 1e-12, "C exact: {wastage:?}");

    // Failure distribution per task type (Fig. 8c shape).
    let failures = report.aggregates.failures_by_task_type;
    assert_eq!(failures.get(&TaskTypeId::new("b")), Some(&1));
    assert_eq!(failures.get(&TaskTypeId::new("a")), None);
    assert_eq!(failures.get(&TaskTypeId::new("c")), None);

    // Wastage per task type.
    let by_type = report.aggregates.wastage_by_task_type;
    assert!((by_type[&TaskTypeId::new("a")] - 2.0).abs() < 1e-12);
    assert!((by_type[&TaskTypeId::new("b")] - 6.0).abs() < 1e-12);
    assert!((by_type[&TaskTypeId::new("c")] - 0.0).abs() < 1e-12);

    // Timing: B's retry starts when its failed attempt ends; C is not
    // blocked by the requeued retry and starts immediately.
    assert_eq!(report.events[1].submit_time_seconds, 0.0);
    assert_eq!(report.events[2].submit_time_seconds, 3600.0);
    assert_eq!(report.events[2].queue_delay_seconds, 0.0);
    assert_eq!(report.events[3].submit_time_seconds, 0.0);
    assert_eq!(report.events[3].queue_delay_seconds, 0.0);
}

/// The same fixture with ttf = 0.5: only B's failed attempt changes — it now
/// costs half an hour (4 GB × 0.5 h = 2 GBh) and the retry starts at 1800.
/// Totals: wastage 2 + 2 + 2 + 0 = 6 GBh, makespan B-retry 1800 → 5400 s.
#[test]
fn golden_replay_with_half_time_to_failure() {
    let instances = vec![
        instance(0, "a", 2e9, 3600.0, 4e9),
        instance(1, "b", 6e9, 3600.0, 4e9),
        instance(2, "c", 1e9, 1800.0, 1e9),
    ];
    let mut p = PresetPredictor;
    let config = SimulationConfig::default().with_time_to_failure(0.5);
    let report = replay_workflow("golden", &instances, &mut p, &config);

    assert_eq!(report.total_failures(), 1);
    assert!((report.total_wastage_gbh() - 6.0).abs() < 1e-12);
    assert!((report.aggregates.total_runtime_hours() - 3.0).abs() < 1e-12);
    // A runs 0→3600; B fails 0→1800, retries 1800→5400; C runs 0→1800.
    // Makespan: 5400 s, no queueing.
    assert!((report.aggregates.makespan_seconds - 5400.0).abs() < 1e-9);
    assert!(report.aggregates.total_queue_delay_seconds.abs() < 1e-9);
}
