//! Multi-tenant contention: two workflows sharing one cluster through the
//! event-driven scheduler.
//!
//! A Sizey-sized iwd tenant shares one node with an rnaseq tenant that uses
//! the workflow developers' generous memory presets. The experiment shows
//! what the paper's single-workflow capacity model cannot: the co-tenant's
//! over-allocation does not just waste GB·h on its own bill — it queues the
//! lean tenant's tasks and stretches its makespan, compared to the same iwd
//! replay running alone on the same cluster.
//!
//! The later runs replace both tenants' private predictors with clones of
//! **one** shared concurrent Sizey service ([`ConcurrentSizey`]): every
//! tenant's completions train the shards every tenant predicts from, the
//! deployment model of a cluster-wide sizing service. A warm-start run carries
//! the service's checkpoint through a state file into fresh services of 8 and
//! of 3 shards and asserts both make the same decisions. The final run
//! upgrades the service to the **async front-end** ([`AsyncSizey`]): observes
//! flow through bounded per-shard request queues into micro-batching workers,
//! predictions come off lock-free model snapshots, and the service reports
//! its queue/batch/snapshot telemetry at the end.
//!
//! Run with `cargo run --release --example multi_tenant [scale]`.

use sizey_suite::prelude::*;
use std::sync::Arc;

fn iwd_tenant(scale: f64) -> WorkflowTenant {
    let iwd = generate_workflow(
        &sizey_workflows::profiles::iwd(),
        &GeneratorConfig::scaled(scale, 42),
    );
    WorkflowTenant::new("iwd", iwd, MethodSpec::sizey_defaults().build())
}

fn rnaseq_tenant(scale: f64) -> WorkflowTenant {
    let rnaseq = generate_workflow(
        &sizey_workflows::profiles::rnaseq(),
        &GeneratorConfig::scaled(scale, 42),
    );
    WorkflowTenant::new("rnaseq", rnaseq, MethodSpec::Preset.build())
}

/// Runs rnaseq and iwd as tenants of one shared sizing service; `handle`
/// gives each tenant its own handle to it.
fn run_on_service(
    scale: f64,
    sim: &SimulationConfig,
    handle: impl Fn() -> Box<dyn MemoryPredictor>,
) -> MultiReplayReport {
    let tenant = |name: &str, spec: &WorkflowSpec| {
        WorkflowTenant::new(
            name,
            generate_workflow(spec, &GeneratorConfig::scaled(scale, 42)),
            handle(),
        )
    };
    schedule_workflows(
        vec![
            tenant("rnaseq", &sizey_workflows::profiles::rnaseq()),
            tenant("iwd", &sizey_workflows::profiles::iwd()),
        ],
        sim,
    )
}

fn total_wastage(result: &MultiReplayReport) -> f64 {
    result.reports.iter().map(|r| r.total_wastage_gbh()).sum()
}

fn print_run(label: &str, result: &MultiReplayReport) {
    println!("=== {label} ===");
    for report in &result.reports {
        println!(
            "  {:<8} {:<18} wastage {:>8.2} GBh  failures {:>3}  \
             queue delay {:>8.0} s  makespan {:>5.2} h",
            report.workflow,
            report.method,
            report.total_wastage_gbh(),
            report.total_failures(),
            report.aggregates.total_queue_delay_seconds,
            report.aggregates.makespan_seconds / 3600.0,
        );
    }
    println!(
        "  cluster: makespan {:.2} h, peak {} running tasks, \
         peak {:.0} GB allocated, mean queue delay {:.0} s\n",
        result.makespan_seconds / 3600.0,
        result.stats.peak_running_tasks,
        result.stats.peak_allocated_bytes / 1e9,
        result.stats.mean_queue_delay_seconds(),
    );
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05_f64)
        .clamp(0.01, 1.0);

    // A deliberately tight cluster: one node, memory is the binding
    // resource. Allocations are decided at submission, so arrivals are
    // spread out (10 s apart per tenant) rather than all landing at t = 0.
    let mut sim = SimulationConfig::default().with_nodes(1, 128e9, 64);
    sim.submit_interval_seconds = 10.0;
    println!(
        "cluster: 1 x 128 GB x 64 slots, policy {}, scale {scale}, arrivals 10 s apart\n",
        sim.policy.name()
    );

    let shared = schedule_workflows(vec![rnaseq_tenant(scale), iwd_tenant(scale)], &sim);
    print_run("iwd (Sizey) sharing with rnaseq (presets)", &shared);

    let alone = schedule_workflows(vec![iwd_tenant(scale)], &sim);
    print_run("iwd (Sizey) alone on the same cluster", &alone);

    let shared_iwd = &shared.reports[1];
    let alone_iwd = &alone.reports[0];
    println!(
        "co-tenant over-allocation costs iwd {:.0} s of extra queue delay and {:.2} h of makespan",
        shared_iwd.aggregates.total_queue_delay_seconds
            - alone_iwd.aggregates.total_queue_delay_seconds,
        (shared_iwd.aggregates.makespan_seconds - alone_iwd.aggregates.makespan_seconds) / 3600.0,
    );
    println!("— contention the paper's queue-free capacity model cannot express.\n");

    // Cluster-wide sizing service: both tenants share ONE concurrent Sizey
    // instance (sharded by task type × machine behind read-write locks), so
    // rnaseq benefits from the provenance iwd produced and vice versa.
    let service = ConcurrentSizey::sizey(SizeyConfig::default(), 8);
    let pooled = run_on_service(scale, &sim, || Box::new(service.clone()));
    print_run(
        "both tenants on ONE shared concurrent Sizey service",
        &pooled,
    );
    let records: usize = service.map_shards(|p| p.provenance().len()).iter().sum();
    println!(
        "shared service observed {records} records across {} shards",
        service.shard_count()
    );

    // Warm start: checkpoint the trained service — the same `PredictorState`
    // file a serial predictor writes — and hand the learned state to a
    // brand-new service instance. The restored tenants replay the same
    // workloads without a cold-start phase, and the decisions are
    // bit-identical to re-running on the original (still-trained) service.
    let path =
        std::env::temp_dir().join(format!("sizey-multi-tenant-{}.state", std::process::id()));
    let snapshot = service.snapshot();
    snapshot
        .write_state_file(&path)
        .expect("checkpoint file is writable");
    let checkpoint = PredictorState::read_state_file(&path).expect("checkpoint file parses");
    std::fs::remove_file(&path).expect("checkpoint file is removable");
    assert_eq!(checkpoint, snapshot, "state file round trip");
    // Restore re-routes the journal by key, so the shard count of the new
    // service is free: 8 as before, or 3 — same decisions either way.
    let run_warm = |shards: usize| {
        let mut warm = ConcurrentSizey::sizey(SizeyConfig::default(), shards);
        warm.restore(&checkpoint)
            .expect("checkpoint restores on a fresh service");
        run_on_service(scale, &sim, || Box::new(warm.clone()))
    };
    let warmed = run_warm(8);
    print_run(
        "same tenants warm-started from the service checkpoint",
        &warmed,
    );
    println!(
        "warm start carried over {} journaled records; second-run wastage {:.2} GBh vs \
         cold-run {:.2} GBh",
        checkpoint.journal.len(),
        total_wastage(&warmed),
        total_wastage(&pooled),
    );
    assert_eq!(
        total_wastage(&run_warm(3)).to_bits(),
        total_wastage(&warmed).to_bits(),
        "a checkpoint must restore into any shard count with the same decisions"
    );

    // The async serving front-end: same shared service, but observes now
    // flow through bounded per-shard queues into micro-batching workers and
    // predictions read lock-free model snapshots. The tenants flush after
    // each observe so the replay keeps the simulator's observe-then-predict
    // contract (and stays bit-identical to the locked runs above); a live
    // deployment would skip the flush and accept one micro-batch of
    // snapshot staleness in exchange for never blocking a predict.
    let async_service = Arc::new(AsyncSizey::sizey(
        SizeyConfig::default(),
        8,
        ServiceConfig::default(),
    ));
    struct SyncedTenant(Arc<AsyncSizey>);
    impl MemoryPredictor for SyncedTenant {
        fn name(&self) -> String {
            self.0.service().name()
        }
        fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
            self.0.predict(task, ctx)
        }
        fn observe(&mut self, record: &TaskRecord) {
            self.0.observe(record);
            self.0.flush();
        }
    }
    let asynced = run_on_service(scale, &sim, || {
        Box::new(SyncedTenant(Arc::clone(&async_service)))
    });
    print_run(
        "both tenants on the ASYNC queue/snapshot front-end",
        &asynced,
    );
    let stats = async_service.stats();
    println!(
        "async service: {} observes accepted ({} shed), {} micro-batches, \
         {} snapshots published, {} predicts served lock-free",
        stats.accepted, stats.shed, stats.batches, stats.snapshots_published, stats.predicts
    );
    let locked_wastage = total_wastage(&pooled);
    let async_wastage = total_wastage(&asynced);
    println!(
        "async-run wastage {async_wastage:.2} GBh vs locked-run {locked_wastage:.2} GBh \
         — the front-end changes the serving mechanics, not the decisions"
    );
    assert_eq!(
        async_wastage.to_bits(),
        locked_wastage.to_bits(),
        "the async front-end must make the locked service's decisions"
    );
}
