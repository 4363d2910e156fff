//! Micro loops: one public function of one layer, timed from outside, median
//! of five batches. They run in the traced pass only, and only for the
//! workloads whose end-to-end numbers the layer explains.

use crate::workloads::{micro_ns, serve};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sizey_core::gating::gate_with;
use sizey_core::offset::{select_dynamic_offset_with, OffsetScratch};
use sizey_core::raq::{accuracy_score_cached, pool_raq_scores_into};
use sizey_core::service::{BoundedQueue, SnapshotCell};
use sizey_core::{GatingStrategy, SizeyPredictor};
use sizey_ml::{default_model, Dataset, ModelClass};
use sizey_provenance::{ProvenanceStore, TaskRecord};
use sizey_sim::{
    replay_workflow, AttemptContext, CheckpointPredictor, Cluster, SchedulePolicy, SimulationConfig,
};
use sizey_workflows::{all_workflows, generate_workflow, GeneratorConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Group {
    /// `ml.*`, `gating.ns`, `raq.ns`, `offset.ns`, `store.*`: what one
    /// predict and one observe are made of.
    Kernels,
    /// `cluster.select_node_ns.*`.
    Cluster,
    /// `serve.*`, `queue.*`, `snapshot.*`: the pieces of the write path.
    Serve,
}

/// `smoke` divides the resident-key counts of the serve loops by ten (the
/// metric names keep the full-size counts): a smoke run checks that the
/// loops work, it does not measure them.
pub fn run(group: Group, seed: u64, smoke: bool, out: &mut Vec<(String, f64)>) {
    match group {
        Group::Kernels => kernels(seed, out),
        Group::Cluster => cluster(out),
        Group::Serve => serve_path(seed, if smoke { 10 } else { 1 }, out),
    }
}

/// Training rows of the `ml.*` loops.
const ML_ROWS: usize = 256;
/// Pool size, accuracy window and offset window of the gating loops.
const POOL: usize = 4;
const ACCURACY_WINDOW: usize = 50;
const OFFSET_WINDOW: usize = 40;

fn kernels(seed: u64, out: &mut Vec<(String, f64)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<f64> = (0..ML_ROWS).map(|_| rng.gen_range(1e9..9e9)).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| (2.0 * x + 5e8) * rng.gen_range(0.92..1.08))
        .collect();
    let data = Dataset::from_univariate(&xs, &ys);
    let one_row = Dataset::from_univariate(&[5e9], &[1.05e10]);
    for class in ModelClass::ALL {
        let id = match class {
            ModelClass::Linear => "linear",
            ModelClass::Knn => "knn",
            ModelClass::Mlp => "mlp",
            ModelClass::RandomForest => "forest",
        };
        let mut model = default_model(class);
        let fit_ns = micro_ns(1, || model.fit(&data).expect("fit on valid rows"));
        let partial_ns = micro_ns(8, || {
            model
                .partial_fit(&one_row)
                .expect("partial fit on a valid row")
        });
        let predict_ns = micro_ns(2_000, || {
            black_box(model.predict(black_box(&[4.2e9])).expect("fitted model"));
        });
        out.push((format!("ml.{id}.fit_us"), fit_ns / 1e3));
        out.push((format!("ml.{id}.partial_fit_us"), partial_ns / 1e3));
        out.push((format!("ml.{id}.predict_ns"), predict_ns));
    }

    let estimates: Vec<f64> = (0..POOL).map(|_| rng.gen_range(8e9..12e9)).collect();
    let scores: Vec<Vec<f64>> = (0..POOL)
        .map(|_| {
            (0..ACCURACY_WINDOW)
                .map(|_| rng.gen_range(0.6..1.0))
                .collect()
        })
        .collect();
    let (mut accuracies, mut raq, mut weights) = (Vec::new(), Vec::new(), Vec::new());
    out.push((
        "raq.ns".to_string(),
        micro_ns(20_000, || {
            accuracies.clear();
            accuracies.extend(scores.iter().map(|s| accuracy_score_cached(s)));
            pool_raq_scores_into(&accuracies, black_box(&estimates), 0.0, &mut raq);
        }),
    ));
    out.push((
        "gating.ns".to_string(),
        micro_ns(20_000, || {
            black_box(gate_with(
                GatingStrategy::default(),
                black_box(&estimates),
                &raq,
                &mut weights,
            ));
        }),
    ));
    let history: Vec<(f64, f64)> = (0..OFFSET_WINDOW)
        .map(|_| {
            let actual = rng.gen_range(8e9..12e9);
            (actual * rng.gen_range(0.9..1.1), actual)
        })
        .collect();
    let mut scratch = OffsetScratch::default();
    out.push((
        "offset.ns".to_string(),
        micro_ns(5_000, || {
            black_box(select_dynamic_offset_with(
                black_box(&history),
                &mut scratch,
            ));
        }),
    ));

    let records: Vec<TaskRecord> = {
        let mut stream = serve::Stream::new(32, seed);
        (0..4_096).map(|i| stream.op(i % 32).record).collect()
    };
    let store = ProvenanceStore::new();
    // Cloned up front: the loop times the insert, not the record copy.
    let mut owned = records
        .iter()
        .cycle()
        .take(5 * records.len())
        .cloned()
        .collect::<Vec<_>>()
        .into_iter();
    out.push((
        "store.insert_ns".to_string(),
        micro_ns(records.len(), || {
            store.insert(owned.next().expect("five batches of records"))
        }),
    ));
    out.push(("store.records".to_string(), store.len() as f64));
}

/// `lifecycle.*`: trains a default Sizey on the largest workflow at `scale`,
/// then times `snapshot` and `restore`.
pub fn lifecycle(seed: u64, scale: f64, out: &mut Vec<(String, f64)>) {
    let generator = GeneratorConfig::scaled(scale, seed);
    let (spec, instances) = all_workflows()
        .into_iter()
        .map(|spec| {
            let instances = generate_workflow(&spec, &generator);
            (spec, instances)
        })
        .max_by_key(|(_, instances)| instances.len())
        .expect("six workflows");
    let mut trained = SizeyPredictor::with_defaults();
    replay_workflow(
        &spec.name,
        &instances,
        &mut trained,
        &SimulationConfig::default(),
    );
    let state = trained.snapshot();
    out.push((
        "lifecycle.snapshot_ms".to_string(),
        micro_ns(1, || {
            black_box(trained.snapshot());
        }) / 1e6,
    ));
    // Timed once, not five times: restore replays the whole journal through
    // `observe`, which takes as long as the replay that wrote it.
    let start = std::time::Instant::now();
    SizeyPredictor::with_defaults()
        .restore(&state)
        .expect("fresh predictor restores its own snapshot");
    out.push((
        "lifecycle.restore_ms".to_string(),
        start.elapsed().as_secs_f64() * 1e3,
    ));
}

/// `select_node` over the default 8-node cluster, half full.
fn cluster(out: &mut Vec<(String, f64)>) {
    let sim = SimulationConfig::default();
    let mut cluster = Cluster::new(&sim);
    for node in 0..cluster.node_count() {
        // Uneven fills, so best-fit has a choice to make.
        let share = 0.3 + 0.4 * node as f64 / cluster.node_count() as f64;
        cluster.place_on(node, sim.node_memory_bytes * share);
    }
    let asks: Vec<f64> = (1..=16)
        .map(|i| sim.node_memory_bytes * i as f64 / 40.0)
        .collect();
    for policy in SchedulePolicy::ALL {
        let mut next = asks.iter().cycle();
        out.push((
            format!("cluster.select_node_ns.{}", policy.name()),
            micro_ns(50_000, || {
                let ask = *next.next().expect("cycle never ends");
                black_box(cluster.select_node(black_box(ask), policy));
            }),
        ));
    }
}

/// Records per `observe_shard` batch, the service's `batch_max`.
const BATCH: usize = 128;

fn serve_path(seed: u64, shrink: usize, out: &mut Vec<(String, f64)>) {
    for named in [500usize, 2_000, 8_000] {
        let keys = named / shrink;
        let (service, mut stream, _) = serve::seeded(keys, 1, seed);
        out.push((
            format!("serve.clone_shard_ms.k{named}"),
            micro_ns(1, || {
                black_box(service.clone_shard(0));
            }) / 1e6,
        ));
        if named != 2_000 {
            continue;
        }
        // The other write- and read-path pieces, at the workloads' own size.
        let mut batches = (0..5).map(|b| {
            (0..BATCH)
                .map(|i| stream.op((b * BATCH + i) % keys).record)
                .collect::<Vec<_>>()
        });
        out.push((
            "serve.observe_shard_us_per_record".to_string(),
            micro_ns(1, || {
                service.observe_shard(0, &batches.next().expect("five batches"))
            }) / 1e3
                / BATCH as f64,
        ));
        let tasks: Vec<_> = (0..256).map(|i| stream.op(i % keys).task).collect();
        let mut next = tasks.iter().cycle();
        out.push((
            "serve.predict_locked_ns".to_string(),
            micro_ns(20_000, || {
                let task = next.next().expect("cycle never ends");
                black_box(service.predict(task, AttemptContext::first()));
            }),
        ));
    }

    let queue: BoundedQueue<u64> = BoundedQueue::new(4_096);
    let mut drained = Vec::with_capacity(BATCH);
    out.push((
        "queue.send_recv_ns".to_string(),
        micro_ns(200, || {
            for i in 0..BATCH as u64 {
                queue.send(i).expect("open queue with room");
            }
            drained.clear();
            queue.recv_batch(&mut drained, BATCH, Duration::ZERO);
        }) / BATCH as f64,
    ));

    let cell = SnapshotCell::new(Arc::new(0u64));
    out.push((
        "snapshot.load_ns".to_string(),
        micro_ns(100_000, || {
            black_box(cell.load());
        }),
    ));
    let mut version = 0u64;
    out.push((
        "snapshot.store_ns".to_string(),
        micro_ns(20_000, || {
            version += 1;
            cell.store(Arc::new(version));
        }),
    ));
}

/// How long a micro group may take before it threatens the run budget;
/// checked by the smoke test so a slow loop is noticed when it is added.
#[cfg(test)]
const GROUP_BUDGET: Duration = Duration::from_secs(20);

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn every_group_emits_distinct_finite_metrics_within_budget() {
        let mut all: Vec<String> = Vec::new();
        type Named<'a> = (&'a str, &'a dyn Fn(&mut Vec<(String, f64)>));
        let groups: [Named; 4] = [
            ("kernels", &|out| run(Group::Kernels, 42, true, out)),
            ("cluster", &|out| run(Group::Cluster, 42, true, out)),
            ("serve", &|out| run(Group::Serve, 42, true, out)),
            ("lifecycle", &|out| lifecycle(42, 0.05, out)),
        ];
        for (group, run_group) in groups {
            let mut out = Vec::new();
            let start = Instant::now();
            run_group(&mut out);
            assert!(start.elapsed() < GROUP_BUDGET, "{group} is too slow");
            assert!(!out.is_empty());
            for (name, value) in out {
                assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
                all.push(name);
            }
        }
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "a micro metric is emitted twice");
    }
}
