//! Criterion micro-benchmark backing Fig. 9: the cost of one Sizey online
//! learning step under full retraining (with hyper-parameter optimisation)
//! and under incremental updates, at different history sizes.
//!
//! The paper reports a median of 1.09 s for full retraining and 17.5 ms for
//! incremental updates; the absolute numbers differ here (different models,
//! language and hardware) but the orders-of-magnitude gap between the two
//! modes is the result under test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sizey_core::{ModelPool, OnlineMode, SizeyConfig};

/// Builds a pool warmed with `history` observations using cheap incremental
/// updates, so the measured step isolates the configured learning mode.
fn warmed_pool(history: usize) -> ModelPool {
    let warm_config = SizeyConfig {
        online: OnlineMode::incremental(0),
        hyperparameter_optimization: false,
        ..SizeyConfig::default()
    };
    let mut pool = ModelPool::new(&warm_config);
    for i in 0..history {
        let input = 1e9 + (i as f64 % 57.0) * 1e8;
        let peak = 2.0 * input + 1e9 + (i as f64 % 13.0) * 5e7;
        pool.observe_success(&[input], peak, &warm_config);
    }
    pool
}

fn bench_training_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig09_online_learning_step");
    group.sample_size(10);

    let full = SizeyConfig::full_retraining();
    // No scheduled retrains: every iteration measures the light incremental
    // step, which includes the MLP warm start.
    let incremental = SizeyConfig {
        online: OnlineMode::incremental(0),
        ..SizeyConfig::default()
    };

    for &history in &[16usize, 64usize] {
        group.bench_with_input(
            BenchmarkId::new("full_retrain_with_hpo", history),
            &history,
            |b, &h| {
                b.iter_batched(
                    || warmed_pool(h),
                    |mut pool| {
                        pool.observe_success(&[3.3e9], 7.7e9, &full);
                        pool
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
        group.bench_with_input(
            BenchmarkId::new("incremental", history),
            &history,
            |b, &h| {
                b.iter_batched(
                    || warmed_pool(h),
                    |mut pool| {
                        pool.observe_success(&[3.3e9], 7.7e9, &incremental);
                        pool
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_training_step);
criterion_main!(benches);
