//! Property-based integration tests: invariants of the replay pipeline that
//! must hold for any workload, seed and (sane) configuration.

use proptest::prelude::*;
use sizey_suite::prelude::*;
use std::collections::BTreeMap;

fn small_workload(name: &str, seed: u64) -> Vec<TaskInstance> {
    let spec = sizey_workflows::workflow_by_name(name).expect("known workflow");
    generate_workflow(
        &spec,
        &GeneratorConfig {
            scale: 0.01,
            seed,
            min_instances: 4,
            drift: None,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn replay_conserves_instances_and_wastage_is_nonnegative(
        seed in 0u64..5000,
        wf_idx in 0usize..6,
    ) {
        let name = sizey_workflows::WORKFLOW_NAMES[wf_idx];
        let instances = small_workload(name, seed);
        let mut presets = PresetPredictor;
        let report = replay_workflow(name, &instances, &mut presets, &SimulationConfig::default());

        prop_assert_eq!(report.instances, instances.len());
        prop_assert!(report.total_wastage_gbh() >= 0.0);
        prop_assert!(report.total_runtime_hours() >= 0.0);
        // Number of first attempts equals the number of instances.
        let first_attempts = report.events.iter().filter(|e| e.attempt == 0).count();
        prop_assert_eq!(first_attempts, instances.len());
        // Per-event wastage is consistent with allocation, truth and duration.
        for e in &report.events {
            let expected = if e.success {
                (e.allocated_bytes - e.true_peak_bytes).max(0.0)
            } else {
                e.allocated_bytes
            } / 1e9 * e.duration_seconds / 3600.0;
            prop_assert!((e.wastage_gbh - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn sizey_replay_is_deterministic(seed in 0u64..2000) {
        let instances = small_workload("iwd", seed);
        let sim = SimulationConfig::default();
        let mut a = SizeyPredictor::with_defaults();
        let mut b = SizeyPredictor::with_defaults();
        let ra = replay_workflow("iwd", &instances, &mut a, &sim);
        let rb = replay_workflow("iwd", &instances, &mut b, &sim);
        prop_assert!((ra.total_wastage_gbh() - rb.total_wastage_gbh()).abs() < 1e-9);
        prop_assert_eq!(ra.total_failures(), rb.total_failures());
        prop_assert_eq!(ra.events.len(), rb.events.len());
    }

    #[test]
    fn failure_handling_escalation_is_monotone(
        max_observed in 1.0e9f64..100.0e9,
        failed_alloc in 1.0e9f64..100.0e9,
        attempt in 1u32..6,
    ) {
        let a = sizey_core::failure_allocation(Some(max_observed), failed_alloc, attempt);
        let b = sizey_core::failure_allocation(Some(max_observed), failed_alloc, attempt + 1);
        prop_assert!(a >= failed_alloc);
        prop_assert!(a >= max_observed.min(failed_alloc));
        prop_assert!(b > a);
    }

    /// Sizey's retries through the engine: a task whose peak exceeds the
    /// largest node fails every attempt, and the engine grants each retry
    /// at most the largest node and never less than the attempt before. The
    /// escalation ends at the largest node ("until the machine's resources
    /// are exhausted", §II-E). Checked on the default cluster and on one
    /// 32 GB node, after a few runs of the same task type.
    #[test]
    fn sizey_retries_through_the_engine_stay_within_the_largest_node(
        warm in prop::collection::vec((1.0e9f64..20.0e9, 0.5f64..1.5), 0..12),
        preset_gb in 1.0f64..64.0,
        oversize in 1.01f64..4.0,
    ) {
        let one_node = SimulationConfig::default().with_nodes(1, 32e9, 4);
        for config in [SimulationConfig::default(), one_node] {
            let largest = config.largest_node_memory_bytes();
            let instance = |sequence: usize, input_bytes: f64, true_peak_bytes: f64| TaskInstance {
                workflow: "wf".into(),
                task_type: TaskTypeId::new("t"),
                machine: MachineId::new("m"),
                sequence: sequence as u64,
                input_bytes,
                true_peak_bytes,
                base_runtime_seconds: 60.0,
                preset_memory_bytes: preset_gb * 1e9,
                cpu_utilization_pct: 100.0,
                io_read_bytes: 1e9,
                io_write_bytes: 1e9,
            };
            let mut instances: Vec<TaskInstance> = warm
                .iter()
                .enumerate()
                .map(|(i, &(input, ratio))| instance(i, input, (input * ratio).min(largest / 2.0)))
                .collect();
            instances.push(instance(warm.len(), 10e9, largest * oversize));
            let mut sizey = SizeyPredictor::with_defaults();
            let report = replay_workflow("wf", &instances, &mut sizey, &config);

            let mut chains: BTreeMap<u64, Vec<(u32, f64)>> = BTreeMap::new();
            for e in &report.events {
                chains.entry(e.sequence).or_default().push((e.attempt, e.allocated_bytes));
            }
            for chain in chains.values_mut() {
                chain.sort_by_key(|&(attempt, _)| attempt);
                let above = chain.iter().any(|&(_, a)| a > largest);
                prop_assert!(!above, "above the largest node: {:?}", chain);
                let shrank = chain.windows(2).any(|w| w[1].1 < w[0].1);
                prop_assert!(!shrank, "retry shrank: {:?}", chain);
            }
            let oversized = &chains[&(warm.len() as u64)];
            prop_assert_eq!(oversized.len(), config.max_attempts as usize);
            prop_assert_eq!(oversized.last().map(|&(_, a)| a), Some(largest));
        }
    }

    // Capacity changes nothing in the sequential replay (the name dates from
    // when a second replay implementation was the reference): Sizey, which
    // learns from every record it is fed, replays to the same report, timing
    // included, on the default cluster and on one same-sized node with two
    // slots. Nothing queues, even with capacity out of the picture.
    #[test]
    fn scheduler_replay_matches_occupancy_model_with_sizey(seed in 0u64..1000) {
        let instances = small_workload("iwd", seed);
        let replay = |config: &SimulationConfig| {
            replay_workflow("iwd", &instances, &mut SizeyPredictor::with_defaults(), config)
        };
        let roomy_config = SimulationConfig::default();
        let roomy = replay(&roomy_config);
        let tight = replay(&roomy_config.clone().with_nodes(1, roomy_config.node_memory_bytes, 2));
        prop_assert_eq!(&roomy, &tight);
        let unbounded = replay(&SimulationConfig::unbounded());
        prop_assert!(unbounded.events.iter().all(|e| e.queue_delay_seconds == 0.0));
    }

    #[test]
    fn raq_scores_stay_normalised(
        estimates in prop::collection::vec(1.0e6f64..200.0e9, 1..6),
        alpha in 0.0f64..1.0,
        history_len in 0usize..10,
    ) {
        let accuracies: Vec<f64> = estimates
            .iter()
            .map(|&e| {
                let pairs: Vec<f64> = (0..history_len)
                    .map(|i| sizey_core::raq::pair_accuracy(e * (1.0 + i as f64 * 0.01), e))
                    .collect();
                sizey_core::raq::accuracy_score_cached(&pairs)
            })
            .collect();
        let mut scores = Vec::new();
        sizey_core::raq::pool_raq_scores_into(&accuracies, &estimates, alpha, &mut scores);
        prop_assert_eq!(scores.len(), estimates.len());
        for s in scores {
            prop_assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn gating_weights_always_sum_to_one(
        estimates in prop::collection::vec(1.0e6f64..200.0e9, 1..6),
        beta in 1.0f64..32.0,
        seed in 0u64..100,
    ) {
        let raq: Vec<f64> = estimates
            .iter()
            .enumerate()
            .map(|(i, _)| ((seed as usize + i * 37) % 100) as f64 / 100.0)
            .collect();
        let mut weights = Vec::new();
        for strategy in [GatingStrategy::Argmax, GatingStrategy::Interpolation { beta }] {
            let (estimate, _) = sizey_core::gate_with(strategy, &estimates, &raq, &mut weights);
            let sum: f64 = weights.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            let min = estimates.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = estimates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(estimate >= min - 1e-6);
            prop_assert!(estimate <= max + 1e-6);
        }
    }

    #[test]
    fn offset_strategies_are_nonnegative_and_dynamic_is_optimal(
        history in prop::collection::vec((1.0e8f64..50.0e9, 1.0e8f64..50.0e9), 1..30)
    ) {
        // The selection's objective: the surplus of a sufficient allocation,
        // or the allocation plus a `2 × actual` retry for an insufficient one.
        let cost = |offset: f64| -> f64 {
            history
                .iter()
                .map(|&(pred, actual)| {
                    let alloc = pred + offset;
                    if alloc >= actual { alloc - actual } else { alloc + 2.0 * actual }
                })
                .sum()
        };
        let mut scratch = sizey_core::OffsetScratch::default();
        let (_, chosen_offset) = sizey_core::select_dynamic_offset_with(&history, &mut scratch);
        for strategy in OffsetStrategy::ALL {
            let offset = strategy.offset_with(&history, &mut scratch);
            prop_assert!(offset >= 0.0);
            prop_assert!(cost(chosen_offset) <= cost(offset) + 1e-6);
        }
    }
}
