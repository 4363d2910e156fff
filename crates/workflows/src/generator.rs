//! Workload generation: turning a [`WorkflowSpec`] into a concrete, ordered
//! stream of physical task instances.
//!
//! The generator is deterministic given a seed, supports scaling the number
//! of instances (so benchmarks can trade fidelity for runtime), and
//! interleaves the task types the way a real DAG execution does: instances of
//! different types arrive roughly round-robin instead of one type at a time,
//! which is what makes *online* learning across types meaningful.

use crate::memfn::DriftSpec;
use crate::model::{TaskInstance, TaskTypeSpec, WorkflowSpec};
use crate::profiles::MACHINE_NAME;
use crate::sampling;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sizey_provenance::MachineId;
use std::collections::VecDeque;
use std::sync::Arc;

/// Configuration of the workload generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// RNG seed; the same seed always produces the same workload.
    pub seed: u64,
    /// Scale factor applied to every task type's instance count. `1.0`
    /// reproduces the full Table I volume; benchmarks typically use a smaller
    /// value. Each type keeps at least [`GeneratorConfig::min_instances`]
    /// instances.
    pub scale: f64,
    /// Lower bound on instances per task type after scaling. The paper
    /// filters out task types with only a single or very few executions, so
    /// the default is 4.
    pub min_instances: usize,
    /// Optional mid-run regime change applied to every instance's true peak
    /// memory past a changepoint in arrival order (see [`DriftSpec`]). The
    /// transform is keyed on the arrival sequence and consumes no RNG draws,
    /// so every other field is the same with or without it. `None` (the
    /// default) reproduces the stationary workload exactly.
    pub drift: Option<DriftSpec>,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 42,
            scale: 1.0,
            min_instances: 4,
            drift: None,
        }
    }
}

impl GeneratorConfig {
    /// Convenience constructor for a scaled-down workload.
    pub fn scaled(scale: f64, seed: u64) -> Self {
        GeneratorConfig {
            seed,
            scale,
            ..GeneratorConfig::default()
        }
    }

    /// Returns a copy with a mid-run drift applied (see [`DriftSpec`]).
    pub fn with_drift(mut self, drift: DriftSpec) -> Self {
        self.drift = Some(drift);
        self
    }
}

/// Generates the physical task instances of one workflow execution: the
/// [`WorkflowStream`] of `spec` and `config`, collected.
pub fn generate_workflow(spec: &WorkflowSpec, config: &GeneratorConfig) -> Vec<TaskInstance> {
    stream_workflow(spec, config).collect()
}

/// The arrival-ordered instances of one workflow execution, drawn lazily.
///
/// One RNG, seeded from the config seed and the workflow name, defines the
/// workload. It first draws every instance of each task type in turn (a
/// *draw block* per type), then shuffles the type order once per *wave*: each
/// wave emits a burst of `clamp(remaining / 8, 1, 16)` instances from every
/// type with instances left, so types arrive roughly round-robin, as in a
/// data-parallel DAG execution.
///
/// The stream never holds the drawn instances. The constructor keeps a copy
/// of the RNG at the start of each type's draw block (one small state per
/// type) and advances the main RNG past the block; each emitted instance is
/// then re-drawn from its type's copy in draw order, while the main RNG
/// replays the wave shuffles. Memory is `O(#task_types)` however many
/// instances the workflow has. Sequence numbers and the optional drift are
/// applied on emission, in arrival order.
#[derive(Debug, Clone)]
pub struct WorkflowStream {
    spec: WorkflowSpec,
    machine: MachineId,
    /// Main RNG, advanced past every draw block; replays the wave shuffles.
    rng: StdRng,
    /// Per task type: the RNG state at the start of the type's draw block.
    type_rngs: Vec<StdRng>,
    /// Per task type: total instances to emit.
    counts: Vec<usize>,
    /// Per task type: instances planned into waves so far.
    cursors: Vec<usize>,
    /// Emission plan of the current wave: one type index per pending
    /// instance (bounded by `#types * 16`).
    wave: VecDeque<usize>,
    /// Next submission sequence number, assigned in arrival order.
    next_sequence: u64,
    /// Instances still to be emitted across all types.
    remaining_total: usize,
    /// Optional mid-run drift, applied on emission (post-sampling).
    drift: Option<DriftSpec>,
}

impl WorkflowStream {
    /// Builds the stream for one workflow execution.
    pub fn new(spec: &WorkflowSpec, config: &GeneratorConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ hash_name(&spec.name));
        let mut type_rngs = Vec::with_capacity(spec.task_types.len());
        let mut counts = Vec::with_capacity(spec.task_types.len());
        for task_type in &spec.task_types {
            let count = scaled_count(task_type.instances, config);
            type_rngs.push(rng.clone());
            // Skip the block; its instances are re-drawn on emission.
            for _ in 0..count {
                Draw::sample(task_type, &mut rng);
            }
            counts.push(count);
        }
        let remaining_total = counts.iter().sum();
        WorkflowStream {
            spec: spec.clone(),
            machine: MachineId::new(MACHINE_NAME),
            rng,
            type_rngs,
            cursors: vec![0; counts.len()],
            counts,
            wave: VecDeque::new(),
            next_sequence: 0,
            remaining_total,
            drift: config.drift,
        }
    }

    /// Total number of instances the stream will emit (constant; does not
    /// decrease as the stream is consumed).
    pub fn total_instances(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Plans the next wave: shuffle the type order, then reserve a burst of
    /// `clamp(remaining / 8, 1, 16)` instances per type with any left.
    fn plan_wave(&mut self) {
        let mut order: Vec<usize> = (0..self.counts.len()).collect();
        order.shuffle(&mut self.rng);
        for ti in order {
            let remaining = self.counts[ti] - self.cursors[ti];
            if remaining == 0 {
                continue;
            }
            let burst = (remaining / 8).clamp(1, 16);
            self.wave.extend(std::iter::repeat_n(ti, burst));
            self.cursors[ti] += burst;
        }
    }

    /// Draws the next instance of type `ti` from its draw-block RNG.
    fn emit(&mut self, ti: usize) -> TaskInstance {
        let task_type = &self.spec.task_types[ti];
        let draw = Draw::sample(task_type, &mut self.type_rngs[ti]);
        let mut inst = draw.build(&self.spec.name, task_type, &self.machine);
        inst.sequence = self.next_sequence;
        if let Some(drift) = &self.drift {
            inst.true_peak_bytes =
                drift.apply(inst.sequence, inst.input_bytes, inst.true_peak_bytes);
        }
        self.next_sequence += 1;
        self.remaining_total -= 1;
        inst
    }
}

impl Iterator for WorkflowStream {
    type Item = TaskInstance;

    fn next(&mut self) -> Option<TaskInstance> {
        if self.remaining_total == 0 {
            return None;
        }
        while self.wave.is_empty() {
            self.plan_wave();
        }
        let ti = self.wave.pop_front()?;
        Some(self.emit(ti))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining_total, Some(self.remaining_total))
    }
}

impl ExactSizeIterator for WorkflowStream {}

/// Streams the instances of one workflow execution (see [`WorkflowStream`]).
pub fn stream_workflow(spec: &WorkflowSpec, config: &GeneratorConfig) -> WorkflowStream {
    WorkflowStream::new(spec, config)
}

fn scaled_count(instances: usize, config: &GeneratorConfig) -> usize {
    ((instances as f64 * config.scale).round() as usize).max(config.min_instances)
}

/// The random numbers behind one instance, in draw order.
struct Draw {
    input_bytes: f64,
    true_peak_bytes: f64,
    base_runtime_seconds: f64,
    cpu_utilization_pct: f64,
    io_read_noise: f64,
    io_write_noise: f64,
}

impl Draw {
    fn sample(task_type: &TaskTypeSpec, rng: &mut StdRng) -> Draw {
        let input_bytes = task_type.input_model.sample(rng);
        let fp = task_type.footprint;
        Draw {
            input_bytes,
            true_peak_bytes: task_type.memory_model.sample(rng, input_bytes),
            base_runtime_seconds: task_type.runtime_model.sample(rng, input_bytes),
            cpu_utilization_pct: sampling::truncated_normal(
                rng,
                fp.cpu_utilization_pct,
                fp.cpu_utilization_pct * fp.cpu_cv,
                1.0,
            ),
            io_read_noise: sampling::multiplicative_noise(rng, 0.2),
            io_write_noise: sampling::multiplicative_noise(rng, 0.3),
        }
    }

    /// The instance these draws describe, with sequence 0.
    fn build(
        self,
        workflow: &Arc<str>,
        task_type: &TaskTypeSpec,
        machine: &MachineId,
    ) -> TaskInstance {
        let fp = task_type.footprint;
        TaskInstance {
            workflow: workflow.clone(),
            task_type: task_type.id(),
            machine: machine.clone(),
            sequence: 0,
            input_bytes: self.input_bytes,
            true_peak_bytes: self.true_peak_bytes,
            base_runtime_seconds: self.base_runtime_seconds,
            preset_memory_bytes: task_type.preset_memory_bytes,
            cpu_utilization_pct: self.cpu_utilization_pct,
            io_read_bytes: self.input_bytes * fp.io_read_factor * self.io_read_noise,
            io_write_bytes: self.input_bytes * fp.io_write_factor * self.io_write_noise,
        }
    }
}

/// Cheap stable hash of the workflow name so different workflows get
/// different RNG streams from the same seed.
fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn generation_is_deterministic_given_seed() {
        let spec = profiles::iwd();
        let cfg = GeneratorConfig::scaled(0.1, 7);
        let a = generate_workflow(&spec, &cfg);
        let b = generate_workflow(&spec, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_produce_different_workloads() {
        let spec = profiles::iwd();
        let a = generate_workflow(&spec, &GeneratorConfig::scaled(0.1, 1));
        let b = generate_workflow(&spec, &GeneratorConfig::scaled(0.1, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn full_scale_matches_spec_totals() {
        let spec = profiles::methylseq();
        let instances = generate_workflow(&spec, &GeneratorConfig::default());
        assert_eq!(instances.len(), spec.total_instances());
    }

    #[test]
    fn scaling_reduces_instances_but_keeps_minimum() {
        let spec = profiles::rnaseq();
        let cfg = GeneratorConfig {
            scale: 0.01,
            min_instances: 4,
            ..GeneratorConfig::default()
        };
        let instances = generate_workflow(&spec, &cfg);
        // Every task type must still appear at least min_instances times.
        for t in &spec.task_types {
            let count = instances.iter().filter(|i| i.task_type == t.id()).count();
            assert!(count >= 4, "{} has only {count} instances", t.name);
        }
        assert!(instances.len() < spec.total_instances());
    }

    #[test]
    fn instances_share_their_spec_names() {
        let spec = profiles::chipseq();
        let instances: Vec<_> = stream_workflow(&spec, &GeneratorConfig::scaled(0.05, 3)).collect();
        for t in &spec.task_types {
            let of_type: Vec<_> = instances.iter().filter(|i| i.task_type == t.id()).collect();
            assert!(!of_type.is_empty(), "{} drew no instances", t.name);
            for inst in of_type {
                assert!(Arc::ptr_eq(&inst.task_type.0, &t.name), "{}", t.name);
                assert!(Arc::ptr_eq(&inst.workflow, &spec.name));
            }
        }
        let machine = &instances[0].machine.0;
        assert!(instances.iter().all(|i| Arc::ptr_eq(&i.machine.0, machine)));
    }

    #[test]
    fn sequences_are_consecutive_from_zero() {
        let spec = profiles::iwd();
        let instances = generate_workflow(&spec, &GeneratorConfig::scaled(0.05, 3));
        for (i, inst) in instances.iter().enumerate() {
            assert_eq!(inst.sequence, i as u64);
        }
    }

    #[test]
    fn interleaving_mixes_task_types_early() {
        let spec = profiles::mag();
        let cfg = GeneratorConfig::scaled(0.05, 11);
        let instances = generate_workflow(&spec, &cfg);
        // Within the first 15% of arrivals we expect to see more than half of
        // the task types already.
        let prefix = instances.len() * 15 / 100;
        let seen: std::collections::HashSet<_> = instances[..prefix]
            .iter()
            .map(|i| i.task_type.clone())
            .collect();
        assert!(
            seen.len() * 2 >= spec.n_task_types(),
            "only {} of {} types in the first 15%",
            seen.len(),
            spec.n_task_types()
        );
    }

    #[test]
    fn instances_have_positive_resources() {
        for spec in profiles::all_workflows() {
            let instances = generate_workflow(&spec, &GeneratorConfig::scaled(0.02, 5));
            assert!(!instances.is_empty(), "{} generated nothing", spec.name);
            for inst in &instances {
                assert!(inst.input_bytes > 0.0);
                assert!(inst.true_peak_bytes > 0.0);
                assert!(inst.base_runtime_seconds >= 1.0);
                assert!(inst.preset_memory_bytes > 0.0);
                assert!(inst.cpu_utilization_pct > 0.0);
                assert_eq!(inst.machine, MachineId::new(MACHINE_NAME));
                assert_eq!(inst.workflow, spec.name);
            }
        }
    }

    #[test]
    fn drift_changes_only_post_changepoint_peaks() {
        let spec = profiles::iwd();
        let stationary_cfg = GeneratorConfig::scaled(0.05, 17);
        let changepoint = 40;
        let drift = DriftSpec {
            changepoint,
            memory_scale: 1.5,
            slope_delta_bytes_per_input_byte: 0.5,
        };
        let drifted_cfg = stationary_cfg.with_drift(drift);

        let stationary = generate_workflow(&spec, &stationary_cfg);
        let drifted = generate_workflow(&spec, &drifted_cfg);
        assert_eq!(stationary.len(), drifted.len());
        assert!(
            stationary.len() as u64 > changepoint,
            "need a changepoint inside the run"
        );
        let mut shifted = 0;
        for (s, d) in stationary.iter().zip(&drifted) {
            // Only the peak may differ; everything else (including the RNG
            // draws that produced it) is untouched.
            assert_eq!(s.input_bytes, d.input_bytes);
            assert_eq!(s.base_runtime_seconds, d.base_runtime_seconds);
            assert_eq!(s.sequence, d.sequence);
            if s.sequence < changepoint {
                assert_eq!(s.true_peak_bytes, d.true_peak_bytes);
            } else {
                assert_eq!(
                    d.true_peak_bytes,
                    drift.apply(s.sequence, s.input_bytes, s.true_peak_bytes)
                );
                if s.true_peak_bytes != d.true_peak_bytes {
                    shifted += 1;
                }
            }
        }
        assert!(shifted > 0, "drift shifted no peaks");

        // The identity drift is bit-identical to no drift at all.
        let identity = stationary_cfg.with_drift(DriftSpec::scale_shift(0, 1.0));
        assert_eq!(generate_workflow(&spec, &identity), stationary);
    }

    #[test]
    fn stream_size_hint_counts_down() {
        let spec = profiles::iwd();
        let mut stream = stream_workflow(&spec, &GeneratorConfig::scaled(0.05, 3));
        let total = stream.len();
        assert!(total > 0);
        stream.next().unwrap();
        assert_eq!(stream.len(), total - 1);
        assert_eq!(stream.total_instances(), total);
    }

    #[test]
    fn hash_name_differs_for_different_names() {
        assert_ne!(hash_name("eager"), hash_name("rnaseq"));
        assert_eq!(hash_name("mag"), hash_name("mag"));
    }
}
