//! Simulation parameters.

use crate::attempt::MIN_ALLOCATION_BYTES;
use crate::faults::FaultPlan;
use crate::scheduler::SchedulePolicy;
use sizey_workflows::profiles::{NODE_COUNT, NODE_MEMORY_BYTES};

/// Largest cluster [`SimulationConfig::validate`] accepts, in nodes.
const MAX_NODES: usize = 1_000_000;

/// One homogeneous group of nodes inside a (possibly heterogeneous) cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePoolSpec {
    /// Number of identical nodes in this pool.
    pub count: usize,
    /// Memory capacity of each node in bytes.
    pub memory_bytes: f64,
    /// Task slots (hardware threads) per node.
    pub slots: usize,
}

/// Parameters of an online replay, mirroring the knobs the paper's simulated
/// environment exposes (Section III-A), extended with the event-driven
/// scheduler's policy and cluster-shape knobs.
///
/// The untimed sequential replay (`replay_workflow`) reads only
/// `time_to_failure`, `max_attempts` and the largest node; every other field
/// is for the event-driven engine (`schedule_workflows`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Fraction of a task's runtime after which an under-provisioned task
    /// fails. `1.0` means the failure is only detected at the very end of the
    /// execution (worst case, Fig. 8a); `0.5` means tasks fail halfway
    /// (Fig. 8b).
    pub time_to_failure: f64,
    /// Maximum number of attempts per task instance before the simulator
    /// gives up (safety net; with doubling every method reaches the node
    /// limit well before this).
    pub max_attempts: u32,
    /// Memory capacity of a node in the default pool, in bytes. Allocations
    /// are clamped to the largest node of the cluster (assumption A3: strict
    /// limits, a task cannot be given more than a node has).
    pub node_memory_bytes: f64,
    /// Number of nodes in the default pool.
    pub node_count: usize,
    /// Number of hardware threads per node in the default pool.
    pub slots_per_node: usize,
    /// Additional heterogeneous node pools beyond the default one (e.g. a
    /// couple of big-memory nodes next to the standard fleet). Empty for the
    /// paper's homogeneous 8 × 128 GB cluster.
    pub extra_node_pools: Vec<NodePoolSpec>,
    /// Scheduling policy used by the event-driven scheduler.
    pub policy: SchedulePolicy,
    /// How many queued tasks behind the head of the pending queue the
    /// [`SchedulePolicy::Backfill`] policy may inspect when the head does not
    /// fit. Bounds the dispatch cost per completion event.
    pub backfill_window: usize,
    /// Simulated inter-arrival time between consecutive task submissions of
    /// one workflow in the event-driven engine, in seconds. The paper's
    /// replay submits everything upfront (0.0); a positive value spreads
    /// arrivals.
    pub submit_interval_seconds: f64,
    /// Optional fault-injection scenario (node crashes, storms, spot-pool
    /// preemptions, task kills) driven by the event-driven engine's virtual
    /// clock. `None` — the default — is bit-identical to a plan that injects
    /// nothing.
    pub faults: Option<FaultPlan>,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            time_to_failure: 1.0,
            max_attempts: 12,
            node_memory_bytes: NODE_MEMORY_BYTES,
            node_count: NODE_COUNT,
            slots_per_node: 32,
            extra_node_pools: Vec::new(),
            policy: SchedulePolicy::FirstFit,
            backfill_window: 64,
            submit_interval_seconds: 0.0,
            faults: None,
        }
    }
}

impl SimulationConfig {
    /// Returns a copy with a different time-to-failure value.
    pub fn with_time_to_failure(mut self, ttf: f64) -> Self {
        self.time_to_failure = ttf;
        self
    }

    /// Returns a copy with a different scheduling policy.
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with a different default node pool (count × memory ×
    /// slots) — the quickest way to model a constrained cluster.
    pub fn with_nodes(mut self, count: usize, memory_bytes: f64, slots: usize) -> Self {
        self.node_count = count;
        self.node_memory_bytes = memory_bytes;
        self.slots_per_node = slots;
        self
    }

    /// Returns a copy with an additional heterogeneous node pool.
    pub fn with_extra_pool(mut self, pool: NodePoolSpec) -> Self {
        self.extra_node_pools.push(pool);
        self
    }

    /// Returns a copy with a fault-injection plan attached.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// A configuration with effectively unlimited capacity: one node with
    /// infinite memory and an unbounded slot count, so no task ever waits
    /// and no allocation is clamped from above. This is the reference mode
    /// for "capacity changes timing, never decisions": every attempt has a
    /// queue delay of exactly zero.
    pub fn unbounded() -> Self {
        SimulationConfig {
            node_count: 1,
            node_memory_bytes: f64::INFINITY,
            slots_per_node: usize::MAX,
            ..SimulationConfig::default()
        }
    }

    /// Checks that the configuration describes a cluster the engines can
    /// simulate, returning the offending field — named as in the `[sim]`
    /// table of an experiment spec, `node_pool.*` for an extra pool — and
    /// what is wrong with it. Spec files are edited by hand, and the engines
    /// assume a non-empty cluster (of at most 1,000,000 nodes: it is built
    /// node by node) whose every node can host the minimum allocation, a
    /// forward-running clock and at least one attempt per task.
    pub fn validate(&self) -> Result<(), (&'static str, String)> {
        let bad = |key, expected: &str, found: &dyn std::fmt::Display| {
            Err((key, format!("expected {expected}, found {found}")))
        };
        let total_nodes = self
            .extra_node_pools
            .iter()
            .fold(self.node_count, |n, pool| n.saturating_add(pool.count));
        if !(1..=MAX_NODES).contains(&total_nodes) {
            let expected = format!("between 1 and {MAX_NODES} nodes in total");
            return bad("node_count", &expected, &total_nodes);
        }
        let default_pool = NodePoolSpec {
            count: self.node_count,
            memory_bytes: self.node_memory_bytes,
            slots: self.slots_per_node,
        };
        let pools = std::iter::once(("node_memory_bytes", "slots_per_node", &default_pool)).chain(
            self.extra_node_pools
                .iter()
                .map(|pool| ("node_pool.memory_bytes", "node_pool.slots", pool)),
        );
        for (memory_key, slots_key, pool) in pools.filter(|(_, _, pool)| pool.count > 0) {
            // Infinite memory is a valid (unbounded) node; NaN is not.
            if pool.memory_bytes.is_nan() || pool.memory_bytes < MIN_ALLOCATION_BYTES {
                let expected =
                    format!("at least {MIN_ALLOCATION_BYTES} bytes, the minimum allocation");
                return bad(memory_key, &expected, &pool.memory_bytes);
            }
            if pool.slots == 0 {
                return bad(slots_key, "at least one task slot", &0);
            }
        }
        if self.max_attempts == 0 {
            return bad("max_attempts", "at least one attempt per task", &0);
        }
        let ttf = self.time_to_failure;
        if !(ttf > 0.0 && ttf <= 1.0) {
            let expected = "a fraction of the runtime in (0, 1]";
            return bad("time_to_failure", expected, &ttf);
        }
        let interval = self.submit_interval_seconds;
        if !(interval >= 0.0 && interval.is_finite()) {
            let expected = "a finite, non-negative number of seconds";
            return bad("submit_interval_seconds", expected, &interval);
        }
        Ok(())
    }

    /// All node pools of the cluster: the default pool followed by the extra
    /// heterogeneous pools (empty pools are skipped).
    pub fn node_pools(&self) -> Vec<NodePoolSpec> {
        let mut pools = Vec::with_capacity(1 + self.extra_node_pools.len());
        if self.node_count > 0 {
            pools.push(NodePoolSpec {
                count: self.node_count,
                memory_bytes: self.node_memory_bytes,
                slots: self.slots_per_node,
            });
        }
        pools.extend(
            self.extra_node_pools
                .iter()
                .copied()
                .filter(|p| p.count > 0),
        );
        pools
    }

    /// Memory capacity of the largest node in the cluster — the hard upper
    /// bound for any single allocation.
    pub fn largest_node_memory_bytes(&self) -> f64 {
        self.node_pools()
            .iter()
            .map(|p| p.memory_bytes)
            .fold(0.0, f64::max)
    }

    /// Total memory capacity of the cluster in bytes.
    pub fn cluster_memory_bytes(&self) -> f64 {
        self.node_pools()
            .iter()
            .map(|p| p.memory_bytes * p.count as f64)
            .sum()
    }

    /// Total task slots in the cluster.
    pub fn cluster_slots(&self) -> usize {
        self.node_pools()
            .iter()
            .map(|p| p.count.saturating_mul(p.slots))
            .fold(0usize, usize::saturating_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_evaluation_cluster() {
        let c = SimulationConfig::default();
        assert_eq!(c.node_count, 8);
        assert_eq!(c.node_memory_bytes, 128e9);
        assert_eq!(c.slots_per_node, 32);
        assert_eq!(c.time_to_failure, 1.0);
        assert_eq!(c.cluster_memory_bytes(), 1024e9);
        assert_eq!(c.cluster_slots(), 256);
        assert_eq!(c.policy, SchedulePolicy::FirstFit);
        assert!(c.extra_node_pools.is_empty());
    }

    #[test]
    fn with_time_to_failure_overrides_only_ttf() {
        let c = SimulationConfig::default().with_time_to_failure(0.5);
        assert_eq!(c.time_to_failure, 0.5);
        assert_eq!(c.node_count, 8);
    }

    #[test]
    fn extra_pools_extend_capacity_and_largest_node() {
        let c = SimulationConfig::default().with_extra_pool(NodePoolSpec {
            count: 2,
            memory_bytes: 512e9,
            slots: 64,
        });
        assert_eq!(c.node_pools().len(), 2);
        assert_eq!(c.largest_node_memory_bytes(), 512e9);
        assert_eq!(c.cluster_memory_bytes(), 1024e9 + 1024e9);
        assert_eq!(c.cluster_slots(), 256 + 128);
    }

    #[test]
    fn homogeneous_largest_node_is_the_default_pool() {
        let c = SimulationConfig::default();
        assert_eq!(c.largest_node_memory_bytes(), c.node_memory_bytes);
    }

    #[test]
    fn unbounded_config_never_limits_allocations() {
        let c = SimulationConfig::unbounded();
        assert_eq!(c.node_pools().len(), 1);
        assert!(c.largest_node_memory_bytes().is_infinite());
        assert!(c.cluster_slots() >= usize::MAX / 2);
    }

    #[test]
    fn empty_pools_are_skipped() {
        let c = SimulationConfig {
            node_count: 0,
            extra_node_pools: vec![NodePoolSpec {
                count: 0,
                memory_bytes: 1e9,
                slots: 1,
            }],
            ..SimulationConfig::default()
        };
        assert!(c.node_pools().is_empty());
        assert_eq!(c.largest_node_memory_bytes(), 0.0);
    }
}
