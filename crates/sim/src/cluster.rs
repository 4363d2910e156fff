//! The cluster capacity model: a set of (possibly heterogeneous) nodes.
//!
//! The event-driven scheduler places tasks on concrete nodes and releases
//! them when they finish; the cluster tracks per-node occupancy (allocated
//! memory and busy slots) plus the high-water marks the property tests
//! assert against. Node selection is policy-driven: first fit walks the
//! nodes in index order, best fit picks the node that would be left with the
//! least free memory (tightest packing).

// The event-driven scheduler consults the cluster on every placement and
// release; the marker opts it into the no-panic-hot-path lint rule.
#![doc = "lint:hot-path"]

use crate::config::SimulationConfig;
use crate::scheduler::SchedulePolicy;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Relative tolerance used by [`Node::fits`], expressed as a fraction of the
/// node's capacity. Allocation counters are `f64` sums of many placements and
/// releases, so exact comparison would spuriously reject a task whose
/// allocation equals the mathematically free memory; an *absolute* epsilon
/// (the old `1e-6` bytes) is meaningless at byte scale because accumulated
/// rounding error grows with the magnitude of the counters, not with a fixed
/// byte budget. One part in 10⁹ of a 128 GB node is ~128 bytes — far below
/// any real allocation, far above the drift of summing a few hundred floats.
pub const FIT_TOLERANCE: f64 = 1e-9;

/// State of one cluster node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Node index.
    pub id: usize,
    /// Total memory in bytes.
    pub memory_bytes: f64,
    /// Memory currently allocated to running tasks, in bytes.
    pub allocated_bytes: f64,
    /// Task slots (hardware threads).
    pub slots: usize,
    /// Slots currently in use.
    pub used_slots: usize,
    /// High-water mark of `allocated_bytes` over the simulation.
    pub peak_allocated_bytes: f64,
    /// High-water mark of `used_slots` over the simulation.
    pub peak_used_slots: usize,
    /// True while the node is down (crashed or preempted by fault
    /// injection). An offline node accepts no placements; its occupancy
    /// counters keep working so the engines can release the attempts that
    /// were killed on it.
    pub offline: bool,
}

impl Node {
    /// Creates an idle node.
    pub fn new(id: usize, memory_bytes: f64, slots: usize) -> Self {
        Node {
            id,
            memory_bytes,
            allocated_bytes: 0.0,
            slots,
            used_slots: 0,
            peak_allocated_bytes: 0.0,
            peak_used_slots: 0,
            offline: false,
        }
    }

    /// Free memory on this node.
    pub fn free_bytes(&self) -> f64 {
        (self.memory_bytes - self.allocated_bytes).max(0.0)
    }

    /// True when the node can host a task with the given allocation. Offline
    /// nodes host nothing. The memory check uses a tolerance *relative* to
    /// the node capacity (see [`FIT_TOLERANCE`]) so float drift in the
    /// occupancy counters cannot reject an exact fit, while any real
    /// over-subscription is refused.
    pub fn fits(&self, allocation_bytes: f64) -> bool {
        !self.offline
            && self.used_slots < self.slots
            && allocation_bytes <= self.free_bytes() + self.memory_bytes * FIT_TOLERANCE
    }
}

/// A running-task lease handed out by the placement methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Index of the node hosting the task.
    pub node: usize,
}

/// Maps an `f64` to a `u64` key whose unsigned order equals
/// [`f64::total_cmp`] order (the standard sign-flip trick), so float-keyed
/// ordered collections need no wrapper type.
#[inline]
fn total_order_key(value: f64) -> u64 {
    let bits = value.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// The free-capacity index behind [`Cluster::select_node`]: node selection
/// used to scan every node per placement decision, which dominates
/// per-decision cost at cluster scale. Two ordered structures — each
/// maintained on every placement/release once it exists — make the policies
/// sublinear while reproducing the linear scans' decisions bit for bit:
///
/// * a **segment tree** over node ids storing the maximum *effective free
///   memory* (`free_bytes + capacity × FIT_TOLERANCE`, the exact
///   right-hand side of [`Node::fits`]; `-inf` when all slots are busy) per
///   id range. First fit descends to the **leftmost** node satisfying
///   `allocation <= effective_free` — the same comparison, and the same
///   lowest-id tie handling, as walking the nodes in index order.
/// * a **[`BTreeSet`] keyed by `(free_bytes, id)`** over nodes with a free
///   slot. Best fit scans ascending from `allocation - max_slack` (the
///   loosest per-node tolerance in the cluster) and returns the first
///   entry whose node fits: the smallest fitting `free_bytes` is exactly
///   the smallest leftover, and the id tiebreak matches `min_by`'s
///   first-of-equals over index order. The scan window below `allocation`
///   is tolerance-sized (bytes); the first node at or above `allocation`
///   always fits, so the scan is O(log n + window). The set is built from
///   the nodes on the first best-fit query, so a cluster that only ever
///   places first fit (or backfill) never maintains it.
#[derive(Debug, Clone)]
struct FreeIndex {
    /// Number of indexed nodes (leaves).
    len: usize,
    /// Power-of-two leaf base of the segment tree.
    base: usize,
    /// 1-indexed segment tree of max effective free bytes; leaf `i` lives at
    /// `tree[base + i]`.
    tree: Vec<f64>,
    /// The best-fit order, once a best-fit query has asked for it.
    by_free: OnceLock<ByFree>,
    /// Largest `capacity × FIT_TOLERANCE` across the cluster — the lower
    /// bound of the best-fit scan window.
    max_slack: f64,
}

/// Nodes with at least one free slot, ordered by (free bytes, id). Its
/// content is a function of the nodes' current state, so building it from
/// scratch and keeping it in sync through every update give the same set.
#[derive(Debug, Clone)]
struct ByFree {
    set: BTreeSet<(u64, usize)>,
    /// Current `set` key per node (`None` while slot-saturated).
    keys: Vec<Option<u64>>,
}

impl ByFree {
    fn new(nodes: &[Node]) -> Self {
        let mut by_free = ByFree {
            set: BTreeSet::new(),
            keys: vec![None; nodes.len()],
        };
        for node in nodes {
            by_free.update(node);
        }
        by_free
    }

    /// Re-syncs one node after its occupancy changed.
    fn update(&mut self, node: &Node) {
        let id = node.id;
        // lint:allow(no-panic-hot-path): keys has one slot per node and
        // node ids are assigned densely below the node count.
        if let Some(old) = self.keys[id].take() {
            self.set.remove(&(old, id));
        }
        if !node.offline && node.used_slots < node.slots {
            let key = total_order_key(node.free_bytes());
            self.set.insert((key, id));
            // lint:allow(no-panic-hot-path): same dense node-id invariant
            // as the take() above.
            self.keys[id] = Some(key);
        }
    }
}

impl FreeIndex {
    fn new(nodes: &[Node]) -> Self {
        let len = nodes.len();
        let base = len.next_power_of_two().max(1);
        let mut index = FreeIndex {
            len,
            base,
            tree: vec![f64::NEG_INFINITY; 2 * base],
            by_free: OnceLock::new(),
            max_slack: nodes
                .iter()
                .map(|n| n.memory_bytes * FIT_TOLERANCE)
                .fold(0.0, f64::max),
        };
        for node in nodes {
            index.update(node);
        }
        index
    }

    /// Re-syncs one node after its occupancy changed.
    fn update(&mut self, node: &Node) {
        let id = node.id;
        let has_slot = !node.offline && node.used_slots < node.slots;
        // Segment-tree leaf + path to the root.
        let eff = if has_slot {
            node.free_bytes() + node.memory_bytes * FIT_TOLERANCE
        } else {
            f64::NEG_INFINITY
        };
        let mut i = self.base + id;
        // lint:allow(no-panic-hot-path): the tree is sized 2·base with
        // base >= node count, so the leaf base + id and every ancestor pair
        // (2i, 2i + 1 for i < base) are in bounds by construction.
        self.tree[i] = eff;
        while i > 1 {
            i /= 2;
            // lint:allow(no-panic-hot-path): i < base here, so both
            // children 2i and 2i + 1 are below 2·base — in bounds.
            self.tree[i] = self.tree[2 * i].max(self.tree[2 * i + 1]);
        }
        if let Some(by_free) = self.by_free.get_mut() {
            by_free.update(node);
        }
    }

    /// The segment-tree root: the largest effective free memory of any node
    /// with a free slot, `-inf` when there is none (or no node at all).
    fn bound(&self) -> f64 {
        self.tree.get(1).copied().unwrap_or(f64::NEG_INFINITY)
    }

    /// Lowest-indexed node that fits the allocation (first fit).
    ///
    /// The negated float comparisons are deliberate (hence the lint allow):
    /// `!(alloc <= max)` must be *true* for NaN operands so the descent
    /// refuses NaN allocations and NaN-poisoned subtrees, mirroring
    /// [`Node::fits`] returning false — `partial_cmp` plumbing would only
    /// obscure that.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn first_fit(&self, allocation_bytes: f64) -> Option<usize> {
        // A `-inf` request would pass `<=` against the `-inf` leaves of
        // slot-saturated nodes too. `f64::MIN` fits exactly the nodes `-inf`
        // fits, since a node with a free slot has effective free memory of
        // at least 0, and no saturated one.
        let allocation_bytes = if allocation_bytes == f64::NEG_INFINITY {
            f64::MIN
        } else {
            allocation_bytes
        };
        // NaN allocations compare false against every subtree max, exactly
        // like `fits` rejecting them node by node.
        if self.len == 0 || !(allocation_bytes <= self.bound()) {
            return None;
        }
        let mut i = 1;
        while i < self.base {
            i *= 2;
            // lint:allow(no-panic-hot-path): a non-empty index has
            // base >= 1 and the descent doubles i while i < base, so
            // i <= 2·base - 1 after the doubling, within the 2·base-sized
            // tree.
            if !(allocation_bytes <= self.tree[i]) {
                i += 1;
            }
        }
        Some(i - self.base)
    }

    /// Fitting node with the least leftover free memory (best fit).
    fn best_fit(&self, allocation_bytes: f64, nodes: &[Node]) -> Option<usize> {
        if allocation_bytes.is_nan() {
            return None;
        }
        // A `-inf` request leaves every fitting node an infinite leftover:
        // the tie goes to the lowest id, which is first fit's answer.
        if allocation_bytes == f64::NEG_INFINITY {
            return self.first_fit(allocation_bytes);
        }
        // Start at the loosest tolerance below the allocation: every
        // fitting node satisfies `free >= allocation - capacity·tol`, and
        // free bytes are never negative.
        let start = (allocation_bytes - self.max_slack).max(0.0);
        let start = if start.is_nan() { 0.0 } else { start };
        self.by_free
            .get_or_init(|| ByFree::new(nodes))
            .set
            .range((total_order_key(start), 0)..)
            // lint:allow(no-panic-hot-path): the set only ever holds ids
            // inserted by ByFree::update(), which are node.id values below
            // the node count.
            .find(|&&(_, id)| nodes[id].fits(allocation_bytes))
            .map(|&(_, id)| id)
    }
}

/// The cluster capacity model.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<Node>,
    /// Free-capacity index kept in sync with every occupancy change.
    index: FreeIndex,
}

impl Cluster {
    /// Builds the cluster described by a simulation config: the default node
    /// pool followed by any extra heterogeneous pools.
    pub fn new(config: &SimulationConfig) -> Self {
        let mut nodes = Vec::new();
        for pool in config.node_pools() {
            for _ in 0..pool.count {
                nodes.push(Node::new(nodes.len(), pool.memory_bytes, pool.slots));
            }
        }
        let index = FreeIndex::new(&nodes);
        Cluster { nodes, index }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The memory capacity of the first node (the single-allocation upper
    /// bound for homogeneous clusters; heterogeneous callers want
    /// [`Cluster::largest_node_memory_bytes`]).
    pub fn node_memory_bytes(&self) -> f64 {
        self.nodes.first().map_or(0.0, |n| n.memory_bytes)
    }

    /// The memory capacity of the largest node — the hard upper bound for
    /// any single allocation.
    pub fn largest_node_memory_bytes(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.memory_bytes)
            .fold(0.0, f64::max)
    }

    /// Number of currently running tasks across the cluster.
    pub fn running_tasks(&self) -> usize {
        self.nodes.iter().map(|n| n.used_slots).sum()
    }

    /// Total allocated memory across the cluster in bytes.
    pub fn allocated_bytes(&self) -> f64 {
        self.nodes.iter().map(|n| n.allocated_bytes).sum()
    }

    /// Selects a node for the given allocation under a scheduling policy,
    /// without placing. `FirstFit` (and `Backfill`, which reuses first-fit
    /// node selection) returns the lowest-indexed node with room; `BestFit`
    /// returns the fitting node with the least leftover free memory.
    ///
    /// Both policies answer from the free-capacity index in O(log n) (+ a
    /// tolerance-sized scan window for best fit) instead of walking every
    /// node, with decisions bit-identical to the linear reference scans (the
    /// equivalence proptests replay both against random occupancy states).
    /// NaN allocations are unplaceable under every policy, never a panic.
    pub fn select_node(&self, allocation_bytes: f64, policy: SchedulePolicy) -> Option<usize> {
        match policy {
            SchedulePolicy::FirstFit | SchedulePolicy::Backfill => {
                self.index.first_fit(allocation_bytes)
            }
            SchedulePolicy::BestFit => self.index.best_fit(allocation_bytes, &self.nodes),
        }
    }

    /// The free-capacity bound of first fit: the largest effective free
    /// memory (`free_bytes + memory_bytes × FIT_TOLERANCE`, the right-hand
    /// side of [`Node::fits`]) of any online node with a free slot, or `-inf`
    /// when no node has one. It is the root of the first-fit index, so it
    /// costs one read.
    ///
    /// First fit (and backfill) places exactly the allocations at or below
    /// it: `select_node(a, FirstFit)` is `None` whenever `!(a <= bound)` —
    /// NaN included — and `Some` for every other `a` above `-inf`. A caller
    /// that tries many allocations against one cluster state can refuse most
    /// of them with one comparison each.
    pub fn first_fit_bound(&self) -> f64 {
        self.index.bound()
    }

    /// Places a task on a specific node (chosen via [`Cluster::select_node`])
    /// and updates the high-water marks.
    pub fn place_on(&mut self, node: usize, allocation_bytes: f64) -> Placement {
        // lint:allow(no-panic-hot-path): the documented contract is that
        // `node` comes from select_node, which only returns valid indices;
        // a silent no-op on a bad index would hide scheduler corruption,
        // so the bounds check stays a hard error.
        let n = &mut self.nodes[node];
        n.allocated_bytes += allocation_bytes;
        n.used_slots += 1;
        n.peak_allocated_bytes = n.peak_allocated_bytes.max(n.allocated_bytes);
        n.peak_used_slots = n.peak_used_slots.max(n.used_slots);
        // lint:allow(no-panic-hot-path): same select_node contract as the
        // placement above.
        self.index.update(&self.nodes[node]);
        Placement { node }
    }

    /// Attempts to place a task with the given allocation using first fit.
    /// Returns `None` when no node currently has room.
    pub fn try_place(&mut self, allocation_bytes: f64) -> Option<Placement> {
        self.select_node(allocation_bytes, SchedulePolicy::FirstFit)
            .map(|node| self.place_on(node, allocation_bytes))
    }

    /// Releases a placement obtained from one of the placement methods.
    pub fn release(&mut self, placement: Placement, allocation_bytes: f64) {
        // lint:allow(no-panic-hot-path): a Placement is only minted by the
        // placement methods with an in-bounds node index, and node indices
        // never change after construction.
        let node = &mut self.nodes[placement.node];
        node.allocated_bytes = (node.allocated_bytes - allocation_bytes).max(0.0);
        node.used_slots = node.used_slots.saturating_sub(1);
        // lint:allow(no-panic-hot-path): same Placement invariant as above.
        self.index.update(&self.nodes[placement.node]);
    }

    /// Marks a node offline (fault injection) or back online, keeping the
    /// free-capacity index in sync. Out-of-range indices are ignored —
    /// fault plans are user data, not scheduler invariants.
    pub fn set_offline(&mut self, node: usize, offline: bool) {
        if let Some(n) = self.nodes.get_mut(node) {
            n.offline = offline;
        } else {
            return;
        }
        // lint:allow(no-panic-hot-path): the get_mut above proved the index
        // is in bounds, and nodes never shrink.
        self.index.update(&self.nodes[node]);
    }

    /// View of all nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster() -> Cluster {
        Cluster::new(&SimulationConfig {
            node_count: 2,
            node_memory_bytes: 10e9,
            slots_per_node: 2,
            ..SimulationConfig::default()
        })
    }

    #[test]
    fn new_cluster_matches_config() {
        let c = small_cluster();
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.node_memory_bytes(), 10e9);
        assert_eq!(c.running_tasks(), 0);
        assert_eq!(c.allocated_bytes(), 0.0);
    }

    #[test]
    fn heterogeneous_pools_build_all_nodes() {
        let config = SimulationConfig {
            node_count: 2,
            node_memory_bytes: 10e9,
            slots_per_node: 2,
            ..SimulationConfig::default()
        }
        .with_extra_pool(crate::config::NodePoolSpec {
            count: 1,
            memory_bytes: 40e9,
            slots: 8,
        });
        let c = Cluster::new(&config);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.nodes()[2].memory_bytes, 40e9);
        assert_eq!(c.nodes()[2].slots, 8);
        assert_eq!(c.largest_node_memory_bytes(), 40e9);
    }

    #[test]
    fn first_fit_fills_first_node_then_second() {
        let mut c = small_cluster();
        let p1 = c.try_place(6e9).unwrap();
        assert_eq!(p1.node, 0);
        // 6 GB left on node 0 is not enough for 8 GB, spill to node 1.
        let p2 = c.try_place(8e9).unwrap();
        assert_eq!(p2.node, 1);
        assert_eq!(c.running_tasks(), 2);
        assert_eq!(c.allocated_bytes(), 14e9);
    }

    #[test]
    fn best_fit_picks_the_tightest_node() {
        let mut c = small_cluster();
        // Node 0: 6 GB used (4 GB free); node 1: empty (10 GB free).
        c.try_place(6e9).unwrap();
        // A 3 GB task best-fits node 0 (1 GB leftover vs 7 GB leftover).
        let node = c.select_node(3e9, SchedulePolicy::BestFit).unwrap();
        assert_eq!(node, 0);
        // First fit would agree here; make them disagree: node 0 nearly full.
        c.place_on(0, 3e9);
        // 2 GB task: first fit rejects node 0 (1 GB free), lands on node 1.
        assert_eq!(c.select_node(2e9, SchedulePolicy::FirstFit), Some(1));
        assert_eq!(c.select_node(2e9, SchedulePolicy::BestFit), Some(1));
    }

    #[test]
    fn placement_fails_when_no_capacity() {
        let mut c = small_cluster();
        assert!(c.try_place(11e9).is_none(), "larger than any node");
        // Fill all slots.
        let _ = c.try_place(1e9).unwrap();
        let _ = c.try_place(1e9).unwrap();
        let _ = c.try_place(1e9).unwrap();
        let _ = c.try_place(1e9).unwrap();
        assert!(c.try_place(1e9).is_none(), "all slots busy");
    }

    #[test]
    fn release_restores_capacity() {
        let mut c = small_cluster();
        let p = c.try_place(9e9).unwrap();
        assert!(c.try_place(9e9).is_some(), "second node still free");
        c.release(p, 9e9);
        assert_eq!(c.running_tasks(), 1);
        let free_node0 = c.nodes()[0].free_bytes();
        assert!((free_node0 - 10e9).abs() < 1e-3);
    }

    #[test]
    fn release_never_goes_negative() {
        let mut c = small_cluster();
        let p = c.try_place(1e9).unwrap();
        c.release(p, 5e9);
        assert!(c.nodes()[0].allocated_bytes >= 0.0);
        assert_eq!(c.running_tasks(), 0);
        c.release(Placement { node: 0 }, 1e9);
        assert_eq!(c.running_tasks(), 0);
    }

    #[test]
    fn fits_respects_slots_and_memory() {
        let n = Node {
            allocated_bytes: 6e9,
            ..Node::new(0, 8e9, 1)
        };
        assert!(n.fits(2e9));
        assert!(!n.fits(3e9));
        let full = Node { used_slots: 1, ..n };
        assert!(!full.fits(1e9));
    }

    // Satellite regression: the old absolute `1e-6`-byte epsilon was
    // meaningless at byte scale. The tolerance is now relative to the node
    // capacity: an exact fit (or one within float drift of the occupancy
    // counters) is accepted, anything genuinely above capacity is not.
    #[test]
    fn fits_boundary_is_exact_up_to_relative_tolerance() {
        let n = Node {
            allocated_bytes: 120e9,
            ..Node::new(0, 128e9, 4)
        };
        let free = 8e9;
        // Exact fit passes.
        assert!(n.fits(free));
        // Within the relative tolerance (±capacity × 1e-9 ≈ 128 bytes):
        // indistinguishable from float drift, accepted.
        assert!(n.fits(free + 128e9 * FIT_TOLERANCE * 0.5));
        // One kilobyte over free memory is a real over-subscription: refused.
        assert!(!n.fits(free + 1024.0));
        // The old absolute epsilon would also have refused this, but it
        // equally refused drift-sized overshoots on large counters; assert
        // the drift case explicitly: summing thousands of placements leaves
        // sub-byte error which must not block an exact fit.
        let drifted = Node {
            allocated_bytes: 120e9 + 3.0e-7,
            ..Node::new(0, 128e9, 4)
        };
        assert!(drifted.fits(free));
    }

    #[test]
    fn peaks_track_high_water_marks() {
        let mut c = small_cluster();
        let p1 = c.try_place(4e9).unwrap();
        let _p2 = c.try_place(5e9).unwrap();
        c.release(p1, 4e9);
        let n0 = &c.nodes()[0];
        assert_eq!(n0.peak_allocated_bytes, 9e9);
        assert_eq!(n0.peak_used_slots, 2);
        assert_eq!(n0.used_slots, 1);
    }

    /// Satellite regression: `select_node` under best fit used to compare
    /// leftovers with `partial_cmp(..).expect("finite free memory")`, so a
    /// NaN allocation (e.g. from a corrupted prediction upstream) panicked
    /// the scheduler hot path. `fits` rejects NaN (every comparison with it
    /// is false) and the comparator is total now: the request is simply
    /// unplaceable under every policy.
    #[test]
    fn nan_allocation_is_rejected_not_panicking() {
        let mut c = small_cluster();
        c.try_place(6e9).unwrap();
        for policy in SchedulePolicy::ALL {
            assert_eq!(c.select_node(f64::NAN, policy), None, "{policy:?}");
        }
        assert!(!c.nodes()[0].fits(f64::NAN));
        assert!(c.try_place(f64::NAN).is_none());
        // Infinite requests are equally unplaceable on finite nodes.
        assert_eq!(c.select_node(f64::INFINITY, SchedulePolicy::BestFit), None);
    }

    #[test]
    fn offline_nodes_accept_no_placements_until_back_online() {
        let mut c = small_cluster();
        c.set_offline(0, true);
        for policy in SchedulePolicy::ALL {
            assert_eq!(c.select_node(1e9, policy), Some(1), "{policy:?}");
        }
        assert!(!c.nodes()[0].fits(1e9));
        // Releasing a killed attempt's lease on an offline node still works.
        let p = Placement { node: 0 };
        c.place_on(0, 2e9); // forced placement bypasses fits() by design
        c.release(p, 2e9);
        assert_eq!(c.nodes()[0].allocated_bytes, 0.0);
        // Back online: first fit prefers it again.
        c.set_offline(0, false);
        assert_eq!(c.select_node(1e9, SchedulePolicy::FirstFit), Some(0));
        // Out-of-range indices are ignored, not a panic.
        c.set_offline(99, true);
    }

    #[test]
    fn first_fit_bound_is_the_largest_placeable_allocation() {
        let empty = Cluster::new(&SimulationConfig {
            node_count: 0,
            ..SimulationConfig::default()
        });
        assert_eq!(empty.first_fit_bound(), f64::NEG_INFINITY);
        assert_eq!(
            empty.select_node(f64::NEG_INFINITY, SchedulePolicy::FirstFit),
            None
        );

        let mut c = small_cluster();
        let edge = 10e9 + 10e9 * FIT_TOLERANCE;
        assert_eq!(c.first_fit_bound(), edge);
        c.place_on(1, 3e9);
        assert_eq!(c.first_fit_bound(), edge, "node 0 is still empty");
        c.set_offline(0, true);
        assert_eq!(c.first_fit_bound(), 7e9 + 10e9 * FIT_TOLERANCE);
        assert_eq!(
            c.select_node(c.first_fit_bound(), SchedulePolicy::FirstFit),
            Some(1)
        );
        assert_eq!(
            c.select_node(c.first_fit_bound().next_up(), SchedulePolicy::FirstFit),
            None
        );
        // Node 1's last slot: memory stays free, but nothing can be placed.
        c.place_on(1, 0.0);
        assert_eq!(c.first_fit_bound(), f64::NEG_INFINITY);
        for policy in SchedulePolicy::ALL {
            assert_eq!(c.select_node(f64::NEG_INFINITY, policy), None, "{policy:?}");
        }
    }

    /// A `-inf` request fits every node with a free slot, so it must skip a
    /// saturated node 0 rather than descend to it.
    #[test]
    fn negative_infinite_allocation_skips_saturated_nodes() {
        let mut c = small_cluster();
        c.place_on(0, 1e9);
        c.place_on(0, 1e9);
        for policy in SchedulePolicy::ALL {
            assert_eq!(
                c.select_node(f64::NEG_INFINITY, policy),
                Some(1),
                "{policy:?}"
            );
        }
    }

    /// The best-fit order is built on the first best-fit query: built late,
    /// after many occupancy changes, it answers as one kept in sync from the
    /// start.
    #[test]
    fn best_fit_order_built_late_matches_one_kept_in_sync() {
        fn churn(c: &mut Cluster) {
            let mut placed = Vec::new();
            for step in 0..60u32 {
                match step % 5 {
                    4 => c.set_offline((step / 5) as usize % 5, step % 10 == 4),
                    2 if !placed.is_empty() => {
                        let (p, alloc) = placed.swap_remove(0);
                        c.release(p, alloc);
                    }
                    _ => {
                        let alloc = f64::from(step % 7 + 1) * 1.5e9;
                        if let Some(p) = c.try_place(alloc) {
                            placed.push((p, alloc));
                        }
                    }
                }
            }
        }
        let config = SimulationConfig::default()
            .with_nodes(3, 16e9, 3)
            .with_extra_pool(crate::config::NodePoolSpec {
                count: 2,
                memory_bytes: 32e9,
                slots: 2,
            });
        let mut early = Cluster::new(&config);
        assert_eq!(early.select_node(1e9, SchedulePolicy::BestFit), Some(0));
        churn(&mut early);
        let mut late = Cluster::new(&config);
        churn(&mut late);
        assert_eq!(late.nodes(), early.nodes());
        for probe in [0.0, 1e9, 2.5e9, 6e9, 12e9, 20e9, 31e9, f64::INFINITY] {
            assert_eq!(
                late.select_node(probe, SchedulePolicy::BestFit),
                early.select_node(probe, SchedulePolicy::BestFit),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn infinite_memory_node_accepts_everything() {
        let mut c = Cluster::new(&SimulationConfig::unbounded());
        for _ in 0..100 {
            assert!(c.try_place(500e9).is_some());
        }
        assert_eq!(c.running_tasks(), 100);
    }
}
