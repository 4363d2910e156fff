//! The Tovar-PPM baseline.
//!
//! Tovar et al. (TPDS 2018, "A job sizing strategy for high-throughput
//! scientific workflows") size tasks from the empirical probability
//! distribution of historical peak memory values: the first allocation is the
//! candidate value (among the observed peaks) that minimises the expected
//! cost, where the cost of a sufficient allocation is its surplus and the
//! cost of an insufficient allocation is the wasted attempt plus a
//! conservative re-run at the machine maximum. If the first allocation fails,
//! the node's maximum memory is allocated (the authors' conservative failure
//! handling).
//!
//! **Cost.** A key keeps one running expected-cost sum per candidate peak.
//! A successful observe of its n-th peak adds that peak's cost term to the
//! n − 1 existing sums, sums the new candidate's terms over all n peaks and
//! re-takes the argmin: O(n). Predict reads the stored allocation: O(1).
//! Each sum is the same left fold over the peaks in arrival order as
//! summing them afresh, so the choice is bit-identical to recomputing it
//! from the whole sample.

use crate::history::{History, Observation};
use sizey_provenance::TaskRecord;
use sizey_sim::{AttemptContext, MemoryPredictor, Prediction, TaskSubmission};

/// Memory allocated after a failed first attempt: the node maximum of
/// Tovar et al.'s conservative failure handling, here the evaluation
/// cluster's 128 GB nodes.
pub const NODE_MEMORY_BYTES: f64 = 128e9;

/// Observations of a key before the probabilistic sizing is used; below
/// this the preset is used. The value 2 is this repo's choice.
pub const MIN_HISTORY: usize = 2;

/// Relative head-room added on top of the selected candidate peak so that a
/// recurrence of exactly the largest observed value still fits. The value
/// 0.02 is this repo's choice.
pub const HEADROOM: f64 = 0.02;

/// Peak-probability based first-allocation strategy with conservative retry.
#[derive(Debug, Default, Clone)]
pub struct TovarPpm {
    history: History<Candidates>,
}

/// A key's candidate allocations with their running expected-cost sums.
#[derive(Debug, Default, Clone)]
struct Candidates {
    /// `cost_sums[c]`: the cost terms of candidate `c` (the key's `c`-th
    /// peak plus head-room) summed over every peak so far, in arrival order.
    cost_sums: Vec<f64>,
    /// The least-expected-cost allocation, once the key has [`MIN_HISTORY`]
    /// peaks and some candidate has a cost below infinity.
    best: Option<f64>,
}

impl TovarPpm {
    /// Creates the predictor.
    pub fn new() -> Self {
        TovarPpm::default()
    }
}

/// The allocation a candidate peak stands for.
fn allocation(candidate: f64) -> f64 {
    candidate * (1.0 + HEADROOM)
}

/// Cost of allocating `alloc` to a task that peaks at `peak`.
fn cost_term(alloc: f64, peak: f64) -> f64 {
    if alloc >= peak {
        alloc - peak
    } else {
        // Failed attempt wastes the allocation, and the retry at the
        // machine maximum wastes the surplus there.
        alloc + (NODE_MEMORY_BYTES - peak)
    }
}

impl Candidates {
    /// Folds the key's newest peak (the last of `observations`) into the
    /// cost sums and re-picks the candidate with the least expected cost,
    /// the first one on ties. `best` stays `None` below [`MIN_HISTORY`].
    fn learn(&mut self, observations: &[Observation]) {
        let peak = observations
            .last()
            .expect("observe hands over the new peak")
            .peak_bytes;
        for (sum, candidate) in self.cost_sums.iter_mut().zip(observations) {
            *sum += cost_term(allocation(candidate.peak_bytes), peak);
        }
        let alloc = allocation(peak);
        self.cost_sums.push(
            observations
                .iter()
                .map(|o| cost_term(alloc, o.peak_bytes))
                .sum::<f64>(),
        );
        self.best = None;
        if observations.len() < MIN_HISTORY {
            return;
        }
        let n = observations.len() as f64;
        let mut best_cost = f64::INFINITY;
        for (&sum, candidate) in self.cost_sums.iter().zip(observations) {
            let cost = sum / n;
            if cost < best_cost {
                best_cost = cost;
                self.best = Some(allocation(candidate.peak_bytes));
            }
        }
    }
}

impl MemoryPredictor for TovarPpm {
    fn name(&self) -> String {
        "Tovar-PPM".to_string()
    }

    fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
        if ctx.attempt > 0 {
            // Conservative failure handling: jump straight to the node
            // maximum.
            return Prediction {
                allocation_bytes: NODE_MEMORY_BYTES,
                raw_estimate_bytes: None,
                selected_model: None,
            };
        }
        let raw = self
            .history
            .state(&task.key())
            .and_then(|candidates| candidates.best);
        Prediction {
            allocation_bytes: raw.unwrap_or(task.preset_memory_bytes),
            raw_estimate_bytes: raw,
            selected_model: None,
        }
    }

    fn observe(&mut self, record: &TaskRecord) {
        if let Some((observations, candidates)) = self.history.observe(record) {
            candidates.learn(observations);
        }
    }
}

crate::history::impl_history_checkpoint!(TovarPpm);

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_provenance::{MachineId, TaskMachineKey, TaskOutcome, TaskTypeId};

    fn submission() -> TaskSubmission {
        TaskSubmission {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: 0,
            input_bytes: 1e9,
            preset_memory_bytes: 12e9,
        }
    }

    fn success(peak: f64) -> TaskRecord {
        TaskRecord {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: 0,
            input_bytes: 1e9,
            peak_memory_bytes: peak,
            allocated_memory_bytes: peak * 2.0,
            runtime_seconds: 60.0,
            concurrent_tasks: 0,
            queue_delay_seconds: 0.0,
            outcome: TaskOutcome::Succeeded,
        }
    }

    #[test]
    fn preset_before_history_and_node_max_on_retry() {
        let p = TovarPpm::new();
        assert_eq!(
            p.predict(&submission(), AttemptContext::first())
                .allocation_bytes,
            12e9
        );
        assert_eq!(
            p.predict(&submission(), AttemptContext::retry(1, 12e9))
                .allocation_bytes,
            NODE_MEMORY_BYTES
        );
    }

    #[test]
    fn tight_distribution_selects_near_the_maximum_peak() {
        let mut p = TovarPpm::new();
        for peak in [4.0e9, 4.1e9, 4.2e9, 4.05e9, 4.15e9] {
            p.observe(&success(peak));
        }
        let alloc = p
            .predict(&submission(), AttemptContext::first())
            .allocation_bytes;
        // With a tight distribution the expected-cost minimiser covers all
        // observed peaks (failures are expensive).
        assert!(alloc >= 4.2e9, "alloc = {alloc}");
        assert!(alloc < 5.0e9, "alloc = {alloc}");
    }

    #[test]
    fn rare_huge_outlier_may_be_left_uncovered() {
        let mut p = TovarPpm::new();
        // 99 small peaks at ~1 GB and one at 15 GB: covering the outlier
        // would waste ~14 GB on every task, which costs more than one retry
        // at the node maximum in a hundred.
        for _ in 0..99 {
            p.observe(&success(1e9));
        }
        p.observe(&success(15e9));
        let alloc = p
            .predict(&submission(), AttemptContext::first())
            .allocation_bytes;
        assert!(alloc < 5e9, "alloc = {alloc}");
    }

    #[test]
    fn expected_cost_matches_manual_computation() {
        // Peaks 1 and 3: candidate 1 (plus head-room) covers the first
        // (cost: its head-room) and misses the second (cost: its allocation
        // plus node - 3); candidate 3 covers both (cost: its surplus over
        // each). The sums are kept per candidate.
        let mut p = TovarPpm::new();
        p.observe(&success(1.0));
        p.observe(&success(3.0));
        let state = p.history.state(&TaskMachineKey::new("t", "m")).unwrap();
        let (a1, a3) = (allocation(1.0), allocation(3.0));
        let node = NODE_MEMORY_BYTES;
        assert_eq!(
            state.cost_sums,
            vec![(a1 - 1.0) + (a1 + (node - 3.0)), (a3 - 1.0) + (a3 - 3.0)]
        );
        assert_eq!(state.best, Some(a3));
    }

    #[test]
    fn failed_records_are_ignored_for_the_distribution() {
        let mut p = TovarPpm::new();
        let mut failed = success(100e9);
        failed.outcome = TaskOutcome::FailedOutOfMemory;
        p.observe(&failed);
        p.observe(&success(2e9));
        // Only one successful observation < MIN_HISTORY → preset.
        assert_eq!(
            p.predict(&submission(), AttemptContext::first())
                .allocation_bytes,
            12e9
        );
    }
}
