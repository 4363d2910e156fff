//! FNV-1a output digests: the bit-identity check between repetitions and
//! between the plain and the traced pass. Computed at run time per seed,
//! never hard-coded.

use sizey_sim::{ReplayAggregates, SchedulerStats};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over everything written to it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes the bit pattern, so `-0.0 != 0.0` and a NaN payload counts:
    /// bit-identical means bit-identical.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed so `("ab", "c")` and `("a", "bc")` differ.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    /// One tenant's (or one sweep cell's) replay aggregates, every field.
    pub fn aggregates(&mut self, label: &str, a: &ReplayAggregates) {
        self.str(label);
        self.u64(a.attempts);
        self.u64(a.failures);
        self.f64(a.total_wastage_gbh);
        self.f64(a.total_duration_seconds);
        self.f64(a.total_queue_delay_seconds);
        self.f64(a.max_queue_delay_seconds);
        for (task_type, n) in &a.failures_by_task_type {
            self.str(task_type.as_str());
            self.u64(*n as u64);
        }
        for (task_type, w) in &a.wastage_by_task_type {
            self.str(task_type.as_str());
            self.f64(*w);
        }
        for (model, n) in &a.model_selections {
            self.str(model);
            self.u64(*n as u64);
        }
        self.u64(a.model_selection_total as u64);
        self.u64(a.instances as u64);
        self.u64(a.unfinished_instances as u64);
        self.f64(a.makespan_seconds);
    }

    pub fn scheduler_stats(&mut self, s: &SchedulerStats) {
        self.u64(s.dispatched_attempts as u64);
        self.f64(s.total_queue_delay_seconds);
        self.f64(s.max_queue_delay_seconds);
        self.u64(s.peak_running_tasks as u64);
        self.f64(s.peak_allocated_bytes);
        self.u64(s.peak_pending_tasks as u64);
        self.u64(s.forced_placements as u64);
        self.u64(s.peak_inflight_retries as u64);
        self.u64(s.leaked_inflight_retries as u64);
        self.u64(s.requeued_attempts as u64);
        self.u64(s.crash_lost_attempts as u64);
        self.u64(s.preempted_attempts as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv::default();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_sees_single_bit_and_boundary_changes() {
        let of = |f: &dyn Fn(&mut Fnv)| {
            let mut h = Fnv::default();
            f(&mut h);
            h.finish()
        };
        assert_ne!(of(&|h| h.f64(0.0)), of(&|h| h.f64(-0.0)));
        assert_ne!(
            of(&|h| h.f64(1.0)),
            of(&|h| h.f64(f64::from_bits(1.0f64.to_bits() + 1)))
        );
        assert_ne!(
            of(&|h| {
                h.str("ab");
                h.str("c")
            }),
            of(&|h| {
                h.str("a");
                h.str("bc")
            })
        );
    }

    #[test]
    fn aggregates_digest_covers_counts_sums_and_maps() {
        let base = ReplayAggregates {
            attempts: 3,
            total_wastage_gbh: 1.5,
            ..ReplayAggregates::new()
        };
        let digest = |a: &ReplayAggregates| {
            let mut h = Fnv::default();
            h.aggregates("t", a);
            h.finish()
        };
        let mut more_failures = base.clone();
        more_failures.failures = 1;
        let mut other_map = base.clone();
        other_map.model_selections.insert("knn".into(), 2);
        assert_eq!(digest(&base), digest(&base.clone()));
        assert_ne!(digest(&base), digest(&more_failures));
        assert_ne!(digest(&base), digest(&other_map));
    }
}
