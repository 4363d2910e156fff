//! Order statistics for the report: exact percentiles over kept samples,
//! quartiles for the run-to-run spread, and the fixed log-bucket histogram
//! the tracer aggregates span durations into.

/// Sorts `values` and returns the `q`-quantile (`0.0..=1.0`) by linear
/// interpolation between the two nearest ranks. `0.0` for an empty slice.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, q)
}

fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so the spread this tool prints is the
/// one the acceptance driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // statistics.quantiles, method="exclusive": position i*(n+1)/4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Sub-buckets per power of two: bucket bounds are 2^(k/16), so a reported
/// percentile is within ~4.4 % of the true one.
const SUB_BUCKETS: usize = 16;
/// Powers of two covered: 1 ns .. 2^40 ns (18 minutes).
const OCTAVES: usize = 40;

/// Fixed log-bucket histogram of durations in nanoseconds. Constant memory
/// whatever the span count, mergeable, and allocation-free after `new`.
#[derive(Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: vec![0; SUB_BUCKETS * OCTAVES],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl LogHistogram {
    fn bucket_of(ns: u64) -> usize {
        let v = ns.max(1);
        let octave = 63 - v.leading_zeros() as usize;
        // The SUB_BUCKETS mantissa bits below the leading one, linear within
        // the octave (HDR-histogram style).
        let sub = if octave >= 4 {
            ((v >> (octave - 4)) & 0xF) as usize
        } else {
            ((v << (4 - octave)) & 0xF) as usize
        };
        (octave * SUB_BUCKETS + sub).min(SUB_BUCKETS * OCTAVES - 1)
    }

    /// Lower bound of bucket `index`, in nanoseconds.
    fn bucket_floor(index: usize) -> f64 {
        let octave = index / SUB_BUCKETS;
        let sub = index % SUB_BUCKETS;
        (1u64 << octave) as f64 * (1.0 + sub as f64 / SUB_BUCKETS as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile in nanoseconds, interpolated inside its bucket and
    /// capped at the exact maximum. `0.0` when empty.
    pub fn percentile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= target {
                let lo = Self::bucket_floor(index);
                let hi = Self::bucket_floor(index + 1);
                let inside = (target - seen as f64) / n as f64;
                return (lo + (hi - lo) * inside).min(self.max_ns as f64);
            }
            seen += n;
        }
        self.max_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn histogram_percentiles_stay_within_a_bucket_of_the_truth() {
        let mut h = LogHistogram::default();
        let mut exact: Vec<f64> = Vec::new();
        // A long-tailed sample: 1 us body, 1 ms tail.
        for i in 0..10_000u64 {
            let ns = if i % 100 == 0 {
                1_000_000 + i
            } else {
                900 + i % 200
            };
            h.record(ns);
            exact.push(ns as f64);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.sum_ns(), exact.iter().sum::<f64>() as u64);
        for q in [0.5, 0.9, 0.995] {
            let truth = percentile(&mut exact, q);
            let got = h.percentile_ns(q);
            assert!(
                (got - truth).abs() / truth < 1.0 / SUB_BUCKETS as f64,
                "q{q}: histogram {got} vs exact {truth}"
            );
        }
        assert_eq!(h.percentile_ns(1.0), h.max_ns() as f64);
        assert_eq!(LogHistogram::default().percentile_ns(0.5), 0.0);
    }

    #[test]
    fn histogram_merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = Default::default();
        fill(&mut a, &mut both, 1..500);
        fill(&mut b, &mut both, 500..90_000);
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum_ns(), both.sum_ns());
        assert_eq!(a.percentile_ns(0.99), both.percentile_ns(0.99));

        fn fill(one: &mut LogHistogram, all: &mut LogHistogram, range: std::ops::Range<u64>) {
            for ns in range.step_by(7) {
                one.record(ns);
                all.record(ns);
            }
        }
    }

    #[test]
    fn small_durations_land_in_ordered_buckets() {
        let mut last = 0;
        for ns in [0u64, 1, 2, 3, 5, 9, 17, 33, 1 << 20, u64::MAX] {
            let b = LogHistogram::bucket_of(ns);
            assert!(b >= last, "bucket order broke at {ns}");
            last = b;
        }
    }
}
