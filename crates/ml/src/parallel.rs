//! Small scoped-thread parallel helpers.
//!
//! The workspace deliberately avoids a heavyweight task scheduler: the
//! parallelism we need (training a handful of models or a few dozen forest
//! trees at once) maps directly onto `std::thread::scope` with static
//! chunking. Results are returned in input order.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on worker threads used by the ML substrate. Kept modest
/// because the simulator replays many workflows concurrently at a higher
/// level.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(16)
}

/// Applies `f` to every item of `items` in parallel (dynamic work stealing via
/// an atomic index) and returns the results in input order.
///
/// Runs on the calling thread when `threads` is 1 or there are at most two
/// items. Spawning the workers costs tens of microseconds, so a caller whose
/// items are cheap passes `threads = 1` itself (see
/// [`crate::forest::PARALLEL_FIT_MIN_ROWS`]).
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 || n <= 2 {
        return items.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut claimed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    // Each index was claimed by exactly one worker: sorting by index puts
    // the results back in input order.
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn single_thread_falls_back_to_sequential() {
        let items: Vec<u64> = (0..10).collect();
        let out = parallel_map(&items, 1, |&x| x + 1);
        assert_eq!(out.len(), 10);
        assert_eq!(out[9], 10);
    }

    #[test]
    fn results_match_sequential_for_nontrivial_work() {
        let items: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let seq: Vec<f64> = items.iter().map(|x| (x * 1.5).sin()).collect();
        let par = parallel_map(&items, default_parallelism(), |x| (x * 1.5).sin());
        assert_eq!(seq, par);
    }

    #[test]
    fn default_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
    }
}
