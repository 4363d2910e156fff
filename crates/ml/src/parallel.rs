//! One scoped-thread claim queue.
//!
//! The workspace deliberately avoids a heavyweight task scheduler: the
//! parallelism we need (training a handful of models or a few dozen forest
//! trees at once) maps directly onto `std::thread::scope`. Every parallel
//! fit goes through one claim loop: the calling thread and the workers it
//! spawns each claim the next unclaimed item from one atomic counter until
//! none is left, and the results are returned in input order.
//!
//! A job can also ride at the head of the queue
//! ([`parallel_map_beside`]): the calling thread runs it while the workers
//! start on the items, then claims items too. A full retrain of Sizey's
//! pool uses this to fit its MLP beside the forest's trees.
//!
//! Spawning a worker never panics: when the OS refuses a thread, the
//! workers already running and the calling thread share the queue
//! between them, down to the calling thread alone.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::Builder;

/// Upper bound on worker threads used by the ML substrate. Kept modest
/// because the simulator replays many workflows concurrently at a higher
/// level.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(16)
}

/// Applies `f` to every item of `items` on up to `threads` threads, the
/// calling thread among them, and returns the results in input order.
///
/// Runs on the calling thread alone when `threads` is 1 or there are at
/// most two items. Spawning the workers costs tens of microseconds, so a
/// caller whose items are cheap passes `threads = 1` itself (see
/// [`crate::forest::PARALLEL_FIT_MIN_ROWS`]).
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 2 {
        return items.iter().map(&f).collect();
    }
    claim_queue(Builder::new, items, threads, None, &f)
}

/// [`parallel_map`] with `side` at the head of the queue: the calling
/// thread runs `side` exactly once while up to `threads - 1` workers start
/// on `items`, then claims the items left. `side` counts as one job, so
/// even a few items are worth a worker beside it.
///
/// A panic in `side` or in `f` re-raises on the calling thread once every
/// worker has been joined.
pub fn parallel_map_beside<T, R, F>(
    items: &[T],
    threads: usize,
    side: &mut dyn FnMut(),
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    claim_queue(Builder::new, items, threads, Some(side), &f)
}

/// The claim loop behind both maps. Spawns up to `threads - 1` workers from
/// `builder` (stopping at the first the OS refuses), runs `head` on the
/// calling thread, and has every thread claim items until none is left.
fn claim_queue<T, R, F>(
    builder: fn() -> Builder,
    items: &[T],
    threads: usize,
    head: Option<&mut dyn FnMut()>,
    f: &F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // The calling thread is one of the threads, and no thread goes idle.
    let jobs = items.len() + usize::from(head.is_some());
    let spawned = threads.min(jobs).saturating_sub(1);
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                break done;
            };
            done.push((i, f(item)));
        }
    };
    let mut claimed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..spawned)
            .map_while(|_| builder().spawn_scoped(scope, claim).ok())
            .collect();
        // A panic here unwinds out of the scope, which joins every worker
        // before re-raising it.
        if let Some(head) = head {
            head();
        }
        let mut claimed = claim();
        let mut panic = None;
        for worker in workers {
            match worker.join() {
                Ok(done) => claimed.extend(done),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        claimed
    });
    // Each index was claimed by exactly one thread: sorting by index puts
    // the results back in input order.
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

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

    #[test]
    fn side_job_runs_once_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for (n, threads) in [(0, 4), (1, 1), (2, 2), (50, 4)] {
            let items: Vec<u64> = (0..n).collect();
            let mut runs = Vec::new();
            let out = parallel_map_beside(
                &items,
                threads,
                &mut || runs.push(std::thread::current().id()),
                |&x| x + 1,
            );
            assert_eq!(out, (1..=n).collect::<Vec<_>>());
            assert_eq!(runs, vec![caller]);
        }
    }

    #[test]
    fn a_refused_spawn_leaves_the_queue_to_the_caller() {
        // No address space holds a 1 PiB stack, so every spawn is refused
        // before a thread exists.
        let refused = || Builder::new().stack_size(1 << 50);
        assert!(refused().spawn(|| ()).is_err());
        let items: Vec<u64> = (0..20).collect();
        let side_ran = AtomicBool::new(false);
        let out = claim_queue(
            refused,
            &items,
            4,
            Some(&mut || side_ran.store(true, Ordering::Relaxed)),
            &|&x: &u64| (x * 3, std::thread::current().id()),
        );
        assert!(side_ran.load(Ordering::Relaxed));
        assert_eq!(out.len(), items.len());
        let caller = std::thread::current().id();
        for (i, (v, thread)) in out.into_iter().enumerate() {
            assert_eq!(v, i as u64 * 3);
            assert_eq!(thread, caller);
        }
    }

    #[test]
    #[should_panic(expected = "side job failed")]
    fn a_panicking_side_job_reaches_the_caller() {
        let items: Vec<u64> = (0..50).collect();
        parallel_map_beside(&items, 4, &mut || panic!("side job failed"), |&x| x);
    }

    #[test]
    #[should_panic(expected = "item 7 failed")]
    fn a_panicking_worker_reaches_the_caller() {
        let items: Vec<u64> = (0..50).collect();
        parallel_map(&items, 4, |&x| {
            assert!(x != 7, "item 7 failed");
            x
        });
    }
}
