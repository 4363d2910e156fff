//! Bounded MPSC channels with micro-batch draining — the admission-control
//! substrate of the async serving front-end.
//!
//! [`BoundedQueue`] is a multi-producer single-consumer-friendly (any number
//! of consumers is safe, the service uses one per shard) bounded queue built
//! on a `parking_lot` mutex and two condition variables. It provides the
//! three behaviours a serving queue needs and `std::sync::mpsc` does not
//! compose well for:
//!
//! * **admission control** — [`try_send`](BoundedQueue::try_send) (shed on
//!   full: the caller gets the item back and counts it) and
//!   [`send`](BoundedQueue::send) (block on full: backpressure propagates to
//!   the submitter),
//! * **micro-batching** — [`recv_batch`](BoundedQueue::recv_batch) blocks
//!   for the first item, then keeps draining until the batch size cap or a
//!   time window elapses, amortising the consumer's per-batch work (one
//!   shard write-lock hold, one snapshot publication) over many items,
//! * **graceful shutdown** — [`close`](BoundedQueue::close) rejects new
//!   producers but lets consumers drain everything already accepted; a
//!   receiver returns empty only when the queue is closed *and* drained, so
//!   accepted work is never lost.
//!
//! The queue never holds more than `capacity` items: both send paths check
//! under the same mutex that guards the buffer, so the bound is an invariant
//! rather than a race (pinned by the backpressure proptests).

// Observe submissions flow through this module on the serving fast path;
// the marker opts it into the no-panic-hot-path lint rule. (The predict
// path never touches a queue — it reads lock-free snapshots.)
#![doc = "lint:hot-path"]

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Why a send did not enqueue. The rejected item is handed back so shed
/// policies can count or re-route it without cloning up front.
#[derive(Debug, PartialEq, Eq)]
pub enum SendError<T> {
    /// The queue was at capacity (only [`BoundedQueue::try_send`] returns
    /// this; [`BoundedQueue::send`] blocks instead).
    Full(T),
    /// The queue was closed — the service is shutting down.
    Closed(T),
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPSC queue with blocking and non-blocking sends, micro-batch
/// receives and drain-on-close shutdown. See the [module docs](self).
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    /// Signalled on enqueue and close; consumers wait on it.
    not_empty: Condvar,
    /// Signalled on dequeue and close; blocked producers wait on it.
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity.clamp(1, 4096)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (a snapshot; concurrent senders and receivers
    /// move it, but never above [`capacity`](BoundedQueue::capacity)).
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// True when no items are queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking send: enqueues, or hands the item straight back when the
    /// queue is full ([`SendError::Full`] — the *shed* admission policy) or
    /// closed ([`SendError::Closed`]).
    pub fn try_send(&self, item: T) -> Result<(), SendError<T>> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(SendError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(SendError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking send: waits while the queue is full (the *block* admission
    /// policy — backpressure reaches the submitting client), enqueues once
    /// there is room. Returns the item when the queue closes while waiting.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return Err(SendError::Closed(item));
            }
            if state.items.len() < self.capacity {
                break;
            }
            state = self.not_full.wait(state);
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Micro-batch receive: blocks until at least one item is available (or
    /// the queue is closed and drained), then keeps draining until `max`
    /// items are collected or `window` has elapsed since the first item was
    /// seen. Appends to `buf` and returns how many items were appended.
    ///
    /// Returns `0` **only** when the queue is closed and fully drained —
    /// the consumer's termination signal; every item accepted before
    /// [`close`](BoundedQueue::close) is still delivered first.
    pub fn recv_batch(&self, buf: &mut Vec<T>, max: usize, window: Duration) -> usize {
        let max = max.max(1);
        let before = buf.len();
        let mut state = self.state.lock();
        // Phase 1: wait for the first item (or closed-and-drained).
        while state.items.is_empty() {
            if state.closed {
                return 0;
            }
            state = self.not_empty.wait(state);
        }
        // Phase 2: drain up to `max`, waiting until the window deadline for
        // stragglers so bursts coalesce into one batch.
        // lint:allow(no-wallclock-in-sim): the micro-batch window is real
        // serving time by design (this layer runs on OS threads, not the
        // simulator's virtual clock; nothing here feeds back into replays).
        let deadline = Instant::now() + window;
        loop {
            while buf.len() - before < max {
                match state.items.pop_front() {
                    Some(item) => buf.push(item),
                    None => break,
                }
            }
            // Space freed: wake producers blocked on a full queue.
            self.not_full.notify_all();
            if buf.len() - before >= max || state.closed {
                break;
            }
            let (guard, wait_result) = self.not_empty.wait_until(state, deadline);
            state = guard;
            if wait_result.timed_out() {
                // Window elapsed — take anything that slipped in with the
                // final wakeup, then ship the batch.
                while buf.len() - before < max {
                    match state.items.pop_front() {
                        Some(item) => buf.push(item),
                        None => break,
                    }
                }
                self.not_full.notify_all();
                break;
            }
        }
        buf.len() - before
    }

    /// Closes the queue: subsequent sends fail with [`SendError::Closed`],
    /// blocked senders return, and consumers keep receiving until the
    /// already-accepted items are drained (then
    /// [`recv_batch`](BoundedQueue::recv_batch) returns 0).
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn try_send_sheds_at_capacity_and_hands_the_item_back() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_send(1), Ok(()));
        assert_eq!(q.try_send(2), Ok(()));
        assert_eq!(q.try_send(3), Err(SendError::Full(3)));
        assert_eq!(q.len(), 2);
        let mut buf = Vec::new();
        assert_eq!(q.recv_batch(&mut buf, 10, Duration::ZERO), 2);
        assert_eq!(buf, vec![1, 2]);
    }

    #[test]
    fn recv_batch_respects_the_size_cap_and_preserves_order() {
        let q = BoundedQueue::new(16);
        for i in 0..10 {
            q.try_send(i).unwrap();
        }
        let mut buf = Vec::new();
        assert_eq!(q.recv_batch(&mut buf, 4, Duration::ZERO), 4);
        assert_eq!(buf, vec![0, 1, 2, 3]);
        assert_eq!(q.recv_batch(&mut buf, 100, Duration::ZERO), 6);
        assert_eq!(buf, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn blocking_send_waits_for_room() {
        let q = Arc::new(BoundedQueue::new(1));
        q.send(1u32).unwrap();
        let sender = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.send(2).is_ok())
        };
        // The sender is blocked on the full queue; draining unblocks it.
        thread::sleep(Duration::from_millis(30));
        assert!(!sender.is_finished());
        let mut buf = Vec::new();
        q.recv_batch(&mut buf, 1, Duration::ZERO);
        assert!(sender.join().unwrap());
        q.recv_batch(&mut buf, 1, Duration::from_millis(200));
        assert_eq!(buf, vec![1, 2]);
    }

    #[test]
    fn close_rejects_senders_but_drains_consumers() {
        let q = BoundedQueue::new(8);
        q.try_send("a").unwrap();
        q.try_send("b").unwrap();
        q.close();
        assert_eq!(q.try_send("c"), Err(SendError::Closed("c")));
        assert_eq!(q.send("d"), Err(SendError::Closed("d")));
        let mut buf = Vec::new();
        // Accepted items survive the close...
        assert_eq!(q.recv_batch(&mut buf, 10, Duration::from_secs(5)), 2);
        assert_eq!(buf, vec!["a", "b"]);
        // ...and only then does the receiver see the termination signal.
        assert_eq!(q.recv_batch(&mut buf, 10, Duration::from_secs(5)), 0);
    }

    #[test]
    fn close_wakes_a_blocked_receiver() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let receiver = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut buf = Vec::new();
                q.recv_batch(&mut buf, 10, Duration::from_secs(60))
            })
        };
        thread::sleep(Duration::from_millis(30));
        q.close();
        assert_eq!(receiver.join().unwrap(), 0);
    }

    #[test]
    fn close_wakes_a_blocked_sender() {
        let q = Arc::new(BoundedQueue::new(1));
        q.send(1u32).unwrap();
        let sender = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.send(2))
        };
        thread::sleep(Duration::from_millis(30));
        q.close();
        assert_eq!(sender.join().unwrap(), Err(SendError::Closed(2)));
    }

    #[test]
    fn recv_batch_window_coalesces_a_trickle() {
        let q = Arc::new(BoundedQueue::new(64));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..5u32 {
                    q.send(i).unwrap();
                    thread::sleep(Duration::from_millis(5));
                }
            })
        };
        let mut buf = Vec::new();
        // A generous window captures the whole trickle in one batch.
        let n = q.recv_batch(&mut buf, 64, Duration::from_secs(2));
        producer.join().unwrap();
        // At least the first item, at most all five; whatever arrived in
        // the window came out in order.
        assert!((1..=5).contains(&n));
        assert_eq!(buf, (0..n as u32).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_is_never_exceeded_under_concurrent_pressure() {
        let q = Arc::new(BoundedQueue::new(4));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut sent = 0u64;
                    let mut shed = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        match q.try_send(1u8) {
                            Ok(()) => sent += 1,
                            Err(SendError::Full(_)) => shed += 1,
                            Err(SendError::Closed(_)) => break,
                        }
                    }
                    (sent, shed)
                })
            })
            .collect();
        let mut received = 0u64;
        let mut buf = Vec::new();
        for _ in 0..200 {
            assert!(q.len() <= q.capacity(), "queue exceeded its bound");
            buf.clear();
            received += q.recv_batch(&mut buf, 8, Duration::ZERO) as u64;
        }
        stop.store(true, Ordering::Relaxed);
        let mut sent_total = 0;
        for p in producers {
            let (sent, _) = p.join().unwrap();
            sent_total += sent;
        }
        // Drain the rest; accepted == received once quiescent.
        loop {
            buf.clear();
            q.close();
            let n = q.recv_batch(&mut buf, 1024, Duration::ZERO);
            if n == 0 {
                break;
            }
            received += n as u64;
        }
        assert_eq!(sent_total, received, "accepted items were lost");
    }
}
