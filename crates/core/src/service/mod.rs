//! The serving subsystem: an async request-queue front-end with lock-free
//! snapshot predicts on top of the sharded
//! [`ConcurrentPredictor`](crate::serve::ConcurrentPredictor).
//!
//! The locked [`ConcurrentSizey`](crate::serve::ConcurrentSizey) path couples
//! the two halves of serving: a tenant's observe holds a shard write lock
//! while models retrain, so an unlucky predict on the same shard stalls for the
//! whole retrain (the millisecond-scale `observe.p99_us` in
//! `BENCH_layers.json` bleeds into the microsecond predict path). This module
//! decouples them:
//!
//! ```text
//!            submit                       micro-batch (≤ batch_max,
//! tenants ──observe──▶ per-shard bounded ──≤ batch_window)──▶ shard worker
//!    │                 queues (admission:                        │ observe +
//!    │                 Block | Shed)                             │ ≤ cap staged
//!    │                                                           │ retrains
//!    └──predict──▶ SnapshotCell per shard ◀────publish view──────┘
//!                  (wait-free epoch-swapped reads)
//! ```
//!
//! * [`queue`] — the bounded MPSC channel each shard consumes: blocking or
//!   shedding admission, time/size-windowed batch receive, drain-on-close.
//! * [`snapshot`] — the left-right [`SnapshotCell`]:
//!   readers take the current immutable model snapshot wait-free, the
//!   (serialized) writer pays the full cost of the swap.
//! * [`server`] — [`AsyncService`] wiring the two together, with worker
//!   threads, flush barriers, graceful drain-on-shutdown and counters.
//!
//! The serving layer runs on real OS threads with real time windows — it is
//! deliberately *outside* the simulator's virtual clock. Replays stay
//! deterministic by feeding the service through [`AsyncService::flush`]
//! barriers at the points where equivalence is asserted.

use crate::sizey::SizeyPredictor;
use sizey_sim::MemoryPredictor;

pub mod queue;
pub mod server;
pub mod snapshot;

pub use queue::{BoundedQueue, SendError};
pub use server::{AdmissionPolicy, AsyncService, AsyncSizey, ServiceConfig, ServiceStats};
pub use snapshot::SnapshotCell;

/// What a predictor must provide to be served by [`AsyncService`]:
/// the ordinary [`MemoryPredictor`] read/learn API, a value to publish for
/// lock-free reads, and (optionally) a deferred-retrain protocol so the
/// worker can cap retrain work per micro-batch.
///
/// Every hook has a default, so any cloneable predictor can be served;
/// [`SizeyPredictor`] publishes a view that shares its pools instead of
/// copying them and wires the retrain hooks to its staged-retrain machinery.
pub trait ServePredictor: MemoryPredictor + Clone + Send + Sync + 'static {
    /// The value a shard worker publishes after each micro-batch
    /// ([`ConcurrentPredictor::clone_shard`](crate::serve::ConcurrentPredictor::clone_shard)).
    /// It must `predict` bit-identically to `self` as of this call and keep
    /// doing so whatever `self` observes afterwards; it need not carry state
    /// `predict` never reads. The default is a full clone.
    fn published_view(&self) -> Self {
        self.clone()
    }

    /// Called once per shard when a service starts, before the first view is
    /// published: lay the learned state out for reading, if the predictor
    /// has a cheaper layout than the one incremental learning left behind.
    fn pack(&mut self) {}

    /// Switch the predictor between inline retrains (every observe pays for
    /// its own retrains — bit-identical to serial) and staged retrains the
    /// worker runs via [`run_deferred`](ServePredictor::run_deferred).
    fn set_deferred(&mut self, _enabled: bool) {}

    /// Run at most `cap` staged retrains, in place, and return how many
    /// ran. Called by the shard worker after each micro-batch, under the
    /// shard write lock — predicts are unaffected (they read published
    /// snapshots), only observes on this shard wait.
    fn run_deferred(&mut self, _cap: usize) -> usize {
        0
    }

    /// Staged retrains not yet run — the stall backlog surfaced in
    /// [`ServiceStats::retrain_backlog`].
    fn deferred_backlog(&self) -> usize {
        0
    }
}

impl ServePredictor for SizeyPredictor {
    fn published_view(&self) -> Self {
        SizeyPredictor::published_view(self)
    }

    fn pack(&mut self) {
        self.pack_pools();
    }

    fn set_deferred(&mut self, enabled: bool) {
        self.set_deferred_retrains(enabled);
    }

    fn run_deferred(&mut self, cap: usize) -> usize {
        self.run_pending_retrains(cap)
    }

    fn deferred_backlog(&self) -> usize {
        self.pending_retrains()
    }
}
