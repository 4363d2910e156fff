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
//!    │                 queues (admission:                        │ observe
//!    │                 Block | Shed)                             │ (inline
//!    │                                                           │ retrains)
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

pub mod queue;
pub mod server;
pub mod snapshot;

pub use queue::{BoundedQueue, SendError};
pub use server::{AdmissionPolicy, AsyncService, AsyncSizey, ServiceConfig, ServiceStats};
pub use snapshot::SnapshotCell;
