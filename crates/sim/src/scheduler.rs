//! The event-driven cluster scheduler.
//!
//! The paper's evaluation replays one workflow at a time against a capacity
//! sketch that ignores queueing (assumption A2 declares scheduling out of
//! scope). That sketch cannot answer contention questions: when one tenant
//! over-allocates, the cost shows up as *queue delay* for everyone sharing
//! the cluster, not just as GB·h on the over-allocator's bill. This module
//! adds a real discrete-event scheduler:
//!
//! * a virtual clock driven by an [`EventHeap`] of
//!   submissions and completions,
//! * a [`PendingQueue`] where tasks wait when no
//!   node fits — over-allocation now costs makespan,
//! * pluggable [`SchedulePolicy`] variants (first fit, best fit, bounded
//!   backfill),
//! * heterogeneous node pools via
//!   [`SimulationConfig::extra_node_pools`](crate::SimulationConfig),
//! * concurrent multi-workflow replay ([`schedule_workflows`]): several
//!   tenants share one cluster, interleaved by submission time, each with
//!   its own predictor learning online from its own records.
//!
//! This is the crate's one timing model. The paper's sequential
//! [`replay_workflow`](crate::replay::replay_workflow) is untimed: it fixes
//! the predict→observe order, and with it the Fig. 8 aggregates, without
//! queueing anything. Here predictions happen at submission, observations at
//! completion, and tenants interleave arbitrarily — the decision order is
//! whatever the virtual clock makes it.
//!
//! There is one event-driven engine, a private struct that owns the cluster,
//! the event heap, the pending queue and every other piece of loop state,
//! with two entry points and one result, a [`MultiReplayReport`] with one
//! [`ReplayReport`] per tenant. [`schedule_workflows_streaming`] pulls
//! instances from iterators and offers each attempt event to a sink, so
//! memory is bounded by the in-flight working set; [`schedule_workflows`]
//! takes materialised tenants, streams them through the same loop and also
//! keeps each tenant's events in its report.

use crate::accounting::{
    AttemptEvent, AttemptSink, NullRecordSink, RecordSink, ReplayAggregates, ReplayReport,
};
use crate::attempt::Attempt;
use crate::cluster::{Cluster, Node};
use crate::config::SimulationConfig;
use crate::faults::{FaultAction, FaultCause};
use crate::predictor::{AttemptContext, MemoryPredictor, TaskSubmission};
use crate::queue::{EventHeap, PendingQueue, PendingTask};
use sizey_workflows::TaskInstance;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Scheduling policy for picking when and where a pending task starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulePolicy {
    /// Strict FIFO dispatch; the task is placed on the first node with room.
    FirstFit,
    /// Strict FIFO dispatch; the task is placed on the fitting node with the
    /// least leftover free memory (tightest packing).
    BestFit,
    /// FIFO with backfilling: a task whose resources are free right now may
    /// start ahead of a blocked head-of-queue (aggressive backfill, no
    /// reservation for the head). The scan behind the head is bounded by
    /// [`SimulationConfig::backfill_window`].
    Backfill,
}

impl SchedulePolicy {
    /// All policies, in comparison order.
    pub const ALL: [SchedulePolicy; 3] = [
        SchedulePolicy::FirstFit,
        SchedulePolicy::BestFit,
        SchedulePolicy::Backfill,
    ];

    /// Display name for result tables.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulePolicy::FirstFit => "first-fit",
            SchedulePolicy::BestFit => "best-fit",
            SchedulePolicy::Backfill => "backfill",
        }
    }

    /// Parses the [`name`](SchedulePolicy::name) form back into a policy
    /// (used by the spec-driven experiment loader).
    pub fn from_name(name: &str) -> Option<Self> {
        SchedulePolicy::ALL
            .into_iter()
            .find(|p| p.name() == name.trim())
    }

    /// Position in [`SchedulePolicy::ALL`] — the canonical comparison order
    /// used for deterministic result-table sorting.
    pub fn comparison_order(&self) -> usize {
        SchedulePolicy::ALL
            .iter()
            .position(|p| p == self)
            .unwrap_or(SchedulePolicy::ALL.len())
    }
}

/// Aggregate scheduler telemetry for one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchedulerStats {
    /// Number of attempts dispatched onto the cluster.
    pub dispatched_attempts: usize,
    /// Sum of all queue delays in seconds.
    pub total_queue_delay_seconds: f64,
    /// Largest single queue delay in seconds.
    pub max_queue_delay_seconds: f64,
    /// High-water mark of concurrently running tasks.
    pub peak_running_tasks: usize,
    /// High-water mark of cluster-wide allocated memory in bytes.
    pub peak_allocated_bytes: f64,
    /// High-water mark of the pending-queue depth.
    pub peak_pending_tasks: usize,
    /// Placements forced past a full cluster (only possible when a caller
    /// bypasses the largest-node clamp; the property suite asserts zero).
    pub forced_placements: usize,
    /// High-water mark of in-flight tasks carrying a retry baseline: how
    /// many tasks were simultaneously awaiting a retry.
    pub peak_inflight_retries: usize,
    /// In-flight tasks still carrying a retry baseline when the replay
    /// drained — leaked per-task state. Always zero: the baseline is part of
    /// the in-flight entry, which leaves on success and on terminal failure
    /// alike (the regression suite asserts this for workloads where *every*
    /// task exhausts its attempt budget).
    pub leaked_inflight_retries: usize,
    /// Attempts killed mid-run by fault injection and requeued. A requeued
    /// attempt re-enters the pending queue with an **unchanged** attempt
    /// number and an untouched retry baseline: a fault is not an OOM failure,
    /// so it neither consumes [`SimulationConfig::max_attempts`] budget nor
    /// triggers the predictors' max-then-double escalation.
    pub requeued_attempts: usize,
    /// Subset of `requeued_attempts` whose node crashed (single crash or
    /// storm).
    pub crash_lost_attempts: usize,
    /// Subset of `requeued_attempts` whose node pool was preempted (spot
    /// reclaim).
    pub preempted_attempts: usize,
}

impl SchedulerStats {
    fn record_dispatch(&mut self, queue_delay: f64, cluster: &Cluster) {
        self.dispatched_attempts += 1;
        self.total_queue_delay_seconds += queue_delay;
        self.max_queue_delay_seconds = self.max_queue_delay_seconds.max(queue_delay);
        self.peak_running_tasks = self.peak_running_tasks.max(cluster.running_tasks());
        self.peak_allocated_bytes = self.peak_allocated_bytes.max(cluster.allocated_bytes());
    }

    /// Mean queue delay per dispatched attempt in seconds.
    pub fn mean_queue_delay_seconds(&self) -> f64 {
        if self.dispatched_attempts == 0 {
            0.0
        } else {
            self.total_queue_delay_seconds / self.dispatched_attempts as f64
        }
    }
}

/// One workflow sharing the cluster in a multi-tenant replay: its task
/// instances, the sizing method making its allocation decisions, and the
/// virtual time at which it starts submitting.
pub struct WorkflowTenant {
    /// Workflow (tenant) name used in the per-tenant report.
    pub workflow: String,
    /// Task instances in submission order.
    pub instances: Vec<TaskInstance>,
    /// The sizing method deciding this tenant's allocations.
    pub predictor: Box<dyn MemoryPredictor>,
    /// Virtual time at which the tenant's first task arrives. Must be
    /// finite (negative is allowed): the engine refuses the tenant otherwise.
    pub arrival_offset_seconds: f64,
}

/// Panics unless a tenant's arrival offset is finite. A NaN offset would
/// start every attempt of the tenant at virtual time NaN, which the makespan
/// silently leaves out, and an infinite one would never arrive.
fn assert_finite_offset(workflow: &str, seconds: f64) {
    assert!(
        seconds.is_finite(),
        "tenant `{workflow}`: arrival_offset_seconds must be finite, found {seconds}"
    );
}

impl WorkflowTenant {
    /// Creates a tenant arriving at time zero.
    pub fn new(
        workflow: impl Into<String>,
        instances: Vec<TaskInstance>,
        predictor: Box<dyn MemoryPredictor>,
    ) -> Self {
        WorkflowTenant {
            workflow: workflow.into(),
            instances,
            predictor,
            arrival_offset_seconds: 0.0,
        }
    }

    /// Returns the tenant with a different arrival offset.
    ///
    /// # Panics
    ///
    /// Panics, naming the tenant, when `seconds` is NaN or infinite.
    pub fn with_arrival_offset(mut self, seconds: f64) -> Self {
        assert_finite_offset(&self.workflow, seconds);
        self.arrival_offset_seconds = seconds;
        self
    }
}

/// Result of a multi-tenant replay, from either entry point: one
/// [`ReplayReport`] per tenant plus cluster-wide telemetry.
#[derive(Debug)]
pub struct MultiReplayReport {
    /// Per-tenant reports, in the order the tenants were passed in. Their
    /// `events` are empty from [`schedule_workflows_streaming`].
    pub reports: Vec<ReplayReport>,
    /// End of the last attempt across all tenants, in seconds.
    pub makespan_seconds: f64,
    /// Cluster-wide scheduler telemetry.
    pub stats: SchedulerStats,
    /// Final node states, including per-node allocation/slot high-water
    /// marks (the property suite asserts `peak ≤ capacity` per node).
    pub nodes: Vec<Node>,
    /// High-water mark of simultaneously in-flight task instances — the
    /// engine's working set (arrived but not yet terminal).
    pub peak_inflight_instances: usize,
    /// In-flight instances still resident when the replay drained. Always
    /// zero: instances are evicted on success and on terminal failure alike.
    pub leaked_inflight_instances: usize,
}

/// Payload of a queued attempt in the event-driven engine: whose attempt it
/// is, and how it was sized at submission.
#[derive(Debug, Clone)]
struct QueuedAttempt {
    tenant: usize,
    instance: usize,
    attempt: u32,
    run: Attempt,
}

/// A dispatched attempt, from its start until it completes or a fault
/// kills it.
#[derive(Debug, Clone)]
struct RunningAttempt {
    task: QueuedAttempt,
    node: usize,
    submit_time: f64,
    start_time: f64,
    concurrent_at_start: usize,
}

/// An event on the multi-tenant engine's heap. First submissions are not
/// heap events: they are injected from the arrival frontier (see
/// [`Engine::next_arrival`]).
#[derive(Debug)]
enum Event {
    /// A retried or fault-requeued attempt re-enters the pending queue.
    Submit {
        tenant: usize,
        instance: usize,
        attempt: u32,
    },
    /// A running attempt completes and releases its resources. The dispatch
    /// ticket keys the [`RunningRegistry`]; a ticket that is gone belongs to
    /// an attempt a fault already killed (stale completion).
    Finish(u64),
    /// A fault-injection action fires (node down/up, task kills).
    Fault(FaultAction),
}

/// The one owner of every running attempt, keyed by a monotonically
/// increasing dispatch ticket. Fault events drain victims in dispatch order
/// (deterministic); a completion whose ticket is absent is stale — its
/// attempt was fault-killed, released and requeued when the fault fired.
#[derive(Debug, Default)]
struct RunningRegistry {
    map: BTreeMap<u64, RunningAttempt>,
    next_ticket: u64,
}

impl RunningRegistry {
    fn insert(&mut self, run: RunningAttempt) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.map.insert(ticket, run);
        ticket
    }

    /// Removes an attempt on completion; `None` flags a stale completion of
    /// a fault-killed attempt.
    fn finish(&mut self, ticket: u64) -> Option<RunningAttempt> {
        self.map.remove(&ticket)
    }

    /// Drains every attempt running on `node`, oldest dispatch first.
    fn drain_node(&mut self, node: usize) -> Vec<RunningAttempt> {
        self.map
            .extract_if(.., |_, run| run.node == node)
            .map(|(_, run)| run)
            .collect()
    }

    /// Drains the `count` oldest running attempts.
    fn drain_oldest(&mut self, count: usize) -> Vec<RunningAttempt> {
        (0..count)
            .map_while(|_| self.map.pop_first().map(|(_, run)| run))
            .collect()
    }
}

/// A task instance between its arrival and its terminal state.
#[derive(Debug)]
struct InFlight {
    instance: TaskInstance,
    /// The allocation the instance's previous attempt failed with: set when
    /// a failed attempt will retry, read when the retry is sized, left alone
    /// by a fault kill, and gone with the entry at the terminal state.
    retry_from: Option<f64>,
}

/// One workflow sharing the cluster in a **streaming** multi-tenant replay:
/// like [`WorkflowTenant`], but task instances are produced lazily by an
/// iterator (e.g. [`stream_workflow`](sizey_workflows::stream_workflow))
/// instead of a materialised `Vec`, so a million-instance tenant costs a few
/// in-flight instances of memory rather than the whole workload.
pub struct StreamingTenant {
    /// Workflow (tenant) name used in the per-tenant report.
    pub workflow: String,
    /// Lazily produced task instances, in submission order.
    pub instances: Box<dyn Iterator<Item = TaskInstance>>,
    /// The sizing method deciding this tenant's allocations.
    pub predictor: Box<dyn MemoryPredictor>,
    /// Virtual time at which the tenant's first task arrives. Must be
    /// finite (negative is allowed): the engine refuses the tenant otherwise.
    pub arrival_offset_seconds: f64,
}

impl StreamingTenant {
    /// Creates a streaming tenant arriving at time zero.
    pub fn new(
        workflow: impl Into<String>,
        instances: impl Iterator<Item = TaskInstance> + 'static,
        predictor: Box<dyn MemoryPredictor>,
    ) -> Self {
        StreamingTenant {
            workflow: workflow.into(),
            instances: Box::new(instances),
            predictor,
            arrival_offset_seconds: 0.0,
        }
    }

    /// Returns the tenant with a different arrival offset.
    ///
    /// # Panics
    ///
    /// Panics, naming the tenant, when `seconds` is NaN or infinite.
    pub fn with_arrival_offset(mut self, seconds: f64) -> Self {
        assert_finite_offset(&self.workflow, seconds);
        self.arrival_offset_seconds = seconds;
        self
    }
}

impl From<WorkflowTenant> for StreamingTenant {
    /// Streams a materialised tenant's instances out of its `Vec`; this is
    /// how [`schedule_workflows`] feeds the engine.
    fn from(tenant: WorkflowTenant) -> Self {
        StreamingTenant {
            workflow: tenant.workflow,
            instances: Box::new(tenant.instances.into_iter()),
            predictor: tenant.predictor,
            arrival_offset_seconds: tenant.arrival_offset_seconds,
        }
    }
}

/// The event-driven engine behind [`schedule_workflows`] and
/// [`schedule_workflows_streaming`], and the one owner of its state.
///
/// Task instances are pulled from each tenant's iterator as virtual time
/// reaches their arrival, held in `inflight` between arrival and terminal
/// state, and dropped there. Every dispatched attempt is folded into its
/// tenant's [`ReplayAggregates`] and handed, by value and with the tenant
/// index, to `on_attempt`; the two entry points differ only in what that
/// callback does with it.
struct Engine<'a, F> {
    config: &'a SimulationConfig,
    tenants: Vec<StreamingTenant>,
    /// Each tenant's workflow name, shared by every record it produces.
    workflows: Vec<Arc<str>>,
    on_attempt: F,
    records: &'a mut dyn RecordSink,
    cluster: Cluster,
    largest_node: f64,
    events: EventHeap<Event>,
    pending: PendingQueue<QueuedAttempt>,
    stats: SchedulerStats,
    running: RunningRegistry,
    /// Instances between arrival and terminal state, keyed by (tenant,
    /// instance), each with its retry baseline. An ordered map, so the heap
    /// the engine needs is a function of its input and not of the process's
    /// hash seed.
    inflight: BTreeMap<(usize, usize), InFlight>,
    peak_inflight: usize,
    /// In-flight entries currently carrying a retry baseline.
    retrying: usize,
    /// Each tenant's next not-yet-arrived instance, pulled eagerly so "does
    /// this tenant have more work?" is answerable without consuming. At most
    /// one instance per tenant.
    peeked: Vec<Option<TaskInstance>>,
    /// The arrival time and arrival index of each tenant's `peeked`
    /// instance, `None` beside an empty slot: the compact array
    /// [`Engine::next_arrival`] scans.
    arrivals: Vec<Option<(f64, usize)>>,
    aggs: Vec<ReplayAggregates>,
    makespan: f64,
}

impl<'a, F: FnMut(usize, AttemptEvent)> Engine<'a, F> {
    fn new(
        mut tenants: Vec<StreamingTenant>,
        config: &'a SimulationConfig,
        records: &'a mut dyn RecordSink,
        on_attempt: F,
    ) -> Self {
        let cluster = Cluster::new(config);
        assert!(
            cluster.node_count() > 0,
            "simulation config describes a cluster with no nodes"
        );
        // The field is public, so `with_arrival_offset` cannot be the only
        // guard.
        for tenant in &tenants {
            assert_finite_offset(&tenant.workflow, tenant.arrival_offset_seconds);
        }
        // Faults enter the heap before the run pushes any completion or
        // retry, so a fault wins a time-tie against those; arrivals win
        // time-ties against everything on the heap (see `run`).
        let mut events = EventHeap::new();
        if let Some(plan) = &config.faults {
            for fe in plan.compile(config) {
                events.push(fe.time_seconds, Event::Fault(fe.action));
            }
        }
        let mut engine = Engine {
            config,
            on_attempt,
            records,
            largest_node: cluster.largest_node_memory_bytes(),
            cluster,
            events,
            pending: PendingQueue::new(),
            stats: SchedulerStats::default(),
            running: RunningRegistry::default(),
            inflight: BTreeMap::new(),
            peak_inflight: 0,
            retrying: 0,
            peeked: tenants.iter_mut().map(|t| t.instances.next()).collect(),
            arrivals: Vec::new(),
            aggs: vec![ReplayAggregates::new(); tenants.len()],
            makespan: 0.0,
            workflows: tenants.iter().map(|t| t.workflow.as_str().into()).collect(),
            tenants,
        };
        engine.arrivals = (0..engine.tenants.len())
            .map(|ti| engine.arrival_entry(ti, 0))
            .collect();
        engine
    }

    /// The frontier entry of tenant `ti` once `idx` of its instances have
    /// arrived: its next arrival time and index, or `None` when its iterator
    /// is exhausted. Instance `idx` arrives at `offset + idx × interval`.
    fn arrival_entry(&self, ti: usize, idx: usize) -> Option<(f64, usize)> {
        self.peeked[ti].as_ref().map(|_| {
            let time = self.tenants[ti].arrival_offset_seconds
                + idx as f64 * self.config.submit_interval_seconds;
            (time, idx)
        })
    }

    /// The earliest pending arrival as (time, tenant), minimal by (time,
    /// arrival index, tenant index): simultaneous arrivals interleave
    /// round-robin across tenants instead of draining tenant 0 first.
    ///
    /// The frontier reads only the `arrivals` array, which changes only when
    /// an instance arrives, so [`Engine::run`] computes it once up front and
    /// again after each arrival instead of on every turn of its loop.
    fn next_arrival(&self) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize, usize)> = None;
        for (ti, &next) in self.arrivals.iter().enumerate() {
            let Some((time, idx)) = next else { continue };
            let better = match best {
                None => true,
                Some((bt, bidx, _)) => time < bt || (time == bt && idx < bidx),
            };
            if better {
                best = Some((time, idx, ti));
            }
        }
        best.map(|(time, _, ti)| (time, ti))
    }

    /// Runs the virtual clock until every instance of every tenant has
    /// reached a terminal state.
    fn run(mut self) -> MultiReplayReport {
        let mut frontier = self.next_arrival();
        loop {
            // Arrivals win time-ties against heap events: a first submission
            // is ordered before any fault, completion or retry of the same
            // instant.
            let heap_time = self.events.peek_time();
            let arrival = frontier.filter(|&(at, _)| heap_time.is_none_or(|ht| at <= ht));

            if let Some((now, ti)) = arrival {
                let (_, idx) = self.arrivals[ti].expect("arrival is on the frontier");
                let inst = self.peeked[ti].take().expect("arrival has an instance");
                self.peeked[ti] = self.tenants[ti].instances.next();
                self.arrivals[ti] = self.arrival_entry(ti, idx + 1);
                frontier = self.next_arrival();
                // Sized from the entry just inserted, without a second search.
                let entry = self.inflight.entry((ti, idx)).or_insert(InFlight {
                    instance: inst,
                    retry_from: None,
                });
                let run = size_attempt(
                    &self.tenants[ti],
                    entry,
                    0,
                    self.largest_node,
                    self.config.time_to_failure,
                );
                self.peak_inflight = self.peak_inflight.max(self.inflight.len());
                self.enqueue(now, ti, idx, 0, run);
                self.try_dispatch(now);
            } else if let Some((now, event)) = self.events.pop() {
                match event {
                    Event::Submit {
                        tenant,
                        instance,
                        attempt,
                    } => self.submit(now, tenant, instance, attempt),
                    Event::Finish(ticket) => {
                        // A ticket that is gone is the stale completion of a
                        // fault-killed attempt: its resources were released
                        // and it was requeued when the fault fired.
                        if let Some(run) = self.running.finish(ticket) {
                            self.complete(now, run);
                        }
                    }
                    Event::Fault(action) => self.apply_fault(action, now),
                }
                self.try_dispatch(now);
            } else {
                break;
            }

            // Defensive: nothing left to arrive or finish but tasks still
            // pending means the head can never fit (caller bypassed the
            // clamp, or every node is down for good). Force it through so
            // the replay terminates.
            if self.events.is_empty() && !self.pending.is_empty() && frontier.is_none() {
                let queued = self.pending.remove(0).expect("non-empty queue");
                self.stats.forced_placements += 1;
                self.dispatch(queued, 0, self.makespan);
            }
        }

        let mut stats = self.stats;
        stats.peak_pending_tasks = self.pending.peak_len();
        let leaked_inflight_instances = self.inflight.len();
        stats.leaked_inflight_retries = self
            .inflight
            .values()
            .filter(|entry| entry.retry_from.is_some())
            .count();
        debug_assert_eq!(
            leaked_inflight_instances, 0,
            "every task reaches a terminal state, so the in-flight set must drain"
        );

        let reports = self
            .tenants
            .iter()
            .zip(self.aggs)
            .map(|(tenant, aggregates)| ReplayReport {
                method: tenant.predictor.name(),
                workflow: tenant.workflow.clone(),
                time_to_failure: self.config.time_to_failure,
                events: Vec::new(),
                instances: aggregates.instances,
                aggregates,
            })
            .collect();

        MultiReplayReport {
            reports,
            makespan_seconds: self.makespan,
            stats,
            nodes: self.cluster.nodes().to_vec(),
            peak_inflight_instances: self.peak_inflight,
            leaked_inflight_instances,
        }
    }

    /// Sizes a retried or requeued attempt of an in-flight instance and
    /// enqueues it.
    fn submit(&mut self, now: f64, ti: usize, instance: usize, attempt: u32) {
        let entry = &self.inflight[&(ti, instance)];
        let run = size_attempt(
            &self.tenants[ti],
            entry,
            attempt,
            self.largest_node,
            self.config.time_to_failure,
        );
        self.enqueue(now, ti, instance, attempt, run);
    }

    /// Enqueues a sized attempt submitted at virtual time `now`.
    fn enqueue(&mut self, now: f64, ti: usize, instance: usize, attempt: u32, run: Attempt) {
        let queued = PendingTask {
            submit_time: now,
            allocation_bytes: run.allocation_bytes,
            payload: QueuedAttempt {
                tenant: ti,
                instance,
                attempt,
                run,
            },
        };
        if attempt == 0 {
            self.pending.push_back(queued);
        } else {
            // Retries re-enter with their original priority (head of the
            // queue), standard resource-manager behaviour.
            self.pending.push_front(queued);
        }
    }

    /// Dispatches every queued task the policy allows at virtual time `now`.
    fn try_dispatch(&mut self, now: f64) {
        let policy = self.config.policy;
        loop {
            // Head of the queue first: every policy dispatches it if it fits.
            let head_node = self
                .pending
                .front()
                .and_then(|t| self.cluster.select_node(t.allocation_bytes, policy));
            let picked = if let Some(node) = head_node {
                Some((0, node))
            } else if policy == SchedulePolicy::Backfill {
                // Head blocked: scan a bounded window behind it for a task
                // that fits right now. First fit places exactly the
                // allocations at or below the cluster's free-capacity bound
                // (and refuses NaN), so one comparison refuses each task
                // above it, and a task at or below it always finds a node
                // (sizing floors every allocation, so none is -inf).
                let bound = self.cluster.first_fit_bound();
                self.pending
                    .iter()
                    .enumerate()
                    .skip(1)
                    .take(self.config.backfill_window)
                    .filter(|(_, t)| t.allocation_bytes <= bound)
                    .find_map(|(idx, t)| {
                        self.cluster
                            .select_node(t.allocation_bytes, policy)
                            .map(|node| (idx, node))
                    })
            } else {
                None
            };
            let Some((idx, node)) = picked else { break };
            let queued = self.pending.remove(idx).expect("picked index exists");
            self.dispatch(queued, node, now);
        }
    }

    /// Starts a queued attempt on `node` at virtual time `now`: places it,
    /// folds the attempt event into its tenant's aggregates, hands it to
    /// `on_attempt`, and schedules its completion.
    fn dispatch(&mut self, queued: PendingTask<QueuedAttempt>, node: usize, now: f64) {
        let task = queued.payload;
        self.cluster.place_on(node, task.run.allocation_bytes);
        let queue_delay = (now - queued.submit_time).max(0.0);
        self.stats.record_dispatch(queue_delay, &self.cluster);
        let inst = &self.inflight[&(task.tenant, task.instance)].instance;
        let event = task.run.event(inst, task.attempt, now, queue_delay);
        self.aggs[task.tenant].observe_event(&event);
        (self.on_attempt)(task.tenant, event);
        let finish_time = now + task.run.duration_seconds;
        let ticket = self.running.insert(RunningAttempt {
            node,
            submit_time: queued.submit_time,
            start_time: now,
            concurrent_at_start: self.cluster.running_tasks(),
            task,
        });
        self.events.push(finish_time, Event::Finish(ticket));
    }

    /// Completes a running attempt at virtual time `now`: releases its
    /// resources, feeds its provenance record to the record sink and the
    /// tenant's predictor, and either retires the instance or schedules its
    /// retry.
    fn complete(&mut self, now: f64, run: RunningAttempt) {
        let sized = run.task.run;
        self.cluster.release(
            crate::cluster::Placement { node: run.node },
            sized.allocation_bytes,
        );
        self.makespan = self.makespan.max(now);
        let ti = run.task.tenant;
        let key = (ti, run.task.instance);
        // The entry leaves the map here and goes back only for a retry, so a
        // terminal attempt costs one search.
        let mut entry = self
            .inflight
            .remove(&key)
            .expect("completed task is in flight");
        let record = sized.record(
            &entry.instance,
            &self.workflows[ti],
            run.concurrent_at_start as u32,
            run.start_time - run.submit_time,
        );
        self.records.record(&record);
        self.tenants[ti].predictor.observe(&record);
        let next_attempt = run.task.attempt + 1;
        if !sized.success && next_attempt < self.config.max_attempts {
            if entry.retry_from.replace(sized.allocation_bytes).is_none() {
                self.retrying += 1;
                self.stats.peak_inflight_retries =
                    self.stats.peak_inflight_retries.max(self.retrying);
            }
            self.inflight.insert(key, entry);
            self.events.push(
                now,
                Event::Submit {
                    tenant: ti,
                    instance: run.task.instance,
                    attempt: next_attempt,
                },
            );
        } else {
            // Terminal, by success or by an exhausted attempt budget: the
            // in-flight entry has left the working set, and its retry
            // baseline with it — a stranded entry is a leak that grows with
            // the workload.
            if entry.retry_from.is_some() {
                self.retrying -= 1;
            }
            self.aggs[ti].observe_instance(sized.success);
        }
    }

    /// Applies one fault action at virtual time `now`. Killed attempts have
    /// their resources released and are requeued as Submit events at `now`
    /// with an **unchanged** attempt number; the in-flight entry's retry
    /// baseline is deliberately left untouched, so a fault kill neither
    /// consumes attempt budget nor looks like an OOM to the predictors.
    fn apply_fault(&mut self, action: FaultAction, now: f64) {
        let (killed, cause) = match action {
            FaultAction::NodeDown { node, cause } => {
                self.cluster.set_offline(node, true);
                (self.running.drain_node(node), Some(cause))
            }
            FaultAction::NodeUp { node } => {
                self.cluster.set_offline(node, false);
                (Vec::new(), None)
            }
            FaultAction::KillTasks { tasks } => (self.running.drain_oldest(tasks), None),
        };
        for run in killed {
            self.cluster.release(
                crate::cluster::Placement { node: run.node },
                run.task.run.allocation_bytes,
            );
            self.events.push(
                now,
                Event::Submit {
                    tenant: run.task.tenant,
                    instance: run.task.instance,
                    attempt: run.task.attempt,
                },
            );
            self.stats.requeued_attempts += 1;
            match cause {
                Some(FaultCause::Crash) => self.stats.crash_lost_attempts += 1,
                Some(FaultCause::Preemption) => self.stats.preempted_attempts += 1,
                None => {}
            }
        }
    }
}

/// Sizes attempt `attempt` of an in-flight instance with its tenant's
/// predictor.
fn size_attempt(
    tenant: &StreamingTenant,
    entry: &InFlight,
    attempt: u32,
    largest_node_bytes: f64,
    time_to_failure: f64,
) -> Attempt {
    let ctx = AttemptContext {
        attempt,
        last_allocation_bytes: entry.retry_from,
    };
    let prediction = tenant
        .predictor
        .predict(&TaskSubmission::from(&entry.instance), ctx);
    Attempt::size(
        &entry.instance,
        &prediction,
        largest_node_bytes,
        time_to_failure,
    )
}

/// Replays several workflows **concurrently** against one shared cluster.
///
/// Tenants submit their task instances over virtual time (offset plus
/// [`SimulationConfig::submit_interval_seconds`] between consecutive
/// instances; simultaneous arrivals interleave round-robin). Each attempt is
/// sized by its tenant's predictor at submission, waits in the pending queue
/// until the scheduling policy grants it a node, runs, and feeds its
/// provenance record (including the experienced queue delay) back to the
/// predictor at completion. Failed attempts are resubmitted until they
/// succeed or exhaust [`SimulationConfig::max_attempts`].
///
/// Because allocations are fixed at submission, online methods only benefit
/// from completions that happen *before* a task arrives: with the default
/// `submit_interval_seconds = 0.0` every first attempt is sized cold. Spread
/// arrivals with a positive interval to replay an online-learning scenario.
///
/// This is the entry point for contention studies: memory over-allocation by
/// one tenant delays every tenant's start times and stretches the shared
/// makespan. It runs the same engine as [`schedule_workflows_streaming`]
/// and returns the same report, but also keeps every tenant's attempt
/// events in its [`ReplayReport::events`]; use the streaming entry point
/// when the workload or its event trace should not be held in memory.
///
/// # Panics
///
/// Panics when the config describes no node, or when a tenant's
/// `arrival_offset_seconds` is NaN or infinite (the message names the
/// tenant).
///
/// ```
/// use sizey_sim::{schedule_workflows, PresetPredictor, SimulationConfig, WorkflowTenant};
/// use sizey_workflows::{generate_workflow, profiles, GeneratorConfig};
///
/// let make = |seed| generate_workflow(&profiles::iwd(), &GeneratorConfig::scaled(0.02, seed));
/// let tenants = vec![
///     WorkflowTenant::new("iwd-a", make(1), Box::new(PresetPredictor)),
///     WorkflowTenant::new("iwd-b", make(2), Box::new(PresetPredictor))
///         .with_arrival_offset(1800.0),
/// ];
/// let result = schedule_workflows(tenants, &SimulationConfig::default());
/// assert_eq!(result.reports.len(), 2);
/// assert!(result.makespan_seconds > 1800.0);
/// assert_eq!(result.stats.forced_placements, 0);
/// let attempts = result.reports[0].events.len() as u64;
/// assert_eq!(result.reports[0].aggregates.attempts, attempts);
/// ```
pub fn schedule_workflows(
    tenants: Vec<WorkflowTenant>,
    config: &SimulationConfig,
) -> MultiReplayReport {
    let mut events: Vec<Vec<AttemptEvent>> = tenants.iter().map(|_| Vec::new()).collect();
    let mut result = Engine::new(
        tenants.into_iter().map(StreamingTenant::from).collect(),
        config,
        &mut NullRecordSink,
        |ti, event| events[ti].push(event),
    )
    .run();
    for (report, events) in result.reports.iter_mut().zip(events) {
        report.events = events;
    }
    result
}

/// Replays several workflows concurrently against one shared cluster,
/// **streaming**: task instances are pulled from each tenant's iterator as
/// virtual time reaches their arrival, held only while in flight, and
/// dropped at their terminal state. Attempt events fold into each tenant's
/// [`ReplayAggregates`] online and are offered to `sink`, not kept in the
/// reports (their `events` are empty); finished provenance records (the
/// exact records fed to `observe`) are offered to `records`. With
/// [`NullSink`](crate::NullSink) / [`NullRecordSink`] the engine's memory is
/// bounded by the in-flight working set, independent of total workload size.
///
/// This is the same engine as [`schedule_workflows`], which also keeps the
/// events per tenant: for the same workload both entry points make the same
/// scheduling decisions and return equal aggregates, and `sink` sees, in
/// dispatch order, exactly the events that the materialised reports hold.
///
/// # Panics
///
/// Panics when the config describes no node, or when a tenant's
/// `arrival_offset_seconds` is NaN or infinite (the message names the
/// tenant).
///
/// ```
/// use sizey_sim::{
///     schedule_workflows_streaming, NullRecordSink, NullSink, PresetPredictor,
///     SimulationConfig, StreamingTenant,
/// };
/// use sizey_workflows::{profiles, stream_workflow, GeneratorConfig};
///
/// let make = |seed| stream_workflow(&profiles::iwd(), &GeneratorConfig::scaled(0.02, seed));
/// let tenants = vec![
///     StreamingTenant::new("iwd-a", make(1), Box::new(PresetPredictor)),
///     StreamingTenant::new("iwd-b", make(2), Box::new(PresetPredictor))
///         .with_arrival_offset(1800.0),
/// ];
/// let result = schedule_workflows_streaming(
///     tenants,
///     &SimulationConfig::default(),
///     &mut NullSink,
///     &mut NullRecordSink,
/// );
/// assert_eq!(result.reports.len(), 2);
/// assert!(result.reports[0].events.is_empty());
/// assert_eq!(result.reports[0].aggregates.unfinished_instances, 0);
/// assert_eq!(result.leaked_inflight_instances, 0);
/// assert_eq!(result.stats.forced_placements, 0);
/// ```
pub fn schedule_workflows_streaming(
    tenants: Vec<StreamingTenant>,
    config: &SimulationConfig,
    sink: &mut dyn AttemptSink,
    records: &mut dyn RecordSink,
) -> MultiReplayReport {
    Engine::new(tenants, config, records, |_, event| sink.record(&event)).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{Prediction, PresetPredictor};
    use sizey_provenance::{MachineId, TaskRecord, TaskTypeId};

    fn instance(seq: u64, peak: f64, runtime: f64, preset: f64) -> TaskInstance {
        TaskInstance {
            workflow: "wf".into(),
            task_type: TaskTypeId::new("t"),
            machine: MachineId::new("m"),
            sequence: seq,
            input_bytes: 1e9,
            true_peak_bytes: peak,
            base_runtime_seconds: runtime,
            preset_memory_bytes: preset,
            cpu_utilization_pct: 100.0,
            io_read_bytes: 1e9,
            io_write_bytes: 1e9,
        }
    }

    fn tiny_cluster(policy: SchedulePolicy) -> SimulationConfig {
        // One node, 10 GB, 2 slots: contention is easy to provoke.
        SimulationConfig::default()
            .with_nodes(1, 10e9, 2)
            .with_policy(policy)
    }

    #[test]
    fn schedule_workflows_single_tenant_completes_everything() {
        let instances: Vec<TaskInstance> = (0..10).map(|i| instance(i, 1e9, 60.0, 2e9)).collect();
        let result = schedule_workflows(
            vec![WorkflowTenant::new(
                "wf",
                instances,
                Box::new(PresetPredictor),
            )],
            &tiny_cluster(SchedulePolicy::FirstFit),
        );
        let report = &result.reports[0];
        assert_eq!(report.aggregates.instances, 10);
        assert_eq!(report.instances, 10);
        assert_eq!(report.aggregates.unfinished_instances, 0);
        assert_eq!(report.total_failures(), 0);
        // 2 GB each on a 10 GB node with 2 slots: 2 at a time, 5 waves.
        assert_eq!(result.makespan_seconds, 300.0);
        assert_eq!(result.stats.forced_placements, 0);
        assert!(result.stats.total_queue_delay_seconds > 0.0);
    }

    #[test]
    fn retries_run_through_the_shared_queue() {
        // Peak 7 GB, preset 2 GB: attempts 2 (fail), 4 (fail), 8 (success).
        let result = schedule_workflows(
            vec![WorkflowTenant::new(
                "wf",
                vec![instance(0, 7e9, 100.0, 2e9)],
                Box::new(PresetPredictor),
            )],
            &tiny_cluster(SchedulePolicy::FirstFit),
        );
        let report = &result.reports[0];
        assert_eq!(report.events.len(), 3);
        assert_eq!(report.total_failures(), 2);
        assert_eq!(report.aggregates.unfinished_instances, 0);
        // Attempts run back to back on the virtual clock.
        assert_eq!(result.makespan_seconds, 300.0);
    }

    #[test]
    fn exhausted_retries_are_reported_unfinished() {
        let config = SimulationConfig {
            max_attempts: 2,
            ..tiny_cluster(SchedulePolicy::FirstFit)
        };
        // Peak beyond the node: clamped attempts can never succeed.
        let result = schedule_workflows(
            vec![WorkflowTenant::new(
                "wf",
                vec![instance(0, 50e9, 10.0, 1e9)],
                Box::new(PresetPredictor),
            )],
            &config,
        );
        assert_eq!(result.reports[0].aggregates.unfinished_instances, 1);
        assert_eq!(result.reports[0].events.len(), 2);
        assert_eq!(result.stats.forced_placements, 0);
    }

    #[test]
    fn tenants_share_the_cluster_and_interleave() {
        let a: Vec<TaskInstance> = (0..4).map(|i| instance(i, 1e9, 100.0, 4e9)).collect();
        let b: Vec<TaskInstance> = (0..4).map(|i| instance(i, 1e9, 100.0, 4e9)).collect();
        let result = schedule_workflows(
            vec![
                WorkflowTenant::new("a", a, Box::new(PresetPredictor)),
                WorkflowTenant::new("b", b, Box::new(PresetPredictor)),
            ],
            &tiny_cluster(SchedulePolicy::FirstFit),
        );
        assert_eq!(result.reports.len(), 2);
        // 8 tasks × 4 GB on a 10 GB / 2-slot node: 2 at a time, 4 waves.
        assert_eq!(result.makespan_seconds, 400.0);
        // Round-robin arrival: both tenants run one task in the first wave.
        let first_a = result.reports[0].events[0].submit_time_seconds;
        let first_b = result.reports[1].events[0].submit_time_seconds;
        assert_eq!(first_a, 0.0);
        assert_eq!(first_b, 0.0);
    }

    #[test]
    fn overallocating_tenant_delays_the_other() {
        // Tenant "hog" requests the whole node per task; tenant "lean"
        // requests a sliver. With the hog present, lean's tasks queue.
        let hog: Vec<TaskInstance> = (0..3).map(|i| instance(i, 1e9, 100.0, 10e9)).collect();
        let lean: Vec<TaskInstance> = (0..3).map(|i| instance(i, 1e9, 100.0, 1e9)).collect();
        let both = schedule_workflows(
            vec![
                WorkflowTenant::new("hog", hog, Box::new(PresetPredictor)),
                WorkflowTenant::new("lean", lean.clone(), Box::new(PresetPredictor)),
            ],
            &tiny_cluster(SchedulePolicy::FirstFit),
        );
        let alone = schedule_workflows(
            vec![WorkflowTenant::new("lean", lean, Box::new(PresetPredictor))],
            &tiny_cluster(SchedulePolicy::FirstFit),
        );
        let lean_delay_with_hog = both.reports[1].aggregates.total_queue_delay_seconds;
        let lean_delay_alone = alone.reports[0].aggregates.total_queue_delay_seconds;
        assert!(
            lean_delay_with_hog > lean_delay_alone,
            "over-allocation must cost the co-tenant queue delay \
             ({lean_delay_with_hog} vs {lean_delay_alone})"
        );
    }

    #[test]
    fn backfill_reduces_makespan_when_head_blocks() {
        // Head-of-line blocking: an 8 GB task occupies the node, another
        // 8 GB task blocks the queue head, and a 1 GB / 150 s sliver behind
        // it fits right now. FIFO makes the sliver wait for the head;
        // backfill starts it immediately.
        let mk = || {
            vec![
                instance(0, 1e9, 100.0, 8e9),
                instance(1, 1e9, 100.0, 8e9),
                instance(2, 1e9, 150.0, 1e9),
            ]
        };
        let fifo = schedule_workflows(
            vec![WorkflowTenant::new("wf", mk(), Box::new(PresetPredictor))],
            &tiny_cluster(SchedulePolicy::FirstFit),
        );
        let backfill = schedule_workflows(
            vec![WorkflowTenant::new("wf", mk(), Box::new(PresetPredictor))],
            &tiny_cluster(SchedulePolicy::Backfill),
        );
        // FIFO: sliver starts at 100 → makespan 250. Backfill: sliver runs
        // 0–150 alongside, makespan 200 (second 8 GB task 100–200).
        assert_eq!(fifo.makespan_seconds, 250.0);
        assert_eq!(backfill.makespan_seconds, 200.0);
    }

    #[test]
    fn queue_delay_reaches_the_predictor_and_the_report() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        /// Forwards the observed queue delays out of the consumed predictor.
        struct DelayProbe {
            total_millis: Arc<AtomicU64>,
        }
        impl MemoryPredictor for DelayProbe {
            fn name(&self) -> String {
                "probe".into()
            }
            fn predict(&self, _t: &TaskSubmission, _ctx: AttemptContext) -> Prediction {
                Prediction::simple(8e9)
            }
            fn observe(&mut self, record: &TaskRecord) {
                self.total_millis.fetch_add(
                    (record.queue_delay_seconds * 1000.0) as u64,
                    Ordering::Relaxed,
                );
            }
        }

        // Two 8 GB tasks on a 10 GB node: the second waits 100 s.
        let instances = vec![instance(0, 1e9, 100.0, 8e9), instance(1, 1e9, 100.0, 8e9)];
        let total_millis = Arc::new(AtomicU64::new(0));
        let result = schedule_workflows(
            vec![WorkflowTenant::new(
                "wf",
                instances,
                Box::new(DelayProbe {
                    total_millis: Arc::clone(&total_millis),
                }),
            )],
            &tiny_cluster(SchedulePolicy::FirstFit),
        );
        assert_eq!(total_millis.load(Ordering::Relaxed), 100_000);
        assert_eq!(result.stats.total_queue_delay_seconds, 100.0);
        assert_eq!(
            result.reports[0].aggregates.total_queue_delay_seconds,
            100.0
        );
    }

    #[test]
    fn streaming_engine_evicts_terminally_failed_instances() {
        use crate::accounting::{NullRecordSink, NullSink};

        let config = SimulationConfig {
            max_attempts: 2,
            ..tiny_cluster(SchedulePolicy::FirstFit)
        };
        // Peak beyond the node: clamped attempts can never succeed, so every
        // instance exhausts its budget — the path that used to strand
        // in-flight state.
        let instances: Vec<TaskInstance> = (0..5).map(|i| instance(i, 50e9, 10.0, 1e9)).collect();
        let result = schedule_workflows_streaming(
            vec![StreamingTenant::new(
                "wf",
                instances.into_iter(),
                Box::new(PresetPredictor),
            )],
            &config,
            &mut NullSink,
            &mut NullRecordSink,
        );
        assert_eq!(result.reports[0].aggregates.unfinished_instances, 5);
        assert_eq!(result.leaked_inflight_instances, 0);
        assert_eq!(result.stats.leaked_inflight_retries, 0);
        assert!(result.peak_inflight_instances >= 1);
    }

    #[test]
    fn node_crash_requeues_running_attempts_without_consuming_budget() {
        use crate::faults::{FaultPlan, NodeCrash};

        // 6 identical tasks on a 2-slot node: two run at a time. The node
        // crashes at t = 50 (mid-run) and returns at t = 75.
        let instances: Vec<TaskInstance> = (0..6).map(|i| instance(i, 1e9, 100.0, 2e9)).collect();
        let config = tiny_cluster(SchedulePolicy::FirstFit).with_faults(
            FaultPlan::default().with_node_crash(NodeCrash {
                time_seconds: 50.0,
                node: 0,
                down_seconds: 25.0,
            }),
        );
        let result = schedule_workflows(
            vec![WorkflowTenant::new(
                "wf",
                instances,
                Box::new(PresetPredictor),
            )],
            &config,
        );
        let report = &result.reports[0];
        assert_eq!(report.aggregates.unfinished_instances, 0);
        assert_eq!(result.stats.requeued_attempts, 2);
        assert_eq!(result.stats.crash_lost_attempts, 2);
        assert_eq!(result.stats.preempted_attempts, 0);
        assert_eq!(result.stats.leaked_inflight_retries, 0);
        assert_eq!(result.stats.forced_placements, 0);
        // A fault kill is not an OOM: every attempt event (including the
        // two re-dispatches of the killed attempts) carries attempt == 0.
        assert_eq!(report.events.len(), 8);
        assert!(report.events.iter().all(|e| e.attempt == 0));
        // Queue [2,3,4,5,0,1] drains in 2-slot batches from the node's
        // return at 75: completions at 175, 275, 375.
        assert_eq!(result.makespan_seconds, 375.0);
    }

    #[test]
    fn fault_killed_retry_keeps_its_baseline() {
        use crate::faults::{FaultPlan, NodeCrash, TaskKillBurst};
        use std::sync::{Arc, Mutex};

        /// Doubles the preset per attempt and records every context it sees.
        struct Recorder {
            seen: Arc<Mutex<Vec<AttemptContext>>>,
        }
        impl MemoryPredictor for Recorder {
            fn name(&self) -> String {
                "recorder".into()
            }
            fn predict(&self, task: &TaskSubmission, ctx: AttemptContext) -> Prediction {
                self.seen.lock().unwrap().push(ctx);
                Prediction::simple(task.preset_memory_bytes * 2f64.powi(ctx.attempt as i32))
            }
            fn observe(&mut self, _record: &TaskRecord) {}
        }

        // Peak 3 GB, preset 2 GB: attempt 0 (2 GB) fails at t = 100, and its
        // retry (4 GB) runs from t = 100 until a fault kills it at t = 150.
        let plans = [
            FaultPlan::default().with_task_kills(TaskKillBurst {
                time_seconds: 150.0,
                tasks: 1,
            }),
            FaultPlan::default().with_node_crash(NodeCrash {
                time_seconds: 150.0,
                node: 0,
                down_seconds: 10.0,
            }),
        ];
        for plan in plans {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let result = schedule_workflows(
                vec![WorkflowTenant::new(
                    "wf",
                    vec![instance(0, 3e9, 100.0, 2e9)],
                    Box::new(Recorder {
                        seen: Arc::clone(&seen),
                    }),
                )],
                &tiny_cluster(SchedulePolicy::FirstFit).with_faults(plan),
            );
            assert_eq!(result.stats.requeued_attempts, 1);
            let attempts: Vec<u32> = result.reports[0].events.iter().map(|e| e.attempt).collect();
            assert_eq!(attempts, [0, 1, 1], "the requeue keeps its attempt number");
            let retry = AttemptContext {
                attempt: 1,
                last_allocation_bytes: Some(2e9),
            };
            assert_eq!(
                *seen.lock().unwrap(),
                [AttemptContext::default(), retry, retry],
                "the requeued retry escalates from the failed attempt's allocation"
            );
            assert_eq!(result.reports[0].aggregates.unfinished_instances, 0);
            assert_eq!(result.stats.peak_inflight_retries, 1);
            assert_eq!(result.stats.leaked_inflight_retries, 0);
        }
    }

    #[test]
    fn pool_preemption_requeues_onto_surviving_capacity() {
        use crate::faults::{FaultPlan, PoolPreemption};

        // Pool 0: two 1-slot nodes (ids 0, 1); pool 1: one 1-slot node (2).
        let config = SimulationConfig::default()
            .with_nodes(2, 10e9, 1)
            .with_extra_pool(crate::config::NodePoolSpec {
                count: 1,
                memory_bytes: 10e9,
                slots: 1,
            })
            .with_faults(FaultPlan::default().with_pool_preemption(PoolPreemption {
                pool: 0,
                time_seconds: 50.0,
                return_after_seconds: 200.0,
            }));
        let instances: Vec<TaskInstance> = (0..4).map(|i| instance(i, 1e9, 100.0, 2e9)).collect();
        let result = schedule_workflows(
            vec![WorkflowTenant::new(
                "wf",
                instances,
                Box::new(PresetPredictor),
            )],
            &config,
        );
        assert_eq!(result.reports[0].aggregates.unfinished_instances, 0);
        assert_eq!(result.stats.preempted_attempts, 2);
        assert_eq!(result.stats.crash_lost_attempts, 0);
        assert_eq!(result.stats.requeued_attempts, 2);
        assert_eq!(result.stats.forced_placements, 0);
        assert_eq!(result.stats.leaked_inflight_retries, 0);
    }

    #[test]
    fn task_kill_burst_requeues_the_oldest_running_attempt() {
        use crate::faults::{FaultPlan, TaskKillBurst};

        let instances: Vec<TaskInstance> = (0..3).map(|i| instance(i, 1e9, 100.0, 2e9)).collect();
        let config = tiny_cluster(SchedulePolicy::FirstFit).with_faults(
            FaultPlan::default().with_task_kills(TaskKillBurst {
                time_seconds: 50.0,
                tasks: 1,
            }),
        );
        let result = schedule_workflows(
            vec![WorkflowTenant::new(
                "wf",
                instances,
                Box::new(PresetPredictor),
            )],
            &config,
        );
        assert_eq!(result.reports[0].aggregates.unfinished_instances, 0);
        assert_eq!(result.stats.requeued_attempts, 1);
        assert_eq!(result.stats.crash_lost_attempts, 0);
        assert_eq!(result.stats.preempted_attempts, 0);
        assert_eq!(result.stats.leaked_inflight_retries, 0);
    }

    #[test]
    fn permanent_crash_storm_strands_no_tasks() {
        use crate::faults::{CrashStorm, FaultPlan};

        // Every node goes down forever mid-run. Capacity-liveness: the
        // forced-placement guard still drives every task to a terminal
        // state, and no retry baseline leaks.
        let instances: Vec<TaskInstance> = (0..6).map(|i| instance(i, 1e9, 100.0, 4e9)).collect();
        let config = SimulationConfig::default()
            .with_nodes(2, 10e9, 2)
            .with_faults(FaultPlan::default().with_storm(CrashStorm {
                time_seconds: 50.0,
                nodes: 2,
                down_seconds: f64::INFINITY,
                seed: 3,
            }));
        let result = schedule_workflows(
            vec![WorkflowTenant::new(
                "wf",
                instances,
                Box::new(PresetPredictor),
            )],
            &config,
        );
        assert_eq!(result.reports[0].aggregates.unfinished_instances, 0);
        assert_eq!(result.stats.requeued_attempts, 4);
        assert_eq!(result.stats.crash_lost_attempts, 4);
        assert_eq!(result.stats.forced_placements, 6);
        assert_eq!(result.stats.leaked_inflight_retries, 0);
    }

    #[test]
    #[should_panic(expected = "tenant `late`: arrival_offset_seconds must be finite, found NaN")]
    fn nan_arrival_offset_is_refused() {
        let mut tenant = WorkflowTenant::new(
            "late",
            vec![instance(0, 1e9, 60.0, 2e9)],
            Box::new(PresetPredictor),
        );
        // Set the public field directly: the engine is the guard.
        tenant.arrival_offset_seconds = f64::NAN;
        schedule_workflows(
            vec![
                WorkflowTenant::new("wf", vec![], Box::new(PresetPredictor)),
                tenant,
            ],
            &tiny_cluster(SchedulePolicy::FirstFit),
        );
    }

    #[test]
    #[should_panic(expected = "tenant `late`: arrival_offset_seconds must be finite, found inf")]
    fn infinite_arrival_offset_is_refused() {
        let _ = StreamingTenant::new("late", std::iter::empty(), Box::new(PresetPredictor))
            .with_arrival_offset(f64::INFINITY);
    }

    #[test]
    fn negative_arrival_offset_is_allowed() {
        let result = schedule_workflows(
            vec![WorkflowTenant::new(
                "early",
                vec![instance(0, 1e9, 60.0, 2e9)],
                Box::new(PresetPredictor),
            )
            .with_arrival_offset(-30.0)],
            &tiny_cluster(SchedulePolicy::FirstFit),
        );
        assert_eq!(result.reports[0].events[0].submit_time_seconds, -30.0);
        assert_eq!(result.makespan_seconds, 30.0);
    }

    #[test]
    fn per_node_peaks_never_exceed_capacity() {
        let instances: Vec<TaskInstance> = (0..30).map(|i| instance(i, 3e9, 50.0, 4e9)).collect();
        let result = schedule_workflows(
            vec![WorkflowTenant::new(
                "wf",
                instances,
                Box::new(PresetPredictor),
            )],
            &SimulationConfig::default()
                .with_nodes(2, 10e9, 4)
                .with_policy(SchedulePolicy::BestFit),
        );
        for node in &result.nodes {
            assert!(node.peak_allocated_bytes <= node.memory_bytes * (1.0 + 1e-9));
            assert!(node.peak_used_slots <= node.slots);
        }
        assert_eq!(result.stats.forced_placements, 0);
    }
}
