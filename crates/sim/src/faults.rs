//! Deterministic fault injection for the event-driven engine.
//!
//! Real clusters lose nodes, have whole spot pools reclaimed, and kill tasks
//! for reasons that have nothing to do with memory sizing. A [`FaultPlan`]
//! describes such a scenario declaratively — single node crashes, correlated
//! crash *storms*, spot-pool preemptions and targeted task kills — and is
//! compiled against a [`SimulationConfig`] into a sorted schedule of concrete
//! [`FaultEvent`]s driven by the engine's virtual clock.
//!
//! # Determinism contract
//!
//! Everything is a pure function of the plan, the cluster shape and the
//! per-storm seeds: compiling the same plan against the same config always
//! yields the same event schedule, and the event-driven engine applies it
//! the same way from both of its entry points
//! ([`schedule_workflows`](crate::schedule_workflows) and
//! [`schedule_workflows_streaming`](crate::schedule_workflows_streaming)) —
//! the fault-determinism property suite pins replays bit-identical across
//! runs and across entry points for every policy.
//!
//! # Requeue semantics
//!
//! A fault kills the *attempt*, not the task: every running attempt on a
//! failed node re-enters the pending queue at the same virtual time with an
//! **unchanged attempt number** and an untouched retry baseline. A
//! fault-requeued attempt is therefore *not* an OOM failure — it does not
//! consume [`SimulationConfig::max_attempts`] budget and does not trigger
//! the predictors' max-then-double escalation.

// Fault events fire inside the engine's event loop; the marker opts this
// module into the no-panic-hot-path lint rule.
#![doc = "lint:hot-path"]

use crate::config::SimulationConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One node going down at a point in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCrash {
    /// Virtual time of the crash in seconds.
    pub time_seconds: f64,
    /// Index of the crashing node (out-of-range indices are ignored).
    pub node: usize,
    /// How long the node stays down; `f64::INFINITY` means it never returns.
    pub down_seconds: f64,
}

/// A correlated burst of node crashes (rack/power-domain failure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashStorm {
    /// Virtual time of the storm in seconds.
    pub time_seconds: f64,
    /// Number of distinct nodes taken down (capped at the cluster size).
    pub nodes: usize,
    /// How long the victims stay down; `f64::INFINITY` means forever.
    pub down_seconds: f64,
    /// Seed selecting the victim nodes — the storm is deterministic given
    /// the seed and the cluster shape.
    pub seed: u64,
}

/// A whole node pool reclaimed at once (spot/preemptible capacity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolPreemption {
    /// Index into [`SimulationConfig::node_pools`]: `0` is the default pool,
    /// `1..` the extra pools in declaration order (out-of-range ignored).
    pub pool: usize,
    /// Virtual time of the reclaim in seconds.
    pub time_seconds: f64,
    /// Seconds until the pool's nodes return; `f64::INFINITY` means never.
    pub return_after_seconds: f64,
}

/// A burst of transient task kills (e.g. an external supervisor reaping the
/// oldest running attempts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskKillBurst {
    /// Virtual time of the burst in seconds.
    pub time_seconds: f64,
    /// Number of running attempts killed, oldest dispatch first.
    pub tasks: usize,
}

/// A declarative fault-injection scenario for one simulation run.
///
/// Attach it to a config via [`SimulationConfig::with_faults`]; the engine
/// compiles it once at start-up and the default empty plan is bit-identical
/// to running without one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Single node crashes.
    pub node_crashes: Vec<NodeCrash>,
    /// Correlated crash storms.
    pub storms: Vec<CrashStorm>,
    /// Spot-pool preemptions.
    pub pool_preemptions: Vec<PoolPreemption>,
    /// Transient task-kill bursts.
    pub task_kills: Vec<TaskKillBurst>,
}

/// Why a node went down — reported separately in
/// [`SchedulerStats`](crate::SchedulerStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCause {
    /// A crash (single or storm).
    Crash,
    /// A spot-pool reclaim.
    Preemption,
}

/// Why [`FaultPlan::compile`] would skip an entry: the offending key (named
/// as in the experiment-spec fault tables) and what is wrong with it.
type FaultDefect = (&'static str, String);

/// A fault fires at a finite, non-negative virtual time.
fn check_time(time: f64) -> Result<(), FaultDefect> {
    if time.is_finite() && time >= 0.0 {
        Ok(())
    } else {
        let message = format!("expected a finite, non-negative time, found {time}");
        Err(("time_seconds", message))
    }
}

/// An index must name one of `count` nodes or pools.
fn check_index(key: &'static str, index: usize, count: usize) -> Result<(), FaultDefect> {
    if index < count {
        Ok(())
    } else {
        let message = format!("expected an index below {count}, found {index}");
        Err((key, message))
    }
}

/// A storm or kill burst must affect at least one node or task.
fn check_positive(key: &'static str, n: usize) -> Result<(), FaultDefect> {
    if n > 0 {
        Ok(())
    } else {
        Err((key, "expected at least 1, found 0".to_string()))
    }
}

impl NodeCrash {
    fn check(&self, node_count: usize) -> Result<(), FaultDefect> {
        check_time(self.time_seconds)?;
        check_index("node", self.node, node_count)
    }
}

impl CrashStorm {
    fn check(&self) -> Result<(), FaultDefect> {
        check_time(self.time_seconds)?;
        check_positive("nodes", self.nodes)
    }
}

impl PoolPreemption {
    fn check(&self, pool_count: usize) -> Result<(), FaultDefect> {
        check_time(self.time_seconds)?;
        check_index("pool", self.pool, pool_count)
    }
}

impl TaskKillBurst {
    fn check(&self) -> Result<(), FaultDefect> {
        check_time(self.time_seconds)?;
        check_positive("tasks", self.tasks)
    }
}

/// A concrete action the engine applies at a fault event's time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Take a node offline, requeueing every attempt running on it.
    NodeDown {
        /// Node index.
        node: usize,
        /// Crash or preemption (drives the stats counters).
        cause: FaultCause,
    },
    /// Bring a node back online.
    NodeUp {
        /// Node index.
        node: usize,
    },
    /// Kill the `tasks` oldest running attempts and requeue them.
    KillTasks {
        /// Number of attempts to kill.
        tasks: usize,
    },
}

/// One compiled fault event on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time at which the action fires, in seconds.
    pub time_seconds: f64,
    /// What happens.
    pub action: FaultAction,
}

impl FaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.node_crashes.is_empty()
            && self.storms.is_empty()
            && self.pool_preemptions.is_empty()
            && self.task_kills.is_empty()
    }

    /// Adds a single node crash.
    pub fn with_node_crash(mut self, crash: NodeCrash) -> Self {
        self.node_crashes.push(crash);
        self
    }

    /// Adds a correlated crash storm.
    pub fn with_storm(mut self, storm: CrashStorm) -> Self {
        self.storms.push(storm);
        self
    }

    /// Adds a spot-pool preemption.
    pub fn with_pool_preemption(mut self, preemption: PoolPreemption) -> Self {
        self.pool_preemptions.push(preemption);
        self
    }

    /// Adds a transient task-kill burst.
    pub fn with_task_kills(mut self, burst: TaskKillBurst) -> Self {
        self.task_kills.push(burst);
        self
    }

    /// Checks every entry against the cluster described by `config`,
    /// returning the first one [`compile`](FaultPlan::compile) would skip as
    /// `(table, key, what is wrong)`, with the table named as in an
    /// experiment spec (`[[node_crash]]` etc.). An entry is skipped when its
    /// time is negative or not finite, its `node` or `pool` lies outside the
    /// cluster, or a storm's `nodes` or a burst's `tasks` is zero.
    pub fn validate(
        &self,
        config: &SimulationConfig,
    ) -> Result<(), (&'static str, &'static str, String)> {
        let pools = config.node_pools();
        let node_count: usize = pools.iter().map(|p| p.count).sum();
        let in_table = |table| move |(key, message)| (table, key, message);
        for crash in &self.node_crashes {
            crash
                .check(node_count)
                .map_err(in_table("[[node_crash]]"))?;
        }
        for storm in &self.storms {
            storm.check().map_err(in_table("[[crash_storm]]"))?;
        }
        for preemption in &self.pool_preemptions {
            let check = preemption.check(pools.len());
            check.map_err(in_table("[[pool_preemption]]"))?;
        }
        for burst in &self.task_kills {
            burst.check().map_err(in_table("[[task_kill]]"))?;
        }
        Ok(())
    }

    /// Compiles the plan into a time-sorted schedule of concrete events for
    /// the cluster described by `config`.
    ///
    /// * Storm victims are drawn with a [`StdRng`] seeded from the storm's
    ///   seed — distinct nodes, reported in ascending id order.
    /// * Pool preemptions resolve the pool index against
    ///   [`SimulationConfig::node_pools`] node-id ranges.
    /// * Entries that [`validate`](FaultPlan::validate) rejects are skipped
    ///   rather than panicking.
    /// * A finite non-negative downtime schedules the matching `NodeUp`;
    ///   an infinite one keeps the node down forever.
    ///
    /// The sort is stable, so events sharing a time fire in plan-declaration
    /// order (crashes, then storms, then preemptions, then kills).
    pub fn compile(&self, config: &SimulationConfig) -> Vec<FaultEvent> {
        let pools = config.node_pools();
        let node_count: usize = pools.iter().map(|p| p.count).sum();
        let mut out: Vec<FaultEvent> = Vec::new();

        let mut down_up = |time: f64, nodes: &[usize], down: f64, cause: FaultCause| {
            for &node in nodes {
                out.push(FaultEvent {
                    time_seconds: time,
                    action: FaultAction::NodeDown { node, cause },
                });
                let down = down.max(0.0);
                if down.is_finite() {
                    out.push(FaultEvent {
                        time_seconds: time + down,
                        action: FaultAction::NodeUp { node },
                    });
                }
            }
        };

        for crash in self
            .node_crashes
            .iter()
            .filter(|c| c.check(node_count).is_ok())
        {
            down_up(
                crash.time_seconds,
                &[crash.node],
                crash.down_seconds,
                FaultCause::Crash,
            );
        }
        for storm in self.storms.iter().filter(|s| s.check().is_ok()) {
            let mut ids: Vec<usize> = (0..node_count).collect();
            let mut rng = StdRng::seed_from_u64(storm.seed);
            ids.shuffle(&mut rng);
            ids.truncate(storm.nodes.min(node_count));
            ids.sort_unstable();
            down_up(
                storm.time_seconds,
                &ids,
                storm.down_seconds,
                FaultCause::Crash,
            );
        }
        let preemptions = self.pool_preemptions.iter();
        for preemption in preemptions.filter(|p| p.check(pools.len()).is_ok()) {
            let start: usize = pools.iter().take(preemption.pool).map(|p| p.count).sum();
            let count = pools.get(preemption.pool).map_or(0, |p| p.count);
            let range: Vec<usize> = (start..start + count).collect();
            down_up(
                preemption.time_seconds,
                &range,
                preemption.return_after_seconds,
                FaultCause::Preemption,
            );
        }
        for burst in self.task_kills.iter().filter(|k| k.check().is_ok()) {
            out.push(FaultEvent {
                time_seconds: burst.time_seconds,
                action: FaultAction::KillTasks { tasks: burst.tasks },
            });
        }

        out.sort_by(|a, b| a.time_seconds.total_cmp(&b.time_seconds));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SimulationConfig {
        SimulationConfig::default()
    }

    #[test]
    fn empty_plan_compiles_to_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(plan.compile(&config()).is_empty());
    }

    #[test]
    fn single_crash_schedules_down_and_up() {
        let plan = FaultPlan::default().with_node_crash(NodeCrash {
            time_seconds: 100.0,
            node: 3,
            down_seconds: 50.0,
        });
        let events = plan.compile(&config());
        assert_eq!(
            events,
            vec![
                FaultEvent {
                    time_seconds: 100.0,
                    action: FaultAction::NodeDown {
                        node: 3,
                        cause: FaultCause::Crash
                    },
                },
                FaultEvent {
                    time_seconds: 150.0,
                    action: FaultAction::NodeUp { node: 3 },
                },
            ]
        );
    }

    #[test]
    fn permanent_crash_never_schedules_node_up() {
        let plan = FaultPlan::default().with_node_crash(NodeCrash {
            time_seconds: 10.0,
            node: 0,
            down_seconds: f64::INFINITY,
        });
        let events = plan.compile(&config());
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].action, FaultAction::NodeDown { .. }));
    }

    #[test]
    fn storms_pick_distinct_nodes_deterministically() {
        let storm = CrashStorm {
            time_seconds: 500.0,
            nodes: 3,
            down_seconds: 100.0,
            seed: 7,
        };
        let plan = FaultPlan::default().with_storm(storm);
        let a = plan.compile(&config());
        let b = plan.compile(&config());
        assert_eq!(a, b, "storm compilation must be deterministic");
        let downs: Vec<usize> = a
            .iter()
            .filter_map(|e| match e.action {
                FaultAction::NodeDown { node, .. } => Some(node),
                _ => None,
            })
            .collect();
        assert_eq!(downs.len(), 3);
        let mut dedup = downs.clone();
        dedup.dedup();
        assert_eq!(dedup, downs, "victims must be distinct and sorted");
        assert!(downs.iter().all(|&n| n < 8));
        // A different seed picks a different victim set (with 8C3 = 56
        // possibilities the chance of collision across these seeds is tiny;
        // pinned by the fixed seeds).
        let other = FaultPlan::default()
            .with_storm(CrashStorm { seed: 8, ..storm })
            .compile(&config());
        assert_ne!(a, other);
    }

    #[test]
    fn storm_size_is_capped_at_the_cluster() {
        let plan = FaultPlan::default().with_storm(CrashStorm {
            time_seconds: 0.0,
            nodes: 100,
            down_seconds: 1.0,
            seed: 1,
        });
        let downs = plan
            .compile(&config())
            .iter()
            .filter(|e| matches!(e.action, FaultAction::NodeDown { .. }))
            .count();
        assert_eq!(downs, 8);
    }

    #[test]
    fn pool_preemption_reclaims_the_whole_pool_range() {
        let config = SimulationConfig::default().with_extra_pool(crate::config::NodePoolSpec {
            count: 2,
            memory_bytes: 256e9,
            slots: 16,
        });
        let plan = FaultPlan::default().with_pool_preemption(PoolPreemption {
            pool: 1,
            time_seconds: 200.0,
            return_after_seconds: 300.0,
        });
        let events = plan.compile(&config);
        // Default pool is 8 nodes, so the extra pool covers ids 8 and 9.
        let downs: Vec<usize> = events
            .iter()
            .filter_map(|e| match e.action {
                FaultAction::NodeDown { node, cause } => {
                    assert_eq!(cause, FaultCause::Preemption);
                    Some(node)
                }
                _ => None,
            })
            .collect();
        assert_eq!(downs, vec![8, 9]);
        let ups = events
            .iter()
            .filter(|e| matches!(e.action, FaultAction::NodeUp { .. }))
            .count();
        assert_eq!(ups, 2);
        // Out-of-range pools are ignored rather than panicking.
        let bogus = FaultPlan::default().with_pool_preemption(PoolPreemption {
            pool: 9,
            time_seconds: 0.0,
            return_after_seconds: 1.0,
        });
        assert!(bogus.compile(&config).is_empty());
    }

    #[test]
    fn invalid_targets_and_times_are_skipped() {
        let plan = FaultPlan::default()
            .with_node_crash(NodeCrash {
                time_seconds: 1.0,
                node: 99,
                down_seconds: 1.0,
            })
            .with_node_crash(NodeCrash {
                time_seconds: f64::NAN,
                node: 0,
                down_seconds: 1.0,
            })
            .with_node_crash(NodeCrash {
                time_seconds: -5.0,
                node: 0,
                down_seconds: 1.0,
            })
            .with_task_kills(TaskKillBurst {
                time_seconds: 3.0,
                tasks: 0,
            });
        assert!(plan.compile(&config()).is_empty());
        // `validate` names the first entry `compile` skipped.
        let (table, key, _) = plan.validate(&config()).unwrap_err();
        assert_eq!((table, key), ("[[node_crash]]", "node"));
        let kills_only = FaultPlan {
            task_kills: plan.task_kills.clone(),
            ..FaultPlan::default()
        };
        let (table, key, _) = kills_only.validate(&config()).unwrap_err();
        assert_eq!((table, key), ("[[task_kill]]", "tasks"));
        assert_eq!(FaultPlan::default().validate(&config()), Ok(()));
    }

    #[test]
    fn events_sort_by_time_with_stable_declaration_order() {
        let plan = FaultPlan::default()
            .with_node_crash(NodeCrash {
                time_seconds: 300.0,
                node: 1,
                down_seconds: f64::INFINITY,
            })
            .with_node_crash(NodeCrash {
                time_seconds: 100.0,
                node: 2,
                down_seconds: f64::INFINITY,
            })
            .with_task_kills(TaskKillBurst {
                time_seconds: 100.0,
                tasks: 4,
            });
        let events = plan.compile(&config());
        let times: Vec<f64> = events.iter().map(|e| e.time_seconds).collect();
        assert_eq!(times, vec![100.0, 100.0, 300.0]);
        // Same-time tie: the crash was declared before the kill burst.
        assert!(matches!(events[0].action, FaultAction::NodeDown { .. }));
        assert!(matches!(events[1].action, FaultAction::KillTasks { .. }));
    }
}
