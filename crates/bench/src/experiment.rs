//! The spec-driven experiment entry point.
//!
//! An [`ExperimentSpec`] is the single description of one evaluation run:
//! methods × workflow profiles × seeds × scheduling policies, plus the
//! simulated cluster. It can be
//!
//! * written in code as a struct literal over [`ExperimentSpec::default`],
//!   the paper's suite — every field is public
//!   (`ExperimentSpec { seeds: vec![3, 4], ..Default::default() }.run()`),
//! * loaded from a TOML file ([`ExperimentSpec::from_toml`] /
//!   [`from_toml_file`](ExperimentSpec::from_toml_file)) — the format the
//!   `experiment` binary consumes,
//! * serialised back out losslessly ([`ExperimentSpec::to_toml`]), which is
//!   how the `experiment` binary stamps its checkpoint directory with the
//!   exact spec that produced it.
//!
//! The spec is what the parallel [sweep runner](crate::sweep) executes:
//! [`run`](ExperimentSpec::run) validates it and returns one cell per
//! (profile, method, seed, policy), and
//! [`run_checkpointed`](ExperimentSpec::run_checkpointed) additionally hands
//! back each cell's trained-predictor checkpoint for warm starts.
//!
//! # Spec format
//!
//! ```toml
//! name = "smoke"
//! scale = 0.02              # fraction of the paper's task volume
//! seeds = [3, 4]
//! profiles = ["iwd"]        # workflow profiles (WORKFLOW_NAMES)
//! policies = ["first-fit"]  # scheduling policies
//!
//! [sim]                     # optional; defaults to the paper's cluster
//! time_to_failure = 1.0
//! max_attempts = 12
//!
//! [drift]                   # optional mid-run workload drift
//! changepoint = 200         # instance sequence where the regime changes
//! memory_scale = 2.0
//! slope_delta_bytes_per_input_byte = 1.5
//!
//! [[node_crash]]            # optional fault injection (event-driven engine)
//! time_seconds = 600.0
//! node = 0
//! down_seconds = inf
//!
//! [[crash_storm]]
//! time_seconds = 1200.0
//! nodes = 3
//! down_seconds = 900.0
//! seed = 7
//!
//! [[pool_preemption]]
//! pool = 1
//! time_seconds = 1800.0
//! return_after_seconds = 600.0
//!
//! [[task_kill]]
//! time_seconds = 300.0
//! tasks = 4
//!
//! [[method]]
//! kind = "sizey"            # any registry kind; omitted keys keep defaults
//! alpha = 0.0
//!
//! [[method]]
//! kind = "witt-percentile"  # the baselines take no parameters
//! ```
//!
//! Omitting `methods` entirely runs the paper's six-method suite; omitting
//! `profiles` runs all six workflows.

use crate::registry::{invalid, need_float, need_str, need_usize, MethodSpec, SpecError};
use crate::sweep::{run_sweep, run_sweep_with_states, SweepCell};
use crate::toml_lite::{write as toml_write, TomlDocument, TomlTable};
use sizey_sim::{
    CrashStorm, FaultPlan, NodeCrash, NodePoolSpec, PoolPreemption, PredictorState, SchedulePolicy,
    SimulationConfig, TaskKillBurst,
};
use sizey_workflows::DriftSpec;
use std::path::Path;

/// A complete experiment description; [`run`](ExperimentSpec::run) and the
/// TOML loader validate it. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Experiment name (used in banners and checkpoint directories).
    pub name: String,
    /// Sizing methods to compare.
    pub methods: Vec<MethodSpec>,
    /// Workflow profiles to replay (entries of
    /// [`sizey_workflows::WORKFLOW_NAMES`]).
    pub profiles: Vec<String>,
    /// Workload-generation seeds.
    pub seeds: Vec<u64>,
    /// Scheduling policies to compare.
    pub policies: Vec<SchedulePolicy>,
    /// Fraction of the paper's task volume to generate per workload.
    pub scale: f64,
    /// Optional mid-run workload drift applied to every workload; also turns
    /// on per-cell [`time_to_recover`](crate::recovery::RecoveryTracker)
    /// tracking. Parsed from the `[drift]` table.
    pub drift: Option<DriftSpec>,
    /// Simulated cluster configuration (the policy field is overridden per
    /// cell by `policies`). Fault injection rides in
    /// [`SimulationConfig::faults`], parsed from the `[[node_crash]]`,
    /// `[[crash_storm]]`, `[[pool_preemption]]` and `[[task_kill]]` tables.
    pub sim: SimulationConfig,
}

impl Default for ExperimentSpec {
    /// The paper's full evaluation at smoke scale: six methods, six
    /// workflows, one seed, first-fit.
    fn default() -> Self {
        ExperimentSpec {
            name: "experiment".to_string(),
            methods: MethodSpec::default_suite(),
            profiles: sizey_workflows::WORKFLOW_NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            seeds: vec![42],
            policies: vec![SchedulePolicy::FirstFit],
            scale: 0.1,
            drift: None,
            sim: SimulationConfig::default(),
        }
    }
}

impl ExperimentSpec {
    /// Validates the spec: non-empty product, known profiles, positive
    /// scale, a cluster the simulator can run
    /// ([`SimulationConfig::validate`]), a finite drift and fault entries
    /// that all target that cluster ([`FaultPlan::validate`]).
    pub fn validate(&self) -> Result<(), SpecError> {
        for list in [
            ("methods", self.methods.is_empty()),
            ("profiles", self.profiles.is_empty()),
            ("seeds", self.seeds.is_empty()),
            ("policies", self.policies.is_empty()),
        ] {
            if list.1 {
                return Err(SpecError::Empty {
                    what: list.0.to_string(),
                });
            }
        }
        // NaN fails both comparisons, so it is rejected alongside zero and
        // negative scales.
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(SpecError::Empty {
                what: format!("scale ({})", self.scale),
            });
        }
        for profile in &self.profiles {
            if sizey_workflows::workflow_by_name(profile).is_none() {
                return Err(SpecError::UnknownWorkflow {
                    name: profile.clone(),
                });
            }
        }
        self.sim
            .validate()
            .map_err(|(key, message)| invalid("[sim]", key, message))?;
        if let Some(drift) = &self.drift {
            let scale = drift.memory_scale;
            if !(scale.is_finite() && scale > 0.0) {
                let message = format!("expected a finite factor above 0, found {scale}");
                return Err(invalid("[drift]", "memory_scale", message));
            }
            let slope = drift.slope_delta_bytes_per_input_byte;
            if !slope.is_finite() {
                let message = format!("expected a finite number, found {slope}");
                return Err(invalid(
                    "[drift]",
                    "slope_delta_bytes_per_input_byte",
                    message,
                ));
            }
        }
        match &self.sim.faults {
            Some(faults) => faults
                .validate(&self.sim)
                .map_err(|(table, key, message)| invalid(table, key, message)),
            None => Ok(()),
        }
    }

    /// Validates and runs the experiment on the default thread pool,
    /// returning one [`SweepCell`] per (profile, method, seed, policy) in
    /// cartesian order: profiles-major, then methods, seeds, policies.
    pub fn run(&self) -> Result<Vec<SweepCell>, SpecError> {
        self.validate()?;
        Ok(run_sweep(self))
    }

    /// Like [`run`](ExperimentSpec::run), but each cell also returns the
    /// trained predictor's checkpoint for the checkpoint directory /
    /// warm-start path.
    pub fn run_checkpointed(&self) -> Result<Vec<(SweepCell, PredictorState)>, SpecError> {
        self.validate()?;
        Ok(run_sweep_with_states(self))
    }

    /// Number of cells in the cartesian product.
    pub fn len(&self) -> usize {
        self.methods.len() * self.profiles.len() * self.seeds.len() * self.policies.len()
    }

    /// True when the product is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parses a spec from TOML text (see the [module docs](self) for the
    /// format). The result is validated.
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        let doc = TomlDocument::parse(text)?;
        let mut spec = ExperimentSpec::default();
        let context = "the root table";
        for (key, value) in &doc.root.entries {
            match key.as_str() {
                "name" => spec.name = need_str(context, key, value)?.to_string(),
                "scale" => spec.scale = need_float(context, key, value)?,
                "seeds" => {
                    let items = value
                        .as_array()
                        .ok_or_else(|| invalid(context, key, "expected an array of seeds"))?;
                    spec.seeds = items
                        .iter()
                        .map(|v| {
                            v.as_int()
                                .filter(|i| *i >= 0)
                                .map(|i| i as u64)
                                .ok_or_else(|| {
                                    invalid(context, key, "seeds must be non-negative integers")
                                })
                        })
                        .collect::<Result<_, _>>()?;
                }
                "profiles" => {
                    let items = value.as_array().ok_or_else(|| {
                        invalid(context, key, "expected an array of profile names")
                    })?;
                    spec.profiles = items
                        .iter()
                        .map(|v| need_str(context, key, v).map(str::to_string))
                        .collect::<Result<_, _>>()?;
                }
                "policies" => {
                    let items = value.as_array().ok_or_else(|| {
                        invalid(context, key, "expected an array of policy names")
                    })?;
                    spec.policies = items
                        .iter()
                        .map(|v| {
                            let name = need_str(context, key, v)?;
                            SchedulePolicy::from_name(name).ok_or_else(|| {
                                SpecError::UnknownPolicy {
                                    name: name.to_string(),
                                }
                            })
                        })
                        .collect::<Result<_, _>>()?;
                }
                _ => {
                    return Err(SpecError::UnknownKey {
                        context: context.to_string(),
                        key: key.clone(),
                    })
                }
            }
        }
        if let Some(sim_table) = doc.table("sim") {
            spec.sim = sim_from_table(sim_table, doc.array_of("node_pool"))?;
        } else if !doc.array_of("node_pool").is_empty() {
            spec.sim = sim_from_table(&TomlTable::default(), doc.array_of("node_pool"))?;
        }
        if let Some(drift_table) = doc.table("drift") {
            spec.drift = Some(drift_from_table(drift_table)?);
        }
        let faults = faults_from_doc(&doc)?;
        if !faults.is_empty() {
            spec.sim.faults = Some(faults);
        }
        for (name, _) in &doc.tables {
            if name != "sim" && name != "drift" {
                return Err(SpecError::UnknownKey {
                    context: "the document".to_string(),
                    key: format!("[{name}]"),
                });
            }
        }
        const ARRAY_TABLES: [&str; 6] = [
            "method",
            "node_pool",
            "node_crash",
            "crash_storm",
            "pool_preemption",
            "task_kill",
        ];
        for (name, _) in &doc.array_tables {
            if !ARRAY_TABLES.contains(&name.as_str()) {
                return Err(SpecError::UnknownKey {
                    context: "the document".to_string(),
                    key: format!("[[{name}]]"),
                });
            }
        }
        let method_tables = doc.array_of("method");
        if !method_tables.is_empty() {
            spec.methods = method_tables
                .into_iter()
                .map(MethodSpec::from_table)
                .collect::<Result<_, _>>()?;
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Reads and parses a spec file.
    pub fn from_toml_file(path: impl AsRef<Path>) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path).map_err(SpecError::Io)?;
        Self::from_toml(&text)
    }

    /// Serialises the spec as TOML — the lossless inverse of
    /// [`from_toml`](ExperimentSpec::from_toml).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("name = {}\n", toml_write::string(&self.name)));
        out.push_str(&format!("scale = {}\n", toml_write::float(self.scale)));
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        out.push_str(&format!("seeds = [{}]\n", seeds.join(", ")));
        let profiles: Vec<String> = self
            .profiles
            .iter()
            .map(|p| toml_write::string(p))
            .collect();
        out.push_str(&format!("profiles = [{}]\n", profiles.join(", ")));
        let policies: Vec<String> = self
            .policies
            .iter()
            .map(|p| toml_write::string(p.name()))
            .collect();
        out.push_str(&format!("policies = [{}]\n", policies.join(", ")));
        out.push('\n');
        out.push_str("[sim]\n");
        out.push_str(&format!(
            "time_to_failure = {}\n",
            toml_write::float(self.sim.time_to_failure)
        ));
        out.push_str(&format!("max_attempts = {}\n", self.sim.max_attempts));
        out.push_str(&format!("node_count = {}\n", self.sim.node_count));
        out.push_str(&format!(
            "node_memory_bytes = {}\n",
            toml_write::float(self.sim.node_memory_bytes)
        ));
        out.push_str(&format!("slots_per_node = {}\n", self.sim.slots_per_node));
        out.push_str(&format!("backfill_window = {}\n", self.sim.backfill_window));
        out.push_str(&format!(
            "submit_interval_seconds = {}\n",
            toml_write::float(self.sim.submit_interval_seconds)
        ));
        for pool in &self.sim.extra_node_pools {
            out.push('\n');
            out.push_str("[[node_pool]]\n");
            out.push_str(&format!("count = {}\n", pool.count));
            out.push_str(&format!(
                "memory_bytes = {}\n",
                toml_write::float(pool.memory_bytes)
            ));
            out.push_str(&format!("slots = {}\n", pool.slots));
        }
        if let Some(drift) = &self.drift {
            out.push('\n');
            out.push_str("[drift]\n");
            out.push_str(&format!("changepoint = {}\n", drift.changepoint));
            out.push_str(&format!(
                "memory_scale = {}\n",
                toml_write::float(drift.memory_scale)
            ));
            out.push_str(&format!(
                "slope_delta_bytes_per_input_byte = {}\n",
                toml_write::float(drift.slope_delta_bytes_per_input_byte)
            ));
        }
        if let Some(faults) = &self.sim.faults {
            for crash in &faults.node_crashes {
                out.push('\n');
                out.push_str("[[node_crash]]\n");
                out.push_str(&format!(
                    "time_seconds = {}\n",
                    toml_write::float(crash.time_seconds)
                ));
                out.push_str(&format!("node = {}\n", crash.node));
                out.push_str(&format!(
                    "down_seconds = {}\n",
                    toml_write::float(crash.down_seconds)
                ));
            }
            for storm in &faults.storms {
                out.push('\n');
                out.push_str("[[crash_storm]]\n");
                out.push_str(&format!(
                    "time_seconds = {}\n",
                    toml_write::float(storm.time_seconds)
                ));
                out.push_str(&format!("nodes = {}\n", storm.nodes));
                out.push_str(&format!(
                    "down_seconds = {}\n",
                    toml_write::float(storm.down_seconds)
                ));
                out.push_str(&format!("seed = {}\n", storm.seed));
            }
            for preemption in &faults.pool_preemptions {
                out.push('\n');
                out.push_str("[[pool_preemption]]\n");
                out.push_str(&format!("pool = {}\n", preemption.pool));
                out.push_str(&format!(
                    "time_seconds = {}\n",
                    toml_write::float(preemption.time_seconds)
                ));
                out.push_str(&format!(
                    "return_after_seconds = {}\n",
                    toml_write::float(preemption.return_after_seconds)
                ));
            }
            for burst in &faults.task_kills {
                out.push('\n');
                out.push_str("[[task_kill]]\n");
                out.push_str(&format!(
                    "time_seconds = {}\n",
                    toml_write::float(burst.time_seconds)
                ));
                out.push_str(&format!("tasks = {}\n", burst.tasks));
            }
        }
        for method in &self.methods {
            out.push('\n');
            out.push_str(&method.to_toml());
        }
        out
    }
}

fn drift_from_table(table: &TomlTable) -> Result<DriftSpec, SpecError> {
    let context = "[drift]";
    let mut drift = DriftSpec {
        changepoint: 0,
        memory_scale: 1.0,
        slope_delta_bytes_per_input_byte: 0.0,
    };
    for (key, value) in &table.entries {
        match key.as_str() {
            "changepoint" => drift.changepoint = need_usize(context, key, value)? as u64,
            "memory_scale" => drift.memory_scale = need_float(context, key, value)?,
            "slope_delta_bytes_per_input_byte" => {
                drift.slope_delta_bytes_per_input_byte = need_float(context, key, value)?
            }
            _ => {
                return Err(SpecError::UnknownKey {
                    context: context.to_string(),
                    key: key.clone(),
                })
            }
        }
    }
    Ok(drift)
}

fn faults_from_doc(doc: &TomlDocument) -> Result<FaultPlan, SpecError> {
    let mut faults = FaultPlan::default();
    for table in doc.array_of("node_crash") {
        let context = "[[node_crash]]";
        let mut crash = NodeCrash {
            time_seconds: 0.0,
            node: 0,
            down_seconds: f64::INFINITY,
        };
        for (key, value) in &table.entries {
            match key.as_str() {
                "time_seconds" => crash.time_seconds = need_float(context, key, value)?,
                "node" => crash.node = need_usize(context, key, value)?,
                "down_seconds" => crash.down_seconds = need_float(context, key, value)?,
                _ => {
                    return Err(SpecError::UnknownKey {
                        context: context.to_string(),
                        key: key.clone(),
                    })
                }
            }
        }
        faults.node_crashes.push(crash);
    }
    for table in doc.array_of("crash_storm") {
        let context = "[[crash_storm]]";
        let mut storm = CrashStorm {
            time_seconds: 0.0,
            nodes: 1,
            down_seconds: f64::INFINITY,
            seed: 0,
        };
        for (key, value) in &table.entries {
            match key.as_str() {
                "time_seconds" => storm.time_seconds = need_float(context, key, value)?,
                "nodes" => storm.nodes = need_usize(context, key, value)?,
                "down_seconds" => storm.down_seconds = need_float(context, key, value)?,
                "seed" => storm.seed = need_usize(context, key, value)? as u64,
                _ => {
                    return Err(SpecError::UnknownKey {
                        context: context.to_string(),
                        key: key.clone(),
                    })
                }
            }
        }
        faults.storms.push(storm);
    }
    for table in doc.array_of("pool_preemption") {
        let context = "[[pool_preemption]]";
        let mut preemption = PoolPreemption {
            pool: 0,
            time_seconds: 0.0,
            return_after_seconds: f64::INFINITY,
        };
        for (key, value) in &table.entries {
            match key.as_str() {
                "pool" => preemption.pool = need_usize(context, key, value)?,
                "time_seconds" => preemption.time_seconds = need_float(context, key, value)?,
                "return_after_seconds" => {
                    preemption.return_after_seconds = need_float(context, key, value)?
                }
                _ => {
                    return Err(SpecError::UnknownKey {
                        context: context.to_string(),
                        key: key.clone(),
                    })
                }
            }
        }
        faults.pool_preemptions.push(preemption);
    }
    for table in doc.array_of("task_kill") {
        let context = "[[task_kill]]";
        let mut burst = TaskKillBurst {
            time_seconds: 0.0,
            tasks: 1,
        };
        for (key, value) in &table.entries {
            match key.as_str() {
                "time_seconds" => burst.time_seconds = need_float(context, key, value)?,
                "tasks" => burst.tasks = need_usize(context, key, value)?,
                _ => {
                    return Err(SpecError::UnknownKey {
                        context: context.to_string(),
                        key: key.clone(),
                    })
                }
            }
        }
        faults.task_kills.push(burst);
    }
    Ok(faults)
}

fn sim_from_table(
    table: &TomlTable,
    pool_tables: Vec<&TomlTable>,
) -> Result<SimulationConfig, SpecError> {
    let context = "[sim]";
    let mut sim = SimulationConfig::default();
    for (key, value) in &table.entries {
        match key.as_str() {
            "time_to_failure" => sim.time_to_failure = need_float(context, key, value)?,
            "max_attempts" => {
                sim.max_attempts = need_usize(context, key, value)?.min(u32::MAX as usize) as u32
            }
            "node_count" => sim.node_count = need_usize(context, key, value)?,
            "node_memory_bytes" => sim.node_memory_bytes = need_float(context, key, value)?,
            "slots_per_node" => sim.slots_per_node = need_usize(context, key, value)?,
            "backfill_window" => sim.backfill_window = need_usize(context, key, value)?,
            "submit_interval_seconds" => {
                sim.submit_interval_seconds = need_float(context, key, value)?
            }
            _ => {
                return Err(SpecError::UnknownKey {
                    context: context.to_string(),
                    key: key.clone(),
                })
            }
        }
    }
    for pool_table in pool_tables {
        let context = "[[node_pool]]";
        let mut pool = NodePoolSpec {
            count: 1,
            memory_bytes: sim.node_memory_bytes,
            slots: sim.slots_per_node,
        };
        for (key, value) in &pool_table.entries {
            match key.as_str() {
                "count" => pool.count = need_usize(context, key, value)?,
                "memory_bytes" => pool.memory_bytes = need_float(context, key, value)?,
                "slots" => pool.slots = need_usize(context, key, value)?,
                _ => {
                    return Err(SpecError::UnknownKey {
                        context: context.to_string(),
                        key: key.clone(),
                    })
                }
            }
        }
        sim.extra_node_pools.push(pool);
    }
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizey_core::SizeyConfig;

    #[test]
    fn default_spec_is_valid_and_covers_the_paper_suite() {
        let spec = ExperimentSpec::default();
        spec.validate().unwrap();
        assert_eq!(spec.methods.len(), 6);
        assert_eq!(spec.profiles.len(), 6);
        assert_eq!(spec.len(), 36);
    }

    #[test]
    fn validation_rejects_unknown_profiles_and_bad_scales() {
        let default = ExperimentSpec::default;
        let with_profile = ExperimentSpec {
            profiles: vec!["not-a-workflow".to_string()],
            ..default()
        };
        assert!(matches!(
            with_profile.validate(),
            Err(SpecError::UnknownWorkflow { .. })
        ));
        let unscaled = ExperimentSpec {
            scale: 0.0,
            ..default()
        };
        assert!(matches!(unscaled.validate(), Err(SpecError::Empty { .. })));
        // Hostile `[sim]` values: each used to panic the simulator, hang it,
        // or run to a meaningless report. The loader names the key instead.
        let cases = [
            ("[sim]\nnode_count = 0\n", "node_count"),
            ("[sim]\nnode_count = 100000000000\n", "node_count"),
            ("[sim]\nnode_memory_bytes = 1000.0\n", "node_memory_bytes"),
            ("[sim]\nnode_memory_bytes = 0.0\n", "node_memory_bytes"),
            ("[sim]\nslots_per_node = 0\n", "slots_per_node"),
            ("[sim]\nmax_attempts = 0\n", "max_attempts"),
            ("[sim]\ntime_to_failure = -1.0\n", "time_to_failure"),
            ("[sim]\ntime_to_failure = 1.5\n", "time_to_failure"),
            (
                "[sim]\nsubmit_interval_seconds = -5.0\n",
                "submit_interval_seconds",
            ),
            (
                "[[node_pool]]\nmemory_bytes = 1000.0\n",
                "node_pool.memory_bytes",
            ),
            ("[[node_pool]]\nslots = 0\n", "node_pool.slots"),
        ];
        // Fault and drift entries the engine would silently skip or turn
        // into a meaningless workload: the loader names the table and key.
        let fault_and_drift_cases = [
            ("[[node_crash]]\nnode = 100000\n", "[[node_crash]]", "node"),
            (
                "[[node_crash]]\ntime_seconds = -1.0\n",
                "[[node_crash]]",
                "time_seconds",
            ),
            (
                "[[crash_storm]]\ntime_seconds = inf\n",
                "[[crash_storm]]",
                "time_seconds",
            ),
            ("[[crash_storm]]\nnodes = 0\n", "[[crash_storm]]", "nodes"),
            (
                "[[pool_preemption]]\npool = 1\n",
                "[[pool_preemption]]",
                "pool",
            ),
            (
                "[[task_kill]]\ntime_seconds = -5.0\n",
                "[[task_kill]]",
                "time_seconds",
            ),
            ("[[task_kill]]\ntasks = 0\n", "[[task_kill]]", "tasks"),
            ("[drift]\nmemory_scale = 0.0\n", "[drift]", "memory_scale"),
            ("[drift]\nmemory_scale = inf\n", "[drift]", "memory_scale"),
            (
                "[drift]\nslope_delta_bytes_per_input_byte = -inf\n",
                "[drift]",
                "slope_delta_bytes_per_input_byte",
            ),
        ];
        let sim_cases = cases.iter().map(|&(text, key)| (text, "[sim]", key));
        for (text, context, key) in sim_cases.chain(fault_and_drift_cases) {
            match ExperimentSpec::from_toml(text) {
                Err(SpecError::InvalidValue {
                    context: found_context,
                    key: found_key,
                    ..
                }) => {
                    assert_eq!((found_context.as_str(), found_key.as_str()), (context, key));
                }
                other => panic!("{text:?}: expected InvalidValue({key}), got {other:?}"),
            }
        }
        // A pool index counts the extra pools, so pool 1 exists here.
        ExperimentSpec::from_toml("[[node_pool]]\ncount = 2\n\n[[pool_preemption]]\npool = 1\n")
            .unwrap();
        // The TOML layer has no NaN; a spec built in code can carry one.
        let mut nan_node = default();
        nan_node.sim.node_memory_bytes = f64::NAN;
        assert!(matches!(
            nan_node.validate(),
            Err(SpecError::InvalidValue { key, .. }) if key == "node_memory_bytes"
        ));
        // Valid corner clusters: all nodes in an extra pool, and the
        // unbounded reference cluster.
        ExperimentSpec::from_toml("[sim]\nnode_count = 0\n\n[[node_pool]]\ncount = 2\n").unwrap();
        let mut unbounded = default();
        unbounded.sim = SimulationConfig::unbounded();
        unbounded.validate().unwrap();
    }

    #[test]
    fn toml_round_trip_is_lossless() {
        let spec = ExperimentSpec {
            name: "round-trip".to_string(),
            methods: vec![
                MethodSpec::Sizey(SizeyConfig::default().with_alpha(0.25)),
                MethodSpec::Preset,
            ],
            profiles: vec!["iwd".to_string(), "rnaseq".to_string()],
            seeds: vec![1, 2, 3],
            policies: vec![SchedulePolicy::BestFit, SchedulePolicy::Backfill],
            scale: 0.02,
            drift: Some(DriftSpec {
                changepoint: 150,
                memory_scale: 2.5,
                slope_delta_bytes_per_input_byte: 0.75,
            }),
            sim: SimulationConfig {
                time_to_failure: 0.5,
                node_count: 2,
                ..SimulationConfig::default()
            }
            .with_extra_pool(NodePoolSpec {
                count: 1,
                memory_bytes: 512e9,
                slots: 64,
            })
            .with_faults(
                FaultPlan::default()
                    .with_node_crash(NodeCrash {
                        time_seconds: 600.0,
                        node: 1,
                        down_seconds: f64::INFINITY,
                    })
                    .with_storm(CrashStorm {
                        time_seconds: 1200.0,
                        nodes: 2,
                        down_seconds: 900.0,
                        seed: 7,
                    })
                    .with_pool_preemption(PoolPreemption {
                        pool: 1,
                        time_seconds: 1800.0,
                        return_after_seconds: 600.0,
                    })
                    .with_task_kills(TaskKillBurst {
                        time_seconds: 300.0,
                        tasks: 4,
                    }),
            ),
        };
        let text = spec.to_toml();
        let parsed = ExperimentSpec::from_toml(&text).unwrap_or_else(|e| panic!("{text}\n{e}"));
        assert_eq!(parsed, spec, "round-trip changed the spec:\n{text}");
    }

    #[test]
    fn from_toml_applies_defaults_for_omitted_sections() {
        let spec = ExperimentSpec::from_toml("profiles = [\"iwd\"]\nscale = 0.02\n").unwrap();
        assert_eq!(spec.methods, MethodSpec::default_suite());
        assert_eq!(spec.seeds, vec![42]);
        assert_eq!(spec.sim, SimulationConfig::default());
        assert_eq!(spec.drift, None);
        assert_eq!(spec.sim.faults, None);
    }

    #[test]
    fn from_toml_rejects_unknown_drift_and_fault_keys() {
        assert!(matches!(
            ExperimentSpec::from_toml("[drift]\nchange_point = 5\n"),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            ExperimentSpec::from_toml("[[node_crash]]\nnode_index = 0\n"),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            ExperimentSpec::from_toml("[[crash_storm]]\nvictims = 2\n"),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            ExperimentSpec::from_toml("[[preemption]]\npool = 0\n"),
            Err(SpecError::UnknownKey { .. })
        ));
    }

    #[test]
    fn fault_tables_parse_into_the_sim_config() {
        let spec = ExperimentSpec::from_toml(
            "profiles = [\"iwd\"]\nscale = 0.02\n\n[[node_crash]]\ntime_seconds = 60.0\nnode = 1\ndown_seconds = inf\n\n[[task_kill]]\ntime_seconds = 30.0\ntasks = 2\n",
        )
        .unwrap();
        let faults = spec.sim.faults.expect("fault tables populate sim.faults");
        assert_eq!(faults.node_crashes.len(), 1);
        assert_eq!(faults.node_crashes[0].node, 1);
        assert!(faults.node_crashes[0].down_seconds.is_infinite());
        assert_eq!(faults.task_kills.len(), 1);
        assert_eq!(faults.task_kills[0].tasks, 2);
        assert!(faults.storms.is_empty());
    }

    #[test]
    fn from_toml_rejects_unknown_sections_keys_and_policies() {
        assert!(matches!(
            ExperimentSpec::from_toml("scalee = 0.1\n"),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            ExperimentSpec::from_toml("[simm]\nx = 1\n"),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            ExperimentSpec::from_toml("policies = [\"round-robin\"]\n"),
            Err(SpecError::UnknownPolicy { .. })
        ));
        assert!(matches!(
            ExperimentSpec::from_toml("profiles = [\"galaxy-brain\"]\n"),
            Err(SpecError::UnknownWorkflow { .. })
        ));
    }
}
