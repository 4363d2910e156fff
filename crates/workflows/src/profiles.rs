//! Calibrated profiles of the six evaluation workflows.
//!
//! The paper measures six real nf-core-style workflows (eager, methylseq,
//! chipseq, rnaseq, mag, iwd) on an 8-node cluster. We do not have the
//! measured traces, so each workflow is described by a synthetic profile
//! calibrated to the statistics the paper publishes:
//!
//! * Table I — number of task types and average instances per task type,
//! * Fig. 1 — peak-memory distributions of lcextrap, Preprocessing, mpileup
//!   and genomecov,
//! * Fig. 2 — the linear MarkDuplicates and non-linear BaseRecalibrator
//!   input-size/memory relations,
//! * Fig. 7 — the qualitative CPU / memory / I/O spreads per workflow,
//! * Fig. 12 — the Prokka task of the mag workflow with ~1171 instances.
//!
//! Unnamed task types are filled in with a deterministic mixture of linear,
//! non-linear, constant, threshold and saturating memory responses so that
//! every workflow exercises the model-selection machinery the way the
//! heterogeneous real workloads do.

use crate::memfn::{InputModel, MemoryModel, RuntimeModel};
use crate::model::{ResourceFootprint, TaskTypeSpec, WorkflowSpec};

/// The single machine configuration of the evaluation cluster
/// (8× AMD EPYC 7282, 128 GB DDR4 per node).
pub const MACHINE_NAME: &str = "epyc7282-128g";

/// Memory capacity of one cluster node in bytes (128 GB).
pub const NODE_MEMORY_BYTES: f64 = 128e9;

/// Number of nodes in the evaluation cluster.
pub const NODE_COUNT: usize = 8;

const GB: f64 = 1e9;
const MB: f64 = 1e6;

/// Names of the six evaluation workflows in the order used by the paper.
pub const WORKFLOW_NAMES: [&str; 6] = ["eager", "methylseq", "chipseq", "rnaseq", "mag", "iwd"];

fn footprint(cpu: f64, read: f64, write: f64) -> ResourceFootprint {
    ResourceFootprint {
        cpu_utilization_pct: cpu,
        cpu_cv: 0.4,
        io_read_factor: read,
        io_write_factor: write,
    }
}

fn runtime(base: f64, per_gb: f64) -> RuntimeModel {
    RuntimeModel {
        base_seconds: base,
        seconds_per_gb: per_gb,
        noise_cv: 0.15,
    }
}

/// Builds an explicitly named task type.
#[allow(clippy::too_many_arguments)]
fn named_task(
    name: &str,
    instances: usize,
    input_model: InputModel,
    memory_model: MemoryModel,
    runtime_model: RuntimeModel,
    fp: ResourceFootprint,
    preset_gb: f64,
) -> TaskTypeSpec {
    TaskTypeSpec {
        name: name.into(),
        instances,
        input_model,
        memory_model,
        runtime_model,
        footprint: fp,
        preset_memory_bytes: preset_gb * GB,
    }
}

/// Builds a filler task type whose behaviour is chosen deterministically from
/// its index; `size_class` scales the magnitude of inputs and memory so that
/// different workflows occupy different regions of Fig. 7.
fn filler_task(workflow: &str, idx: usize, instances: usize, size_class: f64) -> TaskTypeSpec {
    let name = format!("{workflow}_task_{idx:02}");
    let input_lo = (0.2 + 0.15 * (idx % 5) as f64) * size_class * GB;
    let input_hi = input_lo * (2.0 + (idx % 3) as f64);
    let input_model = if idx.is_multiple_of(4) {
        InputModel::LogUniform {
            lo: input_lo.max(10.0 * MB),
            hi: input_hi,
        }
    } else {
        InputModel::Uniform {
            lo: input_lo,
            hi: input_hi,
        }
    };
    let memory_model = match idx % 5 {
        // Linear, the dominant pattern.
        0 | 3 => MemoryModel::Linear {
            slope: 1.0 + 0.5 * (idx % 4) as f64,
            intercept: (0.3 + 0.2 * (idx % 3) as f64) * size_class * GB,
            noise_cv: 0.035,
        },
        // Near-constant reference-loading tools.
        1 => MemoryModel::Constant {
            mean: (0.8 + 0.6 * (idx % 4) as f64) * size_class * GB,
            noise_cv: 0.04,
        },
        // Super-linear growth.
        2 => MemoryModel::Power {
            coefficient: 0.8 * size_class * GB,
            scale: input_hi.max(GB),
            exponent: 1.6,
            intercept: 0.2 * size_class * GB,
            noise_cv: 0.04,
        },
        // Bimodal / threshold behaviour.
        _ => MemoryModel::Threshold {
            threshold: 0.5 * (input_lo + input_hi),
            below_mean: 0.6 * size_class * GB,
            above_mean: 1.8 * size_class * GB,
            noise_cv: 0.04,
        },
    };
    let preset = match memory_model {
        MemoryModel::Linear {
            slope, intercept, ..
        } => slope * input_hi + intercept,
        MemoryModel::Constant { mean, .. } => mean,
        MemoryModel::Power {
            coefficient,
            intercept,
            ..
        } => coefficient + intercept,
        MemoryModel::Threshold { above_mean, .. } => above_mean,
        MemoryModel::Saturating { ceiling, .. } => ceiling,
    };
    // Users request generously rounded-up allocations (this is exactly the
    // overprovisioning the paper sets out to eliminate).
    let preset_gb = ((preset * 3.0 / GB).ceil() + 2.0).min(NODE_MEMORY_BYTES / GB);
    TaskTypeSpec {
        name: name.into(),
        instances,
        input_model,
        memory_model,
        runtime_model: runtime(
            45.0 + 20.0 * (idx % 4) as f64,
            25.0 + 10.0 * (idx % 3) as f64,
        ),
        footprint: footprint(
            60.0 + 90.0 * (idx % 4) as f64,
            0.8 + 0.4 * (idx % 3) as f64,
            0.2 + 0.3 * (idx % 4) as f64,
        ),
        preset_memory_bytes: preset_gb * GB,
    }
}

/// Distributes `total` instances over `n` filler tasks with mild variation
/// while preserving the exact total.
fn spread_instances(total: usize, n: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let base = total / n;
    let mut counts: Vec<usize> = (0..n)
        .map(|i| {
            let jitter = match i % 4 {
                0 => base / 5,
                1 => 0,
                2 => base / 10,
                _ => 0,
            };
            base.saturating_sub(base / 8) + jitter
        })
        .collect();
    let current: usize = counts.iter().sum();
    // Fix up the first entry so the exact total is preserved.
    if current < total {
        counts[0] += total - current;
    } else {
        let mut excess = current - total;
        for c in counts.iter_mut() {
            let take = excess.min(c.saturating_sub(1));
            *c -= take;
            excess -= take;
            if excess == 0 {
                break;
            }
        }
    }
    counts
}

/// nf-core/eager — ancient genome reconstruction. 13 task types, 121 average
/// instances per task type (Table I). Contains the linear MarkDuplicates
/// relation of Fig. 2 and the mpileup distribution of Fig. 1.
pub fn eager() -> WorkflowSpec {
    let total = 13 * 121;
    let mut task_types = vec![
        named_task(
            "MarkDuplicates",
            140,
            InputModel::Uniform {
                lo: 2.0 * GB,
                hi: 5.0 * GB,
            },
            // Fig. 2 (left): 2-5 GB of input map linearly onto 18-22 GB peaks.
            MemoryModel::Linear {
                slope: 1.33,
                intercept: 15.3 * GB,
                noise_cv: 0.02,
            },
            runtime(300.0, 120.0),
            footprint(95.0, 1.2, 1.0),
            32.0,
        ),
        named_task(
            "mpileup",
            150,
            InputModel::LogUniform {
                lo: 50.0 * MB,
                hi: 2.0 * GB,
            },
            // Fig. 1: peaks between ~0 and 400 MB.
            MemoryModel::Linear {
                slope: 0.12,
                intercept: 60.0 * MB,
                noise_cv: 0.20,
            },
            runtime(120.0, 60.0),
            footprint(80.0, 1.0, 0.3),
            4.0,
        ),
        named_task(
            "adapter_removal",
            130,
            InputModel::Uniform {
                lo: 1.0 * GB,
                hi: 6.0 * GB,
            },
            MemoryModel::Saturating {
                ceiling: 6.0 * GB,
                floor: 0.8 * GB,
                scale: 3.0 * GB,
                noise_cv: 0.04,
            },
            runtime(200.0, 90.0),
            footprint(250.0, 1.1, 0.9),
            12.0,
        ),
        named_task(
            "bwa_align",
            160,
            InputModel::Uniform {
                lo: 1.0 * GB,
                hi: 8.0 * GB,
            },
            MemoryModel::Linear {
                slope: 0.9,
                intercept: 5.5 * GB,
                noise_cv: 0.04,
            },
            runtime(500.0, 250.0),
            footprint(900.0, 1.3, 0.8),
            24.0,
        ),
    ];
    let named: usize = task_types.iter().map(|t| t.instances).sum();
    let filler = spread_instances(total - named, 9);
    for (i, count) in filler.into_iter().enumerate() {
        task_types.push(filler_task("eager", i, count, 2.5));
    }
    WorkflowSpec {
        name: "eager".into(),
        task_types,
    }
}

/// nf-core/methylseq — bisulfite sequencing. 9 task types, 100 average
/// instances per task type. I/O and CPU intensive (Fig. 7) with several
/// large-memory aligners, which is why the presets waste the most memory
/// here (Table II).
pub fn methylseq() -> WorkflowSpec {
    let total = 9 * 100;
    let mut task_types = vec![
        named_task(
            "bismark_align",
            120,
            InputModel::Uniform {
                lo: 3.0 * GB,
                hi: 12.0 * GB,
            },
            MemoryModel::Linear {
                slope: 1.6,
                intercept: 9.0 * GB,
                noise_cv: 0.04,
            },
            runtime(900.0, 300.0),
            footprint(1100.0, 1.4, 1.2),
            64.0,
        ),
        named_task(
            "bismark_deduplicate",
            110,
            InputModel::Uniform {
                lo: 2.0 * GB,
                hi: 8.0 * GB,
            },
            MemoryModel::Power {
                coefficient: 6.0 * GB,
                scale: 8.0 * GB,
                exponent: 1.8,
                intercept: 2.0 * GB,
                noise_cv: 0.05,
            },
            runtime(400.0, 150.0),
            footprint(130.0, 1.2, 1.5),
            40.0,
        ),
        named_task(
            "methylation_extractor",
            115,
            InputModel::Uniform {
                lo: 1.0 * GB,
                hi: 6.0 * GB,
            },
            MemoryModel::Linear {
                slope: 0.8,
                intercept: 1.5 * GB,
                noise_cv: 0.04,
            },
            runtime(350.0, 200.0),
            footprint(300.0, 1.5, 2.0),
            24.0,
        ),
    ];
    let named: usize = task_types.iter().map(|t| t.instances).sum();
    let filler = spread_instances(total - named, 6);
    for (i, count) in filler.into_iter().enumerate() {
        task_types.push(filler_task("methylseq", i, count, 3.5));
    }
    WorkflowSpec {
        name: "methylseq".into(),
        task_types,
    }
}

/// nf-core/chipseq — ChIP sequencing. 30 task types, 82 average instances per
/// task type. Contains the lcextrap and genomecov distributions of Fig. 1.
pub fn chipseq() -> WorkflowSpec {
    let total = 30 * 82;
    let mut task_types = vec![
        named_task(
            "lcextrap",
            90,
            InputModel::LogUniform {
                lo: 100.0 * MB,
                hi: 3.0 * GB,
            },
            // Fig. 1: 200 MB - 1 GB with a median around 550 MB.
            MemoryModel::Linear {
                slope: 0.28,
                intercept: 250.0 * MB,
                noise_cv: 0.18,
            },
            runtime(150.0, 40.0),
            footprint(95.0, 1.0, 0.2),
            4.0,
        ),
        named_task(
            "genomecov",
            85,
            InputModel::Uniform {
                lo: 2.0 * GB,
                hi: 9.0 * GB,
            },
            // Fig. 1: 4 - 7 GB peaks.
            MemoryModel::Linear {
                slope: 0.42,
                intercept: 3.4 * GB,
                noise_cv: 0.04,
            },
            runtime(200.0, 80.0),
            footprint(100.0, 1.1, 0.9),
            16.0,
        ),
        named_task(
            "bowtie2_align",
            100,
            InputModel::Uniform {
                lo: 1.0 * GB,
                hi: 10.0 * GB,
            },
            MemoryModel::Linear {
                slope: 0.7,
                intercept: 3.5 * GB,
                noise_cv: 0.04,
            },
            runtime(600.0, 220.0),
            footprint(800.0, 1.2, 0.7),
            24.0,
        ),
        named_task(
            "macs2_callpeak",
            80,
            InputModel::Uniform {
                lo: 0.5 * GB,
                hi: 4.0 * GB,
            },
            MemoryModel::Power {
                coefficient: 2.5 * GB,
                scale: 4.0 * GB,
                exponent: 1.7,
                intercept: 0.5 * GB,
                noise_cv: 0.05,
            },
            runtime(250.0, 100.0),
            footprint(100.0, 1.0, 0.5),
            12.0,
        ),
    ];
    let named: usize = task_types.iter().map(|t| t.instances).sum();
    let filler = spread_instances(total - named, 26);
    for (i, count) in filler.into_iter().enumerate() {
        task_types.push(filler_task("chipseq", i, count, 1.8));
    }
    WorkflowSpec {
        name: "chipseq".into(),
        task_types,
    }
}

/// nf-core/rnaseq — RNA sequencing. 30 task types, 39 average instances per
/// task type (the fewest executions per type, which stresses the early
/// training phase). Contains FastQC and MarkDuplicates (Picard) from the
/// alpha study (Fig. 10) and the non-linear BaseRecalibrator of Fig. 2.
pub fn rnaseq() -> WorkflowSpec {
    let total = 30 * 39;
    let mut task_types = vec![
        named_task(
            "FastQC",
            60,
            InputModel::Uniform {
                lo: 0.3 * GB,
                hi: 2.5 * GB,
            },
            MemoryModel::Constant {
                mean: 550.0 * MB,
                noise_cv: 0.10,
            },
            runtime(90.0, 30.0),
            footprint(100.0, 1.0, 0.1),
            4.0,
        ),
        named_task(
            "MarkDuplicates (Picard)",
            55,
            InputModel::Uniform {
                lo: 2.0 * GB,
                hi: 6.0 * GB,
            },
            MemoryModel::Linear {
                slope: 1.2,
                intercept: 14.0 * GB,
                noise_cv: 0.03,
            },
            runtime(300.0, 150.0),
            footprint(110.0, 1.2, 1.0),
            32.0,
        ),
        named_task(
            "BaseRecalibrator",
            50,
            InputModel::Uniform {
                lo: 0.2 * GB,
                hi: 1.0 * GB,
            },
            // Fig. 2 (right): 0.2 - 1.0 GB of input produce 0.5 - 3.5 GB
            // peaks along a clearly super-linear curve.
            MemoryModel::Power {
                coefficient: 3.2 * GB,
                scale: 1.0 * GB,
                exponent: 2.0,
                intercept: 0.4 * GB,
                noise_cv: 0.05,
            },
            runtime(200.0, 120.0),
            footprint(95.0, 1.1, 0.4),
            8.0,
        ),
        named_task(
            "star_align",
            45,
            InputModel::Uniform {
                lo: 1.0 * GB,
                hi: 8.0 * GB,
            },
            MemoryModel::Constant {
                mean: 31.0 * GB,
                noise_cv: 0.015,
            },
            runtime(700.0, 260.0),
            footprint(1300.0, 1.3, 0.8),
            38.0,
        ),
        named_task(
            "salmon_quant",
            50,
            InputModel::Uniform {
                lo: 0.5 * GB,
                hi: 5.0 * GB,
            },
            MemoryModel::Saturating {
                ceiling: 12.0 * GB,
                floor: 3.0 * GB,
                scale: 3.0 * GB,
                noise_cv: 0.03,
            },
            runtime(350.0, 140.0),
            footprint(600.0, 1.1, 0.5),
            20.0,
        ),
    ];
    let named: usize = task_types.iter().map(|t| t.instances).sum();
    let filler = spread_instances(total - named, 25);
    for (i, count) in filler.into_iter().enumerate() {
        task_types.push(filler_task("rnaseq", i, count, 1.2));
    }
    WorkflowSpec {
        name: "rnaseq".into(),
        task_types,
    }
}

/// nf-core/mag — metagenome assembly and binning. 8 task types, 720 average
/// instances per task type — the most data-parallel workflow. Contains the
/// Prokka task used in Fig. 12 (~1171 instances).
pub fn mag() -> WorkflowSpec {
    let total = 8 * 720;
    let mut task_types = vec![
        named_task(
            "Prokka",
            1171,
            InputModel::LogUniform {
                lo: 20.0 * MB,
                hi: 1.5 * GB,
            },
            MemoryModel::Linear {
                slope: 2.2,
                intercept: 450.0 * MB,
                noise_cv: 0.05,
            },
            runtime(180.0, 90.0),
            footprint(110.0, 1.0, 0.8),
            8.0,
        ),
        named_task(
            "megahit_assembly",
            650,
            InputModel::Uniform {
                lo: 2.0 * GB,
                hi: 14.0 * GB,
            },
            MemoryModel::Linear {
                slope: 2.4,
                intercept: 6.0 * GB,
                noise_cv: 0.04,
            },
            runtime(1200.0, 400.0),
            footprint(1500.0, 1.4, 1.2),
            64.0,
        ),
        named_task(
            "bowtie2_binning",
            700,
            InputModel::Uniform {
                lo: 1.0 * GB,
                hi: 9.0 * GB,
            },
            MemoryModel::Linear {
                slope: 0.6,
                intercept: 2.8 * GB,
                noise_cv: 0.04,
            },
            runtime(500.0, 200.0),
            footprint(700.0, 1.2, 0.6),
            16.0,
        ),
    ];
    let named: usize = task_types.iter().map(|t| t.instances).sum();
    let filler = spread_instances(total - named, 5);
    for (i, count) in filler.into_iter().enumerate() {
        task_types.push(filler_task("mag", i, count, 2.0));
    }
    WorkflowSpec {
        name: "mag".into(),
        task_types,
    }
}

/// iwd — the remote-sensing / computer-vision workflow analysing ice-wedge
/// polygon imagery. 5 task types, 332 average instances per task type, the
/// smallest memory footprint of the six (Table II: well below 1 GBh wastage
/// for Sizey). Contains the Preprocessing distribution of Fig. 1.
pub fn iwd() -> WorkflowSpec {
    let total = 5 * 332;
    let mut task_types = vec![
        named_task(
            "Preprocessing",
            340,
            InputModel::Uniform {
                lo: 200.0 * MB,
                hi: 1.2 * GB,
            },
            // Fig. 1: roughly 2.0 - 4.5 GB peaks.
            MemoryModel::Linear {
                slope: 2.0,
                intercept: 1.9 * GB,
                noise_cv: 0.04,
            },
            runtime(120.0, 60.0),
            footprint(150.0, 1.0, 0.6),
            8.0,
        ),
        named_task(
            "segmentation",
            330,
            InputModel::Uniform {
                lo: 100.0 * MB,
                hi: 900.0 * MB,
            },
            MemoryModel::Power {
                coefficient: 2.2 * GB,
                scale: 900.0 * MB,
                exponent: 1.5,
                intercept: 300.0 * MB,
                noise_cv: 0.04,
            },
            runtime(240.0, 100.0),
            footprint(350.0, 1.1, 0.4),
            6.0,
        ),
        named_task(
            "graph_analysis",
            320,
            InputModel::LogUniform {
                lo: 10.0 * MB,
                hi: 500.0 * MB,
            },
            MemoryModel::Linear {
                slope: 3.0,
                intercept: 150.0 * MB,
                noise_cv: 0.06,
            },
            runtime(90.0, 40.0),
            footprint(100.0, 0.8, 0.3),
            4.0,
        ),
    ];
    let named: usize = task_types.iter().map(|t| t.instances).sum();
    let filler = spread_instances(total - named, 2);
    for (i, count) in filler.into_iter().enumerate() {
        task_types.push(filler_task("iwd", i, count, 0.5));
    }
    WorkflowSpec {
        name: "iwd".into(),
        task_types,
    }
}

/// Builds a workflow profile by name (one of [`WORKFLOW_NAMES`]).
pub fn workflow_by_name(name: &str) -> Option<WorkflowSpec> {
    match name {
        "eager" => Some(eager()),
        "methylseq" => Some(methylseq()),
        "chipseq" => Some(chipseq()),
        "rnaseq" => Some(rnaseq()),
        "mag" => Some(mag()),
        "iwd" => Some(iwd()),
        _ => None,
    }
}

/// All six evaluation workflows in the paper's order.
pub fn all_workflows() -> Vec<WorkflowSpec> {
    WORKFLOW_NAMES
        .iter()
        .map(|n| workflow_by_name(n).expect("known workflow name"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expected Table I inventory: (workflow, task types, avg instances).
    const TABLE_I: [(&str, usize, f64); 6] = [
        ("eager", 13, 121.0),
        ("methylseq", 9, 100.0),
        ("chipseq", 30, 82.0),
        ("rnaseq", 30, 39.0),
        ("mag", 8, 720.0),
        ("iwd", 5, 332.0),
    ];

    #[test]
    fn table_i_inventory_matches_paper() {
        for (name, types, avg) in TABLE_I {
            let wf = workflow_by_name(name).unwrap();
            assert_eq!(wf.n_task_types(), types, "{name} task types");
            assert!(
                (wf.avg_instances_per_type() - avg).abs() < 0.5,
                "{name} avg instances: got {}, want {avg}",
                wf.avg_instances_per_type()
            );
        }
    }

    #[test]
    fn all_workflows_returns_six_in_order() {
        let wfs = all_workflows();
        assert_eq!(wfs.len(), 6);
        let names: Vec<&str> = wfs.iter().map(|w| &*w.name).collect();
        assert_eq!(names, WORKFLOW_NAMES.to_vec());
    }

    #[test]
    fn unknown_workflow_name_is_none() {
        assert!(workflow_by_name("sarek").is_none());
    }

    #[test]
    fn task_type_names_are_unique_within_each_workflow() {
        for wf in all_workflows() {
            let mut names: Vec<&str> = wf.task_types.iter().map(|t| &*t.name).collect();
            let before = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(before, names.len(), "duplicate task names in {}", wf.name);
        }
    }

    #[test]
    fn presets_exceed_typical_memory_requirement() {
        // The Workflow-Presets baseline must overprovision (that is the
        // premise of the paper), so every preset should exceed the expected
        // peak at a typical input.
        for wf in all_workflows() {
            for t in &wf.task_types {
                let typical_peak = t.memory_model.expected(t.input_model.typical());
                assert!(
                    t.preset_memory_bytes > typical_peak,
                    "{}/{} preset {} <= typical peak {}",
                    wf.name,
                    t.name,
                    t.preset_memory_bytes,
                    typical_peak
                );
            }
        }
    }

    #[test]
    fn presets_fit_on_a_node() {
        for wf in all_workflows() {
            for t in &wf.task_types {
                assert!(
                    t.preset_memory_bytes <= NODE_MEMORY_BYTES,
                    "{}/{} preset exceeds node memory",
                    wf.name,
                    t.name
                );
            }
        }
    }

    #[test]
    fn fig2_relations_have_expected_shape() {
        let eager = eager();
        let md = eager.task_type("MarkDuplicates").unwrap();
        // Linear: 2 GB -> ~18 GB, 5 GB -> ~22 GB.
        let low = md.memory_model.expected(2.0 * GB) / GB;
        let high = md.memory_model.expected(5.0 * GB) / GB;
        assert!((17.0..19.0).contains(&low), "low = {low}");
        assert!((21.0..23.0).contains(&high), "high = {high}");

        let rnaseq = rnaseq();
        let br = rnaseq.task_type("BaseRecalibrator").unwrap();
        let low = br.memory_model.expected(0.2 * GB) / GB;
        let high = br.memory_model.expected(1.0 * GB) / GB;
        assert!(
            low < 1.0,
            "BaseRecalibrator small inputs stay below 1 GB, got {low}"
        );
        assert!((3.0..4.0).contains(&high), "high = {high}");
        // Non-linearity: the mid-point must lie well below the linear
        // interpolation between the two endpoints.
        let mid = br.memory_model.expected(0.6 * GB) / GB;
        let linear_mid = (low + high) / 2.0;
        assert!(mid < linear_mid - 0.3, "mid {mid} vs linear {linear_mid}");
    }

    #[test]
    fn fig1_memory_ranges_are_calibrated() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let cases = [
            ("chipseq", "lcextrap", 150.0 * MB, 1.4 * GB),
            ("iwd", "Preprocessing", 1.6 * GB, 5.2 * GB),
            ("eager", "mpileup", 0.0, 600.0 * MB),
            ("chipseq", "genomecov", 3.5 * GB, 8.0 * GB),
        ];
        for (wf_name, task, lo, hi) in cases {
            let wf = workflow_by_name(wf_name).unwrap();
            let t = wf.task_type(task).unwrap();
            for _ in 0..200 {
                let input = t.input_model.sample(&mut rng);
                let peak = t.memory_model.sample(&mut rng, input);
                assert!(
                    peak >= lo * 0.5 && peak <= hi * 1.5,
                    "{wf_name}/{task} peak {peak} outside plausible range [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn prokka_has_about_1171_instances() {
        let wf = mag();
        assert_eq!(wf.task_type("Prokka").unwrap().instances, 1171);
    }

    #[test]
    fn spread_instances_preserves_total() {
        for (total, n) in [(100, 7), (1573, 9), (5, 2), (0, 3), (50, 1)] {
            let counts = spread_instances(total, n);
            assert_eq!(counts.len(), n);
            assert_eq!(counts.iter().sum::<usize>(), total, "total {total} n {n}");
        }
        assert!(spread_instances(10, 0).is_empty());
    }
}
