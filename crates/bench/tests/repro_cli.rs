//! The `repro` command line: section selection, its error exits and the
//! scale a section reports. Every case runs a section that is cheap in the
//! debug profile.

use std::process::{Command, Output};

fn repro(args: &[&str], scale: Option<&str>) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_repro"));
    command.args(args).env_remove("SIZEY_BENCH_SEED");
    match scale {
        Some(scale) => command.env("SIZEY_BENCH_SCALE", scale),
        None => command.env_remove("SIZEY_BENCH_SCALE"),
    };
    command.output().expect("run repro")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("utf-8 output")
}

#[test]
fn an_unknown_section_exits_1_and_lists_the_valid_ones() {
    let out = repro(&["table01_workflow_inventory", "fig99_nonexistent"], None);
    assert_eq!(out.status.code(), Some(1));
    let stderr = text(&out.stderr);
    assert!(stderr.contains("\"fig99_nonexistent\""), "{stderr}");
    for valid in [
        "headline_summary",
        "table01_workflow_inventory",
        "fig08c_task_failures",
        "ablation_pool",
    ] {
        assert!(stderr.contains(valid), "{valid} missing from: {stderr}");
    }
    // Names are checked before any section runs.
    assert!(out.stdout.is_empty(), "{}", text(&out.stdout));
}

#[test]
fn table01_prints_the_paper_inventory() {
    let out = repro(&["table01_workflow_inventory"], None);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .filter(|cells| cells.len() == 3)
        .collect();
    assert_eq!(
        rows,
        [
            ["eager", "13", "121"],
            ["methylseq", "9", "100"],
            ["chipseq", "30", "82"],
            ["rnaseq", "30", "39"],
            ["mag", "8", "720"],
            ["iwd", "5", "332"],
        ],
        "{stdout}"
    );
}

#[test]
fn a_section_prints_the_scale_it_ran_at() {
    // Fig. 1 always generates the full task volume, whatever is requested.
    let out = repro(&["fig01_memory_distributions"], Some("0.02"));
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(
        stdout.contains("workload scale: 1 of the paper's task volume"),
        "{stdout}"
    );
}

#[test]
fn an_unparsable_scale_exits_1_naming_the_variable() {
    let out = repro(&["table01_workflow_inventory"], Some("1,0"));
    assert_eq!(out.status.code(), Some(1));
    let stderr = text(&out.stderr);
    assert!(stderr.contains("SIZEY_BENCH_SCALE"), "{stderr}");
    assert!(out.stdout.is_empty(), "{}", text(&out.stdout));
}
