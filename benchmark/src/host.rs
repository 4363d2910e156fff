//! The stamp every result file carries: where and with what the numbers were
//! measured. A point without its core count and CPU model cannot be compared
//! with another.

use crate::json::Json;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
}

fn cpu_model() -> Option<String> {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()?
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// `nproc`, CPU model, `rustc -V` and the git commit, each `"unknown"` where
/// the host will not say (the acceptance checkout is not a git repository).
pub fn stamp() -> Json {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    // Ask git only when the repository root holds a `.git`, so that in a
    // plain checkout it does not go looking through the parent directories.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = root
        .join(".git")
        .exists()
        .then(|| command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"]))
        .flatten();
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(cpu_model().unwrap_or_else(unknown))),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        ("git_commit", Json::str(commit.unwrap_or_else(unknown))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stamp_names_every_field_even_on_a_host_that_hides_them() {
        let stamp = stamp();
        for key in ["cpu_model", "rustc", "git_commit"] {
            let value = stamp.get(key).and_then(Json::as_str).expect(key);
            assert!(!value.is_empty(), "{key}");
        }
        assert!(stamp.get("nproc").and_then(Json::as_f64).expect("nproc") >= 1.0);
        assert_eq!(command_line("definitely-not-a-program", &[]), None);
    }
}
