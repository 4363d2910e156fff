//! `compare BASE.json NEW.json [MORE.json…]`: one row per (workload, gated
//! metric) with a verdict — improved, unchanged, regressed or unresolved.
//!
//! A row is **unresolved** when the run-to-run spread of either side is wider
//! than the metric's bound and the two sets of repetitions overlap: the
//! files cannot tell a change from noise, which is not the same as
//! "unchanged".

use crate::json::Json;
use crate::metrics::{gate, metric, Better, Bound};
use crate::stats::quartiles;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// One side of a comparison: the reported value and the per-repetition
/// values behind it (none for quantiles pooled over repetitions).
pub struct Side<'a> {
    pub value: f64,
    pub samples: &'a [f64],
}

impl Side<'_> {
    /// Interquartile distance as a share of the value; zero without at least
    /// two repetitions to measure it from.
    fn spread(&self) -> f64 {
        match quartiles(self.samples) {
            Some((q1, q3)) if self.value != 0.0 => (q3 - q1) / self.value.abs(),
            _ => 0.0,
        }
    }

    fn range(&self) -> (f64, f64) {
        self.samples
            .iter()
            .fold((self.value, self.value), |(lo, hi), &s| {
                (lo.min(s), hi.max(s))
            })
    }
}

/// By how much `new` is worse than `base`, in the metric's unit; negative
/// when it is better.
fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    }
}

pub fn verdict(base: &Side, new: &Side, better: Better, bound: Bound) -> Verdict {
    let worse = worse_by(base.value, new.value, better);
    let by_margin = |margin: f64| {
        if worse > margin {
            Verdict::Regressed
        } else if worse < -margin {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        }
    };
    match bound {
        Bound::Exact => by_margin(0.0),
        Bound::Absolute(margin) => by_margin(margin),
        Bound::Relative(share) => {
            if base.spread().max(new.spread()) <= share {
                return by_margin(share * base.value.abs());
            }
            // Too noisy for the bound to mean anything: resolved only when
            // every run of one side reads better than every run of the other.
            let (base_lo, base_hi) = base.range();
            let (new_lo, new_hi) = new.range();
            if base_lo <= new_hi && new_lo <= base_hi {
                Verdict::Unresolved
            } else {
                by_margin(0.0)
            }
        }
    }
}

fn numbers(json: Option<&Json>) -> Vec<f64> {
    json.and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn bound_text(bound: Bound) -> String {
    match bound {
        Bound::Exact => "exact".to_string(),
        Bound::Absolute(margin) => format!("±{margin}"),
        Bound::Relative(share) => format!("{:.1}%", share * 100.0),
    }
}

/// Prints the rows of `new` against `base`; returns how many rows were
/// regressed or unresolved.
fn compare_pair(base: &Json, new: &Json) -> Result<usize, String> {
    let seed = |doc: &Json| doc.get("seed").and_then(Json::as_f64);
    if seed(base) != seed(new) {
        return Err(format!(
            "seeds differ ({:?} vs {:?}): the same-seed bounds do not apply",
            seed(base),
            seed(new)
        ));
    }
    let workloads = |doc: &'_ Json| -> Result<Vec<(String, Json)>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("no \"workloads\" object")?
            .to_vec())
    };
    let new_workloads = workloads(new)?;
    let mut flagged = 0;
    println!(
        "{:<13} {:<22} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "change", "bound", "spread"
    );
    for (workload, base_entry) in workloads(base)? {
        let Some((_, new_entry)) = new_workloads.iter().find(|(name, _)| *name == workload) else {
            continue;
        };
        // The simulator's outputs must not move at all between two builds
        // that claim the same behaviour; the service digest likewise.
        let digest = |entry: &Json| {
            entry
                .get("digest")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let same = digest(&base_entry) == digest(new_entry);
        flagged += usize::from(!same);
        println!(
            "{:<13} {:<22} {:>14} {:>14} {:>9} {:>7} {:>7}  {}",
            workload,
            "digest",
            digest(&base_entry).unwrap_or_default(),
            digest(new_entry).unwrap_or_default(),
            "",
            "exact",
            "",
            if same { "unchanged" } else { "CHANGED" }
        );
        let metrics = base_entry
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or(&[]);
        for (name, base_metric) in metrics {
            let (Some(bound), Some(listed), Some(new_metric)) = (
                gate(name, &workload),
                metric(name),
                new_entry.get("metrics").and_then(|m| m.get(name)),
            ) else {
                continue;
            };
            let value = |metric: &Json| metric.get("value").and_then(Json::as_f64);
            let (Some(base_value), Some(new_value)) = (value(base_metric), value(new_metric))
            else {
                continue;
            };
            let (base_samples, new_samples) = (
                numbers(base_metric.get("samples")),
                numbers(new_metric.get("samples")),
            );
            let (base_side, new_side) = (
                Side {
                    value: base_value,
                    samples: &base_samples,
                },
                Side {
                    value: new_value,
                    samples: &new_samples,
                },
            );
            let verdict = verdict(&base_side, &new_side, listed.better, bound);
            flagged += usize::from(matches!(verdict, Verdict::Regressed | Verdict::Unresolved));
            let change = if base_value != 0.0 {
                format!("{:+.2}%", (new_value / base_value - 1.0) * 100.0)
            } else {
                String::new()
            };
            println!(
                "{:<13} {:<22} {:>14.4} {:>14.4} {:>9} {:>7} {:>6.1}%  {}",
                workload,
                name,
                base_value,
                new_value,
                change,
                bound_text(bound),
                base_side.spread().max(new_side.spread()) * 100.0,
                verdict.as_str()
            );
        }
    }
    Ok(flagged)
}

/// Compares every further file against the first. Returns the process exit
/// code: 0 when no row is regressed, unresolved or changed.
pub fn main(paths: &[String]) -> i32 {
    if paths.len() < 2 {
        eprintln!("usage: compare BASE.json NEW.json [MORE.json...]");
        return 2;
    }
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let mut flagged = 0;
    let result = load(&paths[0]).and_then(|base| {
        for path in &paths[1..] {
            println!("-- {} against {}", path, paths[0]);
            flagged += compare_pair(&base, &load(path)?).map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(())
    });
    match result {
        Err(error) => {
            eprintln!("compare: {error}");
            2
        }
        Ok(()) if flagged > 0 => {
            println!("{flagged} rows regressed, unresolved or changed");
            1
        }
        Ok(()) => {
            println!("no row regressed, unresolved or changed");
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};
    use Verdict::{Improved, Regressed, Unchanged, Unresolved};

    fn side(value: f64, samples: &[f64]) -> Side<'_> {
        Side { value, samples }
    }

    #[test]
    fn relative_bounds_follow_the_metric_direction() {
        let bound = Bound::Relative(0.05);
        let tight = [99.0, 100.0, 101.0];
        let base = side(100.0, &tight);
        for (new, lower_is_better, higher_is_better) in [
            (100.0, Unchanged, Unchanged),
            (104.0, Unchanged, Unchanged),
            (106.0, Regressed, Improved),
            (94.0, Improved, Regressed),
        ] {
            let shifted: Vec<f64> = tight.iter().map(|s| s + new - 100.0).collect();
            let new = side(new, &shifted);
            assert_eq!(verdict(&base, &new, Lower, bound), lower_is_better);
            assert_eq!(verdict(&base, &new, Higher, bound), higher_is_better);
        }
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_while_the_sets_overlap() {
        let bound = Bound::Relative(0.05);
        let noisy = [80.0, 100.0, 120.0];
        assert_eq!(
            verdict(
                &side(100.0, &noisy),
                &side(103.0, &[95.0, 103.0, 111.0]),
                Lower,
                bound
            ),
            Unresolved
        );
        // One noisy side is enough.
        assert_eq!(
            verdict(
                &side(100.0, &[99.0, 100.0, 101.0]),
                &side(100.0, &noisy),
                Lower,
                bound
            ),
            Unresolved
        );
        // No overlap: every run of the new side is better, so it is resolved.
        assert_eq!(
            verdict(
                &side(100.0, &noisy),
                &side(50.0, &[40.0, 50.0, 60.0]),
                Lower,
                bound
            ),
            Improved
        );
        assert_eq!(
            verdict(
                &side(100.0, &noisy),
                &side(50.0, &[40.0, 50.0, 60.0]),
                Higher,
                bound
            ),
            Regressed
        );
    }

    #[test]
    fn exact_and_absolute_bounds_ignore_spread() {
        assert_eq!(
            verdict(&side(7.0, &[]), &side(7.0, &[]), Lower, Bound::Exact),
            Unchanged
        );
        assert_eq!(
            verdict(&side(7.0, &[]), &side(8.0, &[]), Lower, Bound::Exact),
            Regressed
        );
        assert_eq!(
            verdict(&side(7.0, &[]), &side(6.0, &[]), Lower, Bound::Exact),
            Improved
        );
        // reduction_vs_best_pct: higher is better, 0.1 points, around a
        // negative value.
        let points = Bound::Absolute(0.1);
        assert_eq!(
            verdict(&side(-50.54, &[]), &side(-50.60, &[]), Higher, points),
            Unchanged
        );
        assert_eq!(
            verdict(&side(-50.54, &[]), &side(-50.70, &[]), Higher, points),
            Regressed
        );
        assert_eq!(
            verdict(&side(-50.54, &[]), &side(24.68, &[]), Higher, points),
            Improved
        );
    }

    #[test]
    fn pooled_quantiles_without_samples_compare_by_value() {
        let bound = Bound::Relative(0.10);
        assert_eq!(
            verdict(&side(1.3, &[]), &side(1.4, &[]), Lower, bound),
            Unchanged
        );
        assert_eq!(
            verdict(&side(1.3, &[]), &side(1.5, &[]), Lower, bound),
            Regressed
        );
    }

    #[test]
    fn files_of_different_seeds_are_refused() {
        let file = |seed: f64| Json::obj([("seed", Json::Num(seed)), ("workloads", Json::obj([]))]);
        assert_eq!(compare_pair(&file(42.0), &file(42.0)), Ok(0));
        assert!(compare_pair(&file(42.0), &file(7.0))
            .unwrap_err()
            .contains("seeds differ"));
    }
}
