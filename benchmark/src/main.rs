//! The repo benchmark. One command prints every metric by name and unit,
//! checks the outputs and exits non-zero on any failed check:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload NAME] [--seed 42] [--seconds 10] [--trace] [--smoke] [--out FILE]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     compare BASE.json NEW.json [MORE.json...]
//! ```
//!
//! See `README.md` beside this package for the workloads, the metric tables
//! and how the metrics interact, and `../BENCHMARK.json` for the contract the
//! acceptance driver reads.

mod alloc;
mod compare;
mod digest;
mod host;
mod json;
mod metrics;
mod micro;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 42,
        seconds: None,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut rest = args.iter().peekable();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                parsed.seconds = Some(seconds);
            }
            "--out" => parsed.out = Some(value()?),
            "--smoke" => parsed.smoke = true,
            // Bare `--trace` for people, `--trace 0|1` for the driver.
            "--trace" => {
                parsed.traced = match rest.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        rest.next();
                        false
                    }
                    Some("1") => {
                        rest.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn run(args: &[String]) -> i32 {
    let args = match parse_run(args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("run: {error}");
            return 2;
        }
    };
    let all = workloads::all(args.smoke);
    let selected: Vec<_> = match &args.workload {
        None => all.iter().collect(),
        Some(name) => match all.iter().find(|w| w.name() == name) {
            Some(workload) => vec![workload],
            None => {
                let names: Vec<_> = all.iter().map(|w| w.name()).collect();
                eprintln!("run: no workload {name}; there are {}", names.join(", "));
                return 2;
            }
        },
    };
    // Smoke passes are short: two repetitions of each are the check.
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.5 } else { 10.0 });

    let reports: Vec<run::Report> = selected
        .iter()
        .map(|workload| {
            let report = run::run_workload(workload.as_ref(), args.seed, seconds, args.traced);
            report.print();
            report
        })
        .collect();
    let correct = reports.iter().all(run::Report::correct);

    if let Some(path) = &args.out {
        let file = Json::obj([
            ("schema", Json::str("sizey-benchmark/v1")),
            ("host", host::stamp()),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("smoke", Json::Bool(args.smoke)),
            ("traced", Json::Bool(args.traced)),
            (
                "workloads",
                Json::Obj(
                    reports
                        .iter()
                        .map(|r| (r.workload.to_string(), r.to_json()))
                        .collect(),
                ),
            ),
        ]);
        if let Err(error) = std::fs::write(path, file.render() + "\n") {
            eprintln!("run: cannot write {path}: {error}");
            return 2;
        }
    }

    // The last line of standard output is the machine-readable result: of
    // the one workload asked for, or else of all of them keyed by name.
    let line = match reports.as_slice() {
        [only] if args.workload.is_some() => only.driver_line(args.traced),
        _ => Json::obj([
            ("correct", Json::Bool(correct)),
            (
                "attempted",
                Json::Num(reports.iter().map(|r| r.attempted).sum::<u64>() as f64),
            ),
            (
                "failed",
                Json::Num(reports.iter().map(|r| r.failed).sum::<u64>() as f64),
            ),
            (
                "workloads",
                Json::Obj(
                    reports
                        .iter()
                        .map(|r| (r.workload.to_string(), r.driver_line(args.traced)))
                        .collect(),
                ),
            ),
        ]),
    };
    println!("{}", line.render());
    i32::from(!correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((command, rest)) if command == "run" => run(rest),
        Some((command, rest)) if command == "compare" => compare::main(rest),
        _ => {
            eprintln!(
                "usage: sizey-benchmark run [--workload NAME] [--seed N] [--seconds S] \
                 [--trace [0|1]] [--smoke] [--out FILE]\n       \
                 sizey-benchmark compare BASE.json NEW.json [MORE.json...]"
            );
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_and_the_human_forms_of_the_flags_both_parse() {
        let driver = parse_run(&args("--workload hit --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(driver.workload.as_deref(), Some("hit"));
        assert_eq!(
            (driver.seed, driver.seconds, driver.traced),
            (7, Some(10.0), false)
        );
        assert!(parse_run(&args("--trace 1")).unwrap().traced);
        let human = parse_run(&args("--trace --smoke --out r.json")).unwrap();
        assert!(human.traced && human.smoke);
        assert_eq!(human.out.as_deref(), Some("r.json"));
        let defaults = parse_run(&[]).unwrap();
        assert_eq!((defaults.seed, defaults.traced), (42, false));
        for bad in [
            "--seed x",
            "--seconds 0",
            "--seconds -1",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad}");
        }
    }
}
