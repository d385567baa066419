//! Command-line entry point:
//! `rasengan-perfbench --workload NAME --seed N --seconds S --trace 0|1`.
//!
//! Prints a run-context line, then the result line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` last on stdout.
//! Exits non-zero on any output mismatch or failed operation.

use rasengan_perfbench::report::{json_str, result_line};
use rasengan_perfbench::{metrics_for, nproc, server, solver_threads, workloads, Opts};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: rasengan-perfbench --workload <{}> --seed <N> --seconds <S> --trace <0|1>",
        workloads::NAMES.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed: not a number".to_string())?
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds: not a number".to_string())?;
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(server::CHILD_FLAG) {
        return match server::child_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("service child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (workload, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match workloads::run(&workload, &opts) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let context = [
        ("workload", json_str(&workload)),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", opts.trace.to_string()),
        ("nproc", nproc().to_string()),
        ("in_process_solver_threads", solver_threads().to_string()),
        (
            "RASENGAN_THREADS",
            json_str(&env_or("RASENGAN_THREADS", "unset")),
        ),
        (
            "RASENGAN_BATCH",
            json_str(&env_or("RASENGAN_BATCH", "unset")),
        ),
        ("git_rev", json_str(&env_or("PERFBENCH_GIT_REV", "unknown"))),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ];
    let mut fields: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    fields.extend(
        result
            .context
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))),
    );
    println!("{{\"context\":{{{}}}}}", fields.join(","));

    let metrics = metrics_for(&result, opts.trace);
    for m in &metrics {
        eprintln!("{workload:>16} {:<42} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for p in &result.problems {
        eprintln!("{workload}: check failed: {p}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = result.tally.failed == 0
        && result.tally.attempted > 0
        && result.problems.is_empty()
        && finite;
    println!("{}", result_line(correct, result.tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
