//! The four named workloads.

pub mod dense;
pub mod noisy;
pub mod served;

use crate::{Opts, RunResult};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["noisy-solve", "served-hot", "served-mix", "dense-baselines"];

/// Runs the named workload.
pub fn run(name: &str, opts: &Opts) -> Result<RunResult, String> {
    match name {
        "noisy-solve" => noisy::run(opts),
        "served-hot" => served::run_hot(opts),
        "served-mix" => served::run_mix(opts),
        "dense-baselines" => dense::run(opts),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {NAMES:?})"
        )),
    }
}
