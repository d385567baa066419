//! The repository benchmark: four named workloads over the Rasengan
//! solver and its solve service, each reporting end-to-end metrics
//! (tracing off) or per-layer metrics (a separate traced run). See
//! `perfbench/README.md` for the workloads, the metric glossary, and
//! which layer metric should move which end-to-end metric.
//!
//! All timing happens here, outside the program: the benchmark times
//! the calls it makes into each layer's public functions and reads
//! what the program already emits (outcome counts, span trees, reply
//! sections, `STATS` deltas).

pub mod check;
pub mod openloop;
pub mod procfs;
pub mod report;
pub mod server;
pub mod stats;
pub mod workloads;

use check::Tally;
use report::Metric;
use std::collections::BTreeMap;
use std::time::Instant;

/// Options of one benchmark run, straight from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Attempted/failed operation counts (checks included).
    pub tally: Tally,
    /// Measured values by metric name; names absent here are reported
    /// as 0 in a traced run (the workload does not exercise that layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Extra run context (sample counts, knobs) for the context line.
    pub context: Vec<(&'static str, String)>,
    /// Human-readable problems found by the output checks.
    pub problems: Vec<String>,
}

impl RunResult {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a context entry.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.context.push((key, value.to_string()));
    }
}

/// End-to-end metrics (tracing off), reported by every workload, in
/// `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("arg_mean", "ratio"),
    ("feasible_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("cpu_ms_per_op", "ms"),
];

/// Per-layer metrics (traced run), in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("problems.parse_us.native", "us"),
    ("problems.parse_us.qubo", "us"),
    ("problems.parse_us.qubo-recover", "us"),
    ("problems.parse_us.lp", "us"),
    ("problems.fingerprint_us", "us"),
    ("serve.protocol.request_parse_us", "us"),
    ("serve.protocol.reply_render_us", "us"),
    ("serve.protocol.reply_parse_us", "us"),
    ("serve.server_request_ms_p50", "ms"),
    ("serve.unattributed_ms_p50", "ms"),
    ("serve.reactor.readable_events_per_req", "count"),
    ("serve.reactor.loop_iterations_per_req", "count"),
    ("serve.reactor.writable_stalls", "count"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("serve.cache.result_hit_ratio", "ratio"),
    ("serve.cache.compile_hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.persist.disk_hit_ratio", "ratio"),
    ("serve.persist.flushes_per_miss", "count"),
    ("serve.persist.store_outcome_us", "us"),
    ("serve.persist.store_prepared_us", "us"),
    ("serve.persist.load_outcome_us", "us"),
    ("core.prepare_ms", "ms"),
    ("math.basis_ms", "ms"),
    ("core.simplify_ms", "ms"),
    ("core.chain_ms", "ms"),
    ("core.segment_ms", "ms"),
    ("core.train_ms", "ms"),
    ("core.execute_ms", "ms"),
    ("core.train_ms_per_eval", "ms"),
    ("optim.evaluations", "count"),
    ("qsim.shots", "count"),
    ("qsim.us_per_shot", "us"),
    ("qsim.segment_attempt_ms", "ms"),
    ("qsim.attempts_per_segment", "count"),
    ("core.purify.kept_frac", "ratio"),
    ("baselines.train_ms", "ms"),
    ("baselines.evaluations", "count"),
    ("qsim.dense.us_per_shot", "us"),
    ("obs.trace_overhead_frac", "ratio"),
    ("bench.gen_late_ms_p99", "ms"),
    ("closure.e2e_ms", "ms"),
    ("closure.layers_ms", "ms"),
    ("closure.unattributed_frac", "ratio"),
];

/// The metrics a run reports, in order: every end-to-end metric for an
/// untraced run, every per-layer metric for a traced one.
pub fn metrics_for(result: &RunResult, trace: bool) -> Vec<Metric> {
    let list = if trace { PER_LAYER } else { END_TO_END };
    list.iter()
        .map(|&(name, unit)| {
            report::metric(name, result.values.get(name).copied().unwrap_or(0.0), unit)
        })
        .collect()
}

/// Engine threads for in-process solves and per served solve worker:
/// fixed at 2, and never more than the machine has.
pub fn solver_threads() -> usize {
    nproc().min(2)
}

/// Available parallelism of this machine.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `setup` `repeats` times, dropping all but the last state, and
/// returns that state with the median set-up time in seconds. Repeating
/// set-up makes `setup_s` a median rather than one noisy sample.
pub fn median_setup<S>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

/// Closure of the per-layer times against the traced end-to-end time:
/// whatever the outside-timed layers do not cover is reported as the
/// `unattributed` share instead of being dropped.
pub fn set_closure(result: &mut RunResult, e2e_ms: f64, layers_ms: f64) {
    result.set("closure.e2e_ms", e2e_ms);
    result.set("closure.layers_ms", layers_ms);
    let frac = if e2e_ms > 0.0 {
        (e2e_ms - layers_ms) / e2e_ms
    } else {
        0.0
    };
    result.set("closure.unattributed_frac", frac);
}
