//! `dense-baselines`: the penalty baselines the paper compares against
//! — HEA and P-QAOA on IBM-Kyiv noise over seeded 6-qubit instances. A
//! closed loop with one caller. These are the only users of the dense
//! trajectory engine (`qsim::exec::DenseTrajectoryRunner`); the sparse
//! engine and the service do nothing here.

use crate::check::{Tally, Verdict};
use crate::stats::Op;
use crate::{median_setup, procfs, set_closure, stats, Opts, RunResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rasengan_baselines::common::run_dense;
use rasengan_baselines::{
    penalized_qubo, qubo_to_ising, BaselineConfig, BaselineOutcome, Hea, PQaoa,
};
use rasengan_core::penalty_lambda;
use rasengan_problems::registry::{benchmark, case_seed, instance, BenchmarkId};
use rasengan_problems::Problem;
use rasengan_qsim::{Circuit, Device};
use std::time::Instant;

const IDS: [&str; 2] = ["F1", "J1"];
const SHOTS: usize = 64;
const ITERATIONS: usize = 12;

#[derive(Clone, Copy)]
enum Algo {
    Hea,
    PQaoa,
}

struct Case {
    algo: Algo,
    problem: Problem,
    config: BaselineConfig,
}

impl Case {
    fn solve(&self) -> BaselineOutcome {
        match self.algo {
            Algo::Hea => Hea::new(self.config.clone()).solve(&self.problem),
            Algo::PQaoa => PQaoa::new(self.config.clone()).solve(&self.problem),
        }
    }

    /// The circuit one objective evaluation executes (at the solver's
    /// starting parameters; the cost per shot does not depend on them).
    fn circuit(&self) -> Circuit {
        let n = self.problem.n_vars();
        let layers = self.config.layers;
        match self.algo {
            Algo::Hea => Hea::circuit(n, layers, &vec![0.1; Hea::n_params(n, layers)]),
            Algo::PQaoa => {
                let ising = qubo_to_ising(&penalized_qubo(
                    &self.problem,
                    penalty_lambda(&self.problem),
                ));
                PQaoa::circuit(&ising, n, &vec![0.3; 2 * layers], &[])
            }
        }
    }
}

fn config(seed: u64) -> BaselineConfig {
    BaselineConfig::default()
        .on_device(Device::ibm_kyiv())
        .with_seed(seed)
        .with_shots(SHOTS)
        .with_max_iterations(ITERATIONS)
}

/// Both baselines on each shape; `canonical` selects the registry's
/// canonical instances at seed 0 instead of seeded ones.
fn cases(seed: u64, canonical: bool) -> Vec<Case> {
    let mut out = Vec::new();
    for (i, id) in IDS.iter().enumerate() {
        let id = BenchmarkId::parse(id).expect("registry id");
        let problem = if canonical {
            benchmark(id)
        } else {
            instance(id, case_seed(seed, i as u64))
        };
        for (k, algo) in [Algo::Hea, Algo::PQaoa].into_iter().enumerate() {
            out.push(Case {
                algo,
                problem: problem.clone(),
                config: config(if canonical {
                    0
                } else {
                    case_seed(seed, 200 + 2 * i as u64 + k as u64)
                }),
            });
        }
    }
    out
}

/// Quality guard: mean ARG and in-constraints rate on the canonical
/// instances at a fixed seed, independent of the workload seed.
fn quality() -> (f64, f64) {
    let outcomes: Vec<BaselineOutcome> = cases(0, true).iter().map(Case::solve).collect();
    (
        stats::mean(&outcomes.iter().map(|o| o.arg).collect::<Vec<_>>()),
        stats::mean(
            &outcomes
                .iter()
                .map(|o| o.in_constraints_rate)
                .collect::<Vec<_>>(),
        ),
    )
}

/// Every deterministic field of a baseline outcome, for byte comparison.
fn outcome_text(o: &BaselineOutcome) -> String {
    format!(
        "{:?}|{}|{}|{}|{}|{:?}|{:?}",
        o.best,
        o.expectation.to_bits(),
        o.arg.to_bits(),
        o.in_constraints_rate.to_bits(),
        o.evaluations,
        o.distribution
            .iter()
            .map(|(l, p)| (*l, p.to_bits()))
            .collect::<Vec<_>>(),
        o.history.iter().map(|h| h.to_bits()).collect::<Vec<_>>(),
    )
}

struct Solve {
    case: usize,
    ms: f64,
    outcome: BaselineOutcome,
}

fn closed_loop(cases: &[Case], seconds: f64) -> Vec<Solve> {
    let start = Instant::now();
    let mut solves = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        for (i, case) in cases.iter().enumerate() {
            let t = Instant::now();
            let outcome = case.solve();
            solves.push(Solve {
                case: i,
                ms: t.elapsed().as_secs_f64() * 1e3,
                outcome,
            });
        }
    }
    solves
}

/// Every solve of a case must reproduce the first one exactly, and
/// report finite quality numbers.
fn check(
    solves: &[Solve],
    reference: &mut [Option<String>],
    result: &mut RunResult,
) -> (Tally, Vec<bool>) {
    let mut tally = Tally::default();
    let mut ok = Vec::new();
    for s in solves {
        let o = &s.outcome;
        let text = outcome_text(o);
        let verdict = if !(o.arg.is_finite() && o.in_constraints_rate.is_finite()) {
            result
                .problems
                .push(format!("case {}: non-finite quality", s.case));
            Verdict::Mismatch
        } else {
            match &reference[s.case] {
                None => {
                    reference[s.case] = Some(text);
                    Verdict::Ok
                }
                Some(r) if *r == text => Verdict::Ok,
                Some(_) => {
                    result
                        .problems
                        .push(format!("case {}: outcome differs between solves", s.case));
                    Verdict::Mismatch
                }
            }
        };
        tally.record(verdict);
        ok.push(verdict == Verdict::Ok);
    }
    (tally, ok)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let (cases, setup_s) = median_setup(3, || {
        let cases = cases(opts.seed, false);
        std::hint::black_box(cases[1].solve());
        Ok(cases)
    })?;
    result.set("setup_s", setup_s);
    result.note("solver_threads", 1);
    result.note("shots", SHOTS);
    result.note("iterations", ITERATIONS);

    let mut reference = vec![None; cases.len()];
    if !opts.trace {
        let cpu0 = procfs::cpu_seconds(None);
        let solves = closed_loop(&cases, opts.seconds);
        let cpu = procfs::cpu_seconds(None) - cpu0;
        let (tally, ok) = check(&solves, &mut reference, &mut result);
        result.tally = tally;
        // Slices are runs of whole cycles over the cases.
        let cycles = (solves.len() / cases.len()) as f64;
        let ops: Vec<Op> = solves
            .iter()
            .zip(&ok)
            .enumerate()
            .map(|(i, (s, &ok))| Op {
                slice: stats::slice_of((i / cases.len()) as f64, cycles),
                ms: s.ms,
                ok,
            })
            .collect();
        let (p50, p99, rate) = stats::slice_medians(&ops, stats::busy_rate);
        result.set("op_ms_p50", p50);
        result.set("op_ms_p99", p99);
        result.set("ops_per_s", rate);
        result.set("ok_frac", result.tally.ok_frac());
        let (arg, feasible) = quality();
        result.set("arg_mean", arg);
        result.set("feasible_rate", feasible);
        result.set("peak_rss_mb", procfs::peak_rss_mb(None));
        result.set("cpu_ms_per_op", cpu * 1e3 / solves.len().max(1) as f64);
        result.note("samples", solves.len());
        return Ok(result);
    }

    // Traced run: the baselines carry no spans of their own, so the
    // traced half runs with the process-global metrics registry
    // installed, which switches on the engine's counting hooks. Its
    // outcomes must equal the untraced half's exactly.
    let plain = closed_loop(&cases, opts.seconds / 2.0);
    rasengan_obs::metrics::install_global();
    let traced = closed_loop(&cases, opts.seconds / 2.0);
    let mut tally = check(&plain, &mut reference, &mut result).0;
    tally.merge(check(&traced, &mut reference, &mut result).0);
    result.tally = tally;
    let plain_ms: Vec<f64> = plain.iter().map(|s| s.ms).collect();
    let traced_ms: Vec<f64> = traced.iter().map(|s| s.ms).collect();
    result.set(
        "obs.trace_overhead_frac",
        stats::median(&traced_ms) / stats::median(&plain_ms),
    );
    result.note("samples", plain.len() + traced.len());

    // One evaluation's dense execution, timed outside the solver.
    let eval_us: Vec<f64> = cases
        .iter()
        .map(|c| {
            let circuit = c.circuit();
            let mut rng = StdRng::seed_from_u64(c.config.seed);
            stats::time_call_us(5, 0.05, || {
                std::hint::black_box(run_dense(&circuit, &c.config, &mut rng));
            })
        })
        .collect();
    result.set(
        "qsim.dense.us_per_shot",
        stats::mean(
            &eval_us
                .iter()
                .map(|us| us / SHOTS as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let train: Vec<f64> = traced
        .iter()
        .map(|s| s.outcome.latency.classical_s * 1e3)
        .collect();
    let evals: Vec<f64> = traced
        .iter()
        .map(|s| s.outcome.evaluations as f64)
        .collect();
    result.set("baselines.train_ms", stats::mean(&train));
    result.set("baselines.evaluations", stats::mean(&evals));
    // Closure: every evaluation plus the final execution runs one
    // dense execution; the rest of a solve is optimizer and scoring.
    let n = traced.len().max(1) as f64;
    let e2e: f64 = traced.iter().map(|s| s.ms).sum::<f64>() / n;
    let layers: f64 = traced
        .iter()
        .map(|s| (s.outcome.evaluations + 1) as f64 * eval_us[s.case] / 1e3)
        .sum::<f64>()
        / n;
    set_closure(&mut result, e2e, layers);
    Ok(result)
}
