//! `noisy-solve`: in-process Rasengan solves on IBM-Kyiv noise — the
//! paper's headline path. A closed loop with one caller cycles over
//! seeded K1, J2 and F4 instances at fixed shots and iterations;
//! training (sparse noisy trajectories, noise draws, sampling,
//! purification) is nearly all of the time, and no service layer runs.

use crate::check::{Tally, Verdict};
use crate::stats::Op;
use crate::{median_setup, procfs, set_closure, solver_threads, stats, Opts, RunResult};
use rasengan_core::{
    build_chain, plan_segments, problem_basis, segment::SegmentProgram, simplify_basis,
    ChainConfig, Outcome, Rasengan, RasenganConfig, Span,
};
use rasengan_problems::registry::{benchmark, case_seed, instance, BenchmarkId};
use rasengan_problems::Problem;
use rasengan_qsim::Device;
use rasengan_serve::render_outcome;
use std::time::Instant;

const IDS: [&str; 3] = ["K1", "J2", "F4"];
const SHOTS: usize = 128;
const ITERATIONS: usize = 15;

struct Case {
    problem: Problem,
    config: RasenganConfig,
}

fn config(seed: u64) -> RasenganConfig {
    RasenganConfig::default()
        .on_device(Device::ibm_kyiv())
        .with_seed(seed)
        .with_shots(SHOTS)
        .with_max_iterations(ITERATIONS)
        .with_threads(solver_threads())
}

fn cases(seed: u64) -> Vec<Case> {
    IDS.iter()
        .enumerate()
        .map(|(i, id)| Case {
            problem: instance(
                BenchmarkId::parse(id).expect("registry id"),
                case_seed(seed, i as u64),
            ),
            config: config(case_seed(seed, 100 + i as u64)),
        })
        .collect()
}

/// Quality guard: mean ARG and in-constraints rate of the workload's
/// solver on the canonical instances of its shapes at a fixed seed.
/// It does not depend on the workload seed, so it moves only when the
/// program's answers change (fewer shots, a different optimizer path).
fn quality() -> Result<(f64, f64), String> {
    let (mut args, mut rates) = (vec![], vec![]);
    for id in IDS {
        let problem = benchmark(BenchmarkId::parse(id).expect("registry id"));
        let o = Rasengan::new(config(0))
            .solve(&problem)
            .map_err(|e| format!("{id}: {e}"))?;
        args.push(o.arg);
        rates.push(o.in_constraints_rate);
    }
    Ok((stats::mean(&args), stats::mean(&rates)))
}

/// One timed solve and what came back.
struct Solve {
    case: usize,
    traced: bool,
    ms: f64,
    outcome: Option<Outcome>,
}

/// Cycles over every case until `seconds` have passed (whole cycles
/// only, so every run solves the same mix); `traced(cycle)` says
/// whether a cycle's solves record spans.
fn closed_loop(cases: &[Case], seconds: f64, traced: impl Fn(usize) -> bool) -> Vec<Solve> {
    let start = Instant::now();
    let mut solves = Vec::new();
    let mut cycle = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let trace = traced(cycle);
        for (i, case) in cases.iter().enumerate() {
            let solver = Rasengan::new(case.config.clone().with_trace(trace));
            let t = Instant::now();
            let outcome = solver.solve(&case.problem);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            solves.push(Solve {
                case: i,
                traced: trace,
                ms,
                outcome: outcome.ok(),
            });
        }
        cycle += 1;
    }
    solves
}

/// Checks every solve: it succeeded, its best solution is feasible,
/// and its rendered `result` bytes equal every other solve of the same
/// case (`reference`, filled from the first one seen).
fn check(
    solves: &[Solve],
    cases: &[Case],
    reference: &mut [Option<String>],
    result: &mut RunResult,
) -> (Tally, Vec<bool>) {
    let mut tally = Tally::default();
    let mut ok = Vec::new();
    for s in solves {
        let verdict = match &s.outcome {
            None => Verdict::Error,
            Some(o) if !o.best.feasible || !cases[s.case].problem.is_feasible(&o.best.bits) => {
                result
                    .problems
                    .push(format!("case {}: infeasible best solution", s.case));
                Verdict::Mismatch
            }
            Some(o) => {
                let text = render_outcome(o);
                match &reference[s.case] {
                    None => {
                        reference[s.case] = Some(text);
                        Verdict::Ok
                    }
                    Some(r) if *r == text => Verdict::Ok,
                    Some(_) => {
                        result.problems.push(format!(
                            "case {}: result bytes differ between solves",
                            s.case
                        ));
                        Verdict::Mismatch
                    }
                }
            }
        };
        tally.record(verdict);
        ok.push(verdict == Verdict::Ok);
    }
    (tally, ok)
}

fn child<'a>(span: &'a Span, label: &str) -> Option<&'a Span> {
    span.children.iter().find(|c| c.label == label)
}

/// Outside-timed compile layers of one case, in milliseconds:
/// (prepare, basis, simplify, chain, segment plan + compile).
pub fn prepare_layers(problem: &Problem, config: &RasenganConfig) -> Option<[f64; 5]> {
    let solver = Rasengan::new(config.clone());
    let prepared = solver.prepare(problem).ok()?;
    let raw = problem_basis(problem).ok()?;
    let reps = 3;
    let ms = |f: &mut dyn FnMut()| stats::time_call_us(reps, 0.02, f) / 1e3;
    let prepare = ms(&mut || {
        std::hint::black_box(solver.prepare(problem).ok());
    });
    let basis = ms(&mut || {
        std::hint::black_box(problem_basis(problem).ok());
    });
    let simplify = ms(&mut || {
        std::hint::black_box(simplify_basis(&raw));
    });
    let chain_cfg = ChainConfig {
        max_rounds: config.max_rounds,
        prune: config.prune,
        early_stop: config.early_stop,
        support_cap: config.support_cap,
    };
    let chain_ms = ms(&mut || {
        std::hint::black_box(build_chain(
            &prepared.basis,
            prepared.seed_label,
            &chain_cfg,
        ));
    });
    let ops = &prepared.chain.ops;
    let segment = ms(&mut || {
        let plan = plan_segments(ops, config.segment_depth_budget);
        let programs: Vec<SegmentProgram> = plan
            .segments
            .iter()
            .map(|r| SegmentProgram::compile(&ops[r.clone()]))
            .collect();
        std::hint::black_box(programs);
    });
    Some([prepare, basis, simplify, chain_ms, segment])
}

/// Sets the compile-layer metrics to their means over `compile`
/// (rows from [`prepare_layers`]).
pub fn set_compile_layers(result: &mut RunResult, compile: &[[f64; 5]]) {
    let names = [
        "core.prepare_ms",
        "math.basis_ms",
        "core.simplify_ms",
        "core.chain_ms",
        "core.segment_ms",
    ];
    for (k, name) in names.into_iter().enumerate() {
        result.set(
            name,
            stats::mean(&compile.iter().map(|c| c[k]).collect::<Vec<_>>()),
        );
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    // Set-up: generate the instances and warm up with one solve.
    let (cases, setup_s) = median_setup(3, || {
        let cases = cases(opts.seed);
        Rasengan::new(cases[0].config.clone())
            .solve(&cases[0].problem)
            .map_err(|e| format!("warm-up solve: {e}"))?;
        Ok(cases)
    })?;
    result.set("setup_s", setup_s);
    result.note("solver_threads", solver_threads());
    result.note("shots", SHOTS);
    result.note("iterations", ITERATIONS);

    let mut reference = vec![None; cases.len()];
    if !opts.trace {
        let cpu0 = procfs::cpu_seconds(None);
        let solves = closed_loop(&cases, opts.seconds, |_| false);
        let cpu = procfs::cpu_seconds(None) - cpu0;
        let (tally, ok) = check(&solves, &cases, &mut reference, &mut result);
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
        let (arg, feasible) = quality()?;
        result.set("arg_mean", arg);
        result.set("feasible_rate", feasible);
        result.set("peak_rss_mb", procfs::peak_rss_mb(None));
        result.set("cpu_ms_per_op", cpu * 1e3 / solves.len().max(1) as f64);
        result.note("samples", solves.len());
        return Ok(result);
    }

    // Traced run: untraced and traced cycles alternate, and every traced
    // solve's result bytes must equal the untraced ones.
    let (traced, plain): (Vec<Solve>, Vec<Solve>) =
        closed_loop(&cases, opts.seconds, |cycle| cycle % 2 == 1)
            .into_iter()
            .partition(|s| s.traced);
    let mut tally = check(&plain, &cases, &mut reference, &mut result).0;
    tally.merge(check(&traced, &cases, &mut reference, &mut result).0);
    result.tally = tally;
    let plain_ms: Vec<f64> = plain.iter().map(|s| s.ms).collect();
    let traced_ms: Vec<f64> = traced.iter().map(|s| s.ms).collect();
    result.set(
        "obs.trace_overhead_frac",
        stats::median(&traced_ms) / stats::median(&plain_ms),
    );
    result.note("samples", plain.len() + traced.len());

    let compile: Vec<[f64; 5]> = cases
        .iter()
        .map(|c| prepare_layers(&c.problem, &c.config).ok_or("prepare failed".to_string()))
        .collect::<Result<_, _>>()?;
    set_compile_layers(&mut result, &compile);

    let (mut train, mut execute, mut per_eval, mut evals, mut shots, mut us_shot) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut attempt_ms, mut attempts_per_seg, mut kept) = (vec![], vec![], vec![]);
    let (mut e2e, mut layers) = (0.0, 0.0);
    for s in &traced {
        let Some(o) = &s.outcome else { continue };
        let Some(tree) = &o.trace else { continue };
        let train_ms = child(&tree.root, "train").map_or(0.0, |t| t.elapsed_s * 1e3);
        let exec = child(&tree.root, "execute");
        let exec_ms = exec.map_or(0.0, |t| t.elapsed_s * 1e3);
        train.push(train_ms);
        execute.push(exec_ms);
        per_eval.push(train_ms / o.evaluations.max(1) as f64);
        evals.push(o.evaluations as f64);
        shots.push(o.total_shots as f64);
        us_shot.push((train_ms + exec_ms) * 1e3 / o.total_shots.max(1) as f64);
        kept.push(o.raw_in_constraints_rate);
        for seg in exec.map_or(&[][..], |e| &e.children[..]) {
            let attempts: Vec<&Span> = seg
                .children
                .iter()
                .filter(|c| c.label == "attempt")
                .collect();
            attempts_per_seg.push(attempts.len() as f64);
            attempt_ms.extend(attempts.iter().map(|a| a.elapsed_s * 1e3));
        }
        e2e += s.ms;
        layers += compile[s.case][0] + train_ms + exec_ms;
    }
    result.set("core.train_ms", stats::mean(&train));
    result.set("core.execute_ms", stats::mean(&execute));
    result.set("core.train_ms_per_eval", stats::mean(&per_eval));
    result.set("optim.evaluations", stats::mean(&evals));
    result.set("qsim.shots", stats::mean(&shots));
    result.set("qsim.us_per_shot", stats::mean(&us_shot));
    result.set("qsim.segment_attempt_ms", stats::mean(&attempt_ms));
    result.set("qsim.attempts_per_segment", stats::mean(&attempts_per_seg));
    result.set("core.purify.kept_frac", stats::mean(&kept));
    let n = traced.len().max(1) as f64;
    set_closure(&mut result, e2e / n, layers / n);
    Ok(result)
}
