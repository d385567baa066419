//! The two served workloads. Both drive a service child process over
//! TCP with [`rasengan_serve::submit`] and check every reply's `result`
//! section byte for byte against an in-process solve of the same
//! request, computed outside the timed window.
//!
//! * `served-hot` — a closed loop of 2 clients over a small hot set in
//!   all four wire formats, primed during set-up, so nearly every
//!   request is a result-cache hit and the solver does nothing.
//! * `served-mix` — an open loop of Poisson arrivals at a fixed ladder
//!   of rates over the whole 32-id corpus, mixing exact repeats, known
//!   problems with a new seed, and fresh problems, against a service
//!   with a state directory; the distinct working set outgrows the
//!   256-entry result cache, so misses write records and some repeats
//!   fall through to disk.

use crate::check::{classify_reply, Tally, Verdict};
use crate::openloop::{poisson_arrivals, run_open_loop, Timing};
use crate::server::ServerChild;
use crate::stats::Op;
use crate::workloads::noisy::{prepare_layers, set_compile_layers};
use crate::{median_setup, nproc, set_closure, stats, Opts, RunResult};
use rasengan_core::{Outcome, Rasengan};
use rasengan_obs::json::Json;
use rasengan_problems::ingest::{parse_as, write_as, Format};
use rasengan_problems::registry::{all_ids, benchmark, case_seed, instance, BenchmarkId};
use rasengan_problems::{optimum, Problem};
use rasengan_serve::protocol::timing_json;
use rasengan_serve::{
    outcome_json, render_outcome, submit, IncrementalParser, OutcomeKey, Persist, Reply,
    ReplyStatus, SolveRequest,
};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Solver budget of every served request: noise-free, small, fixed.
const SHOTS: usize = 32;
const ITERATIONS: usize = 6;
/// Client connections of the `served-hot` closed loop (= `nproc` on
/// the reference machine).
const HOT_CLIENTS: usize = 2;
const HOT_IDS: [&str; 8] = ["F1", "K1", "J1", "M1", "P2", "B1", "S1", "G1"];
/// `served-mix` arrival-rate ladder as `(requests per second, share of
/// the window)`: the first rung is the reference whose latencies are the
/// end-to-end `op_ms_*` figures (it gets two thirds of the window, so
/// its p99 rests on ~1300 requests); the top rung overloads the service,
/// which measures its capacity. A rung counts as sustained (reported per rung)
/// when its p99 is within `LIMIT_MS` and its backlog did not grow.
const LADDER: [(f64, f64); 4] = [
    (100.0, 2.0 / 3.0),
    (300.0, 1.0 / 9.0),
    (600.0, 1.0 / 9.0),
    (1500.0, 1.0 / 9.0),
];
const REF_RUNG: usize = 0;
const LIMIT_MS: f64 = 250.0;
/// Open-loop sender threads: more than the service's queue could ever
/// need at the ladder's rates, and fewer than its 64-slot admission
/// queue, so overload shows as latency rather than shed requests.
const SENDERS: usize = 32;
/// Default result-cache capacity of the service.
const RESULT_CACHE: f64 = 256.0;

fn request(problem_text: String, format: Format, seed: u64) -> SolveRequest {
    SolveRequest::new(problem_text)
        .with_seed(seed)
        .with_shots(SHOTS)
        .with_iterations(ITERATIONS)
        .with_format(format)
}

/// The in-process reference for a request: the same lowering and
/// solver configuration the service uses.
fn reference(req: &SolveRequest) -> Result<Outcome, String> {
    let problem = parse_as(req.format, &req.problem_text).map_err(|e| format!("parse: {e}"))?;
    Rasengan::new(req.config().with_threads(1))
        .solve(&problem)
        .map_err(|e| format!("reference solve: {e}"))
}

/// Computes references for many requests on `nproc` threads.
fn references(reqs: &[&SolveRequest]) -> Result<Vec<Outcome>, String> {
    let next = AtomicU64::new(0);
    let out: Mutex<Vec<Option<Result<Outcome, String>>>> =
        Mutex::new((0..reqs.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..nproc() {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= reqs.len() {
                    break;
                }
                let r = reference(reqs[i]);
                out.lock().expect("reference lock")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("reference lock")
        .into_iter()
        .map(|r| r.expect("every reference computed"))
        .collect()
}

/// Largest problem sent in a QUBO format. The penalty form has no
/// constraints left, so the solver explores the whole hypercube: a
/// 20-variable QUBO solve takes ~0.5 s against ~8 ms for its native form.
const MAX_QUBO_VARS: usize = 14;

/// The problem's wire text in `format`, if the problem round-trips
/// through that format and its lowered form has a nonzero optimum.
/// ARG (Eq. 9) divides by the optimum; the service panics on such a
/// request instead of answering it, so it is no performance case.
fn wire_text(problem: &Problem, format: Format) -> Option<String> {
    if matches!(format, Format::Qubo | Format::QuboRecover) && problem.n_vars() > MAX_QUBO_VARS {
        return None;
    }
    let text = write_as(format, problem).ok()?;
    let lowered = parse_as(format, &text).ok()?;
    (optimum(&lowered).1 != 0.0).then_some(text)
}

/// A directory for service state, inside the build directory.
fn state_dir(tag: &str) -> PathBuf {
    static COUNT: AtomicU64 = AtomicU64::new(0);
    let root = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    PathBuf::from(root).join("perfbench-state").join(format!(
        "{}-{tag}-{}",
        std::process::id(),
        COUNT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One served request as the client saw it.
struct Sample {
    req: usize,
    /// Seconds into the window: when it was sent (closed loop) or due
    /// (open loop).
    at: f64,
    ms: f64,
    reply: io::Result<Reply>,
}

/// Runs `clients` closed-loop clients over `reqs` for `seconds`.
fn closed_clients(
    server: &ServerChild,
    reqs: &[SolveRequest],
    clients: usize,
    seconds: f64,
) -> (Vec<Sample>, f64) {
    let addr = server.addr();
    let start = Instant::now();
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for c in 0..clients {
            let samples = &samples;
            scope.spawn(move || {
                let mut mine = Vec::new();
                let mut k = c * reqs.len() / clients;
                while start.elapsed().as_secs_f64() < seconds {
                    let i = k % reqs.len();
                    let at = start.elapsed().as_secs_f64();
                    let t = Instant::now();
                    let reply = submit(addr, &reqs[i]);
                    mine.push(Sample {
                        req: i,
                        at,
                        ms: t.elapsed().as_secs_f64() * 1e3,
                        reply,
                    });
                    k += 1;
                }
                samples.lock().expect("samples lock").extend(mine);
            });
        }
    });
    (
        samples.into_inner().expect("samples lock"),
        start.elapsed().as_secs_f64(),
    )
}

/// Checks every reply against its expected `result` bytes; returns the
/// counts and each sample's pass/fail.
fn tally(samples: &[Sample], expected: &[String], result: &mut RunResult) -> (Tally, Vec<bool>) {
    let mut tally = Tally::default();
    let mut ok = Vec::with_capacity(samples.len());
    for s in samples {
        let verdict = classify_reply(&s.reply, &expected[s.req]);
        if verdict != Verdict::Ok && result.problems.len() < 8 {
            result
                .problems
                .push(format!("request {}: {verdict:?}", s.req));
        }
        tally.record(verdict);
        ok.push(verdict == Verdict::Ok);
    }
    (tally, ok)
}

/// Quality guard: mean ARG and in-constraints rate of the served
/// solver configuration on the canonical instances of `ids` at a fixed
/// seed, solved in process (every served `result` is checked byte-equal
/// to such a solve). It does not depend on the workload seed.
fn quality(ids: &[BenchmarkId]) -> Result<(f64, f64), String> {
    let reqs: Vec<SolveRequest> = ids
        .iter()
        .map(|&id| {
            request(
                write_as(Format::Native, &benchmark(id)).expect("native export"),
                Format::Native,
                0,
            )
        })
        .collect();
    let outcomes = references(&reqs.iter().collect::<Vec<_>>())?;
    Ok((
        stats::mean(&outcomes.iter().map(|o| o.arg).collect::<Vec<_>>()),
        stats::mean(
            &outcomes
                .iter()
                .map(|o| o.in_constraints_rate)
                .collect::<Vec<_>>(),
        ),
    ))
}

// ---------------------------------------------------------------- STATS

fn num(stats: &Json, path: &[&str]) -> f64 {
    let mut v = stats;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

fn delta(before: &Json, after: &Json, path: &[&str]) -> f64 {
    num(after, path) - num(before, path)
}

/// A service histogram's buckets (`log2` bucket index → count) and sum.
fn histogram(stats: &Json, name: &str) -> (BTreeMap<i128, i128>, f64) {
    let h = stats
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get(name));
    let buckets = h
        .and_then(|h| h.get("buckets"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|b| {
            let pair = b.as_arr()?;
            Some((pair.first()?.as_i128()?, pair.get(1)?.as_i128()?))
        })
        .collect();
    (buckets, h.map_or(0.0, |h| num(h, &["sum"])))
}

/// Percentile of the samples a histogram gained between two
/// snapshots, plus their mean, in the histogram's unit. Bucket `i`
/// holds values of bit length `i`, i.e. `[2^(i-1), 2^i)`; the rank is
/// interpolated linearly inside its bucket, which is finer than the
/// service's own rule (the bucket's upper bound).
fn histogram_delta(before: &Json, after: &Json, name: &str, q: f64) -> (f64, f64) {
    let (b0, s0) = histogram(before, name);
    let (b1, s1) = histogram(after, name);
    let diff: Vec<(i128, i128)> = b1
        .iter()
        .map(|(i, n)| (*i, n - b0.get(i).copied().unwrap_or(0)))
        .collect();
    let count: i128 = diff.iter().map(|(_, n)| n).sum();
    if count <= 0 {
        return (0.0, 0.0);
    }
    let rank = (q * count as f64).ceil().max(1.0);
    let mut seen = 0.0;
    let mut p = 0.0;
    for (i, n) in diff {
        if n <= 0 {
            continue;
        }
        if seen + n as f64 >= rank {
            let lo = if i == 0 {
                0.0
            } else {
                (1u128 << (i - 1)) as f64
            };
            let hi = (1u128 << i) as f64;
            p = lo + (hi - lo) * (rank - seen) / n as f64;
            break;
        }
        seen += n as f64;
    }
    (p, (s1 - s0) / count as f64)
}

// ---------------------------------------------------- per-layer metrics

/// Outside-timed layer calls on a sample of the workload's requests
/// and their reference outcomes; sets the `problems.*` and
/// `serve.protocol.*` metrics and returns
/// (request parse, reply render, reply parse) in microseconds.
fn protocol_layers(
    result: &mut RunResult,
    sample: &[(&SolveRequest, &Outcome)],
) -> (f64, f64, f64) {
    let t = |f: &mut dyn FnMut()| stats::time_call_us(20, 0.01, f);
    let mut by_format: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut fp, mut req_parse, mut render, mut reply_parse) = (vec![], vec![], vec![], vec![]);
    for (req, outcome) in sample {
        let text = &req.problem_text;
        by_format
            .entry(req.format.token())
            .or_default()
            .push(t(&mut || {
                std::hint::black_box(parse_as(req.format, text).ok());
            }));
        if let Ok(problem) = parse_as(req.format, text) {
            fp.push(t(&mut || {
                std::hint::black_box(problem.fingerprint());
            }));
        }
        let wire = req.render();
        req_parse.push(t(&mut || {
            let mut parser = IncrementalParser::new();
            std::hint::black_box(parser.feed(wire.as_bytes()).ok());
        }));
        let service = Json::obj(vec![
            ("fingerprint", Json::Str(format!("{:#034x}", 0u128))),
            ("cache", Json::Str("hit".to_string())),
            ("queue_wait_ms", Json::Num(0.0)),
        ]);
        let mut reply_text = String::new();
        render.push(t(&mut || {
            reply_text = Reply::new(
                ReplyStatus::Ok,
                vec![
                    ("service", service.clone()),
                    ("result", outcome_json(outcome)),
                    ("timing", timing_json(outcome)),
                ],
            )
            .render();
        }));
        reply_parse.push(t(&mut || {
            std::hint::black_box(Reply::parse(&reply_text).ok());
        }));
    }
    for (format, times) in by_format {
        let name = match format {
            "native" => "problems.parse_us.native",
            "qubo" => "problems.parse_us.qubo",
            "qubo-recover" => "problems.parse_us.qubo-recover",
            _ => "problems.parse_us.lp",
        };
        result.set(name, stats::mean(&times));
    }
    result.set("problems.fingerprint_us", stats::mean(&fp));
    let (rp, rr, pp) = (
        stats::mean(&req_parse),
        stats::mean(&render),
        stats::mean(&reply_parse),
    );
    result.set("serve.protocol.request_parse_us", rp);
    result.set("serve.protocol.reply_render_us", rr);
    result.set("serve.protocol.reply_parse_us", pp);
    (rp, rr, pp)
}

/// Layer metrics read from the service: `STATS` deltas over a window
/// and the `service` section of each reply. Returns the mean server
/// time per request, ms.
fn service_layers(
    result: &mut RunResult,
    before: &Json,
    after: &Json,
    samples: &[Sample],
    client_ms_p50: f64,
) -> f64 {
    let n = samples.len().max(1) as f64;
    let (p50_us, mean_us) = histogram_delta(before, after, "serve.request_us", 0.5);
    result.set("serve.server_request_ms_p50", p50_us / 1e3);
    result.set("serve.unattributed_ms_p50", client_ms_p50 - p50_us / 1e3);
    result.set(
        "serve.reactor.readable_events_per_req",
        delta(before, after, &["readable_events"]) / n,
    );
    result.set(
        "serve.reactor.loop_iterations_per_req",
        delta(before, after, &["loop_iterations"]) / n,
    );
    result.set(
        "serve.reactor.writable_stalls",
        delta(before, after, &["writable_stalls"]),
    );
    result.set("serve.shed", delta(before, after, &["shed"]));
    result.set(
        "serve.errors",
        delta(before, after, &["served_error"])
            + delta(before, after, &["bad_requests"])
            + delta(before, after, &["timeouts"]),
    );
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    let (hits, misses) = (
        delta(before, after, &["result_hits"]),
        delta(before, after, &["result_misses"]),
    );
    result.set("serve.cache.result_hit_ratio", ratio(hits, misses));
    result.set(
        "serve.cache.compile_hit_ratio",
        ratio(
            delta(before, after, &["compile_hits"]),
            delta(before, after, &["compile_misses"]),
        ),
    );
    // The service does not export its eviction counter; every result
    // insert beyond the cache's capacity evicts at least one entry.
    result.set(
        "serve.cache.evictions",
        (num(after, &["result_misses"]) - RESULT_CACHE).max(0.0),
    );
    result.set(
        "serve.persist.disk_hit_ratio",
        ratio(
            delta(before, after, &["persist", "disk_hits"]),
            delta(before, after, &["persist", "disk_misses"]),
        ),
    );

    let mut queue = vec![];
    let mut computed = 0.0;
    for s in samples {
        let Ok(reply) = &s.reply else { continue };
        let Ok(service) = reply.json("service") else {
            continue;
        };
        queue.extend(service.get("queue_wait_ms").and_then(Json::as_f64));
        if !matches!(
            service.get("cache").and_then(Json::as_str),
            Some("hit" | "disk-hit")
        ) {
            computed += 1.0;
        }
    }
    result.set("serve.queue_ms_p50", stats::median(&queue));
    result.set("serve.queue_ms_p99", stats::percentile(&queue, 0.99));
    let flushes = delta(before, after, &["persist", "flushes"]);
    result.set(
        "serve.persist.flushes_per_miss",
        if computed > 0.0 {
            flushes / computed
        } else {
            0.0
        },
    );
    mean_us / 1e3
}

/// Outside-timed persist-tier calls on a temporary state directory.
fn persist_layers(
    result: &mut RunResult,
    sample: &[(&SolveRequest, &Outcome)],
) -> Result<(), String> {
    let dir = state_dir("persist-probe");
    let persist = Persist::open(&dir).map_err(|e| format!("open temporary persist: {e}"))?;
    let t = |f: &mut dyn FnMut()| stats::time_call_us(10, 0.01, f);
    let (mut store_o, mut load_o, mut store_p) = (vec![], vec![], vec![]);
    for (req, outcome) in sample {
        let Ok(problem) = parse_as(req.format, &req.problem_text) else {
            continue;
        };
        let fingerprint = problem.fingerprint();
        let key = OutcomeKey {
            fingerprint,
            seed: req.seed,
            shots: req.shots,
            iterations: req.iterations,
            retries: req.retries,
            degrade: req.degrade,
            deadline_ms: req.deadline_ms,
        };
        store_o.push(t(&mut || {
            std::hint::black_box(persist.store_outcome(&key, outcome).is_ok());
        }));
        load_o.push(t(&mut || {
            std::hint::black_box(persist.load_outcome(&key));
        }));
        if let Ok(prepared) = Rasengan::new(req.config()).prepare(&problem) {
            store_p.push(t(&mut || {
                std::hint::black_box(persist.store_prepared(fingerprint, &prepared).is_ok());
            }));
        }
    }
    drop(persist);
    let _ = std::fs::remove_dir_all(&dir);
    result.set("serve.persist.store_outcome_us", stats::mean(&store_o));
    result.set("serve.persist.load_outcome_us", stats::mean(&load_o));
    result.set("serve.persist.store_prepared_us", stats::mean(&store_p));
    Ok(())
}

fn outcome_ok(outcome: &Outcome) -> bool {
    outcome.best.feasible && outcome.arg.is_finite()
}

/// The in-process references themselves must be sound answers.
fn check_references<'a>(outcomes: impl IntoIterator<Item = &'a Outcome>, result: &mut RunResult) {
    let bad = outcomes.into_iter().filter(|o| !outcome_ok(o)).count();
    if bad > 0 {
        result.problems.push(format!(
            "{bad} reference outcomes infeasible or without ARG"
        ));
    }
}

// ------------------------------------------------------------ served-hot

/// The hot set: small registry shapes in every wire format they
/// round-trip through.
fn hot_requests(seed: u64) -> Vec<SolveRequest> {
    let mut out = Vec::new();
    for (i, id) in HOT_IDS.iter().enumerate() {
        let id = BenchmarkId::parse(id).expect("registry id");
        let problem = instance(id, case_seed(seed, 1000 + i as u64));
        for (f, format) in Format::all().into_iter().enumerate() {
            if let Some(text) = wire_text(&problem, format) {
                out.push(request(
                    text,
                    format,
                    case_seed(seed, 2000 + 4 * i as u64 + f as u64),
                ));
            }
        }
    }
    out
}

struct Hot {
    server: ServerChild,
    reqs: Vec<SolveRequest>,
    traced: Vec<SolveRequest>,
    outcomes: Vec<Outcome>,
    expected: Vec<String>,
    prime: Tally,
}

fn hot_setup(opts: &Opts) -> Result<Hot, String> {
    let server = ServerChild::start(nproc(), 1, None)?;
    let reqs = hot_requests(opts.seed);
    let outcomes = references(&reqs.iter().collect::<Vec<_>>())?;
    let expected: Vec<String> = outcomes.iter().map(render_outcome).collect();
    let traced: Vec<SolveRequest> = reqs.iter().map(|r| r.clone().with_trace()).collect();
    // Prime the result cache (and warm the connection path): every hot
    // request once, and in a traced run its traced twin too.
    let mut prime = Tally::default();
    let primed: &[&[SolveRequest]] = if opts.trace {
        &[&reqs, &traced]
    } else {
        &[&reqs]
    };
    for set in primed {
        for (req, exp) in set.iter().zip(&expected) {
            prime.record(classify_reply(&submit(server.addr(), req), exp));
        }
    }
    Ok(Hot {
        server,
        reqs,
        traced,
        outcomes,
        expected,
        prime,
    })
}

/// Runs `served-hot`.
pub fn run_hot(opts: &Opts) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let (hot, setup_s) = median_setup(3, || hot_setup(opts))?;
    result.set("setup_s", setup_s);
    result.note("clients", HOT_CLIENTS);
    result.note("hot_set", hot.reqs.len());
    result.note("service_workers", nproc());
    result.note("solver_threads", 1);
    let formats: std::collections::BTreeSet<&str> =
        hot.reqs.iter().map(|r| r.format.token()).collect();
    if formats.len() < Format::all().len() {
        result
            .problems
            .push(format!("hot set covers only {formats:?}"));
    }
    check_references(&hot.outcomes, &mut result);
    if hot.prime.failed > 0 {
        result
            .problems
            .push(format!("{} priming requests failed", hot.prime.failed));
    }

    if !opts.trace {
        let cpu0 = hot.server.cpu_seconds();
        let (samples, wall) = closed_clients(&hot.server, &hot.reqs, HOT_CLIENTS, opts.seconds);
        let cpu = hot.server.cpu_seconds() - cpu0;
        let (mut t, ok) = tally(&samples, &hot.expected, &mut result);
        t.merge(hot.prime);
        result.tally = t;
        let slice_s = wall / stats::SLICES as f64;
        let ops: Vec<Op> = samples
            .iter()
            .zip(ok)
            .map(|(s, ok)| Op {
                slice: stats::slice_of(s.at, wall),
                ms: s.ms,
                ok,
            })
            .collect();
        let (p50, p99, rate) = stats::slice_medians(&ops, |slice| {
            slice.iter().filter(|o| o.ok).count() as f64 / slice_s
        });
        let hot_ids: Vec<BenchmarkId> = HOT_IDS
            .iter()
            .map(|id| BenchmarkId::parse(id).expect("registry id"))
            .collect();
        let (arg, rate_feasible) = quality(&hot_ids)?;
        result.set("op_ms_p50", p50);
        result.set("op_ms_p99", p99);
        result.set("ops_per_s", rate);
        result.set("ok_frac", result.tally.ok_frac());
        result.set("arg_mean", arg);
        result.set("feasible_rate", rate_feasible);
        result.set("peak_rss_mb", hot.server.peak_rss_mb());
        result.set("cpu_ms_per_op", cpu * 1e3 / samples.len().max(1) as f64);
        result.note("samples", samples.len());
        hot.server.stop()?;
        return Ok(result);
    }

    // Traced run: an untraced half (the source of the service-side
    // layer metrics), then a half of `trace`-flagged requests whose
    // `result` bytes must be the same.
    let before = hot.server.stats()?;
    let (plain, _) = closed_clients(&hot.server, &hot.reqs, HOT_CLIENTS, opts.seconds / 2.0);
    let after = hot.server.stats()?;
    let (traced, _) = closed_clients(&hot.server, &hot.traced, HOT_CLIENTS, opts.seconds / 2.0);
    let mut t = tally(&plain, &hot.expected, &mut result).0;
    t.merge(tally(&traced, &hot.expected, &mut result).0);
    t.merge(hot.prime);
    result.tally = t;
    let plain_ms: Vec<f64> = plain.iter().map(|s| s.ms).collect();
    let traced_ms: Vec<f64> = traced.iter().map(|s| s.ms).collect();
    let client_p50 = stats::median(&plain_ms);
    result.set(
        "obs.trace_overhead_frac",
        stats::median(&traced_ms) / client_p50,
    );
    result.note("samples", plain.len() + traced.len());
    let server_ms = service_layers(&mut result, &before, &after, &plain, client_p50);
    let sample: Vec<(&SolveRequest, &Outcome)> = hot.reqs.iter().zip(&hot.outcomes).collect();
    let (rp, rr, pp) = protocol_layers(&mut result, &sample);
    set_closure(
        &mut result,
        stats::mean(&plain_ms),
        (rp + rr + pp) / 1e3 + server_ms,
    );
    hot.server.stop()?;
    Ok(result)
}

// ------------------------------------------------------------ served-mix

#[derive(Clone, Copy)]
struct Draw {
    id: usize,
    instance_seed: u64,
    solver_seed: u64,
    format: usize,
}

/// Requests per block of the stream. Each block holds exactly
/// `BLOCK_FRESH` fresh problems, `BLOCK_NEW_SEED` known problems with a
/// new solver seed, and exact repeats of earlier requests in the rest
/// (70% / 10% / 20%), in a seeded order. Fixing the composition per
/// block keeps the latency mix alike from seed to seed; the seed picks
/// the order, the instances and the solver seeds.
const BLOCK: u64 = 20;
const BLOCK_FRESH: u64 = 4;
const BLOCK_NEW_SEED: u64 = 2;

/// The request stream. Fresh problems walk a seeded permutation of the
/// whole corpus, so every id recurs at the same rate, and their wire
/// format rotates through all four.
fn mix_draws(seed: u64, count: usize) -> Vec<Draw> {
    let n_ids = all_ids().len();
    let mut order: Vec<usize> = (0..n_ids).collect();
    order.sort_by_key(|&k| case_seed(seed ^ 0x1D5, k as u64));
    let mut draws: Vec<Draw> = Vec::with_capacity(count);
    let mut fresh: Vec<usize> = Vec::new();
    for i in 0..count {
        let slot = |k: u64| case_seed(seed ^ 0x005E_ED0F_313C, 8 * i as u64 + k);
        let (block, pos) = (i as u64 / BLOCK, i as u64 % BLOCK);
        // This position's rank in its block's seeded shuffle.
        let rank = (0..BLOCK)
            .filter(|&q| case_seed(seed ^ block, q) < case_seed(seed ^ block, pos))
            .count() as u64;
        let draw = if rank < BLOCK_FRESH || i == 0 {
            let n = fresh.len();
            fresh.push(i);
            Draw {
                id: order[n % n_ids],
                instance_seed: slot(5),
                solver_seed: slot(2),
                format: (n + n / n_ids) % 4,
            }
        } else if rank < BLOCK_FRESH + BLOCK_NEW_SEED {
            Draw {
                solver_seed: slot(2),
                ..draws[fresh[(slot(1) % fresh.len() as u64) as usize]]
            }
        } else {
            draws[(slot(1) % i as u64) as usize]
        };
        draws.push(draw);
    }
    draws
}

/// Materializes the draws as requests (unsupported formats fall back
/// to native), sharing the wire text of repeated problems.
fn mix_requests(draws: &[Draw]) -> Vec<SolveRequest> {
    let ids = all_ids();
    let mut texts: HashMap<(usize, u64, usize), (String, Format)> = HashMap::new();
    draws
        .iter()
        .map(|d| {
            let (text, format) = texts
                .entry((d.id, d.instance_seed, d.format))
                .or_insert_with(|| {
                    // The drawn format, else native. An instance neither can
                    // carry, or one whose size differs from the shape's
                    // canonical instance, is replaced by the next derived
                    // seed: set cover and graph coloring sizes vary with the
                    // seed, and the tail would follow whichever sizes a seed
                    // happened to draw.
                    let nominal = benchmark(ids[d.id]).n_vars();
                    let mut seed = d.instance_seed;
                    loop {
                        let problem = instance(ids[d.id], seed);
                        seed = case_seed(seed, 1);
                        if problem.n_vars() != nominal {
                            continue;
                        }
                        for format in [Format::all()[d.format], Format::Native] {
                            if let Some(text) = wire_text(&problem, format) {
                                return (text, format);
                            }
                        }
                    }
                })
                .clone();
            request(text, format, d.solver_seed)
        })
        .collect()
}

/// One rung of the ladder: its rate and its slice of the schedule.
#[derive(Clone, Copy, Debug)]
struct Rung {
    rate: f64,
    start: Duration,
    len: Duration,
}

/// Lays `(rate, seconds)` rungs end to end.
fn rungs(spec: &[(f64, f64)]) -> Vec<Rung> {
    let mut start = Duration::ZERO;
    spec.iter()
        .map(|&(rate, secs)| {
            let len = Duration::from_secs_f64(secs);
            let rung = Rung { rate, start, len };
            start += len;
            rung
        })
        .collect()
}

/// Open-loop schedule over the rungs.
fn schedule(seed: u64, rungs: &[Rung]) -> Vec<Duration> {
    rungs
        .iter()
        .enumerate()
        .flat_map(|(k, r)| {
            poisson_arrivals(case_seed(seed, 0xA000 + k as u64), r.rate, r.start, r.len)
        })
        .collect()
}

/// Solve workers of the `served-mix` service: the service's default.
/// With fewer workers than that, a cheap request stuck behind two
/// expensive ones decides the tail, and the tail follows the arrival
/// pattern's chance coincidences more than the service's speed.
const MIX_WORKERS: usize = 4;

/// A service with a fresh state directory.
fn mix_server() -> Result<ServerChild, String> {
    ServerChild::start(MIX_WORKERS, 1, Some(state_dir("mix")))
}

/// Sends every request on the open-loop schedule; each sample's
/// latency runs from its due time.
fn open_loop(
    server: &ServerChild,
    due: &[Duration],
    reqs: &[SolveRequest],
) -> (Vec<Timing>, Vec<Sample>) {
    let addr = server.addr();
    run_open_loop(due, SENDERS, |i| submit(addr, &reqs[i]))
        .into_iter()
        .enumerate()
        .map(|(req, (timing, reply))| {
            let sample = Sample {
                req,
                at: timing.due.as_secs_f64(),
                ms: timing.latency_ms(),
                reply,
            };
            (timing, sample)
        })
        .unzip()
}

/// Expected `result` bytes per request, and the distinct (first request
/// index, reference outcome) pairs they came from.
type Expected = (Vec<String>, Vec<(usize, Outcome)>);

/// Solves each distinct request once, in process.
fn mix_expected(reqs: &[SolveRequest]) -> Result<Expected, String> {
    let mut first: HashMap<String, usize> = HashMap::new();
    let mut distinct = Vec::new();
    let slot: Vec<usize> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            *first.entry(r.render()).or_insert_with(|| {
                distinct.push(i);
                distinct.len() - 1
            })
        })
        .collect();
    let outcomes = references(&distinct.iter().map(|&i| &reqs[i]).collect::<Vec<_>>())?;
    let texts: Vec<String> = outcomes.iter().map(render_outcome).collect();
    Ok((
        slot.iter().map(|&s| texts[s].clone()).collect(),
        distinct.into_iter().zip(outcomes).collect(),
    ))
}

/// Whether a rung left a growing backlog: at its end, more of its
/// requests were still unanswered than arrive within the latency limit.
fn backlog_grew(rung: &Rung, in_rung: &[(&Sample, bool)]) -> bool {
    let end = (rung.start + rung.len).as_secs_f64();
    let open = in_rung
        .iter()
        .filter(|(s, _)| s.at + s.ms / 1e3 > end)
        .count() as f64;
    open > rung.rate * LIMIT_MS / 1e3
}

/// The service's sustained throughput: correct replies completed per
/// second during the ladder's top rung, which arrives faster than the
/// service can answer (a growing backlog), so completions run at the
/// service's capacity — the highest rate it sustains. Median over the
/// rung's slices. If the top rung is not overloaded, this reads as its
/// arrival rate: the ladder caps the figure.
fn saturation_rate(top: &Rung, samples: &[Sample], ok: &[bool]) -> f64 {
    let (start, len) = (top.start.as_secs_f64(), top.len.as_secs_f64());
    let ops: Vec<Op> = samples
        .iter()
        .zip(ok)
        .filter(|(s, &ok)| ok && (start..start + len).contains(&(s.at + s.ms / 1e3)))
        .map(|(s, _)| Op {
            slice: stats::slice_of(s.at + s.ms / 1e3 - start, len),
            ms: s.ms,
            ok: true,
        })
        .collect();
    let slice_s = len / stats::SLICES as f64;
    stats::slice_medians(&ops, |slice| slice.len() as f64 / slice_s).2
}

/// Runs `served-mix`.
pub fn run_mix(opts: &Opts) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let ladder = if opts.trace {
        rungs(&[(LADDER[REF_RUNG].0, opts.seconds / 2.0)])
    } else {
        rungs(&LADDER.map(|(rate, share)| (rate, share * opts.seconds)))
    };
    let ((server, due, reqs), setup_s) = median_setup(3, || {
        let due = schedule(opts.seed, &ladder);
        let reqs = mix_requests(&mix_draws(opts.seed, due.len()));
        let server = mix_server()?;
        rasengan_serve::ping(server.addr()).map_err(|e| format!("PING: {e}"))?;
        Ok((server, due, reqs))
    })?;
    result.set("setup_s", setup_s);
    result.note("ladder", format!("{ladder:?}"));
    result.note("limit_ms", LIMIT_MS);
    result.note("requests", reqs.len());
    result.note("service_workers", MIX_WORKERS);
    result.note("solver_threads", 1);

    if !opts.trace {
        let cpu0 = server.cpu_seconds();
        let (_, samples) = open_loop(&server, &due, &reqs);
        let cpu = server.cpu_seconds() - cpu0;
        let rss = server.peak_rss_mb();
        server.stop()?;
        let (expected, distinct) = mix_expected(&reqs)?;
        let (t, ok) = tally(&samples, &expected, &mut result);
        result.tally = t;
        result.note("distinct_requests", distinct.len());
        check_references(distinct.iter().map(|(_, o)| o), &mut result);
        for (k, rung) in ladder.iter().enumerate() {
            let (start, len) = (rung.start.as_secs_f64(), rung.len.as_secs_f64());
            let in_rung: Vec<(&Sample, bool)> = samples
                .iter()
                .zip(ok.iter().copied())
                .filter(|(s, _)| s.at >= start && s.at < start + len)
                .collect();
            let ops: Vec<Op> = in_rung
                .iter()
                .map(|&(s, ok)| Op {
                    slice: stats::slice_of(s.at - start, len),
                    ms: s.ms,
                    ok,
                })
                .collect();
            // p50 is a median over slices; the p99 needs the whole rung
            // behind it (on the reference rung, ten requests lie beyond).
            let p50 = stats::slice_medians(&ops, |_| 0.0).0;
            let p99 = stats::percentile(&ops.iter().map(|o| o.ms).collect::<Vec<_>>(), 0.99);
            let ok = ops.iter().all(|o| o.ok) && p99 <= LIMIT_MS && !backlog_grew(rung, &in_rung);
            result.note(
                "rung",
                format!(
                    "{}rps n={} p50={p50:.3}ms p99={p99:.3}ms sustained={ok}",
                    rung.rate,
                    ops.len()
                ),
            );
            if k == REF_RUNG {
                result.set("op_ms_p50", p50);
                result.set("op_ms_p99", p99);
            }
        }
        let (arg, rate) = quality(&all_ids())?;
        let top = ladder.last().expect("the ladder has rungs");
        result.set("ops_per_s", saturation_rate(top, &samples, &ok));
        result.set("ok_frac", result.tally.ok_frac());
        result.set("arg_mean", arg);
        result.set("feasible_rate", rate);
        result.set("peak_rss_mb", rss);
        result.set("cpu_ms_per_op", cpu * 1e3 / samples.len().max(1) as f64);
        return Ok(result);
    }

    // Traced run: the reference rung against this service untraced (the
    // source of the layer metrics), then against a fresh service with
    // `trace`-flagged requests, whose `result` bytes must be the same.
    let before = server.stats()?;
    let (timings, plain) = open_loop(&server, &due, &reqs);
    let after = server.stats()?;
    server.stop()?;
    let traced_reqs: Vec<SolveRequest> = reqs.iter().map(|r| r.clone().with_trace()).collect();
    let second = mix_server()?;
    let (_, traced) = open_loop(&second, &due, &traced_reqs);
    second.stop()?;
    let (expected, distinct) = mix_expected(&reqs)?;
    let mut t = tally(&plain, &expected, &mut result).0;
    t.merge(tally(&traced, &expected, &mut result).0);
    result.tally = t;
    check_references(distinct.iter().map(|(_, o)| o), &mut result);
    let plain_ms: Vec<f64> = plain.iter().map(|s| s.ms).collect();
    let traced_ms: Vec<f64> = traced.iter().map(|s| s.ms).collect();
    let client_p50 = stats::median(&plain_ms);
    result.set(
        "obs.trace_overhead_frac",
        stats::median(&traced_ms) / client_p50,
    );
    let late: Vec<f64> = timings.iter().map(Timing::late_ms).collect();
    result.set("bench.gen_late_ms_p99", stats::percentile(&late, 0.99));
    result.note("samples", plain.len() + traced.len());
    result.note("distinct_requests", distinct.len());
    let server_ms = service_layers(&mut result, &before, &after, &plain, client_p50);

    // Outside-timed layers on a sample of distinct requests.
    let sample: Vec<(&SolveRequest, &Outcome)> = distinct
        .iter()
        .take(24)
        .map(|(i, o)| (&reqs[*i], o))
        .collect();
    let (rp, rr, pp) = protocol_layers(&mut result, &sample);
    persist_layers(&mut result, &sample)?;
    let mut compile = Vec::new();
    for (req, _) in sample.iter().take(12) {
        if let Ok(problem) = parse_as(req.format, &req.problem_text) {
            compile.extend(prepare_layers(&problem, &req.config()));
        }
    }
    set_compile_layers(&mut result, &compile);
    set_closure(
        &mut result,
        stats::mean(&plain_ms),
        stats::mean(&late) + (rp + rr + pp) / 1e3 + server_ms,
    );
    Ok(result)
}
