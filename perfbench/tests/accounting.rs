//! The benchmark's own accounting rules: nearest-rank percentiles,
//! open-loop timing from the due time, slice medians, and failure
//! counting. Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use rasengan_obs::json::Json;
use rasengan_perfbench::check::{classify_reply, Tally, Verdict};
use rasengan_perfbench::openloop::{poisson_arrivals, run_open_loop, Timing};
use rasengan_perfbench::stats::{
    busy_rate, median, percentile, slice_medians, slice_of, Op, SLICES,
};
use rasengan_serve::{Reply, ReplyStatus};
use std::io;
use std::time::Duration;

#[test]
fn percentile_is_nearest_rank() {
    let ascending: Vec<f64> = (1..=100).map(f64::from).collect();
    let mut shuffled = ascending.clone();
    shuffled.reverse();
    shuffled.swap(3, 71);
    for sample in [&ascending, &shuffled] {
        assert_eq!(percentile(sample, 0.5), 50.0);
        assert_eq!(percentile(sample, 0.99), 99.0);
        assert_eq!(percentile(sample, 0.991), 100.0, "rank rounds up");
        assert_eq!(percentile(sample, 1.0), 100.0);
        assert_eq!(percentile(sample, 0.0), 1.0, "rank is at least 1");
    }
    // Even count: the median is the lower middle, never an average.
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    assert_eq!(percentile(&[7.5], 0.99), 7.5);
    assert_eq!(percentile(&[], 0.5), 0.0);
}

#[test]
fn open_loop_latency_runs_from_the_due_time() {
    let timing = Timing {
        due: Duration::from_millis(10),
        started: Duration::from_millis(40),
        done: Duration::from_millis(50),
    };
    assert_eq!(timing.latency_ms(), 40.0);
    assert_eq!(timing.late_ms(), 30.0);
}

#[test]
fn a_stall_is_charged_to_the_requests_behind_it() {
    // One sender; the first request stalls for 60 ms. The two behind it
    // were due at 5 and 10 ms, so each waited ~50 ms before it was even
    // sent — and that wait is part of its latency.
    let due = [
        Duration::ZERO,
        Duration::from_millis(5),
        Duration::from_millis(10),
    ];
    let runs = run_open_loop(&due, 1, |i| {
        if i == 0 {
            std::thread::sleep(Duration::from_millis(60));
        }
        i
    });
    assert_eq!(runs.iter().map(|(_, i)| *i).collect::<Vec<_>>(), [0, 1, 2]);
    let (t1, t2) = (runs[1].0, runs[2].0);
    assert_eq!(t1.due, due[1]);
    assert!(
        t1.late_ms() >= 54.0,
        "request 1 was sent {} ms late",
        t1.late_ms()
    );
    assert!(
        t1.latency_ms() >= 54.0,
        "request 1 latency {} ms",
        t1.latency_ms()
    );
    assert!(
        t2.latency_ms() >= 49.0,
        "request 2 latency {} ms",
        t2.latency_ms()
    );
    assert!(t2.latency_ms() >= t2.late_ms());
}

#[test]
fn poisson_schedule_is_seeded_sorted_and_bounded() {
    let (start, len) = (Duration::from_secs(2), Duration::from_secs(1));
    let a = poisson_arrivals(7, 1000.0, start, len);
    assert_eq!(
        a,
        poisson_arrivals(7, 1000.0, start, len),
        "same seed, same schedule"
    );
    assert_ne!(a, poisson_arrivals(8, 1000.0, start, len));
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(a.iter().all(|&t| t >= start && t < start + len));
    assert!(
        (850..1150).contains(&a.len()),
        "{} arrivals at 1000/s for 1 s",
        a.len()
    );
}

#[test]
fn slice_medians_ignore_one_stalled_slice() {
    let mut ops = Vec::new();
    for k in 0..SLICES {
        let ms = if k == 2 { 500.0 } else { 10.0 };
        ops.extend((0..10).map(|_| Op {
            slice: k,
            ms,
            ok: true,
        }));
    }
    let (p50, p99, rate) = slice_medians(&ops, busy_rate);
    assert_eq!(p50, 10.0);
    assert_eq!(p99, 10.0);
    assert_eq!(rate, 100.0, "10 ops in 100 ms of busy time");
    assert_eq!(slice_of(0.0, 10.0), 0);
    assert_eq!(slice_of(9.999, 10.0), SLICES - 1);
    assert_eq!(
        slice_of(10.0, 10.0),
        SLICES - 1,
        "the end belongs to the last slice"
    );
}

fn reply(status: ReplyStatus, result: &str) -> io::Result<Reply> {
    Ok(Reply::new(
        status,
        vec![("result", Json::Str(result.to_string()))],
    ))
}

#[test]
fn every_failure_kind_counts_against_attempted() {
    let expected = Json::Str("answer".to_string()).render();
    let cases = [
        (reply(ReplyStatus::Ok, "answer"), Verdict::Ok),
        (reply(ReplyStatus::Ok, "wrong"), Verdict::Mismatch),
        (reply(ReplyStatus::Busy, "answer"), Verdict::Busy),
        (reply(ReplyStatus::Error, "answer"), Verdict::Error),
        (
            Err(io::Error::new(io::ErrorKind::TimedOut, "t")),
            Verdict::Timeout,
        ),
        (
            Err(io::Error::new(io::ErrorKind::ConnectionRefused, "r")),
            Verdict::Refused,
        ),
        (
            Err(io::Error::new(io::ErrorKind::InvalidData, "d")),
            Verdict::Io,
        ),
    ];
    let mut tally = Tally::default();
    for (reply, want) in &cases {
        let got = classify_reply(reply, &expected);
        assert_eq!(got, *want);
        tally.record(got);
    }
    assert_eq!(tally.attempted, 7);
    assert_eq!(tally.failed, 6);
    assert!((tally.ok_frac() - 1.0 / 7.0).abs() < 1e-12);

    let mut total = Tally::default();
    assert_eq!(total.ok_frac(), 1.0, "nothing attempted, nothing failed");
    total.merge(tally);
    total.merge(tally);
    assert_eq!((total.attempted, total.failed), (14, 12));
}
