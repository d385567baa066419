//! Open-loop load generation: requests are due on a fixed schedule,
//! whether or not earlier ones have finished, and each is timed from
//! the moment it was *due*. A stall therefore charges every request
//! queued behind it, which a closed loop would hide by simply sending
//! less.

use rasengan_problems::registry::case_seed;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Uniform in `[0, 1)` from a 64-bit hash (53-bit mantissa).
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Poisson arrival offsets (exponential gaps at `rate_per_s`) from
/// `start` up to `start + duration`, drawn from `seed`.
pub fn poisson_arrivals(
    seed: u64,
    rate_per_s: f64,
    start: Duration,
    duration: Duration,
) -> Vec<Duration> {
    let end = (start + duration).as_secs_f64();
    let mut t = start.as_secs_f64();
    let mut out = Vec::new();
    for i in 0u64.. {
        t += -(1.0 - unit(case_seed(seed, i))).ln() / rate_per_s;
        if t >= end {
            break;
        }
        out.push(Duration::from_secs_f64(t));
    }
    out
}

/// When one open-loop request was due, when a sender picked it up,
/// and when its reply was complete — all relative to the loop start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Scheduled send time.
    pub due: Duration,
    /// Time a sender actually began the request.
    pub started: Duration,
    /// Time the reply was fully read and parsed.
    pub done: Duration,
}

impl Timing {
    /// Latency charged to the request: from its due time, not from
    /// when it was actually sent.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator started the request.
    pub fn late_ms(&self) -> f64 {
        self.started.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Runs `op(i)` for every entry of `due` (sorted offsets from now) on
/// `senders` threads. The calling thread is the generator: it releases
/// each request at its due time onto a shared queue, so when every
/// sender is busy a request waits — and that wait is in its latency.
/// Returns each request's timing and result, in schedule order.
pub fn run_open_loop<T: Send>(
    due: &[Duration],
    senders: usize,
    op: impl Fn(usize) -> T + Sync,
) -> Vec<(Timing, T)> {
    let origin = Instant::now();
    let (tx, rx) = mpsc::channel::<usize>();
    let rx = Mutex::new(rx);
    let results: Mutex<Vec<Option<(Timing, T)>>> =
        Mutex::new((0..due.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..senders.max(1) {
            scope.spawn(|| loop {
                let next = rx.lock().expect("open-loop queue lock").recv();
                let Ok(i) = next else { break };
                let started = origin.elapsed();
                let value = op(i);
                let done = origin.elapsed();
                let timing = Timing {
                    due: due[i],
                    started,
                    done,
                };
                results.lock().expect("open-loop results lock")[i] = Some((timing, value));
            });
        }
        for (i, &at) in due.iter().enumerate() {
            let now = origin.elapsed();
            if at > now {
                std::thread::sleep(at - now);
            }
            tx.send(i).expect("senders outlive the generator");
        }
        drop(tx);
    });
    results
        .into_inner()
        .expect("open-loop results lock")
        .into_iter()
        .map(|r| r.expect("every scheduled request ran"))
        .collect()
}
