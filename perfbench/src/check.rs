//! Output checks and failure accounting. Every operation a workload
//! attempts ends in exactly one [`Verdict`]; anything but `Ok` counts
//! as failed, so `failed / attempted` covers errors, shed requests,
//! timeouts, refused connections and wrong answers alike.

use rasengan_serve::{Reply, ReplyStatus};
use std::io;

/// How one attempted operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Completed, and the output matched its reference.
    Ok,
    /// The program answered with an error.
    Error,
    /// The service shed the request (`BUSY`).
    Busy,
    /// The connection or read timed out.
    Timeout,
    /// The connection was refused or reset.
    Refused,
    /// Any other I/O or framing failure.
    Io,
    /// Completed, but the output differs from its reference.
    Mismatch,
}

/// Classifies a served reply against the expected `result` section.
pub fn classify_reply(reply: &io::Result<Reply>, expected_result: &str) -> Verdict {
    match reply {
        Ok(reply) => match reply.status {
            ReplyStatus::Ok if reply.section("result") == Some(expected_result) => Verdict::Ok,
            ReplyStatus::Ok => Verdict::Mismatch,
            ReplyStatus::Busy => Verdict::Busy,
            ReplyStatus::Error => Verdict::Error,
        },
        Err(err) => match err.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => Verdict::Timeout,
            io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted => Verdict::Refused,
            _ => Verdict::Io,
        },
    }
}

/// Attempted/failed counts of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose verdict was not `Ok`.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, verdict: Verdict) {
        self.attempted += 1;
        if verdict != Verdict::Ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Share of attempted operations that succeeded with a correct
    /// output (1 when nothing was attempted).
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }
}
