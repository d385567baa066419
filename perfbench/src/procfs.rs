//! CPU time and peak memory of a process, read from `/proc` (Linux).

use std::fs;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

fn proc_file(pid: Option<u32>, name: &str) -> String {
    let who = pid.map_or_else(|| "self".to_string(), |p| p.to_string());
    fs::read_to_string(format!("/proc/{who}/{name}")).unwrap_or_default()
}

/// User plus system CPU seconds consumed so far by a process (all its
/// threads); `None` means this process.
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    let stat = proc_file(pid, "stat");
    // utime and stime are fields 14 and 15 of the line; after the
    // parenthesised command name (field 2) they sit at indexes 11, 12.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = [11usize, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<f64>().ok()))
        .sum();
    // SAFETY: sysconf only reads a constant system parameter.
    let per_second = unsafe { sysconf(SC_CLK_TCK) };
    ticks / per_second.max(1) as f64
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    proc_file(pid, "status")
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
