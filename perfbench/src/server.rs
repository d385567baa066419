//! The solve service under test, run as a child process so its CPU
//! time and peak memory are its own. The child is this same binary in
//! `--serve-child` mode: it calls [`rasengan_serve::serve`], prints the
//! bound address, and serves until its stdin closes.

use crate::procfs;
use rasengan_obs::json::Json;
use rasengan_serve::{serve, stats, ServeConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};

/// Flag that selects the child mode.
pub const CHILD_FLAG: &str = "--serve-child";

/// A running service child process.
pub struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
    state_dir: Option<PathBuf>,
}

impl ServerChild {
    /// Starts a service with `workers` solve workers, `solver_threads`
    /// engine threads per solve, default cache sizes, and optionally a
    /// fresh state directory, which is deleted when the service stops.
    pub fn start(
        workers: usize,
        solver_threads: usize,
        state_dir: Option<PathBuf>,
    ) -> Result<ServerChild, String> {
        if let Some(dir) = &state_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg(CHILD_FLAG)
            .arg(workers.to_string())
            .arg(solver_threads.to_string());
        if let Some(dir) = &state_dir {
            cmd.arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn service: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        // A failed read leaves the line empty, which the parse rejects.
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let addr = match line.trim().parse::<SocketAddr>() {
            Ok(addr) => addr,
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                if let Some(dir) = &state_dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
                return Err(format!(
                    "service did not report an address (got `{}`)",
                    line.trim()
                ));
            }
        };
        Ok(ServerChild {
            stdin: child.stdin.take(),
            child,
            addr,
            state_dir,
        })
    }

    /// The service's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// CPU seconds the service process has used so far.
    pub fn cpu_seconds(&self) -> f64 {
        procfs::cpu_seconds(Some(self.child.id()))
    }

    /// Peak resident memory of the service process, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        procfs::peak_rss_mb(Some(self.child.id()))
    }

    /// The `stats` section of a `STATS` reply.
    pub fn stats(&self) -> Result<Json, String> {
        stats(self.addr)
            .map_err(|e| format!("STATS: {e}"))?
            .json("stats")
    }

    /// Closes the service's stdin, which makes it drain and exit, and
    /// waits for it.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for service: {e}"));
        if let Some(dir) = self.state_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let status = status?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("service exited with {status}"))
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.shutdown();
        }
    }
}

/// Body of the child process: `--serve-child WORKERS THREADS [STATE_DIR]`.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let number = |i: usize| -> Result<usize, String> {
        args.get(i)
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("{CHILD_FLAG}: argument {i} must be a number"))
    };
    let mut config = ServeConfig::default()
        .with_addr("127.0.0.1:0")
        .with_workers(number(0)?)
        .with_solver_threads(number(1)?);
    if let Some(dir) = args.get(2) {
        config = config.with_state_dir(PathBuf::from(dir));
    }
    let handle = serve(config).map_err(|e| format!("serve: {e}"))?;
    {
        let mut out = std::io::stdout().lock();
        writeln!(out, "{}", handle.addr()).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    // Serve until the parent closes our stdin (or exits).
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    handle.shutdown();
    Ok(())
}
