//! The server under test: built from the checkout's sources and run as
//! a child process of the harness.

use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use trajdp_server::Client;

/// Worker threads the server runs with (the `serve` default).
pub const SERVER_WORKERS: usize = 2;

/// How long a fresh server may take to report its address and answer
/// `health`.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// Builds the release `trajdp` binary of the checkout in the current
/// directory and returns its path. Cargo's output goes to stderr, so
/// the result line on stdout stays the last one.
pub fn build_release_binary() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(&cargo)
        .args(["build", "--release", "--quiet", "--manifest-path", "Cargo.toml", "--bin", "trajdp"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {cargo}: {e}"))?;
    if !status.success() {
        return Err(format!("building the trajdp binary failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = target.join("release").join("trajdp");
    if !bin.is_file() {
        return Err(format!("built binary not found at {}", bin.display()));
    }
    Ok(bin)
}

/// A running `trajdp serve` child with a private state directory. It is
/// killed and reaped when dropped.
pub struct ServerProc {
    child: Child,
    /// The loopback address the server bound.
    pub addr: SocketAddr,
    state_dir: PathBuf,
}

impl ServerProc {
    /// Starts the server on an ephemeral loopback port with
    /// `--state-dir` set to a fresh `state_dir`, and waits until it
    /// answers `health`.
    pub fn spawn(bin: &Path, state_dir: PathBuf) -> Result<ServerProc, String> {
        let _ = fs::remove_dir_all(&state_dir);
        fs::create_dir_all(&state_dir)
            .map_err(|e| format!("cannot create {}: {e}", state_dir.display()))?;
        let log_path = state_dir.with_extension("log");
        let log = fs::File::create(&log_path)
            .map_err(|e| format!("cannot create {}: {e}", log_path.display()))?;
        let child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--workers", &SERVER_WORKERS.to_string()])
            .arg("--state-dir")
            .arg(&state_dir)
            // One malloc arena: with glibc's default of one per thread,
            // the peak RSS depends on which arena each worker thread
            // lands in and swings by half between runs of the same code.
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        // The guard owns the child from here on, so every early return
        // below still kills and reaps it.
        let mut proc = ServerProc { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)), state_dir };
        let started = Instant::now();
        loop {
            if let Some(addr) = listening_addr(&log_path) {
                proc.addr = addr;
                break;
            }
            if let Ok(Some(status)) = proc.child.try_wait() {
                return Err(format!("server exited during start-up ({status})"));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err("server did not report its address in time".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = fs::remove_file(&log_path);
        Client::connect(proc.addr)
            .map_err(|e| format!("cannot connect to the server: {e}"))?
            .health()
            .map_err(|e| format!("server health check failed: {e}"))?;
        Ok(proc)
    }

    /// Peak resident set (`VmHWM`) of the server process, MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM line in the server's /proc status".to_string())
    }
}

impl Drop for ServerProc {
    /// Kills the server, waits for it, and removes its state directory.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = fs::remove_dir_all(&self.state_dir);
    }
}

/// The address in the server's "listening on ADDR (" start-up line.
fn listening_addr(log: &Path) -> Option<SocketAddr> {
    let text = fs::read_to_string(log).ok()?;
    let rest = text.split("listening on ").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}
