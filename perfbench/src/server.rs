//! The real `serve` binary as a child process: build, spawn on an
//! ephemeral loopback port, talk to it, read its gauges from `/proc`, and
//! stop it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use rlc_obs::json;

/// Builds the `serve` release binary from the repository's own workspace
/// and returns the executable's path, as cargo reports it.
pub fn build(repo: &Path) -> Result<PathBuf, String> {
    let output = Command::new("cargo")
        .current_dir(repo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "rlc-serve",
            "--bin",
            "serve",
            "--message-format=json",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building serve failed ({})", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        let Ok(message) = json::parse(line) else {
            continue;
        };
        let is_serve = message.get("reason").and_then(json::Value::as_str)
            == Some("compiler-artifact")
            && message
                .get("target")
                .and_then(|t| t.get("name"))
                .and_then(json::Value::as_str)
                == Some("serve");
        if let (true, Some(exe)) = (
            is_serve,
            message.get("executable").and_then(json::Value::as_str),
        ) {
            return Ok(PathBuf::from(exe));
        }
    }
    Err("cargo reported no serve executable".to_owned())
}

/// A running `serve --listen 127.0.0.1:0` child.
pub struct Server {
    child: Child,
    /// Held open so the daemon's later writes to stderr cannot fail.
    _stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
    /// Spawn to first `probe` answered.
    pub setup: Duration,
}

impl Server {
    /// Spawns the daemon with default flags on an ephemeral port and waits
    /// for its first `probe` answer.
    pub fn spawn(exe: &Path) -> Result<Self, String> {
        let start = Instant::now();
        let mut child = Command::new(exe)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut stderr = BufReader::new(stderr);
        let mut banner = String::new();
        let addr = match stderr.read_line(&mut banner) {
            Ok(n) if n > 0 => banner
                .trim()
                .rsplit(' ')
                .next()
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("serve printed no listen address: {banner:?}"));
        };
        let mut server = Self {
            child,
            _stderr: stderr,
            addr,
            setup: Duration::ZERO,
        };
        let probe = server.request("probe\n")?;
        if !probe.contains("\"type\": \"probe\"") {
            return Err(format!("unexpected probe answer: {probe}"));
        }
        server.setup = start.elapsed();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request on a connection of its own; returns the response line.
    pub fn request(&self, wire: &str) -> Result<String, String> {
        let mut stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        stream
            .write_all(wire.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        BufReader::new(&stream)
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        if line.is_empty() {
            return Err("server closed the connection".to_owned());
        }
        Ok(line)
    }

    /// The server's `rlc-trace/1` snapshot (the `metrics` verb's report).
    pub fn metrics(&self) -> Result<Counts, String> {
        let line = self.request("metrics\n")?;
        let doc = json::parse(line.trim()).map_err(|e| format!("metrics answer: {e:?}"))?;
        let report = doc.get("report").ok_or("metrics answer has no report")?;
        Counts::from_report(report)
    }

    /// `VmHWM`, thread count and open fds from `/proc/<pid>`.
    pub fn gauges(&self) -> Result<Gauges, String> {
        proc_gauges(self.pid())
    }

    /// Asks for `shutdown`, waits for the drain, and reaps the process;
    /// kills it if it does not exit within ten seconds.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.request("shutdown\n");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return asked.map(|_| ()),
                Ok(Some(status)) => return Err(format!("serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("serve did not exit after shutdown".to_owned());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached when `stop` was not: never leave a child behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The server-side counts the benchmark cross-checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub ok: u64,
    pub cache_hit_outcomes: u64,
    pub errors: u64,
}

impl Counts {
    fn from_report(report: &json::Value) -> Result<Self, String> {
        let get = |path: &[&str]| -> Result<u64, String> {
            let mut v = report;
            for key in path {
                v = v
                    .get(key)
                    .ok_or_else(|| format!("metrics report lacks {}", path.join(".")))?;
            }
            v.as_u64()
                .ok_or_else(|| format!("{} is not a count", path.join(".")))
        };
        Ok(Self {
            requests: get(&["requests"])?,
            hits: get(&["cache", "hits"])?,
            misses: get(&["cache", "misses"])?,
            evictions: get(&["cache", "evictions"])?,
            submitted: get(&["engine", "submitted"])?,
            completed: get(&["engine", "completed"])?,
            rejected: get(&["engine", "rejected_overload"])?
                + get(&["engine", "rejected_shutdown"])?,
            ok: get(&["outcomes", "ok"])?,
            cache_hit_outcomes: get(&["outcomes", "cache_hit"])?,
            errors: get(&["outcomes", "error"])?,
        })
    }

    /// Counts accrued between `before` and `self`.
    pub fn since(&self, before: &Self) -> Self {
        Self {
            requests: self.requests - before.requests,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            submitted: self.submitted - before.submitted,
            completed: self.completed - before.completed,
            rejected: self.rejected - before.rejected,
            ok: self.ok - before.ok,
            cache_hit_outcomes: self.cache_hit_outcomes - before.cache_hit_outcomes,
            errors: self.errors - before.errors,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    pub vm_hwm_kb: u64,
    pub threads: u64,
    pub fds: u64,
    /// User plus system CPU time, in clock ticks.
    pub cpu_ticks: u64,
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// 100 on Linux).
pub const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU time of `pid` so far, in clock ticks.
pub fn cpu_ticks(pid: u32) -> Result<u64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(system)) => Ok(user + system),
        _ => Err(format!("/proc/{pid}/stat has no CPU times")),
    }
}

/// Reads `/proc/<pid>/status` and counts `/proc/<pid>/fd`.
pub fn proc_gauges(pid: u32) -> Result<Gauges, String> {
    let mut status = String::new();
    std::fs::File::open(format!("/proc/{pid}/status"))
        .and_then(|mut f| f.read_to_string(&mut status))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let field = |name: &str| -> Result<u64, String> {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("/proc/{pid}/status has no {name}"))
    };
    let fds = std::fs::read_dir(format!("/proc/{pid}/fd"))
        .map_err(|e| format!("/proc/{pid}/fd: {e}"))?
        .count() as u64;
    Ok(Gauges {
        vm_hwm_kb: field("VmHWM:")?,
        threads: field("Threads:")?,
        fds,
        cpu_ticks: cpu_ticks(pid)?,
    })
}
