//! Lifecycle of one `llmulator serve --tcp` daemon: boot on an ephemeral
//! port, probe readiness, read counters, sample peak memory, drain with
//! SIGTERM and check the exit summary against the counters.

use serde_json::Value;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads the daemon runs with (the machine has two cores).
pub const WORKERS: usize = 2;

/// The daemon's counters from `{"stats": true}`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DaemonStats {
    pub served: u64,
    pub errors: u64,
    pub shed: u64,
    pub deadline_shed: u64,
    pub slow_client_disconnects: u64,
    pub latency_count: u64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// A running daemon; dropping it kills the process if it was not drained.
pub struct Daemon {
    child: Child,
    pub addr: String,
    log: PathBuf,
    pub flags: Vec<String>,
}

impl Daemon {
    /// Starts the daemon on `127.0.0.1:0`, waits for its `serve: listening
    /// on` line and for a `{"stats": true}` answer.
    pub fn boot(bin: &Path, model: &Path, log: &Path) -> Result<Daemon, String> {
        let flags: Vec<String> = [
            "serve",
            "--model",
            &model.display().to_string(),
            "--tcp",
            "127.0.0.1:0",
            "--workers",
            &WORKERS.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let stderr = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(&flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            log: log.to_path_buf(),
            flags,
        };
        let start = Instant::now();
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = listening_addr(&text) {
                daemon.addr = addr.to_string();
                break;
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during boot ({status}): {text}"));
            }
            if start.elapsed() > Duration::from_secs(60) {
                return Err(format!("daemon did not announce its address: {text}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        daemon.stats()?;
        Ok(daemon)
    }

    /// Asks the daemon for its counters over a fresh connection.
    pub fn stats(&self) -> Result<DaemonStats, String> {
        let err = |e: std::io::Error| format!("stats request to {}: {e}", self.addr);
        let mut stream = TcpStream::connect(&self.addr).map_err(err)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(err)?;
        stream
            .write_all(b"{\"id\":\"stats\",\"stats\":true}\n")
            .map_err(err)?;
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).map_err(err)?;
        parse_stats(&line)
    }

    /// Peak resident memory of the daemon (VmHWM), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// SIGTERM, wait for exit 0, and check that the exit summary reports
    /// the same counters as `last` (the final stats snapshot).
    pub fn drain(mut self, last: &DaemonStats) -> Result<(), String> {
        let pid = i32::try_from(self.child.id()).map_err(|e| e.to_string())?;
        send_sigterm(pid)?;
        let start = Instant::now();
        let status = loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if start.elapsed() > Duration::from_secs(60) {
                return Err("daemon did not exit within 60 s of SIGTERM".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        if !status.success() {
            return Err(format!("daemon exited with {status}: {text}"));
        }
        let summary = text
            .lines()
            .find(|l| l.starts_with("serve: ") && l.ends_with("bye"))
            .ok_or_else(|| format!("no exit summary in daemon log: {text}"))?;
        let want = [
            (" request(s) answered", last.served),
            (" error response(s)", last.errors),
            (" shed,", last.shed),
            (" deadline-shed", last.deadline_shed),
            (" slow client(s) disconnected", last.slow_client_disconnects),
        ];
        for (label, expected) in want {
            let got = number_before(summary, label)
                .ok_or_else(|| format!("exit summary lacks `{label}`: {summary}"))?;
            if got != expected {
                return Err(format!(
                    "exit summary says {got}{label} but the last stats said {expected}: {summary}"
                ));
            }
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(unix)]
fn send_sigterm(pid: i32) -> Result<(), String> {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: kill(2) takes plain integers and touches no memory of ours;
    // `pid` is our own child, not yet reaped, so it cannot name a reused pid.
    if unsafe { kill(pid, SIGTERM) } == 0 {
        Ok(())
    } else {
        Err(format!("kill({pid}, SIGTERM) failed"))
    }
}

#[cfg(not(unix))]
fn send_sigterm(_pid: i32) -> Result<(), String> {
    Err("SIGTERM needs a unix host".into())
}

/// The address in the daemon's `serve: listening on ADDR ...` line, once
/// that line is complete (the daemon may be mid-write).
fn listening_addr(log: &str) -> Option<&str> {
    log.split_inclusive('\n')
        .filter(|l| l.ends_with('\n'))
        .find_map(|l| l.strip_prefix("serve: listening on "))
        .and_then(|rest| rest.split_whitespace().next())
}

/// VmHWM from a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    status_mb(status_path, "VmHWM:")
}

/// A `kB` field of a `/proc/<pid>/status` file, in MB.
fn status_mb(status_path: &str, field: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in {status_path}"))
}

/// Resets this process's VmHWM to its current RSS, so that the peak a
/// workload reports leaves out earlier workloads run in the same process
/// (`--workload all`), and checks that the reset took effect. Heap memory
/// earlier workloads freed is handed back to the kernel first; memory the
/// process still holds at the reset counts toward the new peak.
pub fn reset_own_peak() -> Result<(), String> {
    const STATUS: &str = "/proc/self/status";
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only returns free heap pages to the
        // kernel; it has no preconditions.
        unsafe { malloc_trim(0) };
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("/proc/self/clear_refs: {e}"))?;
    let hwm = vm_hwm_mb(STATUS)?;
    let rss = status_mb(STATUS, "VmRSS:")?;
    if hwm > rss + 1.0 {
        return Err(format!(
            "peak memory reset did not take effect (VmHWM {hwm:.1} MB, VmRSS {rss:.1} MB)"
        ));
    }
    Ok(())
}

/// The integer written just before `label` in `text`.
fn number_before(text: &str, label: &str) -> Option<u64> {
    let head = &text[..text.find(label)?];
    let digits: String = head
        .chars()
        .rev()
        .take_while(char::is_ascii_digit)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    digits.parse().ok()
}

fn field<'a>(obj: &'a Value, key: &str) -> Option<&'a Value> {
    obj.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

fn parse_stats(line: &str) -> Result<DaemonStats, String> {
    let v =
        serde_json::parse_value(line.trim()).map_err(|e| format!("stats reply {line:?}: {e}"))?;
    let s = field(&v, "stats").ok_or_else(|| format!("no stats in reply {line:?}"))?;
    let num = |k: &str| {
        field(s, k)
            .and_then(as_f64)
            .ok_or_else(|| format!("stats reply lacks `{k}`: {line}"))
    };
    let lat = field(s, "latency_us");
    let lat_num = |k: &str| {
        lat.and_then(|l| field(l, k))
            .and_then(as_f64)
            .unwrap_or(0.0)
    };
    Ok(DaemonStats {
        served: num("served")? as u64,
        errors: num("errors")? as u64,
        shed: num("shed")? as u64,
        deadline_shed: num("deadline_shed")? as u64,
        slow_client_disconnects: num("slow_client_disconnects")? as u64,
        latency_count: lat_num("count") as u64,
        p50_us: lat_num("p50"),
        p99_us: lat_num("p99"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_exit_summary_numbers() {
        let s = "serve: 12 request(s) answered, 0 error response(s), 3 shed, 0 deadline-shed; \
                 0 panic(s) contained, 0 worker(s) respawned, 1 slow client(s) disconnected; \
                 no latency samples; bye";
        assert_eq!(number_before(s, " request(s) answered"), Some(12));
        assert_eq!(number_before(s, " shed,"), Some(3));
        assert_eq!(number_before(s, " slow client(s) disconnected"), Some(1));
    }

    #[test]
    fn reads_the_address_only_from_a_finished_line() {
        assert_eq!(listening_addr("serve: listening on 127.0.0"), None);
        assert_eq!(
            listening_addr("serve: listening on 127.0.0.1:4000 (2 worker(s))\n"),
            Some("127.0.0.1:4000")
        );
    }

    #[test]
    fn parses_a_stats_reply() {
        let line = r#"{"id":"stats","ok":true,"stats":{"served":5,"errors":1,"shed":0,"panics_contained":0,"deadline_shed":0,"workers_respawned":0,"slow_client_disconnects":0,"queue_depth":0,"latency_us":{"count":6,"p50":800,"p90":900,"p99":1200,"max":1300}}}"#;
        let s = parse_stats(line).expect("parses");
        assert_eq!((s.served, s.errors, s.latency_count), (5, 1, 6));
        assert_eq!((s.p50_us, s.p99_us), (800.0, 1200.0));
    }

    #[test]
    fn reads_vm_hwm_of_this_process() {
        assert!(vm_hwm_mb("/proc/self/status").expect("linux") > 0.0);
    }
}
