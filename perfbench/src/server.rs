//! The `twig serve` child process and what can be read about it from
//! outside: its `/metrics` counters and its `/proc` counters.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use twig_serve::http::{read_response, write_request, Limits};

/// `/proc/<pid>/stat` time unit: Linux reports `USER_HZ` = 100 ticks/s
/// to user space on every architecture.
const TICK_US: f64 = 10_000.0;

/// A running `twig serve` child; dropping it kills and reaps it.
#[derive(Debug)]
pub struct ServerChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn until the first healthy `/healthz`, seconds.
    pub startup_s: f64,
}

impl ServerChild {
    /// Spawns `twig serve` on an ephemeral loopback port over the flat
    /// summary `summary` with `threads` reactor threads, pinned to `cpus`,
    /// and waits until `/healthz` answers `ok`.
    pub fn spawn(
        twig: &Path,
        summary: &Path,
        threads: usize,
        cpus: &str,
    ) -> Result<ServerChild, String> {
        let started = Instant::now();
        // `taskset` execs the server, so the child's pid is the server's.
        let mut command = Command::new("taskset");
        command.args(["-c", cpus]).arg(twig);
        let mut child = command
            .arg("serve")
            .arg("--summary")
            .arg(format!("default={}", summary.display()))
            .args(["--addr", "127.0.0.1:0", "--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start taskset -c {cpus} twig serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // From here on the guard owns the child, so every error path
        // below kills and reaps it.
        let mut guard = ServerChild {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            startup_s: 0.0,
        };
        guard.addr = guard.read_listening_addr()?;
        let deadline = started + Duration::from_secs(20);
        loop {
            if let Ok((200, body)) = get(guard.addr, "/healthz") {
                if body.contains("\"status\":\"ok\"") {
                    break;
                }
            }
            if Instant::now() > deadline {
                return Err("twig serve never became healthy".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        guard.startup_s = started.elapsed().as_secs_f64();
        Ok(guard)
    }

    /// Reads stdout up to the `listening on ADDR` line.
    fn read_listening_addr(&mut self) -> Result<SocketAddr, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let read = self.stdout.read_line(&mut line).map_err(|e| e.to_string())?;
            if read == 0 {
                return Err("twig serve exited before listening".into());
            }
            if let Some(rest) = line.strip_prefix("listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                return addr.parse().map_err(|e| format!("bad listen address {addr:?}: {e}"));
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain and waits for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = post(self.addr, "/admin/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("twig serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("twig serve did not drain within 10 s".into()),
                Err(e) => return Err(format!("waiting for twig serve: {e}")),
            }
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn exchange(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    write_request(&mut stream, method, target, body).map_err(|e| e.to_string())?;
    let response = read_response(&mut stream, &Limits::default()).map_err(|e| format!("{e:?}"))?;
    Ok((response.status, response.body_text()))
}

/// `GET target` on a fresh connection: status and body.
pub fn get(addr: SocketAddr, target: &str) -> Result<(u16, String), String> {
    exchange(addr, "GET", target, b"")
}

/// `POST target` on a fresh connection: status and body.
pub fn post(addr: SocketAddr, target: &str, body: &[u8]) -> Result<(u16, String), String> {
    exchange(addr, "POST", target, body)
}

/// The server's counters at one instant: `/metrics` plus `/proc`.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub batches: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plan_evictions: u64,
    pub request_us_sum: u64,
    pub request_count: u64,
    pub estimate_us_sum: u64,
    pub estimate_count: u64,
    pub cpu_ticks: u64,
    pub syscalls: u64,
    pub ctx_switches: u64,
}

fn prometheus_value(text: &str, name: &str) -> Result<u64, String> {
    text.lines()
        .find_map(|line| line.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("/metrics has no {name}"))
}

fn proc_field(text: &str, key: &str) -> Result<u64, String> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("/proc has no {key}"))
}

fn read_proc(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// utime + stime of the whole process, in clock ticks.
fn cpu_ticks(pid: u32) -> Result<u64, String> {
    let stat = read_proc(&format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).ok_or("malformed stat")?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok()).ok_or("short stat");
    Ok(field(11)? + field(12)?)
}

/// Voluntary plus involuntary context switches over every thread
/// (`/proc/<pid>/status` counts only the main thread).
fn ctx_switches(pid: u32) -> Result<u64, String> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).map_err(|e| e.to_string())?;
    let mut total = 0;
    for task in tasks.flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue; // the thread exited between listing and reading
        };
        total += proc_field(&status, "voluntary_ctxt_switches")?
            + proc_field(&status, "nonvoluntary_ctxt_switches")?;
    }
    Ok(total)
}

/// Samples the server's counters.
pub fn sample(server: &ServerChild) -> Result<Sample, String> {
    let (status, text) = get(server.addr, "/metrics")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let pid = server.pid();
    let io = read_proc(&format!("/proc/{pid}/io"))?;
    let m = |name: &str| prometheus_value(&text, name);
    Ok(Sample {
        batches: m("twig_serve_batches_total")?,
        plan_hits: m("twig_serve_plan_cache_hits_total")?,
        plan_misses: m("twig_serve_plan_cache_misses_total")?,
        plan_evictions: m("twig_serve_plan_cache_evictions_total")?,
        request_us_sum: m("twig_serve_request_latency_us_sum")?,
        request_count: m("twig_serve_request_latency_us_count")?,
        estimate_us_sum: m("twig_serve_estimate_latency_us_sum")?,
        estimate_count: m("twig_serve_estimate_latency_us_count")?,
        cpu_ticks: cpu_ticks(pid)?,
        syscalls: proc_field(&io, "syscr")? + proc_field(&io, "syscw")?,
        ctx_switches: ctx_switches(pid)?,
    })
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let status = read_proc("/proc/self/status")?;
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .ok_or("/proc/self/status has no Cpus_allowed_list")?;
    parse_cpu_list(list.trim())
}

fn parse_cpu_list(list: &str) -> Result<Vec<usize>, String> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let bad = || format!("bad CPU list {list:?}");
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) =
            (lo.parse().map_err(|_| bad())?, hi.parse().map_err(|_| bad())?);
        cpus.extend(lo..=hi);
    }
    Ok(cpus)
}

/// Ticks the host took from this machine's CPUs (steal) and all ticks,
/// from the `cpu` line of `/proc/stat`.
pub fn steal_ticks() -> Result<(u64, u64), String> {
    let stat = read_proc("/proc/stat")?;
    let line = stat.lines().find(|l| l.starts_with("cpu ")).ok_or("/proc/stat has no cpu line")?;
    let ticks: Vec<u64> = line.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    let steal = ticks.get(7).copied().ok_or("/proc/stat cpu line is short")?;
    Ok((steal, ticks.iter().sum()))
}

/// Clock ticks as microseconds.
pub fn ticks_to_us(ticks: u64) -> f64 {
    ticks as f64 * TICK_US
}

/// utime + stime of this process, in clock ticks.
pub fn own_cpu_ticks() -> Result<u64, String> {
    cpu_ticks(std::process::id())
}

/// Lowers the calling thread to nice 19, so that on a CPU it shares
/// with the server it runs only while the server waits.
pub fn yield_to_server() -> Result<(), String> {
    let link = std::fs::read_link("/proc/thread-self")
        .map_err(|e| format!("cannot read /proc/thread-self: {e}"))?;
    let tid = link.file_name().and_then(|t| t.to_str()).ok_or("no thread id")?;
    let status = Command::new("renice")
        .args(["-n", "19", "-p", tid])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("renice: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("renice -n 19 -p {tid} failed: {status}"))
    }
}

/// Pins every thread of this process to `cpus`; threads started later
/// inherit it.
pub fn pin_self(cpus: &str) -> Result<(), String> {
    let pid = std::process::id().to_string();
    let status = Command::new("taskset")
        .args(["-a", "-p", "-c", cpus, &pid])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("taskset -a -p -c {cpus} {pid} failed: {status}"))
    }
}

/// Peak resident set (`VmHWM`) of the server, MB.
pub fn peak_rss_mb(server: &ServerChild) -> Result<f64, String> {
    let status = read_proc(&format!("/proc/{}/status", server.pid()))?;
    Ok(proc_field(&status, "VmHWM")? as f64 / 1024.0)
}

/// Per-request server figures over measured windows.
#[derive(Debug, Clone)]
pub struct Window {
    pub cpu_us_per_req: f64,
    pub handler_us_per_req: f64,
    pub syscalls_per_req: f64,
    pub ctx_switches_per_req: f64,
    /// Plan-cache hits over lookups, for the workload-shape guard.
    pub plan_hit_ratio: f64,
    /// The same with one hit added to hits and to lookups, and
    /// evictions per request with one eviction added: the reported
    /// figures, never 0 even where the raw count is (hits on serve-cold,
    /// evictions on serve-hot).
    pub plan_hit_ratio_plus1: f64,
    pub plan_evictions_plus1_per_req: f64,
    pub estimate_us: f64,
}

impl Sample {
    /// Field-wise `self - earlier`: what happened between two samples.
    pub fn since(&self, earlier: &Sample) -> Sample {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Sample {
            batches: d(self.batches, earlier.batches),
            plan_hits: d(self.plan_hits, earlier.plan_hits),
            plan_misses: d(self.plan_misses, earlier.plan_misses),
            plan_evictions: d(self.plan_evictions, earlier.plan_evictions),
            request_us_sum: d(self.request_us_sum, earlier.request_us_sum),
            request_count: d(self.request_count, earlier.request_count),
            estimate_us_sum: d(self.estimate_us_sum, earlier.estimate_us_sum),
            estimate_count: d(self.estimate_count, earlier.estimate_count),
            cpu_ticks: d(self.cpu_ticks, earlier.cpu_ticks),
            syscalls: d(self.syscalls, earlier.syscalls),
            ctx_switches: d(self.ctx_switches, earlier.ctx_switches),
        }
    }

    /// Field-wise sum, to pool several windows.
    pub fn add(&mut self, other: &Sample) {
        self.batches += other.batches;
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.plan_evictions += other.plan_evictions;
        self.request_us_sum += other.request_us_sum;
        self.request_count += other.request_count;
        self.estimate_us_sum += other.estimate_us_sum;
        self.estimate_count += other.estimate_count;
        self.cpu_ticks += other.cpu_ticks;
        self.syscalls += other.syscalls;
        self.ctx_switches += other.ctx_switches;
    }
}

impl Window {
    /// Per-request figures of the pooled differences `d`.
    pub fn of(d: &Sample) -> Window {
        let per_req = |x: u64| x as f64 / d.batches.max(1) as f64;
        let ratio = |x: u64, n: u64| x as f64 / n.max(1) as f64;
        let lookups = d.plan_hits + d.plan_misses;
        Window {
            cpu_us_per_req: ticks_to_us(d.cpu_ticks) / d.batches.max(1) as f64,
            handler_us_per_req: ratio(d.request_us_sum, d.request_count),
            syscalls_per_req: per_req(d.syscalls),
            ctx_switches_per_req: per_req(d.ctx_switches),
            plan_hit_ratio: ratio(d.plan_hits, lookups),
            plan_hit_ratio_plus1: ratio(d.plan_hits + 1, lookups + 1),
            plan_evictions_plus1_per_req: per_req(d.plan_evictions + 1),
            estimate_us: ratio(d.estimate_us_sum, d.estimate_count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_prometheus_and_proc_lines() {
        let text = "# HELP x\ntwig_serve_batches_total 41\ntwig_serve_batches_total_other 9\n";
        assert_eq!(prometheus_value(text, "twig_serve_batches_total"), Ok(41));
        assert!(prometheus_value(text, "missing").is_err());
        let status = "Name:\ttwig\nVmHWM:\t  12345 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(proc_field(status, "VmHWM"), Ok(12345));
        assert_eq!(proc_field(status, "voluntary_ctxt_switches"), Ok(7));
        assert_eq!(proc_field("syscr: 10\nsyscw: 3\n", "syscw"), Ok(3));
        assert_eq!(parse_cpu_list("0-2,5,7-8"), Ok(vec![0, 1, 2, 5, 7, 8]));
        assert!(parse_cpu_list("0-x").is_err());
    }

    #[test]
    fn reads_this_process_counters() {
        let pid = std::process::id();
        assert!(ctx_switches(pid).expect("own task list") > 0);
        cpu_ticks(pid).expect("own stat");
    }
}
