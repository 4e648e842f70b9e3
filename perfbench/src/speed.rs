//! The host speed probe.
//!
//! The benchmark shares a virtual machine's CPUs with other tenants, and
//! the work a CPU does per second drifts with their load: the same build
//! of the same corpus takes from 0.8 to 1.4 s, in spells of seconds to
//! minutes, whether timed by the wall clock or by the CPU time the kernel
//! charges the thread. Medians within a run cannot remove a spell that
//! covers most of the run, so runs of the same code made minutes apart
//! disagree by more than any useful bound.
//!
//! So every end-to-end timing is scaled to a reference host speed. The
//! probe below is a fixed amount of the benchmark's own work, which no
//! change to the program can touch, in two parts that resemble the
//! program's: building a B-tree of small heap allocations (allocator,
//! pointer chasing, branchy comparisons) and round trips over a socket
//! pair (system calls and socket buffers). It runs in a child process of
//! its own, so that its heap is not the benchmark's, whose shape follows
//! the workload's inputs and the builds the run makes; on the measured
//! CPUs; and before every served slice, build and server start, so its
//! samples cover the run as the measurements do. A run's speed
//! factor is the geometric mean, over the two parts, of the part's
//! reference time over its median time in the run; a time `t` is
//! reported as `t * factor` and a rate `r` as `r / factor`. A faster
//! program still reads faster; a host that is slower for the whole run
//! no longer reads as a slower program.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::stats::median;

/// Each part's usual median time on the reference host, a 2-vCPU x86-64
/// virtual machine: scaled figures are what that host would measure at
/// its usual speed.
pub const REFERENCE_HEAP_S: f64 = 0.010;
pub const REFERENCE_SYSCALL_S: f64 = 0.003;

/// B-tree entries the heap part inserts.
const ENTRIES: u64 = 30_000;
/// Write-then-read round trips the system-call part makes.
const ROUND_TRIPS: usize = 2_500;

/// One probe: each part's time, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub heap_s: f64,
    pub syscall_s: f64,
}

/// The heap part: a B-tree keyed by pseudo-random integers, each entry
/// holding a small vector. Returns a checksum, the same every time.
fn heap() -> u64 {
    let mut tree = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..ENTRIES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        tree.insert(x, vec![i; (x % 7) as usize]);
    }
    tree.values().map(|v| v.len() as u64).sum::<u64>() ^ tree.len() as u64
}

/// The system-call part: 64-byte messages written to one end of a
/// socket pair and read back from the other, on one thread.
fn syscalls() -> std::io::Result<u64> {
    let (mut a, mut b) = UnixStream::pair()?;
    let mut message = [7u8; 64];
    for _ in 0..ROUND_TRIPS {
        a.write_all(&message)?;
        b.read_exact(&mut message)?;
    }
    Ok(u64::from(message[0]))
}

/// Both parts on this thread.
fn parts() -> std::io::Result<Reading> {
    let t = Instant::now();
    black_box(heap());
    let heap_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(syscalls()?);
    Ok(Reading { heap_s, syscall_s: t.elapsed().as_secs_f64() })
}

/// Runs the probe on `threads` threads at once, one per measured CPU,
/// and returns the mean of their readings.
pub fn probe(threads: usize) -> Result<Reading, String> {
    let readings: Vec<std::io::Result<Reading>> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(parts)).collect();
        let mut readings = vec![parts()];
        readings.extend(others.into_iter().map(|h| h.join().expect("probe thread panicked")));
        readings
    });
    let mut sum = Reading { heap_s: 0.0, syscall_s: 0.0 };
    for reading in &readings {
        let reading = reading.as_ref().map_err(|e| format!("speed probe: {e}"))?;
        sum.heap_s += reading.heap_s;
        sum.syscall_s += reading.syscall_s;
    }
    let n = readings.len() as f64;
    Ok(Reading { heap_s: sum.heap_s / n, syscall_s: sum.syscall_s / n })
}

/// The first argument that makes this binary the probe's child process.
pub const CHILD_FLAG: &str = "--speed-probe";

/// The child process's loop: one probe on `threads` threads for every
/// line read from stdin, answered with one line `heap_s syscall_s`;
/// returns at end of input.
pub fn child_main(threads: &str) -> Result<(), String> {
    let threads: usize = threads.parse().map_err(|e| format!("{CHILD_FLAG} {threads}: {e}"))?;
    let mut stdout = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| e.to_string())?;
        let reading = probe(threads)?;
        writeln!(stdout, "{} {}", reading.heap_s, reading.syscall_s)
            .and_then(|()| stdout.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The probe's child process and every probe of a run. Dropping it
/// closes the child's input and waits for it to exit.
#[derive(Debug)]
pub struct Speed {
    child: Child,
    requests: Option<ChildStdin>,
    answers: BufReader<ChildStdout>,
    readings: Vec<Reading>,
}

impl Speed {
    /// Starts the child: this same binary, probing on `threads` threads.
    /// It inherits this process's CPU affinity.
    pub fn start(threads: usize) -> Result<Speed, String> {
        let exe = std::env::current_exe().map_err(|e| format!("speed probe: {e}"))?;
        let mut child = Command::new(exe)
            .args([CHILD_FLAG, &threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the speed probe: {e}"))?;
        let requests = child.stdin.take();
        let answers = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Speed { child, requests, answers, readings: Vec::new() })
    }

    /// Takes one probe.
    pub fn sample(&mut self) -> Result<(), String> {
        let requests = self.requests.as_mut().expect("open until drop");
        requests
            .write_all(b"probe\n")
            .and_then(|()| requests.flush())
            .map_err(|e| format!("speed probe: {e}"))?;
        let mut line = String::new();
        self.answers.read_line(&mut line).map_err(|e| format!("speed probe: {e}"))?;
        let parsed: Vec<f64> = line.split_whitespace().filter_map(|v| v.parse().ok()).collect();
        match parsed[..] {
            [heap_s, syscall_s] => self.readings.push(Reading { heap_s, syscall_s }),
            _ => return Err(format!("speed probe answered {line:?}")),
        }
        Ok(())
    }

    pub fn count(&self) -> usize {
        self.readings.len()
    }

    /// Each part's median over the run.
    pub fn medians(&self) -> Reading {
        medians(&self.readings)
    }

    /// The run's speed factor: multiply a time by it, divide a rate by
    /// it. Below 1 on a host slower than the reference.
    pub fn factor(&self) -> f64 {
        factor(&self.readings)
    }
}

fn medians(readings: &[Reading]) -> Reading {
    let of = |f: fn(&Reading) -> f64| median(&readings.iter().map(f).collect::<Vec<_>>());
    Reading { heap_s: of(|r| r.heap_s), syscall_s: of(|r| r.syscall_s) }
}

fn factor(readings: &[Reading]) -> f64 {
    let m = medians(readings);
    ((REFERENCE_HEAP_S / m.heap_s) * (REFERENCE_SYSCALL_S / m.syscall_s)).sqrt()
}

impl Drop for Speed {
    fn drop(&mut self) {
        drop(self.requests.take());
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_fixed_work() {
        assert_eq!(heap(), heap());
        assert_eq!(syscalls().expect("socket pair"), 7);
        let reading = probe(2).expect("probe");
        assert!(reading.heap_s > 0.0 && reading.syscall_s > 0.0);
    }

    #[test]
    fn the_factor_scales_to_the_reference() {
        let at = |slowdown: f64| Reading {
            heap_s: slowdown * REFERENCE_HEAP_S,
            syscall_s: slowdown * REFERENCE_SYSCALL_S,
        };
        // A host twice as slow as the reference halves a time; the
        // median ignores one stalled probe.
        assert!((factor(&[at(2.0), at(2.0), at(50.0)]) - 0.5).abs() < 1e-12);
        let skewed = Reading { heap_s: 4.0 * REFERENCE_HEAP_S, syscall_s: REFERENCE_SYSCALL_S };
        assert!((factor(&[skewed]) - 0.5).abs() < 1e-12, "geometric mean of the two parts");
    }
}
