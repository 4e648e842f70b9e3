//! Serve-level metrics: a fixed set of counters and histograms built on
//! [`twig_util::metrics`], rendered in the Prometheus text exposition
//! format by `GET /metrics`.
//!
//! The set is fixed (plain struct fields, no dynamic registry): every
//! metric the server can emit is declared here, recording is a single
//! relaxed `fetch_add`, and rendering cannot race with registration.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use twig_util::metrics::{bucket_bound, Counter, HistogramSnapshot, LogHistogram, LOG_BUCKETS};

/// A reactor whose heartbeat is older than this is reported stalled (in
/// `/healthz` and the `twig_serve_reactor_stalled` gauge). The serve
/// loop stamps every iteration and sleeps at most ~100 ms, so five full
/// seconds of silence means the thread is wedged, not merely idle.
pub const REACTOR_STALL_AFTER: Duration = Duration::from_secs(5);

/// Per-reactor instruments, exposed with a `reactor="<index>"` label.
/// The reactor thread updates these single-writer; `/metrics` renders
/// concurrently, so the fields are relaxed atomics (counters with
/// `fetch_add`/`fetch_sub` only, plus one single-writer timestamp stamp
/// — no ordering-sensitive publication).
#[derive(Debug, Default)]
pub struct ReactorStats {
    /// Connections this reactor's listener shard accepted.
    pub accepted: AtomicU64,
    /// Connections currently open on this reactor (gauge).
    connections: AtomicU64,
    /// Liveness stamp: milliseconds since the metrics heartbeat epoch at
    /// the reactor's last serve-loop iteration. Single writer (the
    /// reactor thread); readers only compare staleness.
    heartbeat_ms: AtomicU64,
}

impl ReactorStats {
    /// Bumps the accepted-connections counter.
    pub fn accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection opening on this reactor.
    pub fn conn_opened(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection closing on this reactor.
    pub fn conn_closed(&self) {
        self.connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Currently open connections.
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Stamps the liveness heartbeat (`now_ms` from
    /// [`ServeMetrics::now_ms`]).
    pub fn beat(&self, now_ms: u64) {
        self.heartbeat_ms.store(now_ms, Ordering::Relaxed);
    }

    /// The last heartbeat stamp, milliseconds since the epoch.
    #[must_use]
    pub fn heartbeat_ms(&self) -> u64 {
        self.heartbeat_ms.load(Ordering::Relaxed)
    }
}

/// Accept-path failures bucketed by errno class, exposed as
/// `twig_serve_accept_errors_total{errno="..."}`. Fixed label set — one
/// counter per class the reactor's taxonomy distinguishes.
#[derive(Debug, Default)]
pub struct AcceptErrorStats {
    emfile: Counter,
    enfile: Counter,
    enomem: Counter,
    eintr: Counter,
    aborted: Counter,
    reset: Counter,
    other: Counter,
}

impl AcceptErrorStats {
    /// Counts one accept failure by its raw OS errno (Linux values:
    /// the only platform with the reactor accept path).
    pub fn count(&self, raw_errno: Option<i32>) {
        match raw_errno {
            Some(24) => self.emfile.inc(),
            Some(23) => self.enfile.inc(),
            Some(12) => self.enomem.inc(),
            Some(4) => self.eintr.inc(),
            Some(103) => self.aborted.inc(),
            Some(104) => self.reset.inc(),
            _ => self.other.inc(),
        }
    }

    /// Label/counter pairs, in render order.
    fn rows(&self) -> [(&'static str, &Counter); 7] {
        [
            ("emfile", &self.emfile),
            ("enfile", &self.enfile),
            ("enomem", &self.enomem),
            ("eintr", &self.eintr),
            ("aborted", &self.aborted),
            ("reset", &self.reset),
            ("other", &self.other),
        ]
    }

    /// Total failures counted under fd-exhaustion errnos.
    #[must_use]
    pub fn fd_exhausted(&self) -> u64 {
        self.emfile.get() + self.enfile.get()
    }

    /// Total failures across every class.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.rows().iter().map(|(_, counter)| counter.get()).sum()
    }
}

/// All metrics the server exposes.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Connections accepted (admitted or rejected).
    pub connections_total: Counter,
    /// Connections rejected at admission with `503` (reactor saturated).
    pub rejected_saturated: Counter,
    /// Requests fully parsed and routed.
    pub requests_total: Counter,
    /// Responses with 2xx status.
    pub responses_2xx: Counter,
    /// Responses with 4xx status.
    pub responses_4xx: Counter,
    /// Responses with 5xx status.
    pub responses_5xx: Counter,
    /// Individual twig estimates computed by `/estimate`.
    pub estimates_total: Counter,
    /// `/estimate` request bodies processed (batch of 1 counts once).
    pub batches_total: Counter,
    /// Successful summary (re)loads via `/admin/reload`.
    pub reloads_total: Counter,
    /// Failed summary (re)loads via `/admin/reload`.
    pub reload_failures_total: Counter,
    /// Handler panics caught at request dispatch.
    pub worker_panics_total: Counter,
    /// `/estimate` queries whose plan was already cached.
    pub plan_cache_hits_total: Counter,
    /// `/estimate` queries that had to insert a fresh plan.
    pub plan_cache_misses_total: Counter,
    /// Plans evicted from a full plan-cache shard.
    pub plan_cache_evictions_total: Counter,
    /// Requests parsed from a receive buffer that already yielded an
    /// earlier request in the same readiness pass (HTTP/1.1 pipelining).
    pub pipelined_requests_total: Counter,
    /// Idle connections evicted to admit new work under slab pressure.
    pub conns_evicted_total: Counter,
    /// Connections killed for violating the minimum-progress deadline
    /// (slow-read / slow-write abuse).
    pub progress_kills_total: Counter,
    /// Accept-path syscall failures, bucketed by errno class.
    pub accept_errors: AcceptErrorStats,
    /// Wall time per routed request, microseconds.
    pub request_latency_us: LogHistogram,
    /// Wall time per single estimate inside a batch, microseconds.
    pub estimate_latency_us: LogHistogram,
    /// Per-reactor instruments, sized once at reactor spawn.
    reactors: OnceLock<Vec<ReactorStats>>,
    /// Epoch for heartbeat stamps, fixed at first use.
    heartbeat_epoch: OnceLock<Instant>,
}

impl ServeMetrics {
    /// Fresh, all-zero metrics.
    #[must_use]
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Sizes the per-reactor stat set (idempotent; first caller wins).
    /// Each slot starts with a fresh heartbeat so a reactor is not
    /// reported stalled before its first loop iteration.
    pub fn init_reactors(&self, count: usize) {
        let now = self.now_ms();
        let _ = self.reactors.get_or_init(|| {
            (0..count)
                .map(|_| {
                    let stats = ReactorStats::default();
                    stats.beat(now);
                    stats
                })
                .collect()
        });
    }

    /// The stats slot for reactor `index`, if initialized.
    #[must_use]
    pub fn reactor(&self, index: usize) -> Option<&ReactorStats> {
        self.reactors.get().and_then(|stats| stats.get(index))
    }

    /// Every reactor's stats, in index order (empty before reactor spawn).
    #[must_use]
    pub fn reactor_stats(&self) -> &[ReactorStats] {
        self.reactors.get().map(Vec::as_slice).unwrap_or(&[])
    }

    /// Milliseconds since this metric set's heartbeat epoch; the clock
    /// reactors stamp via [`ReactorStats::beat`].
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        let epoch = self.heartbeat_epoch.get_or_init(Instant::now);
        u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// How many reactors have not stamped a heartbeat within
    /// `stall_after`.
    #[must_use]
    pub fn stalled_reactors(&self, stall_after: Duration) -> u64 {
        let now = self.now_ms();
        let horizon = u64::try_from(stall_after.as_millis()).unwrap_or(u64::MAX);
        let stalled = self
            .reactor_stats()
            .iter()
            .filter(|stats| now.saturating_sub(stats.heartbeat_ms()) > horizon)
            .count();
        u64::try_from(stalled).unwrap_or(u64::MAX)
    }

    /// Buckets a response status into the class counters.
    pub fn count_status(&self, status: u16) {
        match status {
            200..=299 => self.responses_2xx.inc(),
            400..=499 => self.responses_4xx.inc(),
            500..=599 => self.responses_5xx.inc(),
            _ => {}
        }
    }

    /// Renders every metric in the Prometheus text format.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let counters: [(&str, &str, &Counter); 17] = [
            ("twig_serve_connections_total", "Connections accepted", &self.connections_total),
            (
                "twig_serve_rejected_saturated_total",
                "Connections rejected with 503 (queue full)",
                &self.rejected_saturated,
            ),
            ("twig_serve_requests_total", "Requests routed", &self.requests_total),
            ("twig_serve_responses_2xx_total", "2xx responses", &self.responses_2xx),
            ("twig_serve_responses_4xx_total", "4xx responses", &self.responses_4xx),
            ("twig_serve_responses_5xx_total", "5xx responses", &self.responses_5xx),
            ("twig_serve_estimates_total", "Individual estimates computed", &self.estimates_total),
            ("twig_serve_batches_total", "Estimate bodies processed", &self.batches_total),
            ("twig_serve_reloads_total", "Successful summary reloads", &self.reloads_total),
            (
                "twig_serve_reload_failures_total",
                "Failed summary reloads",
                &self.reload_failures_total,
            ),
            ("twig_serve_worker_panics_total", "Worker panics caught", &self.worker_panics_total),
            (
                "twig_serve_plan_cache_hits_total",
                "Estimate queries served from a cached plan",
                &self.plan_cache_hits_total,
            ),
            (
                "twig_serve_plan_cache_misses_total",
                "Estimate queries that inserted a fresh plan",
                &self.plan_cache_misses_total,
            ),
            (
                "twig_serve_plan_cache_evictions_total",
                "Plans evicted from a full cache shard",
                &self.plan_cache_evictions_total,
            ),
            (
                "twig_serve_pipelined_requests_total",
                "Requests that arrived pipelined behind another",
                &self.pipelined_requests_total,
            ),
            (
                "twig_serve_conns_evicted_total",
                "Idle connections evicted under slab pressure",
                &self.conns_evicted_total,
            ),
            (
                "twig_serve_progress_kills_total",
                "Connections killed for missing the minimum-progress deadline",
                &self.progress_kills_total,
            ),
        ];
        for (name, help, counter) in counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", counter.get());
        }
        render_histogram(
            &mut out,
            "twig_serve_request_latency_us",
            "Request wall time, microseconds",
            &self.request_latency_us.snapshot(),
        );
        render_histogram(
            &mut out,
            "twig_serve_estimate_latency_us",
            "Per-estimate wall time, microseconds",
            &self.estimate_latency_us.snapshot(),
        );
        let _ = writeln!(
            out,
            "# HELP twig_serve_accept_errors_total Accept-path syscall failures by errno class"
        );
        let _ = writeln!(out, "# TYPE twig_serve_accept_errors_total counter");
        for (label, counter) in self.accept_errors.rows() {
            let _ = writeln!(
                out,
                "twig_serve_accept_errors_total{{errno=\"{label}\"}} {}",
                counter.get()
            );
        }
        let _ = writeln!(
            out,
            "# HELP twig_serve_reactor_stalled Reactors with a heartbeat older than the stall threshold"
        );
        let _ = writeln!(out, "# TYPE twig_serve_reactor_stalled gauge");
        let _ = writeln!(
            out,
            "twig_serve_reactor_stalled {}",
            self.stalled_reactors(REACTOR_STALL_AFTER)
        );
        if let Some(reactors) = self.reactors.get() {
            let _ = writeln!(
                out,
                "# HELP twig_serve_reactor_accepted_total Connections accepted per reactor shard"
            );
            let _ = writeln!(out, "# TYPE twig_serve_reactor_accepted_total counter");
            for (index, stats) in reactors.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "twig_serve_reactor_accepted_total{{reactor=\"{index}\"}} {}",
                    stats.accepted.load(Ordering::Relaxed)
                );
            }
            let _ = writeln!(
                out,
                "# HELP twig_serve_reactor_connections Open connections per reactor shard"
            );
            let _ = writeln!(out, "# TYPE twig_serve_reactor_connections gauge");
            for (index, stats) in reactors.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "twig_serve_reactor_connections{{reactor=\"{index}\"}} {}",
                    stats.connections()
                );
            }
        }
        out
    }
}

fn render_histogram(out: &mut String, name: &str, help: &str, snapshot: &HistogramSnapshot) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    // Only buckets that received observations are listed (cumulative
    // counts stay monotone, which is all the exposition format needs);
    // the 40-bucket histogram would otherwise be mostly zeros.
    let mut prev = 0;
    for (index, &cumulative) in snapshot.cumulative.iter().enumerate() {
        if index + 1 == LOG_BUCKETS {
            break; // the terminal bucket is rendered as +Inf below
        }
        if cumulative > prev {
            let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", bucket_bound(index));
        }
        prev = cumulative;
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snapshot.count);
    let _ = writeln!(out, "{name}_sum {}", snapshot.sum);
    let _ = writeln!(out, "{name}_count {}", snapshot.count);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_and_histograms() {
        let metrics = ServeMetrics::new();
        metrics.requests_total.add(3);
        metrics.count_status(200);
        metrics.count_status(404);
        metrics.count_status(503);
        metrics.request_latency_us.record(100);
        metrics.request_latency_us.record(900);
        let text = metrics.render_prometheus();
        assert!(text.contains("twig_serve_requests_total 3"), "{text}");
        assert!(text.contains("twig_serve_responses_2xx_total 1"), "{text}");
        assert!(text.contains("twig_serve_responses_4xx_total 1"), "{text}");
        assert!(text.contains("twig_serve_responses_5xx_total 1"), "{text}");
        assert!(text.contains("twig_serve_request_latency_us_bucket{le=\"128\"} 1"), "{text}");
        assert!(text.contains("twig_serve_request_latency_us_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("twig_serve_request_latency_us_sum 1000"), "{text}");
        assert!(text.contains("twig_serve_request_latency_us_count 2"), "{text}");
        // Every line is well-formed exposition: name{labels} value or # comment.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed exposition line: {line}"
            );
        }
    }

    #[test]
    fn accept_errors_and_stall_gauge_render() {
        let metrics = ServeMetrics::new();
        metrics.init_reactors(2);
        metrics.accept_errors.count(Some(24)); // EMFILE
        metrics.accept_errors.count(Some(23)); // ENFILE
        metrics.accept_errors.count(Some(4)); // EINTR
        metrics.accept_errors.count(Some(999));
        metrics.accept_errors.count(None);
        assert_eq!(metrics.accept_errors.fd_exhausted(), 2);
        assert_eq!(metrics.accept_errors.total(), 5);
        let text = metrics.render_prometheus();
        assert!(text.contains("twig_serve_accept_errors_total{errno=\"emfile\"} 1"), "{text}");
        assert!(text.contains("twig_serve_accept_errors_total{errno=\"enfile\"} 1"), "{text}");
        assert!(text.contains("twig_serve_accept_errors_total{errno=\"eintr\"} 1"), "{text}");
        assert!(text.contains("twig_serve_accept_errors_total{errno=\"other\"} 2"), "{text}");
        assert!(text.contains("twig_serve_conns_evicted_total 0"), "{text}");
        assert!(text.contains("twig_serve_progress_kills_total 0"), "{text}");
        // Fresh heartbeats: nothing is stalled yet.
        assert!(text.contains("twig_serve_reactor_stalled 0"), "{text}");
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed exposition line: {line}"
            );
        }
    }

    #[test]
    fn stalled_reactor_detection_uses_heartbeat_age() {
        let metrics = ServeMetrics::new();
        metrics.init_reactors(3);
        // All fresh: none stalled under a generous threshold.
        assert_eq!(metrics.stalled_reactors(Duration::from_secs(3600)), 0);
        // Let the clock advance past a tight threshold, then stamp two
        // of the three reactors fresh: only the silent one is stalled.
        std::thread::sleep(Duration::from_millis(5));
        metrics.reactor(0).unwrap().beat(metrics.now_ms());
        metrics.reactor(2).unwrap().beat(metrics.now_ms());
        assert_eq!(metrics.stalled_reactors(Duration::from_millis(1)), 1);
        // Re-stamping clears the stall.
        metrics.reactor(1).unwrap().beat(metrics.now_ms());
        assert_eq!(metrics.stalled_reactors(Duration::from_millis(1)), 0);
    }

    #[test]
    fn per_reactor_stats_render_labeled_and_well_formed() {
        let metrics = ServeMetrics::new();
        metrics.init_reactors(2);
        let reactor0 = metrics.reactor(0).unwrap();
        reactor0.accept();
        reactor0.conn_opened();
        reactor0.conn_opened();
        reactor0.conn_closed();
        assert_eq!(reactor0.connections(), 1);
        assert!(metrics.reactor(2).is_none());
        let text = metrics.render_prometheus();
        assert!(text.contains("twig_serve_reactor_accepted_total{reactor=\"0\"} 1"), "{text}");
        assert!(text.contains("twig_serve_reactor_accepted_total{reactor=\"1\"} 0"), "{text}");
        assert!(text.contains("twig_serve_reactor_connections{reactor=\"0\"} 1"), "{text}");
        assert!(text.contains("twig_serve_reactor_connections{reactor=\"1\"} 0"), "{text}");
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed exposition line: {line}"
            );
        }
    }
}
