//! The estimation server: routing, endpoint handlers, backpressure and
//! graceful shutdown, hosted on the reactor event loop.
//!
//! Threading model (documented in DESIGN.md §15): [`Server::run`]
//! hands its `SO_REUSEPORT` listener shard to `reactor::run`, which
//! spawns one epoll reactor per configured worker; each reactor owns a
//! shard of the same port and a slab of nonblocking connection state
//! machines. Admission control is per reactor: past its
//! share of `workers + queue_capacity` connections it writes a `503`
//! with an escalating `Retry-After` hint and closes — one small write,
//! never a queued latency pile-up. Shutdown stops admission, lets every
//! connection finish the request in flight (responses during drain carry
//! `Connection: close`), then joins all reactors.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use twig_core::{Algorithm, CountKind};
use twig_tree::Twig;
use twig_util::cast::{count_to_f64, size_to_u64};
use twig_util::rng::SplitMix64;

use crate::http::{Limits, ReadOutcome, Request, Response};
use crate::json::Json;
use crate::metrics::ServeMetrics;
use crate::plan::{CachedPlan, PlanCache};
use crate::registry::{error_chain, SummaryRegistry};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (= maximum concurrently served connections).
    pub workers: usize,
    /// Connections allowed to wait for a worker before `503`.
    pub queue_capacity: usize,
    /// Maximum request body size, bytes.
    pub max_body_bytes: usize,
    /// Maximum queries per `/estimate` body.
    pub max_batch: usize,
    /// Per-request read deadline.
    pub read_deadline: Duration,
    /// Keep-alive idle deadline.
    pub idle_deadline: Duration,
    /// Query plans cached across `/estimate` requests (0 disables).
    pub plan_cache_capacity: usize,
    /// Progress-window width for busy connections: every window, a
    /// connection mid-request (or mid-response) must move at least
    /// [`ServerConfig::min_progress_bytes`] or it is killed as a
    /// slow-read/slow-write client (slowloris defense, reactor only).
    pub progress_window: Duration,
    /// Minimum bytes a busy connection must move per progress window.
    pub min_progress_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 8,
            queue_capacity: 64,
            max_body_bytes: 1024 * 1024,
            max_batch: 4096,
            read_deadline: Duration::from_secs(10),
            idle_deadline: Duration::from_secs(30),
            plan_cache_capacity: 1024,
            progress_window: Duration::from_secs(2),
            min_progress_bytes: 128,
        }
    }
}

/// State shared between the reactors and handles.
pub struct ServerState {
    pub(crate) config: ServerConfig,
    registry: SummaryRegistry,
    pub(crate) metrics: ServeMetrics,
    plans: PlanCache,
    pub(crate) shutdown: AtomicBool,
    started: Instant,
    /// One eventfd per reactor that managed to create one; signalled on
    /// shutdown so a reactor parked in `epoll_wait` wakes immediately
    /// instead of at its next poll-cap timeout.
    wakers: std::sync::Mutex<Vec<std::os::fd::OwnedFd>>,
}

impl ServerState {
    /// The summary registry (e.g. to inspect from tests or the CLI).
    #[must_use]
    pub fn registry(&self) -> &SummaryRegistry {
        &self.registry
    }

    /// The server metrics.
    #[must_use]
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Sets the shutdown flag and wakes every parked reactor. Safe to
    /// call repeatedly and from any thread (handles, routes, reactors
    /// reporting fatal errors).
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // A poisoned lock only means some thread panicked while
        // registering; waking the survivors still matters.
        let wakers = match self.wakers.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        for waker in wakers.iter() {
            let _ = crate::reactor::sys::eventfd_signal(waker);
        }
    }

    /// Registers a reactor's wakeup eventfd for shutdown signalling.
    pub(crate) fn register_waker(&self, fd: std::os::fd::OwnedFd) {
        let mut wakers = match self.wakers.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        wakers.push(fd);
    }

    /// Bare state for reactor unit tests: no listener, no threads.
    #[cfg(test)]
    pub(crate) fn test_state(config: ServerConfig) -> Arc<ServerState> {
        Arc::new(ServerState {
            plans: PlanCache::new(config.workers.max(1), config.plan_cache_capacity),
            config,
            registry: SummaryRegistry::new(),
            metrics: ServeMetrics::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            wakers: std::sync::Mutex::new(Vec::new()),
        })
    }
}

/// A cloneable handle that can stop a running server.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Requests shutdown: admission stops, parked reactors wake,
    /// in-flight work drains, [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutting_down()
    }

    /// Shared state access (registry, metrics).
    #[must_use]
    pub fn state(&self) -> &ServerState {
        &self.state
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    reactors: Vec<crate::reactor::Reactor>,
    addr: SocketAddr,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and wraps
    /// `registry` with `config`. Every listener shard and reactor poller
    /// is created here, so running out of descriptors fails the bind
    /// rather than leaving a shard dead once serving.
    pub fn bind(
        addr: &str,
        config: ServerConfig,
        registry: SummaryRegistry,
    ) -> std::io::Result<Server> {
        // The first listener shard resolves `addr`; `build` adds the
        // sibling `SO_REUSEPORT` shards on it, one per reactor.
        let first = crate::reactor::bind_shard(addr)?;
        let addr = first.local_addr()?;
        let state = Arc::new(ServerState {
            plans: PlanCache::new(config.workers.max(1), config.plan_cache_capacity),
            config,
            registry,
            metrics: ServeMetrics::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            wakers: std::sync::Mutex::new(Vec::new()),
        });
        let reactors = crate::reactor::build(first, &state)?;
        Ok(Server { reactors, addr, state })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for stopping the server from another thread.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { state: Arc::clone(&self.state) }
    }

    /// Serves until shutdown is requested, then drains and returns.
    pub fn run(self) -> std::io::Result<()> {
        crate::reactor::run(&self.state, self.reactors)
    }
}

/// `Retry-After` hint for a saturation rejection. The first rejections
/// of a streak hint an immediate retry; a sustained streak escalates
/// the hint with deterministic per-streak jitter so shed clients spread
/// out instead of thundering back in lockstep.
pub(crate) fn retry_after_secs(streak: u64) -> u64 {
    if streak <= 8 {
        return 1;
    }
    let base = (streak / 8).min(8);
    let mut rng = SplitMix64::new(streak);
    let jitter = rng.next_below(base + 1);
    (base + jitter).min(16)
}

/// The HTTP limits a server config implies.
pub(crate) fn limits_for(config: &ServerConfig) -> Limits {
    Limits {
        max_head_bytes: 16 * 1024,
        max_body_bytes: config.max_body_bytes,
        read_deadline: config.read_deadline,
        idle_deadline: config.idle_deadline,
    }
}

/// Writes the admission-control `503` from the accepting thread. A
/// short write timeout bounds how long a slow client can stall accepts.
pub(crate) fn reject_connection(mut stream: TcpStream, message: &str, retry_secs: u64) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let response = error_response(503, "saturated", message)
        .with_header("retry-after", retry_secs.to_string());
    let _ = response.write_to(&mut stream, true);
    let _ = stream.flush();
}

/// How a dispatched request ended.
pub(crate) enum Dispatched {
    /// An injected dispatch fault consumed the request: the connection
    /// drops with no response at all.
    Drop,
    /// The handler produced a response (possibly the panic `500`).
    Respond(Response),
}

/// Runs one parsed request through the `serve.dispatch` failpoint and
/// the router, with panic containment: a panicking handler costs the
/// client a `500`, never the serving thread. Status-class and latency
/// metrics are recorded here.
pub(crate) fn process_request(state: &Arc<ServerState>, request: &Request) -> Dispatched {
    enum Step {
        Drop,
        Respond(Response),
    }
    let started = Instant::now();
    let routed = std::panic::catch_unwind(AssertUnwindSafe(|| {
        // Before the request counts as routed.
        if twig_util::failpoint!("serve.dispatch").is_some() {
            return Step::Drop;
        }
        state.metrics.requests_total.inc();
        Step::Respond(route(request, state))
    }));
    match routed {
        Ok(Step::Drop) => Dispatched::Drop,
        Ok(Step::Respond(response)) => {
            state.metrics.count_status(response.status);
            state.metrics.request_latency_us.record(micros(started.elapsed()));
            Dispatched::Respond(response)
        }
        Err(payload) => {
            state.metrics.worker_panics_total.inc();
            if payload.is::<twig_util::failpoint::PointPanic>() {
                // An injected dispatch panic kills the connection
                // silently.
                Dispatched::Drop
            } else {
                let response = error_response(
                    500,
                    "internal_panic",
                    "request handler panicked; the worker recovered",
                );
                state.metrics.count_status(response.status);
                state.metrics.request_latency_us.record(micros(started.elapsed()));
                Dispatched::Respond(response)
            }
        }
    }
}

/// The error response (if any) owed for a failed request read; the
/// connection closes either way. Pure mapping — the caller counts the
/// status and writes the response on its own I/O path.
pub(crate) fn read_error_response(state: &ServerState, outcome: &ReadOutcome) -> Option<Response> {
    match outcome {
        // Nothing arrived (clean close / idle) or the transport failed:
        // closing silently is the correct keep-alive protocol.
        ReadOutcome::Closed | ReadOutcome::IdleTimeout | ReadOutcome::Io(_) => None,
        ReadOutcome::Timeout => Some(error_response(408, "timeout", "request read timed out")),
        ReadOutcome::HeadTooLarge => {
            Some(error_response(431, "head_too_large", "request head too large"))
        }
        ReadOutcome::BodyTooLarge { declared } => Some(error_response(
            413,
            "body_too_large",
            &format!(
                "request body of {declared} bytes exceeds the {}-byte limit",
                state.config.max_body_bytes
            ),
        )),
        ReadOutcome::Malformed(what) => {
            Some(error_response(400, "malformed", &format!("malformed request: {what}")))
        }
    }
}

fn route(request: &Request, state: &Arc<ServerState>) -> Response {
    match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => handle_healthz(state),
        ("GET", "/summaries") => handle_summaries(state),
        ("GET", "/metrics") => handle_metrics(state),
        ("POST", "/estimate") => handle_estimate(request, state),
        ("POST", "/admin/reload") => handle_reload(state),
        ("POST", "/admin/shutdown") => {
            state.request_shutdown();
            Response::json(200, &Json::Obj(vec![("status".into(), Json::str("shutting down"))]))
        }
        (
            _,
            "/healthz" | "/summaries" | "/metrics" | "/estimate" | "/admin/reload"
            | "/admin/shutdown",
        ) => error_response(
            405,
            "method_not_allowed",
            &format!("{} does not support {}", request.path(), request.method),
        ),
        (_, path) => error_response(404, "not_found", &format!("no such endpoint: {path}")),
    }
}

/// Registry-level gauges appended after the fixed counter set: how many
/// summaries are serving a stale (degraded) generation, and how many
/// snapshot persists have failed.
fn handle_metrics(state: &Arc<ServerState>) -> Response {
    let mut body = state.metrics.render_prometheus();
    body.push_str("# HELP twig_serve_degraded Summaries serving a stale generation\n");
    body.push_str("# TYPE twig_serve_degraded gauge\n");
    body.push_str(&format!("twig_serve_degraded {}\n", state.registry.degraded()));
    body.push_str("# HELP twig_serve_snapshot_failures_total Snapshot persists that failed\n");
    body.push_str("# TYPE twig_serve_snapshot_failures_total counter\n");
    body.push_str(&format!(
        "twig_serve_snapshot_failures_total {}\n",
        state.registry.snapshot_failure_count()
    ));
    let (quarantined, _) = state.registry.quarantined_snapshots();
    body.push_str(
        "# HELP twig_serve_snapshot_quarantined_total Torn snapshot files quarantined in the state dir\n",
    );
    body.push_str("# TYPE twig_serve_snapshot_quarantined_total counter\n");
    body.push_str(&format!("twig_serve_snapshot_quarantined_total {quarantined}\n"));
    Response::text(200, &body)
}

fn handle_healthz(state: &Arc<ServerState>) -> Response {
    let degraded = state.registry.degraded();
    let health = state
        .registry
        .infos()
        .into_iter()
        .map(|info| {
            let mut fields = vec![
                ("name".into(), Json::Str(info.name)),
                ("generation".into(), num_u64(info.generation)),
                ("format".into(), Json::str(info.format)),
                ("stale".into(), Json::Bool(info.stale)),
            ];
            if let Some(error) = info.last_error {
                fields.push(("last_error".into(), Json::Str(error)));
            }
            Json::Obj(fields)
        })
        .collect();
    let (quarantined, newest_quarantined) = state.registry.quarantined_snapshots();
    // Per-reactor liveness: heartbeat age against the stall threshold.
    // A wedged reactor thread flips overall status to "degraded" — the
    // most actionable health signal the server can self-report.
    let stall_after = crate::metrics::REACTOR_STALL_AFTER;
    let stalled = state.metrics.stalled_reactors(stall_after);
    let now_ms = state.metrics.now_ms();
    let reactors: Vec<Json> = state
        .metrics
        .reactor_stats()
        .iter()
        .enumerate()
        .map(|(index, stats)| {
            let age_ms = now_ms.saturating_sub(stats.heartbeat_ms());
            Json::Obj(vec![
                ("index".into(), num_usize(index)),
                ("connections".into(), num_u64(stats.connections())),
                ("heartbeat_age_ms".into(), num_u64(age_ms)),
                ("stalled".into(), Json::Bool(u128::from(age_ms) > stall_after.as_millis())),
            ])
        })
        .collect();
    let healthy = degraded == 0 && stalled == 0;
    let mut fields = vec![
        ("status".into(), Json::str(if healthy { "ok" } else { "degraded" })),
        ("uptime_secs".into(), num_u64(state.started.elapsed().as_secs())),
        ("summaries".into(), num_usize(state.registry.len())),
        ("degraded".into(), num_u64(degraded)),
        ("reactors_stalled".into(), num_u64(stalled)),
        // Torn snapshot files renamed aside by recovery: evidence of
        // past corruption an operator should collect and investigate.
        ("snapshot_quarantined".into(), num_u64(quarantined)),
    ];
    if let Some(newest) = newest_quarantined {
        fields.push(("snapshot_quarantined_newest".into(), Json::Str(newest)));
    }
    if !reactors.is_empty() {
        fields.push(("reactors".into(), Json::Arr(reactors)));
    }
    fields.push(("summary_health".into(), Json::Arr(health)));
    Response::json(200, &Json::Obj(fields))
}

fn handle_summaries(state: &Arc<ServerState>) -> Response {
    let summaries = state
        .registry
        .infos()
        .into_iter()
        .map(|info| {
            let mut fields = vec![
                ("name".into(), Json::Str(info.name)),
                ("path".into(), Json::Str(info.path.display().to_string())),
                ("generation".into(), num_u64(info.generation)),
                ("file_bytes".into(), num_usize(info.file_bytes)),
                ("nodes".into(), num_usize(info.nodes)),
                ("n".into(), num_u64(info.n)),
                ("threshold".into(), num_u64(u64::from(info.threshold))),
                ("signature_len".into(), num_usize(info.signature_len)),
                ("format".into(), Json::str(info.format)),
                ("stale".into(), Json::Bool(info.stale)),
            ];
            if let Some(error) = info.last_error {
                fields.push(("last_error".into(), Json::Str(error)));
            }
            Json::Obj(fields)
        })
        .collect();
    Response::json(200, &Json::Obj(vec![("summaries".into(), Json::Arr(summaries))]))
}

fn handle_reload(state: &Arc<ServerState>) -> Response {
    let results = state.registry.reload_all();
    // Generation-keyed plans could never hit again anyway; clearing
    // releases their memory promptly.
    state.plans.clear();
    let mut any_failed = false;
    let entries = results
        .into_iter()
        .map(|(name, result)| {
            let mut fields = vec![("name".into(), Json::Str(name))];
            match result {
                Ok(generation) => {
                    state.metrics.reloads_total.inc();
                    fields.push(("ok".into(), Json::Bool(true)));
                    fields.push(("generation".into(), num_u64(generation)));
                }
                Err(err) => {
                    state.metrics.reload_failures_total.inc();
                    any_failed = true;
                    fields.push(("ok".into(), Json::Bool(false)));
                    fields.push(("error".into(), Json::Str(error_chain(&err))));
                }
            }
            Json::Obj(fields)
        })
        .collect();
    // 200 even with failures: the reload *request* was served; per-entry
    // status is in the body and failed entries keep their old summary.
    Response::json(
        200,
        &Json::Obj(vec![
            ("reloaded".into(), Json::Arr(entries)),
            ("all_ok".into(), Json::Bool(!any_failed)),
        ]),
    )
}

fn handle_estimate(request: &Request, state: &Arc<ServerState>) -> Response {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return error_response(400, "bad_request", "body is not UTF-8");
    };
    let body = match Json::parse(text) {
        Ok(body) => body,
        Err(err) => return error_response(400, "bad_json", &err.to_string()),
    };

    let summary_name = match body.get("summary") {
        None => "default",
        Some(value) => match value.as_str() {
            Some(name) => name,
            None => return error_response(400, "bad_request", "'summary' must be a string"),
        },
    };
    let algorithm = match body.get("algorithm") {
        None => Algorithm::Msh,
        Some(value) => match value.as_str().and_then(parse_algorithm) {
            Some(algorithm) => algorithm,
            None => {
                return error_response(
                    400,
                    "bad_request",
                    &format!("unknown algorithm (expected one of {})", algorithm_names()),
                )
            }
        },
    };
    let kind = match body.get("count_kind") {
        None => CountKind::Occurrence,
        Some(value) => match value.as_str() {
            Some("occurrence") => CountKind::Occurrence,
            Some("presence") => CountKind::Presence,
            _ => {
                return error_response(
                    400,
                    "bad_request",
                    "'count_kind' must be \"presence\" or \"occurrence\"",
                )
            }
        },
    };

    let query_texts: Vec<&str> = match (body.get("query"), body.get("queries")) {
        (Some(_), Some(_)) => {
            return error_response(400, "bad_request", "'query' and 'queries' are exclusive")
        }
        (Some(single), None) => match single.as_str() {
            Some(text) => vec![text],
            None => return error_response(400, "bad_request", "'query' must be a string"),
        },
        (None, Some(many)) => match many.as_array() {
            Some(items) => {
                let mut texts = Vec::with_capacity(items.len());
                for (index, item) in items.iter().enumerate() {
                    match item.as_str() {
                        Some(text) => texts.push(text),
                        None => {
                            return error_response(
                                400,
                                "bad_request",
                                &format!("'queries[{index}]' must be a string"),
                            )
                        }
                    }
                }
                texts
            }
            None => return error_response(400, "bad_request", "'queries' must be an array"),
        },
        (None, None) => {
            return error_response(400, "bad_request", "body needs 'query' or 'queries'")
        }
    };
    if query_texts.is_empty() {
        return error_response(400, "bad_request", "'queries' must not be empty");
    }
    if query_texts.len() > state.config.max_batch {
        return error_response(
            413,
            "batch_too_large",
            &format!(
                "batch of {} queries exceeds the limit of {}",
                query_texts.len(),
                state.config.max_batch
            ),
        );
    }

    let Some((cst, generation, stale)) = state.registry.get_for_serving(summary_name) else {
        return error_response(
            404,
            "unknown_summary",
            &format!(
                "no summary named '{summary_name}' (loaded: {})",
                state.registry.names().join(", ")
            ),
        );
    };

    // Resolve every query before estimating any (a bad query at index
    // i must fail the whole batch with no partial work): each query is
    // either an owned parse (cache off) or a shared cache entry whose
    // twig was parsed the first time this text was seen — the plan
    // cache is keyed by raw request text exactly so a hit skips
    // `Twig::parse` entirely.
    enum Resolved {
        Owned(Twig),
        Cached(Arc<CachedPlan>),
    }
    let cache_off = state.config.plan_cache_capacity == 0;
    let mut queries = Vec::with_capacity(query_texts.len());
    for (index, text) in query_texts.iter().enumerate() {
        if !cache_off {
            let key = PlanCache::key(summary_name, generation, text);
            if let Some(cached) = state.plans.lookup(&key) {
                state.metrics.plan_cache_hits_total.inc();
                queries.push(Resolved::Cached(cached));
                continue;
            }
            state.metrics.plan_cache_misses_total.inc();
            match Twig::parse(text) {
                Ok(query) => {
                    let (cached, evicted) = state.plans.insert(&key, query);
                    if evicted {
                        state.metrics.plan_cache_evictions_total.inc();
                    }
                    queries.push(Resolved::Cached(cached));
                }
                Err(err) => {
                    return error_response(
                        400,
                        "bad_query",
                        &format!("queries[{index}] '{text}' does not parse: {err}"),
                    )
                }
            }
            continue;
        }
        match Twig::parse(text) {
            Ok(query) => queries.push(Resolved::Owned(query)),
            Err(err) => {
                return error_response(
                    400,
                    "bad_query",
                    &format!("queries[{index}] '{text}' does not parse: {err}"),
                )
            }
        }
    }

    let mut estimates = Vec::with_capacity(queries.len());
    for query in &queries {
        let started = Instant::now();
        let estimate = match query {
            Resolved::Owned(query) => cst.estimate(query, algorithm, kind),
            Resolved::Cached(cached) => {
                // Same stages the plan-free path runs, memoized: the
                // product below is bit-identical to `cst.estimate(...)`.
                let raw = cst.estimate_raw(&cached.twig, algorithm, kind, Some(&cached.plan));
                let discount = *cached.discount.get_or_init(|| cst.sibling_discount(&cached.twig));
                raw * discount
            }
        };
        state.metrics.estimate_latency_us.record(micros(started.elapsed()));
        estimates.push(Json::Num(estimate));
    }
    state.metrics.batches_total.inc();
    state.metrics.estimates_total.add(size_to_u64(estimates.len()));

    let response = Response::json(
        200,
        &Json::Obj(vec![
            ("summary".into(), Json::str(summary_name)),
            ("algorithm".into(), Json::str(algorithm.name())),
            (
                "count_kind".into(),
                Json::str(match kind {
                    CountKind::Presence => "presence",
                    CountKind::Occurrence => "occurrence",
                }),
            ),
            ("generation".into(), num_u64(generation)),
            ("count".into(), num_usize(estimates.len())),
            ("estimates".into(), Json::Arr(estimates)),
        ]),
    );
    if stale {
        // The summary's latest reload failed; answers come from the
        // last good generation. Clients that care can detect it here.
        response.with_header("x-twig-stale-generation", generation.to_string())
    } else {
        response
    }
}

fn parse_algorithm(name: &str) -> Option<Algorithm> {
    Algorithm::ALL.into_iter().find(|a| a.name().eq_ignore_ascii_case(name))
}

fn algorithm_names() -> String {
    let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
    names.join(", ")
}

/// The uniform error envelope: `{"error":{"kind":…,"message":…}}`.
#[must_use]
pub fn error_response(status: u16, kind: &str, message: &str) -> Response {
    Response::json(
        status,
        &Json::Obj(vec![(
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::str(kind)),
                ("message".into(), Json::str(message)),
            ]),
        )]),
    )
}

fn micros(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

fn num_u64(value: u64) -> Json {
    Json::Num(count_to_f64(value))
}

fn num_usize(value: usize) -> Json {
    Json::Num(count_to_f64(size_to_u64(value)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_escalates_from_one_to_a_capped_sixteen() {
        // The first eight rejections of a streak hint an immediate retry.
        for streak in 1..=8u64 {
            assert_eq!(retry_after_secs(streak), 1, "streak {streak}");
        }
        // Then the hint escalates with bounded per-streak jitter: at
        // least the base, at most double it, never past 16 seconds.
        for streak in 9..=200u64 {
            let base = (streak / 8).min(8);
            let hint = retry_after_secs(streak);
            assert!(hint >= base, "streak {streak}: hint {hint} below base {base}");
            assert!(hint <= (2 * base).min(16), "streak {streak}: hint {hint} over cap");
        }
        // Deep in a sustained streak the cap is reachable and binding.
        let deep: Vec<u64> = (1000..1100u64).map(retry_after_secs).collect();
        assert!(deep.iter().all(|&hint| (8..=16).contains(&hint)), "{deep:?}");
        assert!(deep.contains(&16), "cap never reached: {deep:?}");
        // The jitter is per-streak deterministic (same seed, same hint).
        assert_eq!(retry_after_secs(77), retry_after_secs(77));
    }
}
