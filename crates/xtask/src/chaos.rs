//! `cargo xtask chaos` — the seeded chaos harness (DESIGN.md §11).
//!
//! Runs the real estimation server **in-process** under deterministic
//! fault injection (`twig_util::failpoint`) and asserts the robustness
//! contract of the serve path:
//!
//! - **No process abort.** Every scenario ends with the accept thread
//!   joining cleanly; a panic that escaped containment would fail the
//!   join.
//! - **Bit-identical recovery.** Once faults clear, `/estimate` answers
//!   for *all six* algorithms are byte-for-byte identical to a
//!   fault-free baseline run (the JSON `f64` rendering is
//!   shortest-round-trip, so string equality is value equality).
//! - **Typed errors only.** A client sees either a well-formed response
//!   (200, or a 4xx/5xx carrying the `{"error":{kind,message}}`
//!   envelope) or a closed socket — never a torn half-response that
//!   parses, never a hang.
//! - **Monotonic metrics.** Every `_total` counter sampled from
//!   `/metrics` is non-decreasing across the run.
//!
//! Scenarios per seed: reload-during-batch (injected load failures
//! while clients hammer `/estimate`), kill-mid-write (a torn snapshot
//! persist followed by a simulated restart that must recover the
//! previous committed generation from the manifest), socket resets
//! (injected read/write faults on the HTTP layer), dispatch-panic
//! (injected dispatch panics that the reactor must contain),
//! flat-mmap-hosting (kill-mid-pack of a `TWIGFLT1` container, the
//! registry serving off the mapped file, and crash recovery from a
//! snapshot-store flat payload), and pipelined-reset-storm (read/write
//! faults firing on connections that pipeline all six algorithms while
//! `/admin/reload` runs concurrently — every delivered response slot
//! must be a baseline-identical 200 or a typed error, never a torn
//! frame), and syscall-storm-and-exhaustion (seeded errno faults on the
//! reactor's accept/read/write/epoll shims, a slowloris trickle fleet
//! that must die to progress-window kills while normal clients keep
//! getting baseline 200s, and a genuine `RLIMIT_NOFILE` exhaustion run
//! where accepts shed queued clients with typed `503`s via the reserve
//! fd — after every storm the server must answer bit-identically).
//!
//! The harness requires failpoints to be compiled in:
//!
//! ```text
//! cargo run -p xtask --features failpoints -- chaos --seeds 8
//! ```

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use twig_core::{Algorithm, Cst, CstConfig, SpaceBudget};
use twig_datagen::{generate_dblp, positive_queries, DblpConfig, WorkloadConfig};
use twig_serve::http::{
    read_response, read_response_pipelined, write_request, ClientResponse, Limits,
};
use twig_serve::{
    Json, LoadOutcome, Server, ServerConfig, SnapshotStore, SummaryRegistry, SummarySpec,
};
use twig_tree::DataTree;
use twig_util::failpoint;

const SUMMARY_NAME: &str = "chaos";

pub(crate) fn chaos(args: &[String]) -> ExitCode {
    let mut seeds = 4u64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seeds" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => seeds = n,
                _ => return usage_error("--seeds needs a positive integer"),
            },
            other => return usage_error(&format!("unknown chaos flag '{other}'")),
        }
    }
    if !failpoint::is_compiled() {
        eprintln!(
            "chaos: failpoints are not compiled into this build.\n\
             Rebuild with: cargo run -p xtask --features failpoints -- chaos --seeds {seeds}"
        );
        return ExitCode::FAILURE;
    }
    match run_chaos(seeds) {
        Ok(()) => {
            println!("chaos: all {seeds} seeds passed");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("chaos: FAILED: {message}");
            ExitCode::FAILURE
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\nusage: cargo xtask chaos [--seeds N]");
    ExitCode::FAILURE
}

/// True when `all_ok` in a reload response body is `true`.
fn reload_all_ok(body: &Json) -> bool {
    matches!(body.get("all_ok"), Some(Json::Bool(true)))
}

/// Silences the default panic hook's backtrace spew for *injected*
/// panics (recognized by their `PointPanic` payload); real panics still
/// print. Restored implicitly: the hook stays harmless after the run.
fn install_quiet_panic_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<failpoint::PointPanic>().is_some() {
            return;
        }
        default_hook(info);
    }));
}

fn run_chaos(seeds: u64) -> Result<(), String> {
    install_quiet_panic_hook();
    let world = World::build()?;
    let result = (1..=seeds).try_for_each(|seed| {
        println!("chaos: seed {seed}/{seeds}");
        run_seed(&world, seed).map_err(|e| format!("seed {seed}: {e}"))
    });
    failpoint::clear_all();
    std::fs::remove_dir_all(&world.dir).ok();
    result
}

fn run_seed(world: &World, seed: u64) -> Result<(), String> {
    failpoint::clear_all();
    let baseline = fault_free_baseline(world, seed)?;
    scenario_reload_during_batch(world, &baseline, seed)?;
    scenario_kill_mid_write(world, &baseline, seed)?;
    scenario_socket_resets(world, &baseline, seed)?;
    scenario_worker_panic(world, &baseline, seed)?;
    scenario_flat_mmap_hosting(world, &baseline, seed)?;
    scenario_pipelined_reset_storm(world, &baseline, seed)?;
    scenario_syscall_storm_and_exhaustion(world, &baseline, seed)?;
    Ok(())
}

// ---------------------------------------------------------------------
// Fixture: corpus, summary file, workload
// ---------------------------------------------------------------------

struct World {
    dir: PathBuf,
    summary_path: PathBuf,
    /// Pristine serialized summary bytes (for repairing deliberate
    /// corruption between scenarios).
    summary_bytes: Vec<u8>,
    tree: DataTree,
}

impl World {
    fn build() -> Result<World, String> {
        let dir = std::env::temp_dir().join(format!("twig-chaos-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let xml = generate_dblp(&DblpConfig {
            target_bytes: 1 << 20,
            seed: 0xC4A0_5EED,
            ..DblpConfig::default()
        });
        let tree = DataTree::from_xml(&xml).map_err(|e| format!("corpus parse failed: {e}"))?;
        let cst = Cst::build(
            &tree,
            &CstConfig { budget: SpaceBudget::Threshold(2), ..CstConfig::default() },
        )
        .map_err(|e| format!("CST build failed: {e}"))?;
        let mut summary_bytes = Vec::new();
        cst.write_to(&mut summary_bytes).map_err(|e| format!("cannot serialize summary: {e}"))?;
        let summary_path = dir.join("chaos.cst");
        std::fs::write(&summary_path, &summary_bytes)
            .map_err(|e| format!("cannot write summary: {e}"))?;
        Ok(World { dir, summary_path, summary_bytes, tree })
    }

    /// Restores the pristine summary file (scenarios corrupt it).
    fn repair_summary(&self) -> Result<(), String> {
        std::fs::write(&self.summary_path, &self.summary_bytes)
            .map_err(|e| format!("cannot repair summary: {e}"))
    }

    /// Deterministic per-seed workload of positive twig queries.
    fn queries(&self, seed: u64) -> Vec<String> {
        positive_queries(
            &self.tree,
            &WorkloadConfig { count: 6, seed, ..WorkloadConfig::default() },
        )
        .iter()
        .map(|twig| twig.to_string())
        .collect()
    }
}

// ---------------------------------------------------------------------
// In-process server + HTTP client helpers
// ---------------------------------------------------------------------

struct Running {
    addr: String,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// POSTs `/admin/shutdown` and joins the accept thread; a panic that
    /// escaped containment (or a listener error) fails the join.
    fn stop(self) -> Result<(), String> {
        let _ = post(&self.addr, "/admin/shutdown", b"");
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(err)) => Err(format!("server exited with error: {err}")),
            Err(_) => Err("server accept thread panicked (process-abort invariant)".into()),
        }
    }
}

/// The harness default: small enough to saturate, big enough to serve.
fn chaos_server_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        queue_capacity: 16,
        read_deadline: Duration::from_secs(5),
        idle_deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

fn boot(registry: SummaryRegistry) -> Result<Running, String> {
    boot_with(chaos_server_config(), registry)
}

fn boot_with(config: ServerConfig, registry: SummaryRegistry) -> Result<Running, String> {
    let server = Server::bind("127.0.0.1:0", config, registry)
        .map_err(|e| format!("cannot bind chaos server: {e}"))?;
    let addr = server.local_addr().to_string();
    let thread = std::thread::spawn(move || server.run());
    Ok(Running { addr, thread })
}

fn fresh_registry(world: &World, state_dir: Option<&Path>) -> Result<SummaryRegistry, String> {
    let registry = SummaryRegistry::new();
    if let Some(dir) = state_dir {
        let store =
            SnapshotStore::open(dir).map_err(|e| format!("cannot open snapshot store: {e}"))?;
        registry.attach_store(store);
    }
    registry
        .load(SummarySpec { name: SUMMARY_NAME.into(), path: world.summary_path.clone() })
        .map_err(|e| format!("cannot load chaos summary: {e}"))?;
    Ok(registry)
}

fn client_limits() -> Limits {
    Limits {
        max_head_bytes: 64 * 1024,
        max_body_bytes: 16 * 1024 * 1024,
        read_deadline: Duration::from_secs(10),
        idle_deadline: Duration::from_secs(10),
    }
}

/// One request on a fresh connection (so every request is one dispatch).
fn post(addr: &str, target: &str, body: &[u8]) -> Result<ClientResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    write_request(&mut stream, "POST", target, body).map_err(|e| format!("write: {e}"))?;
    read_response(&mut stream, &client_limits()).map_err(|e| format!("read: {e}"))
}

fn get(addr: &str, target: &str) -> Result<ClientResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    write_request(&mut stream, "GET", target, b"").map_err(|e| format!("write: {e}"))?;
    read_response(&mut stream, &client_limits()).map_err(|e| format!("read: {e}"))
}

fn estimate_body(queries: &[String], algorithm: Algorithm) -> Vec<u8> {
    let items = queries.iter().map(|q| Json::str(q)).collect();
    Json::Obj(vec![
        ("summary".into(), Json::str(SUMMARY_NAME)),
        ("algorithm".into(), Json::str(algorithm.name())),
        ("queries".into(), Json::Arr(items)),
    ])
    .render()
    .into_bytes()
}

/// The `estimates` array of a 200 response, re-rendered: the canonical
/// bit-identity token for one (workload, algorithm) pair.
fn estimates_token(response: &ClientResponse) -> Result<String, String> {
    if response.status != 200 {
        return Err(format!("expected 200, got {}: {}", response.status, response.body_text()));
    }
    let body =
        Json::parse(&response.body_text()).map_err(|e| format!("unparseable 200 body: {e}"))?;
    let estimates =
        body.get("estimates").ok_or_else(|| "200 body lacks 'estimates'".to_string())?;
    Ok(estimates.render())
}

/// Asserts a non-200 response carries the typed error envelope.
fn assert_typed_error(response: &ClientResponse) -> Result<(), String> {
    if !(400..=599).contains(&response.status) {
        return Err(format!("error response with status {}", response.status));
    }
    let body = Json::parse(&response.body_text())
        .map_err(|e| format!("{} body is not JSON: {e}", response.status))?;
    let kind =
        body.get("error").and_then(|e| e.get("kind")).and_then(|k| k.as_str()).unwrap_or_default();
    if kind.is_empty() {
        return Err(format!("{} body lacks error.kind", response.status));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Metrics monotonicity
// ---------------------------------------------------------------------

/// Tracks every `_total` counter exposed by `/metrics` and fails if one
/// ever decreases.
#[derive(Default)]
struct MetricsWatch {
    last: BTreeMap<String, u64>,
}

impl MetricsWatch {
    fn sample(&mut self, addr: &str) -> Result<(), String> {
        let response = get(addr, "/metrics")?;
        if response.status != 200 {
            return Err(format!("/metrics returned {}", response.status));
        }
        for line in response.body_text().lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((name, value)) = line.split_once(' ') else {
                continue;
            };
            if !name.ends_with("_total") {
                continue; // gauges (e.g. twig_serve_degraded) may go down
            }
            let Ok(value) = value.trim().parse::<u64>() else {
                continue;
            };
            if let Some(&previous) = self.last.get(name) {
                if value < previous {
                    return Err(format!("counter {name} went backwards: {previous} -> {value}"));
                }
            }
            self.last.insert(name.to_string(), value);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------

/// Fault-free estimates for every algorithm, keyed by algorithm name.
type Baseline = BTreeMap<&'static str, String>;

fn fault_free_baseline(world: &World, seed: u64) -> Result<Baseline, String> {
    let queries = world.queries(seed);
    let running = boot(fresh_registry(world, None)?)?;
    let mut baseline = Baseline::new();
    for algorithm in Algorithm::ALL {
        let response = post(&running.addr, "/estimate", &estimate_body(&queries, algorithm))?;
        baseline.insert(algorithm.name(), estimates_token(&response)?);
    }
    running.stop()?;
    Ok(baseline)
}

/// Post-fault check: every algorithm's estimates must match the
/// fault-free baseline byte for byte.
fn assert_baseline_estimates(
    addr: &str,
    queries: &[String],
    baseline: &Baseline,
) -> Result<(), String> {
    for algorithm in Algorithm::ALL {
        let response = post(addr, "/estimate", &estimate_body(queries, algorithm))?;
        let token = estimates_token(&response)?;
        let expected = baseline
            .get(algorithm.name())
            .ok_or_else(|| format!("no baseline for {}", algorithm.name()))?;
        if &token != expected {
            return Err(format!(
                "{} estimates diverged after recovery:\n  baseline: {expected}\n  \
                 recovered: {token}",
                algorithm.name()
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Scenario 1: reload during batch traffic, with injected load failures
// ---------------------------------------------------------------------

fn scenario_reload_during_batch(
    world: &World,
    baseline: &Baseline,
    seed: u64,
) -> Result<(), String> {
    let label = "reload-during-batch";
    let queries = world.queries(seed);
    let state_dir = world.dir.join(format!("state-reload-{seed}"));
    std::fs::create_dir_all(&state_dir).map_err(|e| e.to_string())?;
    let running = boot(fresh_registry(world, Some(&state_dir))?)?;

    // The first reload read fails deterministically (so every seed
    // exercises the degraded path), then roughly a third fail at
    // random; serving must continue from the old generation and
    // estimates must never change.
    failpoint::configure("registry.load=1*error,33%error", seed)
        .map_err(|e| format!("{label}: {e}"))?;

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut clients = Vec::new();
    for client_index in 0..3u64 {
        let addr = running.addr.clone();
        let queries = queries.clone();
        let stop = std::sync::Arc::clone(&stop);
        let expected = baseline.get(Algorithm::Msh.name()).cloned().unwrap_or_default();
        clients.push(std::thread::spawn(move || -> Result<u64, String> {
            let mut served = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let body = estimate_body(&queries, Algorithm::Msh);
                let response = post(&addr, "/estimate", &body)
                    .map_err(|e| format!("client {client_index}: {e}"))?;
                let token = estimates_token(&response)
                    .map_err(|e| format!("client {client_index}: {e}"))?;
                if token != expected {
                    return Err(format!("client {client_index}: estimates changed mid-reload"));
                }
                served += 1;
            }
            Ok(served)
        }));
    }

    let mut watch = MetricsWatch::default();
    let mut reload_outcomes = (0u64, 0u64); // (ok, failed)
    for _ in 0..12 {
        let response = post(&running.addr, "/admin/reload", b"")?;
        if response.status != 200 {
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            return Err(format!("{label}: reload returned {}", response.status));
        }
        let body = Json::parse(&response.body_text()).map_err(|e| e.to_string())?;
        if reload_all_ok(&body) {
            reload_outcomes.0 += 1;
        } else {
            reload_outcomes.1 += 1;
        }
        watch.sample(&running.addr).map_err(|e| format!("{label}: {e}"))?;
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for client in clients {
        match client.join() {
            Ok(Ok(served)) if served > 0 => {}
            Ok(Ok(_)) => return Err(format!("{label}: a client served zero requests")),
            Ok(Err(err)) => return Err(format!("{label}: {err}")),
            Err(_) => return Err(format!("{label}: client thread panicked")),
        }
    }
    if reload_outcomes.1 == 0 {
        return Err(format!(
            "{label}: injected failure never fired across {} reloads",
            reload_outcomes.0 + reload_outcomes.1
        ));
    }

    // Faults clear; the next reload must fully succeed and clear the
    // degraded state, and all six algorithms must match the baseline.
    failpoint::clear_all();
    let response = post(&running.addr, "/admin/reload", b"")?;
    let body = Json::parse(&response.body_text()).map_err(|e| e.to_string())?;
    if !reload_all_ok(&body) {
        return Err(format!("{label}: post-fault reload failed: {}", response.body_text()));
    }
    let health = get(&running.addr, "/healthz")?;
    let health_body = Json::parse(&health.body_text()).map_err(|e| e.to_string())?;
    if health_body.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!(
            "{label}: health still degraded after recovery: {}",
            health.body_text()
        ));
    }
    assert_baseline_estimates(&running.addr, &queries, baseline)
        .map_err(|e| format!("{label}: {e}"))?;
    watch.sample(&running.addr).map_err(|e| format!("{label}: {e}"))?;
    running.stop().map_err(|e| format!("{label}: {e}"))
}

// ---------------------------------------------------------------------
// Scenario 2: kill mid-snapshot-write, then recover from the manifest
// ---------------------------------------------------------------------

fn scenario_kill_mid_write(world: &World, baseline: &Baseline, seed: u64) -> Result<(), String> {
    let label = "kill-mid-write";
    let queries = world.queries(seed);
    let state_dir = world.dir.join(format!("state-kill-{seed}"));
    std::fs::create_dir_all(&state_dir).map_err(|e| e.to_string())?;

    // Generation 1 persists cleanly.
    let registry = fresh_registry(world, Some(&state_dir))?;
    let store = registry.snapshot_store().ok_or_else(|| format!("{label}: no store attached"))?;
    if store.committed_generation(SUMMARY_NAME) != Some(1) {
        return Err(format!("{label}: generation 1 was not committed"));
    }

    // "Kill" the process mid-write: the generation-2 persist tears the
    // snapshot file (a partial write at the final path), so the
    // manifest must keep pointing at generation 1.
    failpoint::configure("snapshot.write=partial(43)", seed).map_err(|e| e.to_string())?;
    for (_, result) in registry.reload_all() {
        result.map_err(|e| format!("{label}: reload itself failed: {e}"))?;
    }
    failpoint::clear_all();
    if registry.snapshot_failure_count() == 0 {
        return Err(format!("{label}: torn persist was not detected"));
    }
    if registry.snapshot_store().and_then(|s| s.committed_generation(SUMMARY_NAME)) != Some(1) {
        return Err(format!("{label}: manifest moved past the torn generation"));
    }
    drop(registry); // the "crash"

    // Restart with the source summary file also corrupted: recovery
    // must land on committed generation 1 and quarantine the torn file.
    std::fs::write(&world.summary_path, b"definitely not a summary").map_err(|e| e.to_string())?;
    let restarted = SummaryRegistry::new();
    let store = SnapshotStore::open(&state_dir).map_err(|e| format!("{label}: {e}"))?;
    restarted.attach_store(store);
    let outcome = restarted
        .load_or_recover(SummarySpec {
            name: SUMMARY_NAME.into(),
            path: world.summary_path.clone(),
        })
        .map_err(|e| format!("{label}: recovery failed: {e}"))?;
    match outcome {
        LoadOutcome::Recovered { generation: 1, .. } => {}
        other => {
            world.repair_summary()?;
            return Err(format!("{label}: expected recovery to generation 1, got {other:?}"));
        }
    }
    if restarted.degraded() != 1 {
        world.repair_summary()?;
        return Err(format!("{label}: recovered entry is not marked degraded"));
    }

    // The recovered summary must serve baseline-identical estimates,
    // with the stale-generation header advertised.
    let running = boot(restarted)?;
    let response = post(&running.addr, "/estimate", &estimate_body(&queries, Algorithm::Msh))?;
    if response.header("x-twig-stale-generation").is_none() {
        world.repair_summary()?;
        return Err(format!("{label}: stale response lacks X-Twig-Stale-Generation"));
    }
    assert_baseline_estimates(&running.addr, &queries, baseline)
        .map_err(|e| format!("{label}: {e}"))?;

    // Repair the source file: the next reload heals the degraded state.
    world.repair_summary()?;
    let response = post(&running.addr, "/admin/reload", b"")?;
    let body = Json::parse(&response.body_text()).map_err(|e| e.to_string())?;
    if !reload_all_ok(&body) {
        return Err(format!("{label}: healing reload failed: {}", response.body_text()));
    }
    let response = post(&running.addr, "/estimate", &estimate_body(&queries, Algorithm::Msh))?;
    if response.header("x-twig-stale-generation").is_some() {
        return Err(format!("{label}: stale header survived a successful reload"));
    }
    running.stop().map_err(|e| format!("{label}: {e}"))
}

// ---------------------------------------------------------------------
// Scenario 3: socket faults (torn reads, failed/torn writes)
// ---------------------------------------------------------------------

fn scenario_socket_resets(world: &World, baseline: &Baseline, seed: u64) -> Result<(), String> {
    let label = "socket-resets";
    let queries = world.queries(seed);
    let running = boot(fresh_registry(world, None)?)?;

    failpoint::configure(
        "http.read=20%error,15%partial(50);http.write=20%partial(60),10%error",
        seed,
    )
    .map_err(|e| e.to_string())?;

    let mut ok = 0u64;
    let mut typed_errors = 0u64;
    let mut transport_errors = 0u64;
    let expected = baseline.get(Algorithm::Msh.name()).cloned().unwrap_or_default();
    for _ in 0..40 {
        match post(&running.addr, "/estimate", &estimate_body(&queries, Algorithm::Msh)) {
            Ok(response) if response.status == 200 => {
                let token = estimates_token(&response).map_err(|e| format!("{label}: {e}"))?;
                if token != expected {
                    return Err(format!("{label}: estimates changed under socket faults"));
                }
                ok += 1;
            }
            Ok(response) => {
                assert_typed_error(&response).map_err(|e| format!("{label}: {e}"))?;
                typed_errors += 1;
            }
            // A closed/reset socket is an acceptable outcome for the
            // client; the server must survive it.
            Err(_) => transport_errors += 1,
        }
    }
    if typed_errors + transport_errors == 0 {
        return Err(format!("{label}: injected socket faults never fired"));
    }

    // Faults clear: the server must be fully healthy and bit-identical.
    failpoint::clear_all();
    let health = get(&running.addr, "/healthz")?;
    if health.status != 200 {
        return Err(format!("{label}: /healthz returned {} after faults", health.status));
    }
    assert_baseline_estimates(&running.addr, &queries, baseline)
        .map_err(|e| format!("{label}: {e}"))?;
    if ok == 0 {
        // Not an invariant violation by itself, but a seed whose faults
        // starved every request would make the scenario vacuous.
        return Err(format!("{label}: no request survived the fault window"));
    }
    running.stop().map_err(|e| format!("{label}: {e}"))
}

// ---------------------------------------------------------------------
// Scenario 4: handler panics at request dispatch
// ---------------------------------------------------------------------

fn scenario_worker_panic(world: &World, baseline: &Baseline, seed: u64) -> Result<(), String> {
    let label = "dispatch-panic";
    let queries = world.queries(seed);
    let running = boot(fresh_registry(world, None)?)?;
    let mut watch = MetricsWatch::default();
    watch.sample(&running.addr).map_err(|e| format!("{label}: {e}"))?;

    // Exactly three dispatches panic, then the point turns off.
    failpoint::configure("serve.dispatch=3*panic,off", seed).map_err(|e| e.to_string())?;
    let mut dropped = 0u64;
    for _ in 0..10 {
        match post(&running.addr, "/estimate", &estimate_body(&queries, Algorithm::Msh)) {
            Ok(response) if response.status == 200 => {}
            Ok(response) => {
                assert_typed_error(&response).map_err(|e| format!("{label}: {e}"))?;
            }
            Err(_) => dropped += 1, // connection died with the panicking dispatch
        }
    }
    failpoint::clear_all();
    if dropped != 3 {
        return Err(format!("{label}: expected 3 dropped connections, saw {dropped}"));
    }

    // The reactors contained every panic: they still serve, the counter
    // is live (not shutdown-reconciled), and metrics stay monotonic.
    let metrics = get(&running.addr, "/metrics")?;
    let panics_line = metrics
        .body_text()
        .lines()
        .find(|line| line.starts_with("twig_serve_worker_panics_total"))
        .map(str::to_owned)
        .unwrap_or_default();
    if panics_line.trim() != "twig_serve_worker_panics_total 3" {
        return Err(format!("{label}: expected live panic counter of 3, got '{panics_line}'"));
    }
    watch.sample(&running.addr).map_err(|e| format!("{label}: {e}"))?;
    assert_baseline_estimates(&running.addr, &queries, baseline)
        .map_err(|e| format!("{label}: {e}"))?;
    running.stop().map_err(|e| format!("{label}: {e}"))
}

// ---------------------------------------------------------------------
// Scenario 5: flat container hosting — kill mid-pack, serve off the
// mapping, recover from a snapshot-store flat payload after a crash
// ---------------------------------------------------------------------

fn scenario_flat_mmap_hosting(world: &World, baseline: &Baseline, seed: u64) -> Result<(), String> {
    let label = "flat-mmap-hosting";
    let queries = world.queries(seed);
    let state_dir = world.dir.join(format!("state-flat-{seed}"));
    std::fs::create_dir_all(&state_dir).map_err(|e| e.to_string())?;
    let flat_path = world.dir.join(format!("chaos-{seed}.flt"));
    let cst = Cst::read_from(&mut world.summary_bytes.as_slice())
        .map_err(|e| format!("{label}: cannot deserialize summary: {e}"))?;

    // Kill mid-pack: the partial write dies before the rename, so a
    // torn container can never land at the final path; the retry lands.
    failpoint::configure("flat.pack=1*partial(41),off", seed).map_err(|e| e.to_string())?;
    if twig_flat::writer::write_file(&cst, &flat_path).is_ok() {
        return Err(format!("{label}: injected pack fault did not fire"));
    }
    failpoint::clear_all();
    if flat_path.exists() {
        return Err(format!("{label}: torn pack landed at the final path"));
    }
    twig_flat::writer::write_file(&cst, &flat_path)
        .map_err(|e| format!("{label}: clean re-pack failed: {e}"))?;

    // The registry maps the container zero-copy and serves estimates
    // bit-identical to the owned baseline.
    let registry = SummaryRegistry::new();
    let store = SnapshotStore::open(&state_dir).map_err(|e| format!("{label}: {e}"))?;
    registry.attach_store(store);
    registry
        .load(SummarySpec { name: SUMMARY_NAME.into(), path: flat_path.clone() })
        .map_err(|e| format!("{label}: cannot load flat summary: {e}"))?;
    let running = boot(registry)?;
    assert_baseline_estimates(&running.addr, &queries, baseline)
        .map_err(|e| format!("{label}: {e}"))?;

    // An injected reload failure degrades the entry but keeps the old
    // mapping serving; the next clean reload heals it (map-swap).
    failpoint::configure("registry.load=1*error,off", seed).map_err(|e| e.to_string())?;
    let response = post(&running.addr, "/admin/reload", b"")?;
    let body = Json::parse(&response.body_text()).map_err(|e| e.to_string())?;
    if reload_all_ok(&body) {
        return Err(format!("{label}: injected reload fault did not fire"));
    }
    assert_baseline_estimates(&running.addr, &queries, baseline)
        .map_err(|e| format!("{label}: degraded mapping diverged: {e}"))?;
    failpoint::clear_all();
    let response = post(&running.addr, "/admin/reload", b"")?;
    let body = Json::parse(&response.body_text()).map_err(|e| e.to_string())?;
    if !reload_all_ok(&body) {
        return Err(format!("{label}: healing reload failed: {}", response.body_text()));
    }
    assert_baseline_estimates(&running.addr, &queries, baseline)
        .map_err(|e| format!("{label}: {e}"))?;
    running.stop().map_err(|e| format!("{label}: {e}"))?;

    // Simulated crash: the flat source is replaced with garbage — by
    // rename, honouring the mmap contract (a live mapping must never
    // see an in-place truncation). Recovery must come back from the
    // snapshot store's raw flat payload, marked stale, bit-identical.
    let garbage = world.dir.join(format!("garbage-{seed}.tmp"));
    std::fs::write(&garbage, b"definitely not a container").map_err(|e| e.to_string())?;
    std::fs::rename(&garbage, &flat_path).map_err(|e| e.to_string())?;
    let restarted = SummaryRegistry::new();
    let store = SnapshotStore::open(&state_dir).map_err(|e| format!("{label}: {e}"))?;
    restarted.attach_store(store);
    let outcome = restarted
        .load_or_recover(SummarySpec { name: SUMMARY_NAME.into(), path: flat_path })
        .map_err(|e| format!("{label}: recovery failed: {e}"))?;
    match outcome {
        LoadOutcome::Recovered { .. } => {}
        other => return Err(format!("{label}: expected snapshot recovery, got {other:?}")),
    }
    let running = boot(restarted)?;
    let response = post(&running.addr, "/estimate", &estimate_body(&queries, Algorithm::Msh))?;
    if response.header("x-twig-stale-generation").is_none() {
        return Err(format!("{label}: recovered flat summary lacks the stale header"));
    }
    assert_baseline_estimates(&running.addr, &queries, baseline)
        .map_err(|e| format!("{label}: {e}"))?;
    running.stop().map_err(|e| format!("{label}: {e}"))
}

// ---------------------------------------------------------------------
// Scenario 6: socket-reset storm over pipelined batches, with reloads
// racing the traffic — the reactor's framing invariant under faults
// ---------------------------------------------------------------------

/// Sends one pipelined batch — all six algorithms back to back on a
/// single connection — and reads the responses in order. Each delivered
/// slot is `Some(token)` for a 200 or `None` for a typed error
/// envelope; the batch truncates at the first transport error (the
/// connection was reset, so later slots are legitimately undelivered).
/// An `Err` means a framing invariant broke: a 200 whose body does not
/// parse, or an error response without the typed envelope.
fn pipelined_batch(
    addr: &str,
    queries: &[String],
) -> Result<Vec<(Algorithm, Option<String>)>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut sent = Vec::new();
    for algorithm in Algorithm::ALL {
        // A write error means the server reset mid-batch; the slots
        // already written may still answer, so keep reading below.
        if write_request(&mut stream, "POST", "/estimate", &estimate_body(queries, algorithm))
            .is_err()
        {
            break;
        }
        sent.push(algorithm);
    }
    let limits = client_limits();
    let mut inbound = Vec::new();
    let mut slots = Vec::new();
    for algorithm in sent {
        match read_response_pipelined(&mut stream, &mut inbound, &limits) {
            Ok(response) if response.status == 200 => {
                let token = estimates_token(&response)?;
                slots.push((algorithm, Some(token)));
            }
            Ok(response) => {
                assert_typed_error(&response)?;
                slots.push((algorithm, None));
                // Error responses close the connection; the next read
                // simply reports a transport error and ends the batch.
            }
            Err(_) => break,
        }
    }
    Ok(slots)
}

fn scenario_pipelined_reset_storm(
    world: &World,
    baseline: &Baseline,
    seed: u64,
) -> Result<(), String> {
    let label = "pipelined-reset-storm";
    let queries = world.queries(seed);
    let running = boot(fresh_registry(world, None)?)?;
    let mut watch = MetricsWatch::default();
    watch.sample(&running.addr).map_err(|e| format!("{label}: {e}"))?;

    failpoint::configure(
        "http.read=12%error,10%partial(50);http.write=12%partial(60),8%error",
        seed,
    )
    .map_err(|e| e.to_string())?;

    // Reloads race the pipelined traffic on their own connections; the
    // registry itself is not faulted, so any reload that survives the
    // socket faults must report `all_ok` (map-swap under load).
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reload_ok = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let reloader = {
        let addr = running.addr.clone();
        let stop = std::sync::Arc::clone(&stop);
        let reload_ok = std::sync::Arc::clone(&reload_ok);
        std::thread::spawn(move || -> Result<u64, String> {
            let mut attempts = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                attempts += 1;
                if let Ok(response) = post(&addr, "/admin/reload", b"") {
                    if response.status != 200 {
                        // Socket faults can turn the reload request into
                        // a typed error (e.g. an injected torn read);
                        // anything else is a broken envelope.
                        assert_typed_error(&response)?;
                    } else {
                        match Json::parse(&response.body_text()) {
                            Ok(body) if reload_all_ok(&body) => {
                                reload_ok.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            // A torn body would fail read_response
                            // (framing guards it); a parsed body must
                            // say all_ok — the registry is not faulted.
                            Ok(_) => return Err("fault-free reload reported failure".into()),
                            Err(e) => return Err(format!("reload body unparseable: {e}")),
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(attempts)
        })
    };

    // Storm until every probe has evidence: at least one baseline-exact
    // 200, at least one fault outcome (typed error or reset batch), and
    // at least one reload that went through cleanly.
    let mut delivered_ok = 0u64;
    let mut typed_errors = 0u64;
    let mut reset_slots = 0u64;
    let mut rounds = 0u64;
    let outcome = loop {
        rounds += 1;
        let slots = match pipelined_batch(&running.addr, &queries) {
            Ok(slots) => slots,
            Err(e) => break Err(format!("{label}: round {rounds}: {e}")),
        };
        reset_slots += (Algorithm::ALL.len() - slots.len()) as u64;
        let mut bad = None;
        for (algorithm, slot) in &slots {
            match slot {
                Some(token) => {
                    let expected = baseline.get(algorithm.name());
                    if Some(token) != expected {
                        bad = Some(format!(
                            "{label}: {} estimates diverged in a pipelined batch",
                            algorithm.name()
                        ));
                        break;
                    }
                    delivered_ok += 1;
                }
                None => typed_errors += 1,
            }
        }
        if let Some(message) = bad {
            break Err(message);
        }
        let reloads = reload_ok.load(std::sync::atomic::Ordering::Relaxed);
        if rounds >= 12 && delivered_ok > 0 && typed_errors + reset_slots > 0 && reloads > 0 {
            break Ok(());
        }
        if rounds >= 400 {
            break Err(format!(
                "{label}: storm never converged after {rounds} rounds \
                 (ok {delivered_ok}, typed {typed_errors}, reset {reset_slots}, \
                 clean reloads {reloads})"
            ));
        }
    };
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let reload_result = reloader.join();
    outcome?;
    match reload_result {
        Ok(Ok(attempts)) if attempts > 0 => {}
        Ok(Ok(_)) => return Err(format!("{label}: reloader made zero attempts")),
        Ok(Err(err)) => return Err(format!("{label}: reloader: {err}")),
        Err(_) => return Err(format!("{label}: reloader thread panicked")),
    }

    // Faults clear: one pipelined batch must deliver all six slots as
    // baseline-identical 200s, and the sequential path must agree.
    failpoint::clear_all();
    let slots = pipelined_batch(&running.addr, &queries).map_err(|e| format!("{label}: {e}"))?;
    if slots.len() != Algorithm::ALL.len() {
        return Err(format!(
            "{label}: clean pipelined batch delivered {} of {} slots",
            slots.len(),
            Algorithm::ALL.len()
        ));
    }
    for (algorithm, slot) in &slots {
        let expected = baseline.get(algorithm.name());
        if slot.as_ref() != expected {
            return Err(format!(
                "{label}: {} diverged in the clean pipelined batch",
                algorithm.name()
            ));
        }
    }
    assert_baseline_estimates(&running.addr, &queries, baseline)
        .map_err(|e| format!("{label}: {e}"))?;
    watch.sample(&running.addr).map_err(|e| format!("{label}: {e}"))?;
    running.stop().map_err(|e| format!("{label}: {e}"))
}

// ---------------------------------------------------------------------
// Scenario 7: syscall fault storm, slowloris fleet, fd exhaustion —
// the reactor's resource-exhaustion defenses (DESIGN.md §16)
// ---------------------------------------------------------------------

/// All samples of metric `name` (labeled or not) from `/metrics`.
fn metric_samples(addr: &str, name: &str) -> Result<Vec<u64>, String> {
    let response = get(addr, "/metrics")?;
    if response.status != 200 {
        return Err(format!("/metrics returned {}", response.status));
    }
    let mut samples = Vec::new();
    for line in response.body_text().lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((metric, value)) = line.split_once(' ') else {
            continue;
        };
        let matches = metric == name
            || (metric.starts_with(name) && metric.as_bytes().get(name.len()) == Some(&b'{'));
        if !matches {
            continue;
        }
        if let Ok(value) = value.trim().parse::<u64>() {
            samples.push(value);
        }
    }
    Ok(samples)
}

/// Asserts `/healthz` answers 200 with `status: "ok"` (no degraded
/// summaries, no stalled reactor heartbeats).
fn assert_healthy(label: &str, addr: &str) -> Result<(), String> {
    let health = get(addr, "/healthz")?;
    if health.status != 200 {
        return Err(format!("{label}: /healthz returned {} after recovery", health.status));
    }
    let body = Json::parse(&health.body_text()).map_err(|e| e.to_string())?;
    if body.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("{label}: health not ok after recovery: {}", health.body_text()));
    }
    Ok(())
}

fn scenario_syscall_storm_and_exhaustion(
    world: &World,
    baseline: &Baseline,
    seed: u64,
) -> Result<(), String> {
    phase_errno_storm(world, baseline, seed)?;
    phase_slowloris_fleet(world, baseline, seed)?;
    phase_fd_exhaustion(world, baseline, seed)
}

/// Phase 7a: seeded errno faults on every reactor syscall shim at once.
/// `sys.epoll_wait` may only see `errno(EINTR)` and spurious wakeups —
/// any other poller errno is *designed* to be fatal (global drain), so
/// injecting one would assert the wrong contract.
fn phase_errno_storm(world: &World, baseline: &Baseline, seed: u64) -> Result<(), String> {
    let label = "syscall-errno-storm";
    let queries = world.queries(seed);
    let running = boot(fresh_registry(world, None)?)?;
    let mut watch = MetricsWatch::default();
    watch.sample(&running.addr).map_err(|e| format!("{label}: {e}"))?;

    failpoint::configure(
        "sys.accept=8%errno(EINTR),4%errno(EMFILE),2%errno(ENOMEM),4%errno(ECONNABORTED);\
         sys.read=10%errno(EINTR),10%partial(35);\
         sys.write=10%errno(EINTR),10%partial(40);\
         sys.epoll_ctl=4%errno(EINTR);\
         sys.epoll_wait=10%errno(EINTR),5%partial(0)",
        seed,
    )
    .map_err(|e| format!("{label}: {e}"))?;

    let expected = baseline.get(Algorithm::Msh.name()).cloned().unwrap_or_default();
    let mut ok = 0u64;
    let mut typed_errors = 0u64;
    let mut transport_errors = 0u64;
    for _ in 0..60 {
        match post(&running.addr, "/estimate", &estimate_body(&queries, Algorithm::Msh)) {
            Ok(response) if response.status == 200 => {
                let token = estimates_token(&response).map_err(|e| format!("{label}: {e}"))?;
                if token != expected {
                    return Err(format!("{label}: estimates changed under syscall faults"));
                }
                ok += 1;
            }
            Ok(response) => {
                assert_typed_error(&response).map_err(|e| format!("{label}: {e}"))?;
                typed_errors += 1;
            }
            // An admit dropped by an injected epoll_ctl fault, a reset
            // injected mid-read, or an EMFILE-shed close: the client may
            // legitimately see a dead socket. The server must not.
            Err(_) => transport_errors += 1,
        }
    }
    failpoint::clear_all();
    if ok == 0 {
        return Err(format!("{label}: no request survived the fault storm"));
    }
    if typed_errors + transport_errors == 0 {
        return Err(format!("{label}: injected syscall faults never fired"));
    }

    // The accept-path errno taxonomy must have observed the storm …
    let accept_errors: u64 =
        metric_samples(&running.addr, "twig_serve_accept_errors_total")?.iter().sum();
    if accept_errors == 0 {
        return Err(format!("{label}: accept errno taxonomy never counted a fault"));
    }
    // … and slab occupancy stays bounded by the per-shard admission cap.
    let config = chaos_server_config();
    let cap = (config.workers + config.queue_capacity) as u64;
    let max_open = metric_samples(&running.addr, "twig_serve_reactor_connections")?
        .into_iter()
        .max()
        .unwrap_or(0);
    if max_open > cap {
        return Err(format!("{label}: reactor slab exceeded its cap: {max_open} > {cap}"));
    }

    // Faults clear: healthy heartbeats, bit-identical answers.
    assert_healthy(label, &running.addr)?;
    assert_baseline_estimates(&running.addr, &queries, baseline)
        .map_err(|e| format!("{label}: {e}"))?;
    watch.sample(&running.addr).map_err(|e| format!("{label}: {e}"))?;
    running.stop().map_err(|e| format!("{label}: {e}"))
}

/// Phase 7b: a fleet of trickle clients (loadgen's slow-client mode)
/// dribbles request bytes below the minimum-progress floor; every one
/// must die to a progress-window kill while a normal client keeps
/// getting baseline-identical 200s.
fn phase_slowloris_fleet(world: &World, baseline: &Baseline, seed: u64) -> Result<(), String> {
    use twig_serve::LoadgenConfig;

    let label = "slowloris-fleet";
    let queries = world.queries(seed);
    let config = ServerConfig {
        // Tight windows so the fleet dies within the phase budget: a
        // busy connection must move 2 KiB per 300 ms; trickle clients
        // manage ~120 bytes.
        progress_window: Duration::from_millis(300),
        min_progress_bytes: 2048,
        ..chaos_server_config()
    };
    let running = boot_with(config, fresh_registry(world, None)?)?;
    let mut watch = MetricsWatch::default();
    watch.sample(&running.addr).map_err(|e| format!("{label}: {e}"))?;

    let fleet = {
        let addr = running.addr.clone();
        std::thread::spawn(move || {
            let config = LoadgenConfig {
                addr,
                connections: 4,
                duration: Duration::from_secs(2),
                trickle: 400, // bytes/sec — far below 2048 per 300 ms
                summary: SUMMARY_NAME.into(),
                seed,
                ..LoadgenConfig::default()
            };
            twig_serve::loadgen::run(&config)
        })
    };

    // While the fleet trickles, a well-behaved client sees no slowdown
    // and no divergence.
    std::thread::sleep(Duration::from_millis(200));
    assert_baseline_estimates(&running.addr, &queries, baseline)
        .map_err(|e| format!("{label}: normal client during fleet: {e}"))?;

    let report = match fleet.join() {
        Ok(Ok(report)) => report,
        Ok(Err(err)) => return Err(format!("{label}: trickle loadgen failed: {err}")),
        Err(_) => return Err(format!("{label}: trickle loadgen panicked")),
    };
    // Every kill severs a trickle connection mid-write; the client sees
    // it as an error on its next chunk.
    if report.errors == 0 {
        return Err(format!("{label}: no trickle client was ever severed"));
    }
    let kills: u64 = metric_samples(&running.addr, "twig_serve_progress_kills_total")?.iter().sum();
    if kills == 0 {
        return Err(format!("{label}: progress watchdog never killed a trickle client"));
    }

    assert_healthy(label, &running.addr)?;
    assert_baseline_estimates(&running.addr, &queries, baseline)
        .map_err(|e| format!("{label}: {e}"))?;
    watch.sample(&running.addr).map_err(|e| format!("{label}: {e}"))?;
    running.stop().map_err(|e| format!("{label}: {e}"))
}

/// Phase 7c: genuine fd exhaustion — `RLIMIT_NOFILE` is lowered to just
/// above current usage and the headroom hogged, so the kernel hands the
/// reactor real `EMFILE`. Queued clients must be shed with a typed
/// `503` through the reserve fd (or see a clean close), never hang; the
/// restored server must answer bit-identically.
fn phase_fd_exhaustion(world: &World, baseline: &Baseline, seed: u64) -> Result<(), String> {
    use twig_serve::rlimit::{nofile_limit, set_nofile_limit, Rlimit};

    /// Restores the saved limit even on an early error return.
    struct RestoreLimit(Rlimit);
    impl Drop for RestoreLimit {
        fn drop(&mut self) {
            let _ = set_nofile_limit(self.0);
        }
    }

    let label = "fd-exhaustion";
    let queries = world.queries(seed);
    let running = boot(fresh_registry(world, None)?)?;
    let mut watch = MetricsWatch::default();
    watch.sample(&running.addr).map_err(|e| format!("{label}: {e}"))?;

    let saved = nofile_limit().map_err(|e| format!("{label}: getrlimit: {e}"))?;
    let _restore = RestoreLimit(saved);
    let used = u64::try_from(
        std::fs::read_dir("/proc/self/fd")
            .map_err(|e| format!("{label}: cannot count open fds: {e}"))?
            .count(),
    )
    .unwrap_or(u64::MAX);
    let lowered = Rlimit { cur: (used + 8).min(saved.max), max: saved.max };
    set_nofile_limit(lowered).map_err(|e| format!("{label}: setrlimit: {e}"))?;

    // Each round re-hogs the headroom (connections closed since the
    // previous round return their fds) and then frees exactly one fd —
    // enough for the client's socket, none for the server's accept,
    // which must hit EMFILE and shed the queued connection through its
    // reserve fd.
    let mut hogs = Vec::new();
    let mut shed_503 = 0u64;
    let mut severed = 0u64;
    for round in 0..8 {
        if round > 0 {
            // Let the reactor observe the previous round's client
            // hangup and release the server-side fd before re-hogging.
            std::thread::sleep(Duration::from_millis(30));
        }
        while let Ok(hog) = std::fs::File::open("/dev/null") {
            hogs.push(hog);
            if hogs.len() > 4096 {
                return Err(format!("{label}: lowered RLIMIT_NOFILE did not take effect"));
            }
        }
        if hogs.pop().is_none() {
            return Err(format!("{label}: no headroom left for a client socket"));
        }
        match post(&running.addr, "/estimate", &estimate_body(&queries, Algorithm::Msh)) {
            Ok(response) if response.status == 503 => {
                assert_typed_error(&response).map_err(|e| format!("{label}: {e}"))?;
                shed_503 += 1;
            }
            // Freed fds can accumulate across rounds (each shed client
            // closes its socket), so a later accept may legitimately
            // succeed and serve the request.
            Ok(response) if response.status == 200 => {}
            Ok(response) => {
                assert_typed_error(&response).map_err(|e| format!("{label}: {e}"))?;
            }
            Err(_) => severed += 1,
        }
    }
    drop(hogs);
    set_nofile_limit(saved).map_err(|e| format!("{label}: restore setrlimit: {e}"))?;
    if shed_503 + severed == 0 {
        return Err(format!("{label}: exhaustion never produced a shed or severed client"));
    }

    // The kernel's EMFILE must have been counted by the accept taxonomy
    // (queried only now: under exhaustion /metrics itself has no fd).
    let fd_errors: u64 =
        metric_samples(&running.addr, "twig_serve_accept_errors_total")?.iter().sum();
    if fd_errors == 0 {
        return Err(format!("{label}: accept taxonomy never observed fd exhaustion"));
    }

    // Accepts resume within one backoff interval; recovery is exact.
    assert_healthy(label, &running.addr)?;
    assert_baseline_estimates(&running.addr, &queries, baseline)
        .map_err(|e| format!("{label}: {e}"))?;
    watch.sample(&running.addr).map_err(|e| format!("{label}: {e}"))?;
    running.stop().map_err(|e| format!("{label}: {e}"))
}
