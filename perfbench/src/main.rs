//! The repository's benchmark: builds a summary from a seeded corpus,
//! serves it with the real `twig serve` binary, and drives it with a
//! closed-loop pipelined client.
//!
//! ```text
//! perfbench --workload serve-hot|serve-cold --seed N --seconds S --trace 0|1
//!           --twig PATH/TO/twig --work DIR
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! every per-layer metric, from the server's `/metrics` and `/proc`
//! counters and from an in-process replay of the same inputs with one
//! span per layer call. The last stdout line is the JSON result. The
//! exit code is 0 only when every output was correct and the workload
//! had the intended shape. `perfbench/run.py` builds and runs it; see
//! `perfbench/README.md`.

mod build;
mod client;
mod inputs;
mod metrics;
mod replay;
mod server;
mod speed;
mod stats;
mod trace;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use twig_core::{estimate_summary, Algorithm, CountKind};
use twig_flat::FlatCst;
use twig_tree::{DataTree, Twig};

use crate::client::{Slice, Stop, Traffic};
use crate::inputs::{
    BATCH, COLD_STREAM, CORPUS_BYTES, DEPTH, HOT_STREAM, QERROR_STREAM, QERROR_TWIGS,
};
use crate::metrics::{algo_key, Report, FORMATS};
use crate::server::{Sample, ServerChild, Window};
use crate::speed::Speed;
use crate::stats::{median, percentile, Tail};
use crate::trace::Tracer;

/// The measured window is served in this many rounds; builds and server
/// starts run between rounds, so a slow spell of a shared machine lands
/// on part of every figure rather than on all of one.
const ROUNDS: usize = 4;
/// Builds after each round; `build_s` is the median of all of them (the
/// first build, before the window, makes the served file and is not
/// timed: it runs before the process is pinned to the measured CPUs).
const BUILDS_PER_ROUND: usize = 3;
/// Server starts before the window and after each round; `setup_s` is
/// their median.
const STARTS_PER_ROUND: usize = 3;
/// Closed-loop traffic before the measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// `FlatCst::open` calls timed for `flat.open_us`.
const OPENS: usize = 21;

/// The served workloads. Both use the same corpus, summary, algorithm
/// (MSH), batch, pipeline depth and connection count; only the twig set
/// differs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    /// 256 distinct twigs: every estimate after warm-up is a plan hit.
    ServeHot,
    /// 16,384 distinct twigs cycled in order, 16x the plan cache: every
    /// estimate is a plan miss.
    ServeCold,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-hot" => Some(Workload::ServeHot),
            "serve-cold" => Some(Workload::ServeCold),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
        }
    }

    /// Distinct twigs and their seed stream.
    fn twig_set(self) -> (usize, u64) {
        match self {
            Workload::ServeHot => (256, HOT_STREAM),
            Workload::ServeCold => (16_384, COLD_STREAM),
        }
    }

    /// The workload-shape guard on the measured plan-cache hit ratio.
    fn check_shape(self, hit_ratio: f64) -> Result<(), String> {
        let ok = match self {
            Workload::ServeHot => hit_ratio >= 0.99,
            Workload::ServeCold => hit_ratio <= 0.01,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}: plan-cache hit ratio {hit_ratio:.4} is outside its bound",
                self.name()
            ))
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    twig: PathBuf,
    work: PathBuf,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut values: HashMap<String, String> = HashMap::new();
        while let Some(flag) = raw.next() {
            let key =
                flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag}"))?;
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            values.insert(key.to_owned(), value);
        }
        let mut take = |key: &str| values.remove(key).ok_or_else(|| format!("--{key} is required"));
        let workload = take("workload")?;
        let args = Args {
            workload: Workload::parse(&workload)
                .ok_or_else(|| format!("unknown workload {workload} (serve-hot, serve-cold)"))?,
            seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds: take("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
            trace: match take("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other}")),
            },
            twig: take("twig")?.into(),
            work: take("work")?.into(),
        };
        if let Some(key) = values.keys().next() {
            return Err(format!("unknown flag --{key}"));
        }
        if args.seconds < ROUNDS as u64 {
            return Err(format!("--seconds must be at least {ROUNDS}"));
        }
        Ok(args)
    }
}

/// Client connections and server threads: half the cores, at least one,
/// so client and server threads together never exceed the cores.
fn connections() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores / 2).max(1)
}

/// The CPUs the client (this process) and the server share, as a
/// `taskset` list: the first C allowed ones. Across CPUs every response
/// waits for the other CPU to wake, and on a shared virtual machine that
/// wait varies from run to run far more than the work does; on shared
/// CPUs, with the client threads yielding to the server
/// (`server::yield_to_server`), the two alternate in the same rhythm
/// every run. Every run measures this one configuration: without
/// `taskset` or `renice` the run fails to set up.
fn cpu_set(conns: usize) -> Result<String, String> {
    let cpus = server::allowed_cpus()?;
    Ok(cpus.iter().take(conns).map(usize::to_string).collect::<Vec<_>>().join(","))
}

/// Failure tally across every phase of a run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, phase: &str, outcome: &client::Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        for e in &outcome.errors {
            self.problems.push(format!("{phase}: {e}"));
        }
    }

    fn check(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems.push(format!("{failed} of {attempted} {what}"));
        }
    }
}

fn main() {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some(speed::CHILD_FLAG) {
        let threads = raw.nth(1).unwrap_or_default();
        if let Err(e) = speed::child_main(&threads) {
            eprintln!("perfbench speed probe: {e}");
            std::process::exit(2);
        }
        return;
    }
    let code = match Args::parse(raw) {
        Ok(args) => {
            let dir = args.work.join(format!(
                "{}-seed{}-{}",
                args.workload.name(),
                args.seed,
                std::process::id()
            ));
            let result = std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))
                .and_then(|()| run(&args, &dir));
            let _ = std::fs::remove_dir_all(&dir);
            match result {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    2
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// The write path's samples; every rebuild must reproduce the served
/// file byte for byte.
struct Builds<'a> {
    xml: &'a str,
    path: PathBuf,
    served: Vec<u8>,
    times: Vec<f64>,
    differing: u64,
}

impl Builds<'_> {
    /// One timed rebuild, with the speed probe before it.
    fn rebuild(&mut self, tracer: &mut Tracer, speed: &mut Speed) -> Result<(), String> {
        speed.sample()?;
        let built = build::build(self.xml, &self.path, tracer)?;
        self.times.push(built.total_s);
        if built.bytes != self.served {
            self.differing += 1;
        }
        Ok(())
    }
}

/// The server starts' samples.
struct Starts<'a> {
    twig: &'a Path,
    summary: &'a Path,
    threads: usize,
    cpus: &'a str,
    times: Vec<f64>,
}

impl Starts<'_> {
    /// One timed start, with the speed probe before it.
    fn start(&mut self, speed: &mut Speed) -> Result<ServerChild, String> {
        speed.sample()?;
        let child = ServerChild::spawn(self.twig, self.summary, self.threads, self.cpus)?;
        self.times.push(child.startup_s);
        Ok(child)
    }

    fn start_and_stop(&mut self, count: usize, speed: &mut Speed) -> Result<(), String> {
        for _ in 0..count {
            self.start(speed)?.shutdown()?;
        }
        Ok(())
    }
}

fn secs(d: Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

fn run(args: &Args, dir: &Path) -> Result<i32, String> {
    let workload = args.workload;
    let conns = connections();
    let cpus = cpu_set(conns)?;
    let started = Instant::now();
    let mut report = Report::default();
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(args.trace, started);
    let mut off = Tracer::new(false, started);
    println!(
        "perfbench {} seed {} seconds {} trace {}: {conns} connection(s) x depth {DEPTH} x batch \
         {BATCH}, twig serve --threads {conns}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Inputs: corpus, twig sets, bodies.
    let xml = inputs::corpus(args.seed, CORPUS_BYTES);
    let tree = DataTree::from_xml(&xml).map_err(|e| format!("corpus does not parse: {e}"))?;
    let (distinct, stream) = workload.twig_set();
    let twigs = inputs::distinct_twigs(&tree, args.seed, stream, distinct)?;
    let bodies = inputs::bodies(&twigs);
    let scored = inputs::distinct_twigs(&tree, args.seed, QERROR_STREAM, QERROR_TWIGS)?;
    println!(
        "inputs: corpus {} bytes, {} distinct twigs in {} bodies, {} scored twigs [{}]",
        xml.len(),
        twigs.len(),
        bodies.len(),
        scored.len(),
        secs(started.elapsed())
    );

    // The write path: the first build makes the served file.
    let flat_path = dir.join("summary.flt");
    let built = build::build(&xml, &flat_path, &mut tracer)?;
    let mut builds = Builds {
        xml: &xml,
        path: dir.join("rebuild.flt"),
        served: built.bytes.clone(),
        times: Vec::new(),
        differing: 0,
    };
    report.set("summary_bytes", built.bytes.len() as f64);
    report.set("pst.trie_nodes", built.trie_nodes as f64);
    report.set("core.summary_nodes", built.cst.node_count() as f64);

    // Offline estimates on the flat file: the served ones must match
    // them bit for bit, and the owned summary must agree.
    let flat = FlatCst::open(&flat_path).map_err(|e| format!("cannot open the summary: {e}"))?;
    flat.verify().map_err(|e| format!("the packed summary fails its checksums: {e}"))?;
    let (algorithm, kind) = (Algorithm::Msh, CountKind::Occurrence);
    let mut expected: HashMap<String, f64> = HashMap::with_capacity(twigs.len() + scored.len());
    let mut format_mismatches = 0;
    for text in twigs.iter().chain(&scored) {
        let twig = Twig::parse(text).map_err(|e| format!("twig {text}: {e}"))?;
        let on_flat = estimate_summary(&flat, &twig, algorithm, kind);
        if estimate_summary(&built.cst, &twig, algorithm, kind).to_bits() != on_flat.to_bits() {
            format_mismatches += 1;
        }
        expected.insert(text.clone(), on_flat);
    }
    tally.check(
        (twigs.len() + scored.len()) as u64,
        format_mismatches,
        "owned/flat estimates differ",
    );

    let qerrors = accuracy(&tree, &scored, &expected);
    report.set("qerror_p50", percentile(&qerrors, 50.0));
    let mean_log = qerrors.iter().map(|q| q.ln()).sum::<f64>() / qerrors.len() as f64;
    report.set("qerror_gmean", mean_log.exp());
    report.set("core.qerror_p90", percentile(&qerrors, 90.0));
    println!(
        "summary: {} nodes of {} trie nodes, {} bytes; MSH q-error {}, p90={:.3}, geometric mean \
         {:.3} [{}]",
        built.cst.node_count(),
        built.trie_nodes,
        built.bytes.len(),
        Tail::of(&qerrors).describe(""),
        percentile(&qerrors, 90.0),
        mean_log.exp(),
        secs(started.elapsed())
    );

    // From here on the client and the server share C CPUs.
    server::pin_self(&cpus)?;
    println!("cpus: client and server on {cpus}, client connections at nice 19");
    let mut starts = Starts {
        twig: &args.twig,
        summary: &flat_path,
        threads: conns,
        cpus: &cpus,
        times: Vec::new(),
    };
    let mut speed = Speed::start(conns)?;
    starts.start_and_stop(STARTS_PER_ROUND - 1, &mut speed)?;
    let server = starts.start(&mut speed)?;

    // Correctness gate: every body once, so every distinct twig's served
    // estimate is compared with the offline one. Then warm-up on C
    // connections spread over the body cycle.
    let expected_bodies: Vec<Vec<f64>> =
        twigs.chunks_exact(BATCH).map(|b| b.iter().map(|t| expected[t]).collect()).collect();
    let traffic = Traffic::new(&bodies, expected_bodies);
    let gate = client::run(server.addr, &traffic, &mut [0], Stop::After(bodies.len()), &mut off)?;
    tally.add("gate", &gate);
    let mut cursors: Vec<usize> = (0..conns).map(|k| k * bodies.len() / conns).collect();
    let warm = client::run(
        server.addr,
        &traffic,
        &mut cursors,
        Stop::At(Instant::now() + WARMUP),
        &mut off,
    )?;
    tally.add("warm-up", &warm);
    // A slice is a fixed number of requests, about 0.5 s of them at the
    // warm-up's rate and at least 2,000, so that every slice supports a
    // p99 however slow the host turns during the window.
    let rate = warm.samples.len() as f64 / warm.active.as_secs_f64();
    let per_connection = ((rate / 2.0).max(2000.0) / conns as f64).ceil() as usize;
    println!(
        "served: gate {} requests, warm-up {} requests, slices of {per_connection} requests per \
         connection [{}]",
        gate.attempted,
        warm.attempted,
        secs(started.elapsed())
    );

    // The measured window, in rounds of slices, with the speed probe
    // before every slice. With tracing, odd rounds record client spans
    // and even rounds do not: the difference between them is the
    // tracing overhead.
    let round = Duration::from_secs(args.seconds) / ROUNDS as u32;
    let mut counters = Sample::default();
    let mut plain: Vec<Slice> = Vec::new();
    let mut traced: Vec<Slice> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let (mut steal, mut ticks, mut client_ticks) = (0, 0, 0);
    for r in 0..ROUNDS {
        let spans = args.trace && r % 2 == 1;
        let before = server::sample(&server)?;
        let (steal0, ticks0) = server::steal_ticks()?;
        let end = Instant::now() + round;
        while Instant::now() < end {
            speed.sample()?;
            let client0 = server::own_cpu_ticks()?;
            let recorder = if spans { &mut tracer } else { &mut off };
            let outcome = client::run(
                server.addr,
                &traffic,
                &mut cursors,
                Stop::After(per_connection),
                recorder,
            )?;
            client_ticks += server::own_cpu_ticks()? - client0;
            tally.add(&format!("round {r}"), &outcome);
            if spans { &mut traced } else { &mut plain }.extend(outcome.slice());
            latencies.extend(&outcome.samples);
        }
        let (steal1, ticks1) = server::steal_ticks()?;
        (steal, ticks) = (steal + steal1 - steal0, ticks + ticks1 - ticks0);
        counters.add(&server::sample(&server)?.since(&before));

        for _ in 0..BUILDS_PER_ROUND {
            builds.rebuild(&mut tracer, &mut speed)?;
        }
        starts.start_and_stop(STARTS_PER_ROUND, &mut speed)?;
    }
    report.set("peak_rss_mb", server::peak_rss_mb(&server)?);
    server.shutdown()?;
    tally.check(
        builds.times.len() as u64,
        builds.differing,
        "rebuilds differ from the served file",
    );

    // Every end-to-end timing is scaled to the reference host speed
    // (see `speed`); the log keeps the raw figures.
    let factor = speed.factor();
    let probe = speed.medians();
    let (build_s, setup_s) = (median(&builds.times), median(&starts.times));
    report.set("build_s", build_s * factor);
    report.set("setup_s", setup_s * factor);
    println!(
        "speed: factor {factor:.4} from {} probes, median heap part {:.3} ms and system-call part \
         {:.3} ms (reference {:.3} and {:.3}); raw build_s {build_s:.4} of {:.3?} s, raw setup_s \
         {setup_s:.5} of {:.4?} s",
        speed.count(),
        probe.heap_s * 1e3,
        probe.syscall_s * 1e3,
        speed::REFERENCE_HEAP_S * 1e3,
        speed::REFERENCE_SYSCALL_S * 1e3,
        builds.times,
        starts.times
    );
    let layers = Window::of(&counters);
    let client_cpu_us_per_req = server::ticks_to_us(client_ticks) / counters.batches.max(1) as f64;
    println!(
        "machine: {:.2}% of CPU ticks stolen by the host during the window; cpu per request: \
         client {client_cpu_us_per_req:.2} us, server {:.2} us",
        100.0 * steal as f64 / ticks.max(1) as f64,
        layers.cpu_us_per_req
    );
    let shape = workload.check_shape(layers.plan_hit_ratio);
    let served = Served::of(&plain)?;
    report.set("estimates_per_s", served.estimates_per_s / factor);
    report.set("latency_p50_us", served.p50_us * factor);
    report.set("latency_p99_us", served.p99_us * factor);
    println!(
        "window: {} requests, latency {}, plan-cache hit ratio {:.4}; raw medians over {} slices: \
         {:.0} estimates/s, p50 {:.2} us, p99 {:.2} us [{}]",
        latencies.len(),
        Tail::of(&latencies).describe("us"),
        layers.plan_hit_ratio,
        served.slices,
        served.estimates_per_s,
        served.p50_us,
        served.p99_us,
        secs(started.elapsed())
    );
    report.set("serve.cpu_us_per_req", layers.cpu_us_per_req);
    report.set("serve.handler_us_per_req", layers.handler_us_per_req);
    report.set("serve.transport_us_per_req", layers.cpu_us_per_req - layers.handler_us_per_req);
    report.set("serve.syscalls_per_req", layers.syscalls_per_req);
    report.set("serve.ctx_switches_per_req", layers.ctx_switches_per_req);
    report.set("serve.plan_hit_ratio", layers.plan_hit_ratio_plus1);
    report.set("serve.plan_evictions_per_req", layers.plan_evictions_plus1_per_req);
    report.set("core.estimate_us", layers.estimate_us);
    report.set("client.cpu_us_per_req", client_cpu_us_per_req);

    if args.trace {
        let with_spans = Served::of(&traced)?;
        // Ratios of spans on to spans off, about 1: the tracing overhead
        // is 1 minus the throughput ratio and the latency ratio minus 1.
        report.set(
            "trace.spans_on_estimates_per_s_ratio",
            with_spans.estimates_per_s / served.estimates_per_s,
        );
        report.set("trace.spans_on_latency_p50_ratio", with_spans.p50_us / served.p50_us);
        println!(
            "tracing overhead: {:.0} vs {:.0} estimates/s, p50 {:.2} vs {:.2} us (spans off vs on)",
            served.estimates_per_s, with_spans.estimates_per_s, served.p50_us, with_spans.p50_us
        );

        let mut open_us = Vec::with_capacity(OPENS);
        for _ in 0..OPENS {
            let t = Instant::now();
            let opened = FlatCst::open(&flat_path).map_err(|e| format!("reopen: {e}"))?;
            open_us.push(t.elapsed().as_secs_f64() * 1e6);
            drop(opened);
        }
        report.set("flat.open_us", median(&open_us));
        let replay = replay::Replay {
            owned: &built.cst,
            flat: &flat,
            bodies: &bodies,
            twigs: &twigs,
            expected: &expected,
            hot: workload == Workload::ServeHot,
        };
        let mismatches = replay.run(&mut tracer);
        tally.check(replay::REQUESTS as u64, mismatches, "replayed estimates differ");
        layer_metrics(&tracer, &mut report);
        let spans = args.work.join("spans");
        std::fs::create_dir_all(&spans).map_err(|e| e.to_string())?;
        let path = spans.join(format!("{}-seed{}.tsv", workload.name(), args.seed));
        tracer.write_tsv(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "spans: {} written to {} [{}]",
            tracer.span_count(),
            path.display(),
            secs(started.elapsed())
        );
    }

    if let Err(e) = shape {
        tally.problems.push(e);
    }
    let correct = tally.problems.is_empty();
    for problem in &tally.problems {
        println!("FAILED {problem}");
    }
    let defs = if args.trace { metrics::per_layer() } else { metrics::end_to_end() };
    for d in &defs {
        let value = report.get(&d.name).unwrap_or(f64::NAN);
        println!("metric {:<40} {value:>16.4} {}", d.name, d.unit);
    }
    println!("{}", report.render(&defs, correct, tally.attempted, tally.failed)?);
    Ok(if correct { 0 } else { 1 })
}

/// Sorted q-errors of the offline MSH estimates of `scored` against
/// their exact occurrence counts, counted on every core.
fn accuracy(tree: &DataTree, scored: &[String], expected: &HashMap<String, f64>) -> Vec<f64> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = scored.len().div_ceil(cores).max(1);
    let truths: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = scored
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|text| {
                            let twig =
                                Twig::parse(text).expect("scored twigs were checked to parse");
                            twig_exact::count_occurrence(tree, &twig)
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("exact counting panicked")).collect()
    });
    let mut qerrors: Vec<f64> = scored
        .iter()
        .zip(truths)
        .map(|(text, truth)| stats::qerror(expected[text], truth))
        .collect();
    qerrors.sort_by(f64::total_cmp);
    qerrors
}

/// A served window's end-to-end figures: medians over its slices, so a
/// stall on a shared machine moves a slice, not the run.
struct Served {
    slices: usize,
    estimates_per_s: f64,
    p50_us: f64,
    p99_us: f64,
}

impl Served {
    fn of(slices: &[Slice]) -> Result<Served, String> {
        if slices.len() < 3 {
            return Err(format!("only {} whole slices were measured", slices.len()));
        }
        if let Some(thin) = slices.iter().find(|s| !stats::supports(s.requests, 99.0)) {
            return Err(format!("a slice of {} requests is too few for a p99", thin.requests));
        }
        let of = |f: fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
        Ok(Served {
            slices: slices.len(),
            estimates_per_s: of(|s| s.estimates_per_s),
            p50_us: of(|s| s.p50_us),
            p99_us: of(|s| s.p99_us),
        })
    }
}

/// Per-layer metrics from the spans' self times, with the table of
/// every span name.
fn layer_metrics(tracer: &Tracer, report: &mut Report) {
    let times = tracer.self_times();
    println!("{:<32} {:>9} {:>14} {:>14}", "span", "count", "self us/span", "self ms total");
    for (name, t) in &times {
        println!(
            "{name:<32} {:>9} {:>14.3} {:>14.3}",
            t.count,
            t.mean_us(),
            t.self_ns as f64 / 1e6
        );
    }
    let mean_us = |span: &str| times.get(span).map_or(f64::NAN, trace::SelfTime::mean_us);
    for span in [
        "client.verify",
        "http.frame",
        "json.decode",
        "json.encode",
        "tree.twig_parse",
        "core.compile",
        "core.pieces",
        "core.twiglets",
        "core.discount",
        "sethash.intersection",
    ] {
        report.set(&format!("{span}_us"), mean_us(span));
    }
    for stage in ["plan_hit", "plan_miss"] {
        for algorithm in Algorithm::ALL {
            for format in FORMATS {
                let metric = format!("core.{stage}_us.{}.{format}", algo_key(algorithm));
                report.set(&metric, mean_us(&replay::plan_span(stage, algorithm, format)));
            }
        }
    }
    for span in ["xml.parse", "pst.trie", "core.prune_sign", "flat.pack"] {
        report.set(&format!("{span}_s"), mean_us(span) / 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_guard_bounds_the_hit_ratio() {
        assert!(Workload::ServeHot.check_shape(0.99).is_ok());
        assert!(Workload::ServeHot.check_shape(0.989).is_err());
        assert!(Workload::ServeCold.check_shape(0.01).is_ok());
        assert!(Workload::ServeCold.check_shape(0.011).is_err());
    }

    #[test]
    fn workloads_differ_only_in_their_twig_sets() {
        let (hot, cold) = (Workload::ServeHot.twig_set(), Workload::ServeCold.twig_set());
        assert_ne!(hot.1, cold.1, "the two sets come from different seed streams");
        // The plan cache holds 1,024 plans: hot fits 4x over, cold
        // overflows it 16x, and both fill whole batches.
        assert!(hot.0 * 4 <= 1024 && cold.0 >= 16 * 1024);
        assert_eq!((hot.0 % BATCH, cold.0 % BATCH), (0, 0));
        for name in ["serve-hot", "serve-cold"] {
            assert_eq!(Workload::parse(name).map(Workload::name), Some(name));
        }
        assert!(Workload::parse("build").is_none());
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        let args = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        let ok = "--workload serve-hot --seed 3 --seconds 8 --trace 1 --twig t --work w";
        let parsed = args(ok).expect("valid");
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (3, 8, true));
        assert!(args("--workload serve-hot --seed 3 --seconds 8 --trace 1 --twig t").is_err());
        assert!(args(&ok.replace("--trace 1", "--trace 2")).is_err());
        assert!(args(&ok.replace("--seconds 8", "--seconds 2")).is_err());
        assert!(args(&format!("{ok} --extra 1")).is_err());
    }
}
