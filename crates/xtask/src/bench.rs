//! `cargo xtask bench` — the checked-in benchmark harness (DESIGN.md
//! §10). Dependency-free by design: seeded corpora via `twig-datagen`,
//! wall-clock timing via `std::time::Instant`, warmup plus trimmed-mean
//! sampling instead of criterion.
//!
//! Measured sections:
//!
//! - `build_secs` — full CST construction over the seeded corpus,
//! - `csr_lookup_us` / `hashmap_lookup_us` — cold path lookups (the
//!   cache is evicted before every timed sweep) through the trie's CSR
//!   transition layout vs. a global `(parent, edge)` hashmap rebuilt
//!   from the same trie (the pre-CSR layout),
//! - `estimate_<algo>_us` — plan-free estimate latency per algorithm,
//! - `plan_off_us` / `plan_on_us` — repeated-twig estimates without and
//!   with a warmed [`QueryPlan`] (the serve plan-cache hit path),
//! - `serve_requests_per_sec` / `serve_p95_us` — pipelined closed-loop
//!   loadgen throughput against an in-process server (one connection
//!   per core capped at 4, 8 requests in flight each).
//!
//! `--quick` shrinks the corpus and windows for CI smoke runs; `--out`
//! writes the JSON report; `--check FILE` compares against a previous
//! report and fails on a >2x regression of any shared metric. Full
//! (non-quick) checks additionally hold `serve_requests_per_sec` to a
//! core-scaled absolute floor ([`SERVE_RPS_FLOOR_PER_CORE`]) and
//! `serve_p95_us` to an absolute ceiling ([`SERVE_P95_CEILING_US`]).

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use twig_core::{Algorithm, CountKind, Cst, CstConfig, QueryPlan, SpaceBudget};
use twig_datagen::{generate_dblp, positive_queries, DblpConfig, WorkloadConfig};
use twig_pst::{EdgeKey, PathToken, PrunedTrie, TrieNodeId};
use twig_serve::loadgen::{self, LoadgenConfig};
use twig_serve::{Json, Server, ServerConfig, SummaryRegistry, SummarySpec};
use twig_tree::DataTree;
use twig_util::cast::{count_to_f64, size_to_u64};
use twig_util::{FxHashMap, SplitMix64};

const SEED: u64 = 0xbe9c_0004;

/// Per-core serve-throughput floor (requests per second) enforced by
/// `--check` on full-size runs, scaled by `min(available cores, 8)`.
/// The reactor rewrite (DESIGN.md §15) took the pipelined closed loop
/// from ~17.4k req/s on the blocking thread-per-connection path to
/// ~46k req/s *per core* (measured single-core: client and server
/// share it); at the 8-core design point the floor demands the full
/// 5x-over-PR7 target of 86,936 req/s. Scaling by cores (capped at
/// the 8 reactors the default config boots) is what makes the gate
/// honest on both ends: a 1-core CI box cannot parallelize reactors
/// and is estimator-bound near 64k req/s no matter how good the
/// transport is, while an 8-core box that only reaches 1-core numbers
/// has lost the per-core scaling the architecture exists for. Pinning
/// an absolute per-core number (instead of only the relative 2x
/// check) means a regression back to blocking-I/O throughput fails
/// even if the checked-in baseline report were ever regenerated on
/// the slow path. Quick runs skip the floor — their sub-second window
/// is warmup-dominated — and rely on the relative comparison against
/// the checked-in baseline.
const SERVE_RPS_FLOOR_PER_CORE: f64 = 10_867.0;

/// Absolute cap on `serve_p95_us` for full-size `--check` runs: the
/// PR 7 thread pool measured 415 µs p95 with 4 in-flight requests,
/// so the reactor must hold that line while carrying 8x the in-flight
/// load (the pipelined loadgen keeps `8 × connections` outstanding).
const SERVE_P95_CEILING_US: f64 = 415.0;

/// Cores the benchmark can actually use, for scaling the serve floor
/// and sizing the loadgen (one connection per core, capped at 4 so
/// big machines still measure the checked-in 4-connection shape).
fn bench_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

struct BenchConfig {
    quick: bool,
    corpus_bytes: usize,
    workload: usize,
    lookup_paths: usize,
    warmup: usize,
    samples: usize,
    serve_window: Duration,
}

impl BenchConfig {
    fn new(quick: bool) -> BenchConfig {
        if quick {
            BenchConfig {
                quick,
                corpus_bytes: 60_000,
                workload: 15,
                lookup_paths: 400,
                warmup: 1,
                samples: 5,
                serve_window: Duration::from_millis(800),
            }
        } else {
            BenchConfig {
                quick,
                // Large enough that the summary trie dwarfs the cache:
                // the lookup benches measure miss-bound probes, not L2.
                corpus_bytes: 4_000_000,
                workload: 60,
                lookup_paths: 5000,
                warmup: 2,
                samples: 9,
                serve_window: Duration::from_millis(2500),
            }
        }
    }
}

pub(crate) fn bench(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match iter.next() {
                Some(path) => out = Some(path.clone()),
                None => return usage_error("--out needs a file argument"),
            },
            "--check" => match iter.next() {
                Some(path) => check = Some(path.clone()),
                None => return usage_error("--check needs a file argument"),
            },
            other => return usage_error(&format!("unknown bench flag '{other}'")),
        }
    }

    let config = BenchConfig::new(quick);
    let metrics = match run_benchmarks(&config) {
        Ok(metrics) => metrics,
        Err(message) => {
            eprintln!("bench failed: {message}");
            return ExitCode::FAILURE;
        }
    };

    for (name, value) in &metrics {
        println!("{name:<28} {value:>14.3}");
    }
    let report = render_json(&config, &metrics);
    if let Some(path) = out {
        if let Err(err) = std::fs::write(&path, &report) {
            eprintln!("cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    } else {
        println!("{report}");
    }

    match check {
        Some(path) => check_regressions(&path, &metrics, quick),
        None => ExitCode::SUCCESS,
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\nusage: cargo xtask bench [--quick] [--out FILE] [--check FILE]");
    ExitCode::FAILURE
}

/// Streams writes through a buffer much larger than the last-level
/// cache, evicting the benchmarked structures so the next timed sweep
/// runs against cold lines. Used by the lookup benches, whose metric
/// is explicitly the *cold* (cache-miss-bound) probe cost — a warm
/// sweep over a summary-sized working set measures L2 latency, not
/// the layout.
struct CacheEvictor {
    buffer: Vec<u64>,
}

impl CacheEvictor {
    fn new() -> Self {
        Self { buffer: vec![1u64; 32 * 1024 * 1024 / 8] }
    }

    fn evict(&mut self) {
        for slot in &mut self.buffer {
            *slot = slot.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        black_box(&mut self.buffer);
    }
}

/// Mean with the fastest and slowest fifth trimmed off.
fn trimmed_mean(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    let trim = times.len() / 5;
    let kept = &times[trim..times.len() - trim];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Warmup runs, then `samples` timed runs; returns the trimmed mean.
fn trimmed_mean_secs<R>(warmup: usize, samples: usize, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..warmup {
        black_box(f());
    }
    trimmed_mean(
        (0..samples.max(1))
            .map(|_| {
                let started = Instant::now();
                black_box(f());
                started.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

fn run_benchmarks(config: &BenchConfig) -> Result<Vec<(String, f64)>, String> {
    let mut metrics: Vec<(String, f64)> = Vec::new();
    eprintln!("generating ~{} KiB corpus (seed {SEED:#x})...", config.corpus_bytes / 1024);
    let xml = generate_dblp(&DblpConfig {
        target_bytes: config.corpus_bytes,
        seed: SEED,
        ..DblpConfig::default()
    });
    let tree = DataTree::from_xml(&xml).map_err(|e| format!("corpus XML invalid: {e}"))?;
    let cst_config = CstConfig { budget: SpaceBudget::Threshold(2), ..CstConfig::default() };

    eprintln!("benchmarking summary build...");
    let build_secs =
        trimmed_mean_secs(config.warmup, config.samples.min(5), || Cst::build(&tree, &cst_config));
    metrics.push(("build_secs".into(), build_secs));

    let cst = Cst::build(&tree, &cst_config).map_err(|e| format!("CST build failed: {e}"))?;
    metrics.push(("summary_nodes".into(), approx(cst.node_count())));

    eprintln!("benchmarking trie lookups ({} paths)...", config.lookup_paths);
    bench_lookups(&cst, config, &mut metrics);

    let twigs = positive_queries(
        &tree,
        &WorkloadConfig { count: config.workload, seed: SEED ^ 1, ..WorkloadConfig::default() },
    );
    if twigs.is_empty() {
        return Err("workload generation produced no queries".into());
    }

    eprintln!("benchmarking estimators ({} twigs)...", twigs.len());
    for algorithm in Algorithm::ALL {
        let secs = trimmed_mean_secs(config.warmup, config.samples, || {
            let mut acc = 0.0;
            for twig in &twigs {
                acc += cst.estimate(twig, algorithm, CountKind::Occurrence);
            }
            acc
        });
        metrics.push((format!("estimate_{algorithm}_us"), per(secs, twigs.len())));
    }

    eprintln!("benchmarking plan-cache hit path...");
    let plan_off = trimmed_mean_secs(config.warmup, config.samples, || {
        let mut acc = 0.0;
        for twig in &twigs {
            acc += cst.estimate_raw(twig, Algorithm::Msh, CountKind::Occurrence, None);
        }
        acc
    });
    let plans: Vec<QueryPlan> = twigs.iter().map(|_| QueryPlan::new()).collect();
    for (twig, plan) in twigs.iter().zip(&plans) {
        // Warm every stage once: timed runs below are pure cache hits.
        cst.estimate_raw(twig, Algorithm::Msh, CountKind::Occurrence, Some(plan));
    }
    let plan_on = trimmed_mean_secs(config.warmup, config.samples, || {
        let mut acc = 0.0;
        for (twig, plan) in twigs.iter().zip(&plans) {
            acc += cst.estimate_raw(twig, Algorithm::Msh, CountKind::Occurrence, Some(plan));
        }
        acc
    });
    metrics.push(("plan_off_us".into(), per(plan_off, twigs.len())));
    metrics.push(("plan_on_us".into(), per(plan_on, twigs.len())));
    metrics.push(("plan_speedup".into(), plan_off / plan_on));

    eprintln!("benchmarking served throughput ({:?} window)...", config.serve_window);
    let (requests_per_sec, p95_us) = bench_serve(&cst, config)?;
    metrics.push(("serve_requests_per_sec".into(), requests_per_sec));
    metrics.push(("serve_p95_us".into(), approx_u64(p95_us)));

    let many = if config.quick { 16 } else { 100 };
    eprintln!("benchmarking many-summary hosting ({many} summaries, owned vs flat)...");
    bench_many_summaries(&cst, many, &mut metrics)?;

    Ok(metrics)
}

/// The many-summary hosting axis: `count` copies of the summary on
/// disk as owned (`TWIGCST`) files vs flat (`TWIGFLT1`) containers,
/// measuring the total time to bring every one of them to a servable
/// state and the resident-set growth while all are held open. The
/// owned path deserializes each file into heap structures; the flat
/// path mmaps and validates a fixed-size envelope, so its cost is
/// O(1) per summary and its residency is demand-paged.
fn bench_many_summaries(
    cst: &Cst,
    count: usize,
    metrics: &mut Vec<(String, f64)>,
) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("twig-bench-many-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut owned_bytes = Vec::new();
    cst.write_to(&mut owned_bytes).map_err(|e| format!("cannot serialize summary: {e}"))?;
    let flat_bytes =
        twig_flat::writer::pack(cst).map_err(|e| format!("cannot pack summary: {e}"))?;
    let mut owned_paths = Vec::with_capacity(count);
    let mut flat_paths = Vec::with_capacity(count);
    for index in 0..count {
        let owned_path = dir.join(format!("many-{index}.cst"));
        let flat_path = dir.join(format!("many-{index}.flt"));
        std::fs::write(&owned_path, &owned_bytes).map_err(|e| format!("cannot write: {e}"))?;
        std::fs::write(&flat_path, &flat_bytes).map_err(|e| format!("cannot write: {e}"))?;
        owned_paths.push(owned_path);
        flat_paths.push(flat_path);
    }

    // Each format's own loader, so the owned side times `TWIGCST`
    // deserialization alone (no packing) against the flat mmap open.
    let (owned_secs, owned_rss_kb, owned_nodes) =
        load_all(&owned_paths, Cst::load_file, Cst::node_count)?;
    let (flat_secs, flat_rss_kb, flat_nodes) =
        load_all(&flat_paths, twig_flat::FlatCst::open, twig_flat::FlatCst::node_count)?;
    if owned_nodes != flat_nodes {
        return Err(format!(
            "many-summary node counts diverged: owned {owned_nodes}, flat {flat_nodes}"
        ));
    }
    std::fs::remove_dir_all(&dir).ok();

    metrics.push(("many_owned_load_ms".into(), owned_secs * 1e3));
    metrics.push(("many_flat_load_ms".into(), flat_secs * 1e3));
    metrics.push(("many_load_speedup".into(), owned_secs / flat_secs.max(1e-12)));
    metrics.push(("many_owned_rss_kb".into(), owned_rss_kb));
    metrics.push(("many_flat_rss_kb".into(), flat_rss_kb));
    Ok(())
}

/// Loads every file in `paths` with `load`, returning (seconds, RSS
/// growth in KiB, total nodes). Every summary stays alive while
/// residency is sampled, and each is touched (`nodes`) so the loads
/// cannot be optimized away.
fn load_all<S, E: std::fmt::Display>(
    paths: &[std::path::PathBuf],
    load: impl Fn(&std::path::Path) -> Result<S, E>,
    nodes: impl Fn(&S) -> usize,
) -> Result<(f64, f64, usize), String> {
    let rss_before = resident_kb();
    let started = Instant::now();
    let mut summaries = Vec::with_capacity(paths.len());
    for path in paths {
        summaries.push(load(path).map_err(|e| format!("cannot load {}: {e}", path.display()))?);
    }
    let secs = started.elapsed().as_secs_f64();
    let total: usize = summaries.iter().map(nodes).sum();
    let rss_kb = resident_kb().saturating_sub(rss_before);
    black_box(&summaries);
    Ok((secs, rss_kb as f64, total))
}

/// Current resident set in KiB via `/proc/self/status` (0 where that
/// interface does not exist — the rss metrics then read as deltas of
/// zero and are excluded from regression checks anyway).
fn resident_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let digits: String = rest.chars().filter(char::is_ascii_digit).collect();
            return digits.parse().unwrap_or(0);
        }
    }
    0
}

/// Cold lookups through the CSR layout vs. the pre-CSR global
/// `(parent, edge) -> child` hashmap, over the same sampled paths.
fn bench_lookups(cst: &Cst, config: &BenchConfig, metrics: &mut Vec<(String, f64)>) {
    let trie = cst.trie();
    let nodes: Vec<TrieNodeId> = trie.node_ids().collect();
    let mut rng = SplitMix64::new(SEED ^ 2);
    let paths: Vec<Vec<PathToken>> = (0..config.lookup_paths)
        .map(|_| trie.tokens_of(nodes[rng.index(nodes.len())]))
        .filter(|tokens| !tokens.is_empty())
        .collect();

    let mut map: FxHashMap<(TrieNodeId, EdgeKey), TrieNodeId> = FxHashMap::default();
    for &node in &nodes {
        if let (Some(parent), Some(edge)) = (trie.parent(node), trie.edge(node)) {
            map.insert((parent, edge), node);
        }
    }
    let csr_sweep = || {
        let mut hits = 0usize;
        for tokens in &paths {
            hits += usize::from(trie.find(tokens).is_some());
        }
        hits
    };
    let map_sweep = || {
        let mut hits = 0usize;
        for tokens in &paths {
            hits += usize::from(hashmap_find(&map, tokens).is_some());
        }
        hits
    };
    // The two layouts are sampled interleaved, each sweep against an
    // evicted cache, so slow drift in machine load biases both sides
    // equally instead of whichever happened to be measured second.
    let mut evictor = CacheEvictor::new();
    let mut csr_times = Vec::with_capacity(config.samples);
    let mut map_times = Vec::with_capacity(config.samples);
    for _ in 0..config.warmup {
        evictor.evict();
        black_box(csr_sweep());
        evictor.evict();
        black_box(map_sweep());
    }
    for _ in 0..config.samples.max(1) {
        evictor.evict();
        let started = Instant::now();
        black_box(csr_sweep());
        csr_times.push(started.elapsed().as_secs_f64());
        evictor.evict();
        let started = Instant::now();
        black_box(map_sweep());
        map_times.push(started.elapsed().as_secs_f64());
    }
    let csr = trimmed_mean(csr_times);
    let hashmap = trimmed_mean(map_times);

    metrics.push(("csr_lookup_us".into(), per(csr, paths.len())));
    metrics.push(("hashmap_lookup_us".into(), per(hashmap, paths.len())));
    metrics.push(("csr_speedup".into(), hashmap / csr));
    let _ = trie as &PrunedTrie;
}

fn hashmap_find(
    map: &FxHashMap<(TrieNodeId, EdgeKey), TrieNodeId>,
    tokens: &[PathToken],
) -> Option<TrieNodeId> {
    let mut node = TrieNodeId::ROOT;
    for token in tokens {
        node = *map.get(&(node, token.edge()))?;
    }
    Some(node)
}

fn bench_serve(cst: &Cst, config: &BenchConfig) -> Result<(f64, u64), String> {
    let dir = std::env::temp_dir().join(format!("twig-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    // An owned `TWIGCST` file: the registry packs it at load, so the
    // server estimates over a heap-backed flat container.
    let path = dir.join("bench.cst");
    let mut bytes = Vec::new();
    cst.write_to(&mut bytes).map_err(|e| format!("cannot serialize summary: {e}"))?;
    std::fs::write(&path, &bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let registry = SummaryRegistry::new();
    registry
        .load(SummarySpec { name: "bench".into(), path })
        .map_err(|e| format!("cannot load bench summary: {e}"))?;
    let server = Server::bind("127.0.0.1:0", ServerConfig::default(), registry)
        .map_err(|e| format!("cannot bind bench server: {e}"))?;
    let addr = server.local_addr().to_string();
    let thread = std::thread::spawn(move || server.run());

    let result = loadgen::run(&LoadgenConfig {
        addr,
        summary: "bench".into(),
        // One loadgen connection per core (capped at the designed 4):
        // oversubscribing a small box measures queueing delay, not the
        // server, and drowns the p95 number in Little's-law backlog.
        connections: bench_cores().min(4),
        batch: 8,
        pipeline: 8,
        duration: config.serve_window,
        seed: SEED ^ 3,
        shutdown_after: true,
        ..LoadgenConfig::default()
    });
    let _ = thread.join();
    std::fs::remove_dir_all(&dir).ok();
    let report = result?;
    if report.requests == 0 || report.errors > 0 {
        return Err(format!("loadgen run unhealthy: {}", report.render()));
    }
    Ok((report.requests_per_sec, report.p95_us))
}

fn per(total_secs: f64, items: usize) -> f64 {
    total_secs * 1e6 / items.max(1) as f64
}

fn approx(value: usize) -> f64 {
    u32::try_from(value).map_or(f64::MAX, f64::from)
}

fn approx_u64(value: u64) -> f64 {
    u32::try_from(value).map_or(f64::MAX, f64::from)
}

fn render_json(config: &BenchConfig, metrics: &[(String, f64)]) -> String {
    let mut out = String::from("{\n  \"schema\": \"twig-bench-v1\",\n");
    out.push_str(&format!("  \"quick\": {},\n", config.quick));
    out.push_str("  \"metrics\": {\n");
    for (index, (name, value)) in metrics.iter().enumerate() {
        let comma = if index + 1 == metrics.len() { "" } else { "," };
        out.push_str(&format!("    \"{name}\": {value:?}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    out
}

/// Compares current metrics against a previous report: shared metrics
/// may not regress by more than 2x (times up, rates/speedups down).
/// On full runs `serve_requests_per_sec` is instead held to the
/// core-scaled absolute floor ([`SERVE_RPS_FLOOR_PER_CORE`]) and
/// `serve_p95_us` to [`SERVE_P95_CEILING_US`] — the pipelined loop is
/// CPU-bound and scales with cores, so the meaningful gate is the
/// floor, not a ratio against whatever machine produced the baseline.
fn check_regressions(path: &str, metrics: &[(String, f64)], quick: bool) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read baseline {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = match Json::parse(&text) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("baseline {path} is not valid JSON: {err}");
            return ExitCode::FAILURE;
        }
    };
    let Some(old_metrics) = parsed.get("metrics") else {
        eprintln!("baseline {path} has no \"metrics\" object");
        return ExitCode::FAILURE;
    };
    let mut regressions = 0usize;
    let mut compared = 0usize;
    for (name, new_value) in metrics {
        let Some(old_value) = old_metrics.get(name).and_then(Json::as_f64) else {
            continue;
        };
        // Not a time: trie size is corpus-determined. The *_speedup
        // ratios are excluded because they do not survive a scale
        // change (a --quick run's cache-resident trie makes the cold
        // CSR-vs-hashmap ratio meaningless); their component times are
        // still compared, which is what catches a real regression. The
        // *_rss_kb deltas are excluded because resident-set accounting
        // is allocator- and kernel-dependent; the load times alongside
        // them are what regression-checks the hosting axis.
        if name == "summary_nodes" || name.ends_with("_speedup") || name.ends_with("_rss_kb") {
            continue;
        }
        compared += 1;
        if name == "serve_requests_per_sec" && !quick {
            let floor = SERVE_RPS_FLOOR_PER_CORE * count_to_f64(size_to_u64(bench_cores().min(8)));
            if *new_value < floor {
                regressions += 1;
                eprintln!(
                    "REGRESSION {name}: {new_value:.3} below the floor {floor:.0} req/s \
                     ({SERVE_RPS_FLOOR_PER_CORE:.0}/core x {} cores)",
                    bench_cores().min(8)
                );
            }
            continue;
        }
        if name == "serve_p95_us" && !quick {
            if *new_value > SERVE_P95_CEILING_US {
                regressions += 1;
                eprintln!(
                    "REGRESSION {name}: {new_value:.1} above the ceiling \
                     {SERVE_P95_CEILING_US:.0} us"
                );
            }
            continue;
        }
        let higher_is_better = name.ends_with("_per_sec");
        let regressed = if higher_is_better {
            *new_value < old_value / 2.0
        } else {
            *new_value > old_value * 2.0
        };
        if regressed {
            regressions += 1;
            eprintln!("REGRESSION {name}: {old_value:.3} -> {new_value:.3} (>2x)");
        }
    }
    if compared == 0 {
        eprintln!("baseline {path} shares no metrics with this run");
        return ExitCode::FAILURE;
    }
    if regressions > 0 {
        eprintln!("{regressions} metric(s) regressed by more than 2x vs {path}");
        return ExitCode::FAILURE;
    }
    println!("no >2x regressions vs {path} ({compared} metrics compared)");
    ExitCode::SUCCESS
}
