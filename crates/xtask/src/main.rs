//! Workspace automation tasks (`cargo xtask <task>`).
//!
//! Four analyzers, described in DESIGN.md §9, §12 and §14:
//!
//! - `lint` — twig-lint, line-oriented rules over masked source.
//! - `flow` — twig-flow, the call-graph analyzer: panic-reachability of
//!   every public entry point of the strict crates (with witness call
//!   chains) plus lock-discipline over the strict-scope crates.
//! - `taint` — twig-taint, the dataflow analyzer: untrusted-input
//!   taint tracking into arithmetic/indexing/allocation sinks, plus the
//!   allocation-discipline pass over the hot-path entry points.
//! - `race` — twig-race, the concurrency analyzer: GuardedBy-inference
//!   lockset checking, atomic-ordering discipline (publication via
//!   `Relaxed`, mismatched `compare_exchange` orderings, spin locks),
//!   and the unsafe-contract audit (SAFETY comments, validated
//!   raw-pointer bounds).
//!
//! All are dependency-free by design — the build container is offline,
//! so no `syn`, no `serde`, no `walkdir`; the shared lexer, tokenizer,
//! item model and call graph live in the `analysis` module, and the
//! JSON reports are printed by hand.
//!
//! ```text
//! cargo xtask lint                     # human report, exit 1 on new violations
//! cargo xtask lint --json              # machine-readable report on stdout
//! cargo xtask lint --update-baseline   # accept the current state
//! cargo xtask flow                     # panic-reachability + lock discipline
//! cargo xtask flow --json              # same, machine-readable (with witnesses)
//! cargo xtask taint                    # taint dataflow + hot-path allocations
//! cargo xtask taint --self-test        # verify the fixture tree is fully flagged
//! cargo xtask race                     # locksets + atomics + unsafe contracts
//! cargo xtask race --self-test         # verify the race fixture tree
//! ```

mod analysis;
mod baseline;
mod bench;
mod chaos;
mod hotalloc;
mod locks;
mod race;
mod reach;
mod rules;
mod taint;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use reach::FlowFinding;
use rules::Violation;

const BASELINE_FILE: &str = "lint-baseline.tsv";
const FLOW_BASELINE_FILE: &str = "flow-baseline.tsv";

/// Path prefixes the lock-discipline pass runs over: the serving layer
/// plus the two crates whose locks it shares state with — flat's mmap
/// hosting and util's failpoint table are both touched cross-thread.
const LOCK_SCOPES: &[&str] = &["crates/serve/src/", "crates/flat/src/", "crates/util/src/"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("flow") => flow(&args[1..]),
        Some("taint") => taint::taint_task(&args[1..]),
        Some("race") => race::race_task(&args[1..]),
        Some("bench") => bench::bench(&args[1..]),
        Some("chaos") => chaos::chaos(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprintln!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown task '{other}'\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
cargo xtask — workspace automation

TASKS:
  lint [--json] [--update-baseline] [--baseline FILE] [--root DIR]
      Run the twig-lint static-analysis pass over every workspace .rs
      file. Exits non-zero when violations beyond the baseline exist.
  flow [--json] [--update-baseline] [--baseline FILE] [--root DIR]
      Run the twig-flow call-graph analyzer: panic-reachability of every
      public entry point of the strict crates (each finding carries a
      witness call chain) and lock-discipline over the strict-scope
      crates (serve, flat, util). Exits non-zero when findings beyond
      the baseline exist.
  taint [--json] [--update-baseline] [--baseline FILE] [--root DIR] [--self-test]
      Run the twig-taint dataflow analyzer: untrusted-input taint
      (HTTP buffers, deserialized frames, CLI/env input) flowing into
      indexing / length-arithmetic / allocation sinks without a
      recognized guard, propagated interprocedurally via per-function
      summaries, plus the allocation-discipline pass reporting heap
      allocations reachable from the hot-path entry points.
      --self-test checks the analyzer against its fixture tree of
      known-bad patterns instead of the workspace.
  race [--json] [--update-baseline] [--baseline FILE] [--root DIR] [--self-test]
      Run the twig-race concurrency analyzer: GuardedBy-inference
      lockset checking over shared struct fields, atomic-ordering
      discipline (Relaxed publication, mismatched compare_exchange
      orderings, atomics spun as ad-hoc locks), and the unsafe-contract
      audit (SAFETY justification comments, raw-pointer/len pairs
      flowing from a validated bound). --self-test checks the analyzer
      against its annotated fixture tree instead of the workspace.
  bench [--quick] [--out FILE] [--check FILE]
      Run the estimation benchmark harness (seeded corpora, warmup +
      trimmed-mean timing): summary build, CSR vs hashmap trie lookups,
      per-algorithm estimates, the plan-cache hit path, and served
      throughput. --check fails on a >2x regression vs a prior report.
  chaos [--seeds N]
      Run the seeded chaos harness: the real server in-process under
      deterministic fault injection (reload-during-batch, kill-mid-write
      snapshot recovery, socket resets, pool-worker panics). Requires
      building xtask with --features failpoints.";

/// Shared CLI flags for the baseline-driven passes.
struct PassArgs {
    json: bool,
    update: bool,
    baseline_path: Option<PathBuf>,
    root: Option<PathBuf>,
}

fn parse_pass_args(args: &[String]) -> Result<PassArgs, String> {
    let mut parsed = PassArgs { json: false, update: false, baseline_path: None, root: None };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => parsed.json = true,
            "--update-baseline" => parsed.update = true,
            "--baseline" => match iter.next() {
                Some(path) => parsed.baseline_path = Some(PathBuf::from(path)),
                None => return Err("--baseline needs a value".to_owned()),
            },
            "--root" => match iter.next() {
                Some(path) => parsed.root = Some(PathBuf::from(path)),
                None => return Err("--root needs a value".to_owned()),
            },
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(parsed)
}

fn lint(args: &[String]) -> ExitCode {
    let started = std::time::Instant::now();
    let PassArgs { json, update, baseline_path, root } = match parse_pass_args(args) {
        Ok(parsed) => parsed,
        Err(message) => return usage_error(&message),
    };
    let root = root.unwrap_or_else(workspace_root);
    let baseline_path = baseline_path.unwrap_or_else(|| root.join(BASELINE_FILE));

    let files = analysis::workspace_files(&root);

    let mut violations: Vec<Violation> = Vec::new();
    for file in &files {
        match fs::read_to_string(root.join(file)) {
            Ok(src) => violations.extend(rules::check_file(file, &src)),
            Err(err) => {
                eprintln!("warning: cannot read {file}: {err}");
            }
        }
    }
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    if update {
        let rendered = baseline::render(&violations);
        if let Err(err) = fs::write(&baseline_path, rendered) {
            eprintln!("error: cannot write {}: {err}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "baseline updated: {} violation(s) across {} file(s) recorded in {}",
            violations.len(),
            files.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match fs::read_to_string(&baseline_path) {
        Ok(text) => match baseline::parse(&text) {
            Ok(parsed) => parsed,
            Err(err) => {
                eprintln!("error: {}: {err}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        },
        Err(_) => Default::default(), // no baseline: everything is new
    };
    let scanned = files.len();
    let (old, fresh) = baseline::partition(violations, &baseline);

    let elapsed_ms = started.elapsed().as_millis();
    if json {
        println!("{}", json_report(scanned, &old, &fresh, elapsed_ms));
    } else {
        human_report(scanned, &old, &fresh, elapsed_ms);
    }
    if fresh.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn flow(args: &[String]) -> ExitCode {
    let started = std::time::Instant::now();
    let PassArgs { json, update, baseline_path, root } = match parse_pass_args(args) {
        Ok(parsed) => parsed,
        Err(message) => return usage_error(&message),
    };
    let root = root.unwrap_or_else(workspace_root);
    let baseline_path = baseline_path.unwrap_or_else(|| root.join(FLOW_BASELINE_FILE));

    // Stage 1: tokenize + item model for every file.
    let files = analysis::workspace_files(&root);
    let models = analysis::build_models(&root, &files);

    // Stage 2: call graph; stage 3: panic-reachability; stage 4: locks.
    let scope = analysis::callgraph::CrateScope::load(&root, &models);
    let graph = analysis::callgraph::build(&models, scope);
    let mut findings = reach::panic_reachability(&models, &graph);
    findings.extend(locks::analyze(&models, &graph, LOCK_SCOPES));
    findings.sort_by(|a, b| {
        (&a.violation.file, a.violation.line, a.violation.rule).cmp(&(
            &b.violation.file,
            b.violation.line,
            b.violation.rule,
        ))
    });

    if update {
        let violations: Vec<Violation> = findings.iter().map(|f| f.violation.clone()).collect();
        let rendered =
            baseline::render_titled("twig-flow", "cargo xtask flow --update-baseline", &violations);
        if let Err(err) = fs::write(&baseline_path, rendered) {
            eprintln!("error: cannot write {}: {err}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "baseline updated: {} finding(s) across {} file(s) recorded in {}",
            findings.len(),
            files.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match fs::read_to_string(&baseline_path) {
        Ok(text) => match baseline::parse(&text) {
            Ok(parsed) => parsed,
            Err(err) => {
                eprintln!("error: {}: {err}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        },
        Err(_) => Default::default(), // no baseline: everything is new
    };
    let scanned = files.len();
    let (old, fresh) =
        baseline::partition_by(findings, &baseline, |f| baseline::key_of(&f.violation));

    let elapsed_ms = started.elapsed().as_millis();
    if json {
        println!("{}", flow_json_report("twig-flow", scanned, &old, &fresh, elapsed_ms));
    } else {
        flow_human_report("twig-flow", scanned, &old, &fresh, elapsed_ms);
    }
    if fresh.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Shared human report for the witness-carrying passes (flow, taint,
/// race).
fn flow_human_report(
    pass: &str,
    scanned: usize,
    old: &[FlowFinding],
    fresh: &[FlowFinding],
    elapsed_ms: u128,
) {
    for finding in fresh {
        let v = &finding.violation;
        println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.content);
        for hop in &finding.witness {
            println!("    {hop}");
        }
    }
    println!(
        "{pass}: {scanned} files scanned, {} new finding(s), {} baselined, {elapsed_ms}ms",
        fresh.len(),
        old.len()
    );
    if !fresh.is_empty() {
        let task = pass.trim_start_matches("twig-");
        println!(
            "  break the witness chains above (check the length, handle the error), or run\n  \
             `cargo xtask {task} --update-baseline` if they are intentional pre-existing debt"
        );
    }
}

/// Shared JSON report for the witness-carrying passes (flow, taint,
/// race). `elapsed_ms` is the pass's wall time — CI sums these across
/// analyzers and gates on regression (see `analyzer-budget.ms`).
fn flow_json_report(
    pass: &str,
    scanned: usize,
    old: &[FlowFinding],
    fresh: &[FlowFinding],
    elapsed_ms: u128,
) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"pass\":\"{}\",\"files_scanned\":{scanned},\"elapsed_ms\":{elapsed_ms},\"new\":{},\"baselined\":{},\"findings\":[",
        json_escape(pass),
        fresh.len(),
        old.len()
    ));
    let mut first = true;
    for (finding, is_new) in fresh.iter().map(|f| (f, true)).chain(old.iter().map(|f| (f, false))) {
        if !first {
            out.push(',');
        }
        first = false;
        let v = &finding.violation;
        let witness = finding
            .witness
            .iter()
            .map(|hop| format!("\"{}\"", json_escape(hop)))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"new\":{},\"content\":\"{}\",\"witness\":[{}]}}",
            json_escape(v.rule),
            json_escape(&v.file),
            v.line,
            is_new,
            json_escape(&v.content),
            witness
        ));
    }
    out.push_str("]}");
    out
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n{USAGE}");
    ExitCode::FAILURE
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

fn human_report(scanned: usize, old: &[Violation], fresh: &[Violation], elapsed_ms: u128) {
    for violation in fresh {
        println!(
            "{}:{}: [{}] {}",
            violation.file, violation.line, violation.rule, violation.content
        );
    }
    println!(
        "twig-lint: {scanned} files scanned, {} new violation(s), {} baselined, {elapsed_ms}ms",
        fresh.len(),
        old.len()
    );
    if !fresh.is_empty() {
        println!(
            "  fix the lines above, or run `cargo xtask lint --update-baseline` if they are\n  \
             intentional pre-existing debt"
        );
    }
}

/// Renders the machine-readable report. Hand-rolled (offline build, no
/// serde); `json_escape` covers everything source lines can contain.
fn json_report(scanned: usize, old: &[Violation], fresh: &[Violation], elapsed_ms: u128) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"files_scanned\":{scanned},\"elapsed_ms\":{elapsed_ms},\"new\":{},\"baselined\":{},\"violations\":[",
        fresh.len(),
        old.len()
    ));
    let mut first = true;
    for (violation, is_new) in fresh.iter().map(|v| (v, true)).chain(old.iter().map(|v| (v, false)))
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"new\":{},\"content\":\"{}\"}}",
            json_escape(violation.rule),
            json_escape(&violation.file),
            violation.line,
            is_new,
            json_escape(&violation.content)
        ));
    }
    out.push_str("]}");
    out
}

fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny\tz"), "x\\ny\\tz");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_report_shape() {
        let fresh = vec![Violation {
            rule: "no-unwrap",
            file: "crates/core/src/a.rs".into(),
            line: 3,
            content: "x.unwrap() // \"quoted\"".into(),
        }];
        let report = json_report(10, &[], &fresh, 42);
        assert!(report.starts_with('{') && report.ends_with('}'));
        assert!(report.contains("\"files_scanned\":10"));
        assert!(report.contains("\"elapsed_ms\":42"));
        assert!(report.contains("\"new\":1"));
        assert!(report.contains("\\\"quoted\\\""));
    }

    #[test]
    fn collect_skips_target_and_fixtures_and_finds_sources() {
        let root = workspace_root();
        let files = analysis::workspace_files(&root);
        assert!(files.iter().any(|f| f == "crates/core/src/cst.rs"), "{files:?}");
        assert!(files.iter().all(|f| !f.starts_with("target/")));
        assert!(files.iter().all(|f| !f.contains("/fixtures/")), "{files:?}");
    }

    #[test]
    fn end_to_end_on_synthetic_tree() {
        // Build a small fake workspace in a temp dir, seed a violation,
        // and drive the same functions `lint` composes.
        let dir = std::env::temp_dir().join(format!("twig-xtask-test-{}", std::process::id()));
        let src_dir = dir.join("crates/core/src");
        fs::create_dir_all(&src_dir).expect("mkdir");
        fs::write(src_dir.join("lib.rs"), "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n")
            .expect("write");
        let mut files = Vec::new();
        analysis::collect_rs_files(&dir, &dir, &mut files);
        assert_eq!(files, ["crates/core/src/lib.rs"]);
        let src = fs::read_to_string(dir.join(&files[0])).expect("read");
        let violations = rules::check_file(&files[0], &src);
        assert_eq!(violations.len(), 1);

        // Baselining it silences the pass; a second unwrap is new again.
        let parsed = baseline::parse(&baseline::render(&violations)).expect("parse");
        let (old, fresh) = baseline::partition(violations.clone(), &parsed);
        assert_eq!((old.len(), fresh.len()), (1, 0));
        let more = rules::check_file(
            &files[0],
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\npub fn g(y: Option<u32>) -> u32 { y.unwrap() }\n",
        );
        let (_, fresh) = baseline::partition(more, &parsed);
        assert_eq!(fresh.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
