//! Lock-discipline analysis for the strict-scope crates.
//!
//! `crates/serve` (and since PR 8 `crates/flat` and `crates/util` too —
//! see `LOCK_SCOPES` in `main.rs`) keeps shared state behind
//! `Mutex`/`RwLock`; the two
//! failure modes no node-local lint can see are (a) a guard held across
//! a blocking call — a slow peer then stalls every thread that wants the
//! lock — and (b) two locks acquired in opposite orders on different
//! paths, the classic inversion deadlock. Both are *path* properties of
//! guard lifetimes, so the pass simulates guard scopes over the token
//! stream:
//!
//! - **Lock identities** are struct fields with `Mutex`/`RwLock` types
//!   (from the item model) plus `let x = Mutex::new(…)` locals.
//! - **Acquisitions** are `.lock()`/`.read()`/`.write()` on a receiver
//!   that names a lock, or calls to workspace fns returning a `*Guard`
//!   type (`lock_queue`, `read_entries`, …), resolved to the field they
//!   lock.
//! - **Releases**: end of the enclosing block, `drop(guard)`, end of
//!   statement for un-bound temporaries, and passing the guard *by
//!   value* to a call (`Condvar::wait(guard)` releases the mutex — the
//!   sanctioned blocking-while-locked pattern).
//! - **Blocking events** are I/O-ish method calls (`read`, `write`,
//!   `accept`, `join`, `recv`, `wait*`, `connect`, `flush`, …), known
//!   blocking path calls (`fs::read`, `thread::sleep`, …), and calls to
//!   workspace functions that transitively block (fixpoint over the
//!   call graph) — blocking, like panicking, is a path property.
//!
//! Known under-approximation: a guard re-bound from a `Condvar` wait's
//! return value is no longer tracked. Over-approximation: method names
//! are matched without receiver types, so `Vec::join`-alikes can flag;
//! the baseline absorbs deliberate cases.

use std::collections::{BTreeMap, BTreeSet};

use crate::analysis::callgraph::Graph;
use crate::analysis::items::FileModel;
use crate::analysis::tokens::{Token, TokenKind};
use crate::reach::FlowFinding;
use crate::rules::Violation;

/// Method names treated as blocking regardless of receiver.
const BLOCKING_METHODS: &[&str] = &[
    "read",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write",
    "write_all",
    "write_to",
    "flush",
    "accept",
    "join",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "wait_while",
    "connect",
    "sleep",
];

/// Path-call suffixes treated as blocking.
const BLOCKING_PATHS: &[&str] = &[
    "fs::read",
    "fs::write",
    "fs::read_to_string",
    "fs::copy",
    "fs::remove_file",
    "thread::sleep",
    "TcpStream::connect",
    "File::open",
    "File::create",
];

/// Acquisition method names on a lock-typed receiver.
pub(crate) const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Chained methods that still yield the guard: `let g =
/// queue.lock().unwrap_or_else(PoisonError::into_inner);` binds the
/// guard to `g`, while any other chain (`.lock().len()`) consumes it
/// into a temporary that dies at the statement end.
pub(crate) const GUARD_CHAIN: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

#[derive(Debug)]
struct LiveGuard {
    /// The bound variable, `None` for statement temporaries.
    var: Option<String>,
    /// Lock identity (field or local name).
    lock: String,
    /// Brace depth (relative to the body) at acquisition.
    depth: usize,
}

/// An observed nested acquisition: `first` was held when `second` was
/// taken.
#[derive(Debug)]
struct OrderEdge {
    first: String,
    second: String,
    file: String,
    line: usize,
    in_fn: String,
}

/// Runs the pass over every in-scope file. `scopes` is a list of path
/// prefixes (production: `LOCK_SCOPES` in `main.rs`); `graph` supplies
/// call edges for the transitive-blocking fixpoint.
pub(crate) fn analyze(models: &[FileModel], graph: &Graph, scopes: &[&str]) -> Vec<FlowFinding> {
    let in_scope = |m: &&FileModel| scopes.iter().any(|s| m.file.starts_with(s));
    // Lock field names across the whole workspace: the blocking
    // classifier needs them everywhere to tell `entries.read()` (RwLock
    // acquisition) from `stream.read()` (blocking I/O).
    let mut lock_names: BTreeSet<String> = BTreeSet::new();
    for model in models {
        lock_names.extend(model.lock_fields.iter().cloned());
    }

    // Guard-returning fns → the lock identity they acquire.
    let mut guard_fns: BTreeMap<String, String> = BTreeMap::new();
    for model in models.iter().filter(in_scope) {
        for f in &model.fns {
            if !f.ret.contains("Guard") {
                continue;
            }
            let identity = f
                .body
                .and_then(|body| first_lock_receiver(&model.tokens, body, &lock_names))
                .unwrap_or_else(|| f.name.clone());
            guard_fns.insert(f.name.clone(), identity);
        }
    }

    // Transitive blocking classification over the whole graph. Only
    // *path* calls consult it: method names are too overloaded to
    // resolve without types (`.load()` is both `SummaryRegistry::load`,
    // which hits the filesystem, and `AtomicBool::load`, which doesn't),
    // so a method call only counts as blocking via the direct list.
    let blocking = blocking_fixpoint(models, graph, &lock_names);
    let mut blocking_index = BlockingIndex::default();
    for (idx, f) in graph.fns.iter().enumerate() {
        if blocking[idx] {
            if !f.item.has_self {
                blocking_index.bare.insert(f.item.name.clone());
            }
            blocking_index.quals.push(f.item.qual.clone());
        }
    }

    let mut findings = Vec::new();
    let mut edges: Vec<OrderEdge> = Vec::new();
    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for model in models.iter().filter(in_scope) {
        for f in model.fns.iter().filter(|f| !f.in_test) {
            let Some(body) = f.body else { continue };
            walk_fn(
                model,
                f_qual(f),
                body,
                &lock_names,
                &guard_fns,
                &blocking_index,
                &mut findings,
                &mut edges,
                &mut seen,
            );
        }
    }

    // Lock-order inversions: (A→B) somewhere and (B→A) elsewhere.
    let pairs: BTreeSet<(String, String)> =
        edges.iter().map(|e| (e.first.clone(), e.second.clone())).collect();
    for edge in &edges {
        if edge.first != edge.second && pairs.contains(&(edge.second.clone(), edge.first.clone())) {
            let key = (edge.file.clone(), edge.line, format!("{}->{}", edge.first, edge.second));
            if seen.insert(key) {
                findings.push(FlowFinding {
                    violation: Violation {
                        rule: "lock-order-inversion",
                        file: edge.file.clone(),
                        line: edge.line,
                        content: format!(
                            "acquires '{}' then '{}' in {}; the opposite order exists elsewhere",
                            edge.first, edge.second, edge.in_fn
                        ),
                    },
                    witness: vec![format!(
                        "{} ({}:{}) holds '{}' while taking '{}'",
                        edge.in_fn, edge.file, edge.line, edge.first, edge.second
                    )],
                });
            }
        }
    }
    findings.sort_by(|a, b| {
        (&a.violation.file, a.violation.line).cmp(&(&b.violation.file, b.violation.line))
    });
    findings
}

fn f_qual(f: &crate::analysis::items::FnItem) -> String {
    f.qual.clone()
}

/// Workspace fns classified as (transitively) blocking, indexed the way
/// call sites resolve: bare names for free/associated fns, qualified
/// paths for `a::b(` calls.
#[derive(Debug, Default)]
struct BlockingIndex {
    bare: BTreeSet<String>,
    quals: Vec<String>,
}

impl BlockingIndex {
    fn matches(&self, path: &[String]) -> bool {
        if path.len() == 1 {
            self.bare.contains(&path[0])
        } else {
            // At least the final two segments must line up — the same
            // rule the call graph uses for qualified paths.
            self.quals
                .iter()
                .any(|q| (2..=path.len()).any(|k| qual_suffix_matches(q, &path[path.len() - k..])))
        }
    }
}

/// Marks every fn that directly blocks, then propagates through the
/// call graph: a caller of a blocking fn blocks.
fn blocking_fixpoint(
    models: &[FileModel],
    graph: &Graph,
    lock_names: &BTreeSet<String>,
) -> Vec<bool> {
    let mut blocking = vec![false; graph.fns.len()];
    for (idx, f) in graph.fns.iter().enumerate() {
        if let Some(body) = f.item.body {
            blocking[idx] = has_direct_blocking(&models[f.model].tokens, body, lock_names);
        }
    }
    let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); graph.fns.len()];
    for (caller, edges) in graph.edges.iter().enumerate() {
        for edge in edges {
            reverse[edge.callee].push(caller);
        }
    }
    let mut queue: Vec<usize> = (0..graph.fns.len()).filter(|&i| blocking[i]).collect();
    while let Some(v) = queue.pop() {
        for &caller in &reverse[v] {
            if !blocking[caller] {
                blocking[caller] = true;
                queue.push(caller);
            }
        }
    }
    blocking
}

fn has_direct_blocking(
    tokens: &[Token],
    range: (usize, usize),
    lock_names: &BTreeSet<String>,
) -> bool {
    let (start, end) = range;
    let end = end.min(tokens.len());
    let mut i = start;
    while i < end {
        if tokens[i].is_punct(".") {
            if let (Some(name), true) = (tokens.get(i + 1), at_punct(tokens, i + 2, "(")) {
                if name.kind == TokenKind::Ident
                    && BLOCKING_METHODS.contains(&name.text.as_str())
                    // `entries.read()` acquires an RwLock; only a
                    // non-lock receiver makes `.read()` blocking I/O.
                    && !(ACQUIRE_METHODS.contains(&name.text.as_str())
                        && receiver_lock(tokens, start, i, lock_names).is_some())
                {
                    return true;
                }
            }
        } else if tokens[i].kind == TokenKind::Ident {
            if let Some((path, _)) = path_call_at(tokens, i, end) {
                if is_blocking_path(&path) {
                    return true;
                }
            }
        }
        i += 1;
    }
    false
}

fn is_blocking_path(path: &[String]) -> bool {
    let joined = path.join("::");
    BLOCKING_PATHS.iter().any(|b| joined == *b || joined.ends_with(&format!("::{b}")))
}

/// The first `.lock()`/`.read()`/`.write()` receiver naming a lock in
/// the range — how a guard-returning helper reveals which lock it takes.
pub(crate) fn first_lock_receiver(
    tokens: &[Token],
    range: (usize, usize),
    lock_names: &BTreeSet<String>,
) -> Option<String> {
    let (start, end) = range;
    let end = end.min(tokens.len());
    for i in start..end {
        if tokens[i].is_punct(".")
            && tokens.get(i + 1).is_some_and(|t| {
                t.kind == TokenKind::Ident && ACQUIRE_METHODS.contains(&t.text.as_str())
            })
            && at_punct(tokens, i + 2, "(")
        {
            if let Some(lock) = receiver_lock(tokens, start, i, lock_names) {
                return Some(lock);
            }
        }
    }
    None
}

/// Walks backward through a `a.b.c` receiver chain ending at the `.` at
/// `dot`; returns the first component naming a known lock.
pub(crate) fn receiver_lock(
    tokens: &[Token],
    start: usize,
    dot: usize,
    lock_names: &BTreeSet<String>,
) -> Option<String> {
    let mut j = dot;
    while j > start {
        j -= 1;
        match tokens[j].kind {
            TokenKind::Ident => {
                if lock_names.contains(&tokens[j].text) {
                    return Some(tokens[j].text.clone());
                }
            }
            TokenKind::Punct if tokens[j].text == "." => {}
            _ => return None,
        }
    }
    None
}

/// Extracts a `a::b::c(`-style path call starting at the ident at `i`;
/// returns the segments and the index of the `(`.
pub(crate) fn path_call_at(tokens: &[Token], i: usize, end: usize) -> Option<(Vec<String>, usize)> {
    // Not a call start when preceded by `.` (method), `fn` (declaration)
    // or `::` (mid-path: the `new` of `Arc::new` must not re-parse as a
    // bare call named `new`).
    if i > 0
        && (tokens[i - 1].is_punct(".")
            || tokens[i - 1].is_ident("fn")
            || tokens[i - 1].is_punct("::"))
    {
        return None;
    }
    let mut path = vec![tokens[i].text.clone()];
    let mut j = i + 1;
    while j + 1 < end && tokens[j].is_punct("::") && tokens[j + 1].kind == TokenKind::Ident {
        path.push(tokens[j + 1].text.clone());
        j += 2;
    }
    if j < end && tokens[j].is_punct("(") {
        Some((path, j))
    } else {
        None
    }
}

/// Matching close paren for the `(` at `open` (token index).
pub(crate) fn matching_paren(tokens: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().take(end).skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    end.saturating_sub(1)
}

pub(crate) fn at_punct(tokens: &[Token], i: usize, punct: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(punct))
}

#[allow(clippy::too_many_arguments)] // internal walker; a context struct would just rename these
fn walk_fn(
    model: &FileModel,
    qual: String,
    body: (usize, usize),
    field_locks: &BTreeSet<String>,
    guard_fns: &BTreeMap<String, String>,
    blocking_index: &BlockingIndex,
    findings: &mut Vec<FlowFinding>,
    edges: &mut Vec<OrderEdge>,
    seen: &mut BTreeSet<(String, usize, String)>,
) {
    let tokens = &model.tokens;
    let (start, end) = body;
    let end = end.min(tokens.len());
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut local_locks: BTreeSet<String> = BTreeSet::new();
    let mut depth = 0usize;
    let mut current_let: Option<String> = None;
    let mut i = start;

    let all_locks = |local: &BTreeSet<String>| -> BTreeSet<String> {
        field_locks.union(local).cloned().collect()
    };

    while i < end {
        let t = &tokens[i];
        match (&t.kind, t.text.as_str()) {
            (TokenKind::Punct, "{") => {
                depth += 1;
                i += 1;
            }
            (TokenKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                live.retain(|g| g.depth <= depth);
                current_let = None;
                i += 1;
            }
            (TokenKind::Punct, ";") => {
                live.retain(|g| g.var.is_some());
                current_let = None;
                i += 1;
            }
            (TokenKind::Ident, "let") => {
                // `let [mut] name =`: remember the binding target.
                let mut j = i + 1;
                if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if tokens.get(j).is_some_and(|t| t.kind == TokenKind::Ident)
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct("="))
                {
                    current_let = Some(tokens[j].text.clone());
                    i = j + 2;
                } else {
                    i += 1;
                }
            }
            (TokenKind::Ident, "Mutex" | "RwLock")
                if tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
                    && tokens.get(i + 2).is_some_and(|t| t.is_ident("new")) =>
            {
                if let Some(var) = current_let.clone() {
                    local_locks.insert(var);
                }
                i += 3;
            }
            (TokenKind::Ident, "drop")
                if at_punct(tokens, i + 1, "(")
                    && tokens.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident)
                    && at_punct(tokens, i + 3, ")") =>
            {
                let var = &tokens[i + 2].text;
                live.retain(|g| g.var.as_deref() != Some(var.as_str()));
                i += 4;
            }
            (TokenKind::Punct, ".") => {
                let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
                    i += 1;
                    continue;
                };
                if !at_punct(tokens, i + 2, "(") {
                    i += 2;
                    continue;
                }
                let locks = all_locks(&local_locks);
                let acquired = if ACQUIRE_METHODS.contains(&name.text.as_str()) {
                    receiver_lock(tokens, start, i, &locks)
                } else {
                    None
                };
                let acquired = acquired.or_else(|| guard_fns.get(&name.text).cloned());
                if let Some(lock) = acquired {
                    record_acquisition(&lock, &live, &mut *edges, model, &qual, name.line);
                    let close = matching_paren(tokens, i + 2, end);
                    let var = if binds_to_let(tokens, close + 1, end) {
                        current_let.clone()
                    } else {
                        None
                    };
                    live.push(LiveGuard { var, lock, depth });
                    i += 3;
                    continue;
                }
                if BLOCKING_METHODS.contains(&name.text.as_str()) {
                    let close = matching_paren(tokens, i + 2, end);
                    release_moved_guards(tokens, i + 2, close, &mut live);
                    report_blocked(
                        &live,
                        &format!(".{}()", name.text),
                        model,
                        &qual,
                        name.line,
                        findings,
                        seen,
                    );
                    i += 3;
                    continue;
                }
                i += 2;
            }
            (TokenKind::Ident, _) => {
                if let Some((path, open)) = path_call_at(tokens, i, end) {
                    let bare = path.len() == 1;
                    if bare && guard_fns.contains_key(&path[0]) {
                        let lock = guard_fns[&path[0]].clone();
                        record_acquisition(&lock, &live, &mut *edges, model, &qual, t.line);
                        let close = matching_paren(tokens, open, end);
                        let var = if binds_to_let(tokens, close + 1, end) {
                            current_let.clone()
                        } else {
                            None
                        };
                        live.push(LiveGuard { var, lock, depth });
                        i = open + 1;
                        continue;
                    }
                    if is_blocking_path(&path) || blocking_index.matches(&path) {
                        let close = matching_paren(tokens, open, end);
                        release_moved_guards(tokens, open, close, &mut live);
                        report_blocked(
                            &live,
                            &path.join("::"),
                            model,
                            &qual,
                            t.line,
                            findings,
                            seen,
                        );
                        i = open + 1;
                        continue;
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Does the expression whose closing paren sits just before `j` flow
/// into the enclosing `let` binding? True when the rest of the
/// statement is only guard-preserving chained calls followed by `;`.
pub(crate) fn binds_to_let(tokens: &[Token], mut j: usize, end: usize) -> bool {
    loop {
        if at_punct(tokens, j, ";") {
            return true;
        }
        if at_punct(tokens, j, ".")
            && tokens.get(j + 1).is_some_and(|t| {
                t.kind == TokenKind::Ident && GUARD_CHAIN.contains(&t.text.as_str())
            })
            && at_punct(tokens, j + 2, "(")
        {
            j = matching_paren(tokens, j + 2, end) + 1;
            continue;
        }
        return false;
    }
}

/// Suffix match of a call path against a blocking fn's qualified name.
fn qual_suffix_matches(qual: &str, path: &[String]) -> bool {
    let segments: Vec<&str> = qual.split("::").collect();
    path.len() <= segments.len()
        && segments[segments.len() - path.len()..].iter().zip(path).all(|(a, b)| *a == b)
}

/// A guard passed *by value* as a bare call argument is released
/// (`Condvar::wait(guard)`); `&guard` borrows and is not.
fn release_moved_guards(tokens: &[Token], open: usize, close: usize, live: &mut Vec<LiveGuard>) {
    for i in open + 1..close {
        if tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let before_ok = tokens[i - 1].is_punct("(") || tokens[i - 1].is_punct(",");
        let after_ok = at_punct(tokens, i + 1, ",") || at_punct(tokens, i + 1, ")");
        if before_ok && after_ok {
            let var = &tokens[i].text;
            live.retain(|g| g.var.as_deref() != Some(var.as_str()));
        }
    }
}

fn record_acquisition(
    lock: &str,
    live: &[LiveGuard],
    edges: &mut Vec<OrderEdge>,
    model: &FileModel,
    qual: &str,
    line: usize,
) {
    for guard in live {
        if guard.lock != lock {
            edges.push(OrderEdge {
                first: guard.lock.clone(),
                second: lock.to_owned(),
                file: model.file.clone(),
                line,
                in_fn: qual.to_owned(),
            });
        }
    }
}

fn report_blocked(
    live: &[LiveGuard],
    call: &str,
    model: &FileModel,
    qual: &str,
    line: usize,
    findings: &mut Vec<FlowFinding>,
    seen: &mut BTreeSet<(String, usize, String)>,
) {
    for guard in live {
        let content =
            format!("guard of '{}' held across blocking `{}` in {}", guard.lock, call, qual);
        let key = (model.file.clone(), line, content.clone());
        if seen.insert(key) {
            findings.push(FlowFinding {
                violation: Violation {
                    rule: "lock-across-blocking",
                    file: model.file.clone(),
                    line,
                    content,
                },
                witness: vec![format!(
                    "{} ({}:{}) holds '{}' while calling `{}`",
                    qual, model.file, line, guard.lock, call
                )],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::callgraph::{build, CrateScope};
    use crate::analysis::items::parse_file;
    use crate::analysis::scan::{mask_source, test_line_mask};
    use crate::analysis::tokens::tokenize;

    fn run(files: &[(&str, &str)]) -> Vec<FlowFinding> {
        let models: Vec<FileModel> = files
            .iter()
            .map(|(file, src)| {
                let masked = mask_source(src);
                let test_lines = test_line_mask(&masked);
                parse_file(file, tokenize(&masked), &test_lines, false)
            })
            .collect();
        let graph = build(&models, CrateScope::default());
        analyze(&models, &graph, &["crates/serve/src/", "crates/util/src/"])
    }

    const POOLISH: &str = "
struct Shared { queue: Mutex<VecDeque<u32>>, registry: RwLock<Vec<u32>> }
";

    #[test]
    fn guard_held_across_blocking_read_is_flagged() {
        let findings = run(&[(
            "crates/serve/src/a.rs",
            &format!(
                "{POOLISH}
impl Shared {{
    fn bad(&self, stream: &mut TcpStream) {{
        let q = self.queue.lock();
        stream.read(&mut buf);
        q.len();
    }}
}}
"
            ),
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].violation.rule, "lock-across-blocking");
        assert!(findings[0].violation.content.contains("'queue'"));
        assert!(findings[0].violation.content.contains(".read()"));
    }

    #[test]
    fn guard_dropped_before_blocking_is_clean() {
        let findings = run(&[(
            "crates/serve/src/a.rs",
            &format!(
                "{POOLISH}
impl Shared {{
    fn good(&self, stream: &mut TcpStream) {{
        let q = self.queue.lock();
        q.len();
        drop(q);
        stream.read(&mut buf);
    }}
    fn scoped(&self, stream: &mut TcpStream) {{
        {{ let q = self.queue.lock(); q.len(); }}
        stream.read(&mut buf);
    }}
}}
"
            ),
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let findings = run(&[(
            "crates/serve/src/a.rs",
            &format!(
                "{POOLISH}
impl Shared {{
    fn peek(&self, stream: &mut TcpStream) {{
        let n = self.queue.lock().len();
        stream.read(&mut buf);
    }}
}}
"
            ),
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn condvar_wait_consumes_the_guard() {
        let findings = run(&[(
            "crates/serve/src/a.rs",
            &format!(
                "{POOLISH}
impl Shared {{
    fn worker(&self, cv: &Condvar) {{
        let mut queue = self.queue.lock();
        let (guard, _) = cv.wait_timeout(queue, timeout);
    }}
}}
"
            ),
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn guard_returning_helpers_resolve_their_lock() {
        let findings = run(&[(
            "crates/serve/src/a.rs",
            &format!(
                "{POOLISH}
impl Shared {{
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<u32>> {{ self.queue.lock() }}
    fn bad(&self, stream: &mut TcpStream) {{
        let q = self.lock_queue();
        stream.write(&buf);
    }}
}}
"
            ),
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].violation.content.contains("'queue'"), "{findings:?}");
    }

    #[test]
    fn transitive_blocking_through_a_workspace_fn_is_flagged() {
        let findings = run(&[(
            "crates/serve/src/a.rs",
            &format!(
                "{POOLISH}
fn load_from_disk(path: &Path) -> Vec<u8> {{ std::fs::read(path) }}
impl Shared {{
    fn bad(&self) {{
        let q = self.queue.lock();
        let bytes = load_from_disk(path);
    }}
}}
"
            ),
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].violation.content.contains("load_from_disk"), "{findings:?}");
    }

    #[test]
    fn lock_order_inversion_is_detected() {
        let findings = run(&[(
            "crates/serve/src/a.rs",
            &format!(
                "{POOLISH}
impl Shared {{
    fn ab(&self) {{
        let q = self.queue.lock();
        let r = self.registry.read();
    }}
    fn ba(&self) {{
        let r = self.registry.write();
        let q = self.queue.lock();
    }}
}}
"
            ),
        )]);
        let inversions: Vec<_> =
            findings.iter().filter(|f| f.violation.rule == "lock-order-inversion").collect();
        assert_eq!(inversions.len(), 2, "{findings:?}");
        assert!(inversions[0].violation.content.contains("'queue'"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let findings = run(&[(
            "crates/serve/src/a.rs",
            &format!(
                "{POOLISH}
impl Shared {{
    fn ab(&self) {{
        let q = self.queue.lock();
        let r = self.registry.read();
    }}
    fn ab2(&self) {{
        let q = self.queue.lock();
        let r = self.registry.write();
    }}
}}
"
            ),
        )]);
        assert!(
            findings.iter().all(|f| f.violation.rule != "lock-order-inversion"),
            "{findings:?}"
        );
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let findings = run(&[(
            "crates/core/src/a.rs",
            &format!(
                "{POOLISH}
impl Shared {{
    fn bad(&self, stream: &mut TcpStream) {{
        let q = self.queue.lock();
        stream.read(&mut buf);
    }}
}}
"
            ),
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn guard_bound_inside_a_closure_stays_scoped_to_it() {
        // The walker treats a braced closure body like any other block:
        // a guard captured/bound inside it is live across blocking calls
        // *inside* the closure, and dies at the closure's `}` — the
        // blocking call after the closure must not flag.
        let findings = run(&[(
            "crates/serve/src/a.rs",
            &format!(
                "{POOLISH}
impl Shared {{
    fn with_cb(&self, stream: &mut TcpStream) {{
        let cb = move |n: u32| {{
            let q = self.queue.lock();
            stream.write(&buf);
        }};
        stream.read(&mut buf);
    }}
}}
"
            ),
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].violation.content.contains(".write()"), "{findings:?}");
    }

    #[test]
    fn local_mutexes_count_as_locks() {
        let findings = run(&[(
            "crates/serve/src/a.rs",
            "fn bad(stream: &mut TcpStream) {
                let gate = Mutex::new(());
                let g = gate.lock();
                stream.read(&mut buf);
            }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].violation.content.contains("'gate'"));
    }
}
