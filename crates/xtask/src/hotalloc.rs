//! Allocation-discipline over the hot path.
//!
//! The static counterpart to the estimation fast path: every
//! heap-allocating call (`Vec::new`, `vec!`, `.to_vec()`, `.clone()`,
//! `format!`, `String::from`, boxing, `.collect()`, …) *reachable* from
//! a hot-path entry point is a finding. Entries are the per-request
//! core the bench harness times: `Cst::estimate_raw`, every function in
//! the sethash kernels file, the CSR trie walk family, and the serve
//! request dispatch (`process_request`). The burn-down baseline is what
//! keeps the epoll loop and bytecode VM allocation-free per request — a
//! new allocation sneaking onto the hot path fails CI instead of a
//! benchmark review.
//!
//! Reachability is a forward BFS over the same conservative call graph
//! flow uses, with one refinement: method call sites that resolve to
//! more than three same-named workspace methods (`.get(`, `.write(`,
//! `.len(` …) are treated as unresolvable std-ish calls and not
//! followed — over-resolution there would wire half the workspace into
//! the "hot path" through name collisions alone. Direct allocation
//! *detection* is token-level per function, so a `.clone()` in a
//! genuinely-reached function is still caught even when edges through
//! generic names are skipped.
//!
//! Finding content is the line-free `fn <qual> allocates: <what>` so
//! unrelated edits never churn the baseline; the line number still
//! points at the first such call for the human report.

use std::collections::VecDeque;

use crate::analysis::callgraph::call_sites;
use crate::analysis::tokens::{Token, TokenKind};
use crate::reach::FlowFinding;
use crate::rules::Violation;
use crate::taint::Ctx;

/// Hot-path entry points, `::`-aligned qualified-path suffixes.
const HOT_ENTRY_SUFFIXES: &[&str] = &[
    "Cst::estimate_raw",
    "PrunedTrie::walk",
    "PrunedTrie::child",
    "PrunedTrie::find",
    "process_request",
];

/// Files whose every non-test function is a hot entry (the kernels).
const HOT_ENTRY_FILES: &[&str] = &["crates/sethash/src/kernels.rs"];

/// Allocating constructors: `Type::name(` path calls.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "String", "Box", "Rc", "Arc", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "VecDeque",
];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

/// Allocating methods: `.name(` calls.
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_owned",
    "to_string",
    "clone",
    "collect",
    "join",
    "concat",
    "repeat",
    "reserve",
    "reserve_exact",
    "into_boxed_slice",
];

/// Method call sites resolving to more than this many candidates are
/// treated as std calls and not traversed.
const AMBIGUOUS_METHOD_LIMIT: usize = 3;

fn qual_suffix(qual: &str, suffix: &str) -> bool {
    qual == suffix || (qual.ends_with(suffix) && qual[..qual.len() - suffix.len()].ends_with("::"))
}

/// Token-level allocation sites in a body range, one per distinct
/// `what` (first line wins — the content key is line-free, so one
/// finding per kind keeps the baseline small and stable).
fn alloc_sites(tokens: &[Token], range: (usize, usize)) -> Vec<(String, usize)> {
    let (start, end) = range;
    let end = end.min(tokens.len());
    let mut sites: Vec<(String, usize)> = Vec::new();
    let push = |what: String, line: usize, sites: &mut Vec<(String, usize)>| {
        if !sites.iter().any(|(w, _)| *w == what) {
            sites.push((what, line));
        }
    };
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Ident, "vec" | "format")
                if tokens.get(i + 1).is_some_and(|n| n.is_punct("!")) =>
            {
                push(format!("{}!", t.text), t.line, &mut sites);
                i += 2;
            }
            (TokenKind::Ident, ty) if ALLOC_TYPES.contains(&ty) => {
                // `Vec::new(`, `Vec::<u8>::with_capacity(` …
                let mut j = i + 1;
                let mut ctor = None;
                while tokens.get(j).is_some_and(|n| n.is_punct("::")) {
                    match tokens.get(j + 1) {
                        Some(n) if n.is_punct("<") => {
                            // Turbofish: skip to the matching `>`.
                            let mut depth = 0i32;
                            let mut k = j + 1;
                            while k < end {
                                match tokens[k].text.as_str() {
                                    "<" if tokens[k].kind == TokenKind::Punct => depth += 1,
                                    ">" if tokens[k].kind == TokenKind::Punct => {
                                        depth -= 1;
                                        if depth <= 0 {
                                            break;
                                        }
                                    }
                                    ">>" if tokens[k].kind == TokenKind::Punct => depth -= 2,
                                    _ => {}
                                }
                                k += 1;
                            }
                            j = k + 1;
                        }
                        Some(n) if n.kind == TokenKind::Ident => {
                            ctor = Some(n.text.clone());
                            j += 2;
                        }
                        _ => break,
                    }
                }
                if let Some(name) = ctor {
                    if ALLOC_CTORS.contains(&name.as_str())
                        && tokens.get(j).is_some_and(|n| n.is_punct("("))
                    {
                        push(format!("{ty}::{name}"), t.line, &mut sites);
                    }
                }
                i = j.max(i + 1);
            }
            (TokenKind::Punct, ".") => {
                if let Some(next) = tokens.get(i + 1) {
                    if next.kind == TokenKind::Ident
                        && ALLOC_METHODS.contains(&next.text.as_str())
                        && tokens.get(i + 2).is_some_and(|p| p.is_punct("("))
                    {
                        push(format!(".{}()", next.text), next.line, &mut sites);
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    sites
}

/// Runs the pass over an analysis context (workspace or fixture tree).
pub(crate) fn analyze(ctx: &Ctx) -> Vec<FlowFinding> {
    let graph = ctx.graph;
    let models = ctx.models;
    let n = graph.fns.len();

    // Adjacency with the ambiguous-method refinement (the shared graph
    // keeps full over-resolution for flow's panic soundness; here the
    // alloc detector still covers ambiguous callees if anything else
    // reaches them).
    let mut adjacency: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (caller, f) in graph.fns.iter().enumerate() {
        let Some(body) = f.item.body else { continue };
        let tokens = &models[f.model].tokens;
        for site in call_sites(tokens, body, f.item.impl_type.as_deref()) {
            let resolved = graph.resolve_site(&f.item, &site.path, site.method, site.args);
            if site.method && resolved.len() > AMBIGUOUS_METHOD_LIMIT {
                continue;
            }
            for callee in resolved {
                if !graph.fns[callee].item.in_test {
                    adjacency[caller].push((callee, site.line));
                }
            }
        }
    }

    // Forward BFS from the hot entries, tracking parents for witnesses.
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut queue = VecDeque::new();
    for (idx, f) in graph.fns.iter().enumerate() {
        let item = &f.item;
        if item.in_test || item.body.is_none() {
            continue;
        }
        let is_entry = HOT_ENTRY_SUFFIXES.iter().any(|s| qual_suffix(&item.qual, s))
            || HOT_ENTRY_FILES.contains(&item.file.as_str());
        if is_entry {
            dist[idx] = Some(0);
            queue.push_back(idx);
        }
    }
    while let Some(v) = queue.pop_front() {
        let next_dist = dist[v].unwrap_or(0) + 1;
        for &(callee, line) in &adjacency[v] {
            if dist[callee].is_none() {
                dist[callee] = Some(next_dist);
                parent[callee] = Some((v, line));
                queue.push_back(callee);
            }
        }
    }

    let mut findings = Vec::new();
    for (idx, f) in graph.fns.iter().enumerate() {
        if dist[idx].is_none() || f.item.in_test {
            continue;
        }
        let Some(body) = f.item.body else { continue };
        let tokens = &models[f.model].tokens;
        for (what, line) in alloc_sites(tokens, body) {
            let mut chain = Vec::new();
            let mut cursor = idx;
            while let Some((caller, call_line)) = parent[cursor] {
                let item = &graph.fns[cursor].item;
                chain.push(format!("{} ({}:{}) called from", item.qual, item.file, call_line));
                cursor = caller;
                if chain.len() > n {
                    break;
                }
            }
            let entry = &graph.fns[cursor].item;
            chain.push(format!("{} ({}:{}) hot entry", entry.qual, entry.file, entry.line));
            let mut witness =
                vec![format!("{} ({}:{}) allocates: {}", f.item.qual, f.item.file, line, what)];
            witness.extend(chain);
            findings.push(FlowFinding {
                violation: Violation {
                    rule: "hot-alloc",
                    file: f.item.file.clone(),
                    line,
                    content: format!("fn {} allocates: {}", f.item.qual, what),
                },
                witness,
            });
        }
    }
    findings.sort_by(|a, b| {
        (&a.violation.file, a.violation.line).cmp(&(&b.violation.file, b.violation.line))
    });
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::callgraph;
    use crate::analysis::items::{parse_file, FileModel};
    use crate::analysis::scan::{mask_source, test_line_mask};
    use crate::analysis::tokens::tokenize;
    use std::path::Path;

    fn run(files: &[(&str, &str)]) -> Vec<FlowFinding> {
        let models: Vec<FileModel> = files
            .iter()
            .map(|(file, src)| {
                let masked = mask_source(src);
                let test_lines = test_line_mask(&masked);
                parse_file(file, tokenize(&masked), &test_lines, false)
            })
            .collect();
        let graph = callgraph::build(&models, callgraph::CrateScope::default());
        let models_leak: &'static [FileModel] = Box::leak(models.into_boxed_slice());
        let graph_leak: &'static callgraph::Graph = Box::leak(Box::new(graph));
        let ctx = Ctx::new(Path::new("/nonexistent"), models_leak, graph_leak, true);
        analyze(&ctx)
    }

    #[test]
    fn allocations_reachable_from_hot_entries_are_found() {
        let findings = run(&[(
            "crates/core/src/cst.rs",
            "impl Cst { pub fn estimate_raw(&self, q: usize) -> usize { compile_plan(q) } }\n\
             fn compile_plan(q: usize) -> usize {\n\
             let mut steps = Vec::new();\n\
             steps.push(q); steps.len()\n\
             }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].violation.rule, "hot-alloc");
        assert_eq!(findings[0].violation.content, "fn core::compile_plan allocates: Vec::new");
        let witness = findings[0].witness.join("\n");
        assert!(witness.contains("hot entry"), "{witness}");
    }

    #[test]
    fn cold_allocations_are_not_reported() {
        let findings = run(&[(
            "crates/core/src/cst.rs",
            "impl Cst { pub fn estimate_raw(&self) -> usize { 0 } }\n\
             pub fn cold() -> Vec<u8> { Vec::new() }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn kernels_file_fns_are_entries() {
        let findings = run(&[(
            "crates/sethash/src/kernels.rs",
            "pub fn union_min_into(a: &[u64]) -> String { a.len().to_string() }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].violation.content.contains(".to_string()"), "{findings:?}");
    }
}
