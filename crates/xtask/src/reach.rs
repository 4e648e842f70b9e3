//! Panic-source classification and reachability fixpoint.
//!
//! A function is a *direct* panic source when its body contains any of:
//!
//! - a panic-family macro (`panic!`, `assert!`, `assert_eq!`,
//!   `assert_ne!`, `unreachable!`, `todo!`, `unimplemented!`),
//! - `.unwrap()` / `.expect(` on anything,
//! - indexing or slicing (`x[i]`, `x[a..b]`) — `get` is the checked way,
//! - `.copy_from_slice(` (length-mismatch panics),
//! - integer `/`/`%` (incl. `/=`, `%=`) with a non-literal divisor —
//!   float division never panics, so lines with float evidence
//!   (`f64`/`f32` identifiers or float literals) are exempt, as are
//!   literal divisors (a literal `0` divisor is a compile error).
//!
//! Reachability then propagates over the call graph to a fixpoint: a
//! function can panic if it is a direct source or can call one. Every
//! `pub` entry point of a strict-scope crate that can reach a panic is
//! reported with a *witness chain* — the shortest call path from the
//! entry to a direct source, with the call line of every hop. Witnesses
//! are diagnostics only; the baseline is keyed on the entry point, so
//! refactoring an intermediate hop does not churn it.

use std::collections::{BTreeSet, VecDeque};

use crate::analysis::callgraph::Graph;
use crate::analysis::items::FileModel;
use crate::analysis::tokens::{Token, TokenKind};
use crate::rules::Violation;

/// Why a function is a direct panic source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PanicSource {
    /// Human-readable source kind (`assert!`, `indexing`, …).
    pub(crate) what: String,
    /// 1-based line of the source.
    pub(crate) line: usize,
}

const PANIC_MACROS: &[&str] =
    &["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];

/// Identifiers that precede `[` without forming an index expression.
/// Shared with the taint pass's tainted-index sink detection.
pub(crate) const NON_INDEX_PREV: &[&str] = &[
    "let", "in", "if", "return", "match", "else", "move", "mut", "ref", "box", "as", "break",
    "continue", "where",
];

/// Lines of a file with float evidence: an identifier mentioning
/// `f64`/`f32` (the type itself, or a helper like
/// `twig_util::cast::count_to_f64`) or a float literal. Integer div/rem
/// detection skips these lines — the tokenizer has no types, and
/// flagging every `f64` division would drown the report in estimator
/// arithmetic that cannot panic.
pub(crate) fn float_hint_lines(tokens: &[Token]) -> BTreeSet<usize> {
    let mut lines = BTreeSet::new();
    for t in tokens {
        let is_hint = matches!(t.kind, TokenKind::Ident if t.text.contains("f64") || t.text.contains("f32"))
            || t.is_float();
        if is_hint {
            lines.insert(t.line);
        }
    }
    lines
}

/// The first direct panic source in `tokens[range]`, if any.
pub(crate) fn direct_panic_source(
    tokens: &[Token],
    range: (usize, usize),
    float_lines: &BTreeSet<usize>,
) -> Option<PanicSource> {
    let (start, end) = range;
    let end = end.min(tokens.len());
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        match (&t.kind, t.text.as_str()) {
            (TokenKind::Ident, name)
                if PANIC_MACROS.contains(&name)
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct("!")) =>
            {
                return Some(PanicSource { what: format!("{name}!"), line: t.line });
            }
            (TokenKind::Punct, ".") => {
                if let Some(next) = tokens.get(i + 1) {
                    if next.kind == TokenKind::Ident
                        && tokens.get(i + 2).is_some_and(|p| p.is_punct("("))
                    {
                        match next.text.as_str() {
                            "unwrap" => {
                                return Some(PanicSource {
                                    what: ".unwrap()".into(),
                                    line: next.line,
                                })
                            }
                            "expect" => {
                                return Some(PanicSource {
                                    what: ".expect(..)".into(),
                                    line: next.line,
                                })
                            }
                            "copy_from_slice" => {
                                return Some(PanicSource {
                                    what: ".copy_from_slice(..)".into(),
                                    line: next.line,
                                })
                            }
                            _ => {}
                        }
                    }
                }
                i += 1;
            }
            (TokenKind::Punct, "[") if i > start => {
                let prev = &tokens[i - 1];
                let indexes = match prev.kind {
                    TokenKind::Ident => !NON_INDEX_PREV.contains(&prev.text.as_str()),
                    TokenKind::Punct => prev.text == ")" || prev.text == "]",
                    _ => false,
                };
                if indexes {
                    return Some(PanicSource { what: "indexing".into(), line: t.line });
                }
                i += 1;
            }
            (TokenKind::Punct, "/" | "%" | "/=" | "%=") if i > start => {
                let prev = &tokens[i - 1];
                let next = tokens.get(i + 1);
                let expr_prev = match prev.kind {
                    TokenKind::Ident => !NON_INDEX_PREV.contains(&prev.text.as_str()),
                    TokenKind::Number => !prev.is_float(),
                    TokenKind::Punct => prev.text == ")" || prev.text == "]",
                    _ => false,
                };
                let literal_divisor =
                    next.is_some_and(|n| n.kind == TokenKind::Number && !n.is_float());
                let float_divisor = next.is_some_and(Token::is_float);
                let float_line = float_lines.contains(&t.line)
                    || next.is_some_and(|n| float_lines.contains(&n.line));
                if expr_prev && !literal_divisor && !float_divisor && !float_line {
                    return Some(PanicSource {
                        what: format!("integer `{}` with non-literal divisor", t.text),
                        line: t.line,
                    });
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// Reachability result over a [`Graph`].
pub(crate) struct Reach {
    /// Direct panic source per fn.
    pub(crate) direct: Vec<Option<PanicSource>>,
    /// Hops to the nearest direct source (`Some(0)` = direct).
    pub(crate) dist: Vec<Option<u32>>,
    /// Next hop toward the witness sink: `(callee index, call line)`.
    pub(crate) via: Vec<Option<(usize, usize)>>,
}

/// Classifies direct sources and runs the fixpoint (a reverse BFS from
/// all direct sources, so every reachable fn gets a *shortest* witness).
pub(crate) fn propagate(models: &[FileModel], graph: &Graph) -> Reach {
    let float_lines: Vec<BTreeSet<usize>> =
        models.iter().map(|m| float_hint_lines(&m.tokens)).collect();
    let mut direct = Vec::with_capacity(graph.fns.len());
    for f in &graph.fns {
        let source = f.item.body.and_then(|body| {
            direct_panic_source(&models[f.model].tokens, body, &float_lines[f.model])
        });
        direct.push(source);
    }

    let mut reverse: Vec<Vec<(usize, usize)>> = vec![Vec::new(); graph.fns.len()];
    for (caller, edges) in graph.edges.iter().enumerate() {
        for edge in edges {
            reverse[edge.callee].push((caller, edge.line));
        }
    }

    let mut dist: Vec<Option<u32>> = vec![None; graph.fns.len()];
    let mut via: Vec<Option<(usize, usize)>> = vec![None; graph.fns.len()];
    let mut queue = VecDeque::new();
    for (idx, source) in direct.iter().enumerate() {
        if source.is_some() {
            dist[idx] = Some(0);
            queue.push_back(idx);
        }
    }
    while let Some(v) = queue.pop_front() {
        let next_dist = dist[v].unwrap_or(0) + 1;
        for &(caller, line) in &reverse[v] {
            if dist[caller].is_none() {
                dist[caller] = Some(next_dist);
                via[caller] = Some((v, line));
                queue.push_back(caller);
            }
        }
    }
    Reach { direct, dist, via }
}

/// A flow finding: the baseline-keyed violation plus its diagnostic
/// witness lines (not part of the key).
#[derive(Debug, Clone)]
pub(crate) struct FlowFinding {
    pub(crate) violation: Violation,
    pub(crate) witness: Vec<String>,
}

/// Reports every `pub` entry point of a strict-scope crate that can
/// reach a panic, with its witness chain.
pub(crate) fn panic_reachability(models: &[FileModel], graph: &Graph) -> Vec<FlowFinding> {
    let reach = propagate(models, graph);
    let mut findings = Vec::new();
    for (idx, f) in graph.fns.iter().enumerate() {
        let item = &f.item;
        if !item.is_pub || item.in_test || !crate::rules::in_strict_scope(&item.file) {
            continue;
        }
        if reach.dist[idx].is_none() {
            continue;
        }
        let witness = witness_chain(graph, &reach, idx);
        findings.push(FlowFinding {
            violation: Violation {
                rule: "panic-path",
                file: item.file.clone(),
                line: item.line,
                content: format!("pub fn {}", item.qual),
            },
            witness,
        });
    }
    findings.sort_by(|a, b| {
        (&a.violation.file, a.violation.line).cmp(&(&b.violation.file, b.violation.line))
    });
    findings
}

/// Renders the shortest entry→sink chain, one hop per line.
pub(crate) fn witness_chain(graph: &Graph, reach: &Reach, entry: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut cursor = entry;
    loop {
        let item = &graph.fns[cursor].item;
        match reach.via[cursor] {
            Some((next, line)) => {
                chain.push(format!("{} ({}:{}) calls", item.qual, item.file, line));
                cursor = next;
            }
            None => {
                let sink = reach.direct[cursor].as_ref();
                let (what, line) = sink
                    .map(|s| (s.what.clone(), s.line))
                    .unwrap_or_else(|| ("<unknown>".into(), item.line));
                chain.push(format!("{} ({}:{}) panics: {}", item.qual, item.file, line, what));
                return chain;
            }
        }
        // A cycle in `via` is impossible (BFS tree), but stay total.
        if chain.len() > graph.fns.len() {
            return chain;
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

    fn models(files: &[(&str, &str)]) -> Vec<FileModel> {
        files
            .iter()
            .map(|(file, src)| {
                let masked = mask_source(src);
                let test_lines = test_line_mask(&masked);
                parse_file(file, tokenize(&masked), &test_lines, crate::rules::test_path(file))
            })
            .collect()
    }

    fn source_of(src: &str) -> Option<String> {
        let m = models(&[("crates/core/src/x.rs", src)]);
        let body = m[0].fns[0].body.expect("has body");
        let hints = float_hint_lines(&m[0].tokens);
        direct_panic_source(&m[0].tokens, body, &hints).map(|s| s.what)
    }

    #[test]
    fn panic_macros_are_sources_but_debug_assert_is_not() {
        assert_eq!(source_of("fn f() { assert!(x); }").as_deref(), Some("assert!"));
        assert_eq!(source_of("fn f() { panic!(\"x\"); }").as_deref(), Some("panic!"));
        assert_eq!(source_of("fn f() { debug_assert!(x); }"), None);
        assert_eq!(source_of("fn f() { debug_assert_eq!(a, b); }"), None);
    }

    #[test]
    fn unwrap_and_expect_are_sources_unwrap_or_is_not() {
        assert_eq!(source_of("fn f() { x.unwrap(); }").as_deref(), Some(".unwrap()"));
        assert_eq!(source_of("fn f() { x.expect(\"m\"); }").as_deref(), Some(".expect(..)"));
        assert_eq!(source_of("fn f() { x.unwrap_or(0); }"), None);
        assert_eq!(source_of("fn f() { x.unwrap_or_else(|| 1); }"), None);
    }

    #[test]
    fn indexing_and_slicing_are_sources() {
        assert_eq!(source_of("fn f(v: &[u32], i: usize) { v[i]; }").as_deref(), Some("indexing"));
        assert_eq!(source_of("fn f(v: &[u32]) { let _ = &v[1..3]; }").as_deref(), Some("indexing"));
        assert_eq!(
            source_of("fn f() { x.copy_from_slice(y); }").as_deref(),
            Some(".copy_from_slice(..)")
        );
    }

    #[test]
    fn non_index_brackets_are_not_sources() {
        assert_eq!(source_of("fn f() { let a = [0u8; 4]; }"), None);
        assert_eq!(source_of("fn f(x: &[u8]) -> Vec<[u8; 2]> { vec![] }"), None);
        assert_eq!(source_of("fn f(a: (u8, u8)) { let [x, y] = [a.0, a.1]; }"), None);
        assert_eq!(source_of("fn f() { v.get(i); }"), None);
    }

    #[test]
    fn integer_division_by_non_literal_is_a_source() {
        assert!(source_of("fn f(a: u64, b: u64) -> u64 { a / b }").is_some_and(|w| w.contains('/')));
        assert!(source_of("fn f(a: u64, b: u64) -> u64 { a % b }").is_some_and(|w| w.contains('%')));
        assert!(
            source_of("fn f(a: &mut u64, b: u64) { *a /= b; }").is_some_and(|w| w.contains("/="))
        );
    }

    #[test]
    fn literal_and_float_division_are_not_sources() {
        assert_eq!(source_of("fn f(a: u64) -> u64 { a / 2 }"), None);
        assert_eq!(source_of("fn f(a: f64, b: f64) -> f64 { a / 1.5 }"), None);
        // Float evidence on the line suppresses the heuristic.
        assert_eq!(source_of("fn f(a: f64, b: f64) -> f64 { a / b }"), None);
        assert_eq!(
            source_of("fn f(a: u64, b: u64) -> f64 { count_to_f64(a) / count_to_f64(b) }"),
            None
        );
    }

    #[test]
    fn reachability_crosses_crates_with_witness() {
        let m = models(&[
            (
                "crates/core/src/lib.rs",
                "pub fn entry(x: u32) -> u32 { middle(x) }\nfn middle(x: u32) -> u32 { helper(x) }",
            ),
            ("crates/util/src/lib.rs", "pub fn helper(x: u32) -> u32 { SIZES[x as usize] }"),
        ]);
        let graph = build(&m, CrateScope::default());
        let findings = panic_reachability(&m, &graph);
        // Only core::entry is a strict-scope pub entry (util is out of
        // scope); it reaches the indexing in util::helper.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].violation.content, "pub fn core::entry");
        let witness = findings[0].witness.join("\n");
        assert!(witness.contains("core::entry"), "{witness}");
        assert!(witness.contains("core::middle"), "{witness}");
        assert!(witness.contains("panics: indexing"), "{witness}");
    }

    #[test]
    fn panic_free_entries_are_not_reported() {
        let m = models(&[(
            "crates/core/src/lib.rs",
            "pub fn clean(x: Option<u32>) -> u32 { x.unwrap_or(0) }",
        )]);
        let graph = build(&m, CrateScope::default());
        assert!(panic_reachability(&m, &graph).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let m = models(&[(
            "crates/core/src/lib.rs",
            "#[cfg(test)]\nmod tests { pub fn t() { x.unwrap(); } }",
        )]);
        let graph = build(&m, CrateScope::default());
        assert!(panic_reachability(&m, &graph).is_empty());
    }

    #[test]
    fn recursion_reaches_a_fixpoint() {
        let m = models(&[(
            "crates/core/src/lib.rs",
            "pub fn a(n: u32) { if n > 0 { b(n - 1) } }\nfn b(n: u32) { a(n); x.unwrap(); }",
        )]);
        let graph = build(&m, CrateScope::default());
        let findings = panic_reachability(&m, &graph);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].witness.last().is_some_and(|l| l.contains(".unwrap()")));
    }

    #[test]
    fn out_of_scope_pub_fns_are_not_entries() {
        let m = models(&[("crates/cli/src/lib.rs", "pub fn main_ish() { x.unwrap(); }")]);
        let graph = build(&m, CrateScope::default());
        assert!(panic_reachability(&m, &graph).is_empty());
    }
}
