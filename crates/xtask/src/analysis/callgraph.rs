//! Conservative workspace call graph.
//!
//! Call sites are extracted from function-body token ranges and resolved
//! by *suffix matching* against every function the item model knows:
//! `Signature::union(` resolves to any fn whose qualified path ends in
//! `Signature::union`, `.record(a)` to every one-argument method named
//! `record`, a bare `load_cst(` to every non-method of that name. Only
//! functions the caller's package can name are candidates: its own crate
//! and the path dependencies its `Cargo.toml` declares ([`CrateScope`]).
//! Over-resolution within that scope is the point — an edge too many
//! makes panic-reachability conservative, an edge too few makes it
//! wrong. Calls that resolve to nothing (std, primitives) are dropped:
//! their panics are modeled as *direct* panic sources at the call site
//! (`unwrap`, indexing, …) by `reach.rs`, not as edges.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::analysis::items::{crate_of, package_dir, FileModel, FnItem};
use crate::analysis::tokens::{Token, TokenKind};

/// One syntactic call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CallSite {
    /// Path segments (`["Signature", "union"]`); a single segment for
    /// bare and method calls.
    pub(crate) path: Vec<String>,
    /// `receiver.name(…)` rather than `path::name(…)`.
    pub(crate) method: bool,
    /// Argument count, `None` when a closure's `|…|` parameter list (or
    /// a turbofish) could hide top-level commas.
    pub(crate) args: Option<usize>,
    /// 1-based line of the call.
    pub(crate) line: usize,
}

/// A resolved caller→callee edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Edge {
    /// Index into [`Graph::fns`].
    pub(crate) callee: usize,
    /// Line of the call site in the caller's file.
    pub(crate) line: usize,
}

/// One function in the global graph: the item plus the index of its
/// [`FileModel`] (for token access).
#[derive(Debug)]
pub(crate) struct GraphFn {
    pub(crate) item: FnItem,
    pub(crate) model: usize,
}

/// The workspace call graph.
#[derive(Debug)]
pub(crate) struct Graph {
    pub(crate) fns: Vec<GraphFn>,
    /// Outgoing edges per fn, deduplicated by callee.
    pub(crate) edges: Vec<Vec<Edge>>,
    /// Bare-name index over `fns`, for suffix resolution.
    by_name: BTreeMap<String, Vec<usize>>,
    scope: CrateScope,
}

/// Which crates each crate's calls may resolve into: itself plus the
/// path dependencies (normal, dev and build) its `Cargo.toml` declares.
/// A crate without a loaded manifest (unit-test models) may reach every
/// crate.
#[derive(Debug, Default)]
pub(crate) struct CrateScope {
    deps: BTreeMap<String, BTreeSet<String>>,
}

impl CrateScope {
    /// Reads the manifest of every package `models` come from, under
    /// `root`. Dependencies on packages outside the scanned set
    /// (registry crates) are irrelevant and dropped.
    pub(crate) fn load(root: &Path, models: &[FileModel]) -> Self {
        let mut manifests: BTreeMap<String, (Option<String>, Vec<String>)> = BTreeMap::new();
        for model in models {
            let krate = crate_of(&model.file);
            if manifests.contains_key(&krate) {
                continue;
            }
            let path = root.join(package_dir(&model.file)).join("Cargo.toml");
            if let Ok(text) = fs::read_to_string(path) {
                manifests.insert(krate, parse_manifest(&text));
            }
        }
        let crate_of_package: BTreeMap<&str, &str> = manifests
            .iter()
            .filter_map(|(krate, (package, _))| Some((package.as_deref()?, krate.as_str())))
            .collect();
        let deps = manifests
            .iter()
            .map(|(krate, (_, deps))| {
                let reachable = deps
                    .iter()
                    .filter_map(|dep| crate_of_package.get(dep.as_str()))
                    .map(|dep| (*dep).to_owned())
                    .collect();
                (krate.clone(), reachable)
            })
            .collect();
        CrateScope { deps }
    }

    /// May code in crate `from` call into crate `to`?
    fn allows(&self, from: &str, to: &str) -> bool {
        from == to || self.deps.get(from).is_none_or(|deps| deps.contains(to))
    }
}

/// The `[package] name` and every dependency key of a `Cargo.toml`
/// (`twig-util.workspace = true` and `twig-util = { path = … }` both
/// name `twig-util`); the `[workspace.dependencies]` table is not a
/// package's dependency list.
fn parse_manifest(text: &str) -> (Option<String>, Vec<String>) {
    let mut package = None;
    let mut deps = Vec::new();
    let mut section = "";
    for line in text.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']');
            continue;
        }
        let Some((key, value)) = line.split_once('=') else { continue };
        let key = key.trim();
        if section == "package" && key == "name" && package.is_none() {
            package = Some(value.trim().trim_matches('"').to_owned());
        } else if section.ends_with("dependencies")
            && !section.starts_with("workspace")
            && !key.starts_with('#')
        {
            let name = key.split('.').next().unwrap_or(key).trim_matches('"');
            deps.push(name.to_owned());
        }
    }
    (package, deps)
}

/// Keywords and primitives that look like call names but are not.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "let", "else", "move", "in", "as", "break",
    "continue", "where", "unsafe", "ref", "mut", "box", "dyn", "impl", "fn", "use", "pub", "mod",
    "const", "static", "type", "enum", "struct", "trait", "true", "false", "super", "crate",
];

/// Extracts the call sites in `tokens[range]`. `impl_type` substitutes
/// for a leading `Self` segment.
pub(crate) fn call_sites(
    tokens: &[Token],
    range: (usize, usize),
    impl_type: Option<&str>,
) -> Vec<CallSite> {
    let (start, end) = range;
    let end = end.min(tokens.len());
    let mut sites = Vec::new();
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        // Method call: `.name(` (with optional turbofish).
        if t.is_punct(".") {
            if let Some(next) = tokens.get(i + 1) {
                if next.kind == TokenKind::Ident {
                    let mut j = i + 2;
                    if at_punct(tokens, j, "::") && at_punct(tokens, j + 1, "<") {
                        j = skip_angles(tokens, j + 1);
                    }
                    if at_punct(tokens, j, "(") {
                        sites.push(CallSite {
                            path: vec![next.text.clone()],
                            method: true,
                            args: arg_count(tokens, j),
                            line: next.line,
                        });
                    }
                    i += 2;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        // Path call: `a::b::name(`, excluding declarations (`fn name(`)
        // and macro invocations (`name!(…)`).
        if t.kind == TokenKind::Ident
            && !NON_CALL_IDENTS.contains(&t.text.as_str())
            && !(i > 0 && (tokens[i - 1].is_punct(".") || tokens[i - 1].is_ident("fn")))
        {
            let line = t.line;
            let mut path = vec![t.text.clone()];
            let mut j = i + 1;
            loop {
                if at_punct(tokens, j, "::") {
                    if at_punct(tokens, j + 1, "<") {
                        j = skip_angles(tokens, j + 1);
                        continue;
                    }
                    if tokens.get(j + 1).is_some_and(|n| n.kind == TokenKind::Ident) {
                        path.push(tokens[j + 1].text.clone());
                        j += 2;
                        continue;
                    }
                }
                break;
            }
            let is_macro = at_punct(tokens, j, "!");
            if at_punct(tokens, j, "(") && !is_macro {
                if path[0] == "Self" {
                    match impl_type {
                        Some(ty) => path[0] = ty.to_owned(),
                        None => {
                            path.remove(0);
                        }
                    }
                }
                if !path.is_empty()
                    && !NON_CALL_IDENTS.contains(&path.last().map(String::as_str).unwrap_or(""))
                {
                    let args = arg_count(tokens, j);
                    sites.push(CallSite { path, method: false, args, line });
                }
            }
            // Resume after the path (arguments are scanned normally).
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    sites
}

/// Top-level argument count of the call whose `(` is at `open`; `None`
/// when a `|` (closure parameters) or `::<` (turbofish) at the top level
/// could hide commas.
pub(crate) fn arg_count(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut prev: Option<&Token> = None;
    for (offset, t) in tokens.get(open + 1..)?.iter().enumerate() {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth == 0 => {
                    // Empty parens, and a trailing comma, add no argument.
                    return Some(match prev {
                        None => 0,
                        Some(p) if p.is_punct(",") => commas,
                        Some(_) => commas + 1,
                    });
                }
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => commas += 1,
                "|" if depth == 0 => return None,
                "::" if depth == 0 && at_punct(tokens, open + 2 + offset, "<") => return None,
                _ => {}
            }
        }
        prev = Some(t);
    }
    None
}

fn at_punct(tokens: &[Token], i: usize, punct: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(punct))
}

fn skip_angles(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0isize;
    let mut j = i;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "<" if tokens[j].kind == TokenKind::Punct => depth += 1,
            "<<" if tokens[j].kind == TokenKind::Punct => depth += 2,
            ">" if tokens[j].kind == TokenKind::Punct => {
                depth -= 1;
                if depth <= 0 {
                    return j + 1;
                }
            }
            ">>" if tokens[j].kind == TokenKind::Punct => {
                depth -= 2;
                if depth <= 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

/// Builds the global graph over every file model; `scope` bounds which
/// crates each caller can resolve into.
pub(crate) fn build(models: &[FileModel], scope: CrateScope) -> Graph {
    let mut fns = Vec::new();
    for (model_idx, model) in models.iter().enumerate() {
        for item in &model.fns {
            fns.push(GraphFn { item: item.clone(), model: model_idx });
        }
    }
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (idx, f) in fns.iter().enumerate() {
        by_name.entry(f.item.name.clone()).or_default().push(idx);
    }
    let mut graph = Graph { edges: vec![Vec::new(); fns.len()], fns, by_name, scope };

    for caller in 0..graph.fns.len() {
        let f = &graph.fns[caller];
        let Some(body) = f.item.body else { continue };
        let tokens = &models[f.model].tokens;
        let sites = call_sites(tokens, body, f.item.impl_type.as_deref());
        let mut seen = vec![false; graph.fns.len()];
        let mut edges = Vec::new();
        for site in sites {
            for callee in graph.resolve_site(&f.item, &site.path, site.method, site.args) {
                if !seen[callee] {
                    seen[callee] = true;
                    edges.push(Edge { callee, line: site.line });
                }
            }
        }
        graph.edges[caller] = edges;
    }
    graph
}

/// The crate segment of a qualified path (see `items::crate_of`).
fn crate_name(qual: &str) -> &str {
    qual.split("::").next().unwrap_or(qual)
}

/// Multi-segment call paths can carry module segments the item model
/// never sees (`sig::Signature::union` through a `use … as sig` or a
/// re-export), so leading segments may be dropped — but at least the
/// final two (`Type::name` / `mod::name`) must line up, otherwise
/// `other::union` would degrade to a bare-name match.
fn path_matches(qual: &str, path: &[String]) -> bool {
    (2..=path.len()).any(|k| suffix_matches(qual, &path[path.len() - k..]))
}

/// Do the final segments of `qual` equal `path`?
fn suffix_matches(qual: &str, path: &[String]) -> bool {
    let segments: Vec<&str> = qual.split("::").collect();
    if path.len() > segments.len() {
        return false;
    }
    segments[segments.len() - path.len()..].iter().zip(path).all(|(a, b)| *a == b)
}

impl Graph {
    /// Resolves one call site in `caller` to every function it may
    /// reach, within the caller's [`CrateScope`]: method calls reach
    /// every same-named method taking `args` arguments (any arity when
    /// unknown), bare calls every same-named free/associated fn,
    /// qualified calls everything the final two path segments line up
    /// with. Shared by the edge builder and the taint analyzer's
    /// per-call-site summary lookups.
    pub(crate) fn resolve_site(
        &self,
        caller: &FnItem,
        path: &[String],
        method: bool,
        args: Option<usize>,
    ) -> Vec<usize> {
        let Some(candidates) = path.last().and_then(|last| self.by_name.get(last.as_str())) else {
            return Vec::new();
        };
        let from = crate_name(&caller.qual);
        let mut resolved = Vec::new();
        for &callee in candidates {
            let target = &self.fns[callee].item;
            if !self.scope.allows(from, crate_name(&target.qual)) {
                continue;
            }
            let matches = if method {
                target.has_self && args.is_none_or(|n| n == target.params.len())
            } else if path.len() == 1 {
                // A bare call can reach free/associated fns only;
                // methods need a receiver or a qualified path.
                !target.has_self && suffix_matches(&target.qual, path)
            } else {
                path_matches(&target.qual, path)
            };
            if matches {
                resolved.push(callee);
            }
        }
        resolved
    }

    /// Index of the fn with exactly this qualified path, if unique.
    #[cfg(test)]
    pub(crate) fn find(&self, qual: &str) -> Option<usize> {
        self.fns.iter().position(|f| f.item.qual == qual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::items::parse_file;
    use crate::analysis::scan::{mask_source, test_line_mask};
    use crate::analysis::tokens::tokenize;

    fn models(files: &[(&str, &str)]) -> Vec<FileModel> {
        files
            .iter()
            .map(|(file, src)| {
                let masked = mask_source(src);
                let test_lines = test_line_mask(&masked);
                parse_file(file, tokenize(&masked), &test_lines, false)
            })
            .collect()
    }

    fn build_all(models: &[FileModel]) -> Graph {
        build(models, CrateScope::default())
    }

    fn edge_quals(graph: &Graph, caller: &str) -> Vec<String> {
        let idx = graph.find(caller).expect("caller exists");
        graph.edges[idx].iter().map(|e| graph.fns[e.callee].item.qual.clone()).collect()
    }

    #[test]
    fn bare_calls_resolve_within_and_across_files() {
        let graph = build_all(&models(&[
            ("crates/core/src/a.rs", "pub fn entry() { helper(); }\nfn helper() {}"),
            ("crates/util/src/b.rs", "pub fn helper() {}"),
        ]));
        let callees = edge_quals(&graph, "core::entry");
        assert!(callees.contains(&"core::helper".to_owned()));
        assert!(callees.contains(&"util::helper".to_owned()), "conservative cross-crate match");
    }

    #[test]
    fn qualified_calls_match_by_suffix() {
        let graph = build_all(&models(&[
            ("crates/core/src/a.rs", "pub fn entry() { sig::Signature::union(); other::union(); }"),
            (
                "crates/sethash/src/lib.rs",
                "impl Signature { pub fn union() {} }\npub fn union() {}",
            ),
        ]));
        let callees = edge_quals(&graph, "core::entry");
        assert!(callees.contains(&"sethash::Signature::union".to_owned()));
        // `other::union` does not suffix-match `sethash::union`.
        assert!(!callees.contains(&"sethash::union".to_owned()));
    }

    #[test]
    fn method_calls_resolve_to_methods_only() {
        let graph = build_all(&models(&[
            ("crates/core/src/a.rs", "pub fn entry(x: W) { x.poke(); poke(); }"),
            ("crates/util/src/b.rs", "impl W { pub fn poke(&self) {} }\npub fn poke() {}"),
        ]));
        let callees = edge_quals(&graph, "core::entry");
        assert!(callees.contains(&"util::W::poke".to_owned()));
        assert!(callees.contains(&"util::poke".to_owned()));
        // The bare `poke()` call must NOT resolve to the method.
        let idx = graph.find("core::entry").expect("entry");
        let method_edges = graph.edges[idx]
            .iter()
            .filter(|e| graph.fns[e.callee].item.qual == "util::W::poke")
            .count();
        assert_eq!(method_edges, 1);
    }

    #[test]
    fn self_calls_resolve_through_the_impl_type() {
        let graph = build_all(&models(&[(
            "crates/core/src/a.rs",
            "impl Cst { pub fn outer(&self) { Self::inner(); } fn inner() {} }",
        )]));
        let callees = edge_quals(&graph, "core::Cst::outer");
        assert_eq!(callees, ["core::Cst::inner"]);
    }

    #[test]
    fn macro_invocations_are_not_calls_but_their_args_are() {
        let graph = build_all(&models(&[(
            "crates/core/src/a.rs",
            "pub fn entry() { format!(\"{}\", helper()); } fn helper() {} fn format() {}",
        )]));
        let callees = edge_quals(&graph, "core::entry");
        assert_eq!(callees, ["core::helper"]);
    }

    #[test]
    fn turbofish_paths_still_resolve() {
        let graph = build_all(&models(&[(
            "crates/core/src/a.rs",
            "pub fn entry() { Signature::<u64>::empty(4); } impl Signature { pub fn empty(n: usize) {} }",
        )]));
        let callees = edge_quals(&graph, "core::entry");
        assert_eq!(callees, ["core::Signature::empty"]);
    }

    #[test]
    fn declarations_are_not_call_sites() {
        let graph = build_all(&models(&[(
            "crates/core/src/a.rs",
            "pub fn entry() { fn inner() {} inner(); }",
        )]));
        let callees = edge_quals(&graph, "core::entry");
        assert_eq!(callees, ["core::inner"]);
    }

    #[test]
    fn calls_resolve_only_into_the_callers_package_and_its_path_dependencies() {
        let root = std::env::temp_dir().join(format!("xtask-scope-{}", std::process::id()));
        let manifest = |dir: &str, text: &str| {
            std::fs::create_dir_all(root.join(dir)).expect("manifest dir");
            std::fs::write(root.join(dir).join("Cargo.toml"), text).expect("write manifest");
        };
        manifest(
            "crates/serve",
            "[package]\nname = \"twig-serve\"\n[dependencies]\ntwig-util.workspace = true\n\
             [workspace.dependencies]\nperfbench = { path = \"../../perfbench\" }\n",
        );
        manifest("crates/util", "[package]\nname = \"twig-util\"\n");
        manifest(
            "perfbench",
            "[package]\nname = \"perfbench\"\n[dependencies]\ntwig-serve = { path = \"../crates/serve\" }\n",
        );
        let models = models(&[
            ("crates/serve/src/http.rs", "pub fn json(r: R) { r.render(); helper(); }"),
            ("crates/util/src/lib.rs", "impl Hist { pub fn render(&self) {} }\npub fn helper() {}"),
            (
                "perfbench/src/metrics.rs",
                "impl Report { pub fn render(&self) {} }\npub fn helper() {}",
            ),
            ("perfbench/src/main.rs", "pub fn run(x: R) { x.render(); }"),
        ]);
        let graph = build(&models, CrateScope::load(&root, &models));
        std::fs::remove_dir_all(&root).ok();

        // serve reaches its dependency, never the package that depends on
        // it (a `[workspace.dependencies]` entry is no dependency).
        assert_eq!(edge_quals(&graph, "serve::json"), ["util::Hist::render", "util::helper"]);
        // perfbench is its own crate, and reaches into its path dependency
        // transitively only as far as its manifest names it.
        let mut from_bench = edge_quals(&graph, "perfbench::run");
        from_bench.sort();
        assert_eq!(from_bench, ["perfbench::Report::render"]);
    }

    #[test]
    fn method_calls_match_the_argument_count() {
        let graph = build_all(&models(&[
            (
                "crates/serve/src/a.rs",
                "pub fn three(s: S) { s.estimate(q, a, k); }\n\
                 pub fn one(s: S) { s.estimate(q); }\n\
                 pub fn trailing(s: S) { s.estimate(q, a, k,); }\n\
                 pub fn closure(s: S) { s.fold(0, |acc, x| acc + x); s.fold(0); }",
            ),
            (
                "crates/core/src/b.rs",
                "impl Cst { pub fn estimate(&self, q: Q, a: A, k: K) {} }\n\
                 impl Lore { pub fn estimate(&self, q: Q) {} }\n\
                 impl Acc { pub fn fold(&self, init: u32, (f, g): (F, G)) {} }",
            ),
        ]));
        assert_eq!(edge_quals(&graph, "serve::three"), ["core::Cst::estimate"]);
        assert_eq!(edge_quals(&graph, "serve::one"), ["core::Lore::estimate"]);
        assert_eq!(edge_quals(&graph, "serve::trailing"), ["core::Cst::estimate"]);
        // A closure's `|acc, x|` hides commas, so any arity matches; the
        // pattern parameter counts toward the callee's arity of 2.
        assert_eq!(edge_quals(&graph, "serve::closure"), ["core::Acc::fold"]);
        let model =
            &models(&[("crates/core/src/c.rs", "pub fn e(s: S) { s.a(); s.b(x, y,); }")])[0];
        let arities: Vec<Option<usize>> = call_sites(&model.tokens, (0, model.tokens.len()), None)
            .iter()
            .map(|s| s.args)
            .collect();
        assert_eq!(arities, [Some(0), Some(2)]);
    }
}
