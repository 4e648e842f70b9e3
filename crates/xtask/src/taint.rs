//! Untrusted-input taint dataflow (`cargo xtask taint`).
//!
//! Tracks values derived from taint *sources* — HTTP read buffers
//! (`.read*(` into a buffer), deserialized frames (parameters of
//! `Cst::from_bytes` / `Cst::read_from` / `Json::parse` / `Twig::parse`
//! / `DataTree::from_xml`), and CLI/env input (`fs::read*`, `env::*`) —
//! into *sinks* where an attacker-controlled length or offset becomes a
//! panic, wraparound, or unbounded allocation:
//!
//! - slice/array indexing with a tainted index expression,
//! - `+` / `*` / `<<` (and compound forms) on a tainted operand,
//! - `Vec::with_capacity` / `.reserve(..)` / `vec![_; n]` with a
//!   tainted size,
//! - `.copy_from_slice(..)` with a tainted operand.
//!
//! A flow is *not* reported when a recognized guard intervenes: a
//! `checked_*` / `saturating_*` / `try_into` / `try_from` / `.min(` /
//! `.clamp(` call anywhere in the producing expression makes its result
//! clean, and a comparison (`<`, `<=`, `==`, …) against a tainted
//! variable sanitizes that variable for the rest of the function (a
//! linear-scan approximation of "a dominating bounds check exists").
//! `debug_assert!` bodies are skipped entirely — they vanish in release
//! builds and must not count as guards.
//!
//! # Taint lattice
//!
//! A taint value is a `u64` bitset: bit 62 (`EXT`) means "derived from
//! external input", bits `0..62` mean "derived from parameter *i* of
//! the current function". The per-expression transfer function is a
//! *blind union*: the taint of an expression is the union of the taints
//! of every known variable appearing in it (plus `EXT` for source
//! calls). This deliberately over-approximates — `a.len() + pad` taints
//! the sum with everything `a` carries — because with no type
//! information an exact dataflow would mostly be wrong in the unsound
//! direction. Joins are unions, the lattice is finite, so everything
//! below terminates.
//!
//! # Interprocedural summaries
//!
//! Each function gets a summary: `sink_params` (bitset of parameters
//! that flow into some sink inside it, transitively) and `ret_ext`
//! (the body reads external input and returns a value). Summaries are
//! computed to fixpoint over the call graph — monotone bitsets over a
//! finite lattice — so taint crosses helpers like `serialize::read_u32`:
//! the helper's `values[index]` marks param 1, and a caller passing an
//! `EXT`-tainted argument in that position reports at the call site,
//! with the helper's sink chain as the witness.
//!
//! Like lint and flow, findings burn down against `taint-baseline.tsv`
//! (keyed on normalized line content, not line numbers) and the pass
//! exits non-zero only on *new* findings. `--self-test` runs the
//! analyzer over `crates/xtask/fixtures/taint/` instead of the
//! workspace and fails unless every `// FLAG: rule` annotation is
//! flagged and every `// CLEAN` line is not.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use crate::analysis;
use crate::analysis::callgraph::{self, CrateScope, Graph};
use crate::analysis::items::{parse_file, FileModel, FnItem};
use crate::analysis::scan::{mask_source, test_line_mask};
use crate::analysis::tokens::{tokenize, Token, TokenKind};
use crate::baseline;
use crate::reach::{self, FlowFinding};
use crate::rules::Violation;

pub(crate) const TAINT_BASELINE_FILE: &str = "taint-baseline.tsv";

/// Bit 62: tainted by external input (bits 0..62 are parameter bits).
const EXT: u64 = 1 << 62;

/// Functions whose *parameters* are untrusted input. Matched as
/// `::`-aligned suffixes of the qualified path, so the fixture tree's
/// reconstructions (`xtask::Cst::from_bytes`) match the same rules as
/// the real entry points (`core::Cst::from_bytes`).
const ENTRY_SUFFIXES: &[&str] =
    &["Cst::from_bytes", "Cst::read_from", "Twig::parse", "Json::parse", "DataTree::from_xml"];

/// Path calls whose return value is external input.
const SOURCE_PATHS: &[&str] =
    &["fs::read", "fs::read_to_string", "env::var", "env::var_os", "env::args"];

/// Reader methods: `stream.read_exact(&mut buf)` taints `buf` (and the
/// result) — sockets, files and already-tainted byte cursors all
/// produce attacker-controlled bytes.
const READ_METHODS: &[&str] = &["read", "read_exact", "read_to_end", "read_to_string", "read_line"];

// Guard (sanitizer) recognition is shared with the race pass's
// unsafe-contract audit; see `analysis::guards`.
use crate::analysis::guards::is_guard_ident;

/// `::`-aligned suffix match: `core::Cst::from_bytes` matches
/// `Cst::from_bytes` but `MyCst::from_bytes` does not.
fn qual_suffix(qual: &str, suffix: &str) -> bool {
    qual == suffix || (qual.ends_with(suffix) && qual[..qual.len() - suffix.len()].ends_with("::"))
}

/// How a parameter reaches a sink, for witness chains at call sites.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SinkChain {
    rule: &'static str,
    chain: Vec<String>,
}

/// Per-function taint summary (the interprocedural fixpoint state).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Summary {
    /// Body reads external input and the fn returns a value.
    ret_ext: bool,
    /// Parameters (by bit) that flow into a sink, transitively.
    sink_params: u64,
    /// Witness chain per sink parameter (first discovered wins; chains
    /// never mutate once inserted, keeping the fixpoint monotone).
    repr: BTreeMap<u32, SinkChain>,
}

/// Shared analysis context: models, graph, resolution index, original
/// source lines (for finding content), float-evidence lines (the `+`/`*`
/// sinks skip estimator float math, mirroring flow's div/rem rule).
pub(crate) struct Ctx<'a> {
    pub(crate) models: &'a [FileModel],
    pub(crate) graph: &'a Graph,
    float_lines: Vec<BTreeSet<usize>>,
    originals: BTreeMap<String, Vec<String>>,
    /// Self-test mode: report findings in test-path files too.
    report_all: bool,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(
        root: &Path,
        models: &'a [FileModel],
        graph: &'a Graph,
        report_all: bool,
    ) -> Self {
        let float_lines = models.iter().map(|m| reach::float_hint_lines(&m.tokens)).collect();
        let mut originals = BTreeMap::new();
        for model in models {
            if let Ok(src) = fs::read_to_string(root.join(&model.file)) {
                originals.insert(model.file.clone(), src.lines().map(str::to_owned).collect());
            }
        }
        Ctx { models, graph, float_lines, originals, report_all }
    }

    fn line_content(&self, file: &str, line: usize) -> String {
        self.originals
            .get(file)
            .and_then(|lines| lines.get(line.saturating_sub(1)))
            .map(|l| l.trim().to_owned())
            .unwrap_or_default()
    }
}

/// One function's intraprocedural pass: a linear statement walk over
/// the body tokens, threading a variable→taint map.
struct Walker<'a> {
    ctx: &'a Ctx<'a>,
    summaries: &'a [Summary],
    tokens: &'a [Token],
    item: &'a FnItem,
    float_lines: &'a BTreeSet<usize>,
    is_entry: bool,
    param_mask: u64,
    state: BTreeMap<String, u64>,
    out: Summary,
    findings: Vec<FlowFinding>,
    /// Final pass: collect findings (fixpoint rounds only compute
    /// summaries, so nothing is double-reported).
    emit: bool,
    saw_ext_source: bool,
    reported: BTreeSet<(usize, &'static str)>,
}

fn run_one(
    ctx: &Ctx,
    summaries: &[Summary],
    idx: usize,
    emit: bool,
) -> (Summary, Vec<FlowFinding>) {
    let gf = &ctx.graph.fns[idx];
    let item = &gf.item;
    let walker = Walker {
        ctx,
        summaries,
        tokens: &ctx.models[gf.model].tokens,
        item,
        float_lines: &ctx.float_lines[gf.model],
        is_entry: ENTRY_SUFFIXES.iter().any(|s| qual_suffix(&item.qual, s)),
        param_mask: (1u64 << item.params.len().min(62)) - 1,
        state: BTreeMap::new(),
        out: Summary::default(),
        findings: Vec::new(),
        emit,
        saw_ext_source: false,
        reported: BTreeSet::new(),
    };
    walker.run()
}

/// Runs the summary fixpoint, then one reporting pass.
pub(crate) fn analyze(ctx: &Ctx) -> Vec<FlowFinding> {
    let n = ctx.graph.fns.len();
    let mut summaries = vec![Summary::default(); n];
    // Monotone bitsets over a finite lattice: the loop terminates; the
    // round cap only bounds pathological call-chain depth.
    for _round in 0..20 {
        let mut changed = false;
        for idx in 0..n {
            let (summary, _) = run_one(ctx, &summaries, idx, false);
            if summary != summaries[idx] {
                summaries[idx] = summary;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut findings = Vec::new();
    for idx in 0..n {
        let (_, mut found) = run_one(ctx, &summaries, idx, true);
        findings.append(&mut found);
    }
    findings
}

impl Walker<'_> {
    fn run(mut self) -> (Summary, Vec<FlowFinding>) {
        let Some((start, end)) = self.item.body else {
            return (self.out, self.findings);
        };
        for (i, param) in self.item.params.iter().take(62).enumerate() {
            let mut bits = 1u64 << i;
            if self.is_entry {
                bits |= EXT;
            }
            self.state.insert(param.clone(), bits);
        }
        self.analyze_block(start, end.min(self.tokens.len()));
        self.out.ret_ext = self.saw_ext_source && !self.item.ret.is_empty();
        (self.out, self.findings)
    }

    // ---- statement segmentation -------------------------------------

    fn analyze_block(&mut self, start: usize, end: usize) {
        let mut i = start;
        while i < end {
            let t = &self.tokens[i];
            let next = match (t.kind, t.text.as_str()) {
                (TokenKind::Ident, "let") => self.handle_let(i, end),
                (TokenKind::Ident, "for") => self.handle_for(i, end),
                (TokenKind::Ident, "match") => self.handle_match(i, end),
                (TokenKind::Ident, "if" | "while") => {
                    if self.tokens.get(i + 1).is_some_and(|n| n.is_ident("let")) {
                        i + 1 // the `let` arm binds the scrutinee
                    } else {
                        let stop = self.find_stop(i + 1, end, true);
                        self.walk_range(i + 1, stop, true);
                        stop
                    }
                }
                (TokenKind::Ident, "loop" | "else" | "unsafe" | "move") => i + 1,
                (TokenKind::Punct, "{" | "}" | ";" | "," | "=>" | "|") => i + 1,
                _ => self.handle_statement(i, end),
            };
            i = next.max(i + 1);
        }
    }

    /// `let` bindings, including `if let` / `while let` scrutinees.
    /// Shadowing rebinding replaces the old taint — `let n = clamp(n)`
    /// re-deriving a value through a guard genuinely cleans it.
    fn handle_let(&mut self, i: usize, end: usize) -> usize {
        let if_ctx =
            i > 0 && (self.tokens[i - 1].is_ident("if") || self.tokens[i - 1].is_ident("while"));
        let mut binders = Vec::new();
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut in_type = false;
        while j < end {
            let t = &self.tokens[j];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" | ">" => depth -= 1,
                    ":" if depth <= 0 => in_type = true,
                    "=" | ";" if depth <= 0 => break,
                    _ => {}
                }
            } else if !in_type && (self.is_binder(j) || (depth <= 0 && self.is_ascribed_binder(j)))
            {
                binders.push(self.tokens[j].text.clone());
            }
            j += 1;
        }
        if j < end && self.tokens[j].is_punct("=") {
            let stop = self.find_stop(j + 1, end, if_ctx);
            let val = self.walk_range(j + 1, stop, true);
            self.bind(&binders, val);
            stop
        } else {
            // `let mut x;` — fresh (clean) shadow.
            self.bind(&binders, 0);
            j
        }
    }

    fn handle_for(&mut self, i: usize, end: usize) -> usize {
        let mut binders = Vec::new();
        let mut j = i + 1;
        while j < end && !self.tokens[j].is_ident("in") {
            if self.is_binder(j) {
                binders.push(self.tokens[j].text.clone());
            }
            j += 1;
        }
        let stop = self.find_stop(j + 1, end, true);
        let val = self.walk_range(j + 1, stop, true);
        self.bind(&binders, val);
        stop
    }

    /// `match scrutinee { pat => …, … }`: arm binders inherit the
    /// scrutinee's taint (`Ok(length) => length` keeps `length` hot).
    /// The arm bodies are walked by the enclosing statement loop.
    fn handle_match(&mut self, i: usize, end: usize) -> usize {
        let open = self.find_stop(i + 1, end, true);
        let val = self.walk_range(i + 1, open, true);
        if val != 0 && open < end && self.tokens[open].is_punct("{") {
            let close = self.match_delim(open, "{", "}");
            let mut depth = 0i32;
            for k in open..close.min(end) {
                match (self.tokens[k].kind, self.tokens[k].text.as_str()) {
                    (TokenKind::Punct, "{" | "(" | "[") => depth += 1,
                    (TokenKind::Punct, "}" | ")" | "]") => depth -= 1,
                    (TokenKind::Punct, "=>") if depth == 1 => {
                        let binders = self.arm_binders(open, k);
                        self.bind(&binders, val);
                    }
                    _ => {}
                }
            }
        }
        open
    }

    /// Walks backwards from an arm's `=>` collecting its pattern
    /// binders (stops at the previous arm boundary).
    fn arm_binders(&self, open: usize, arrow: usize) -> Vec<String> {
        let mut binders = Vec::new();
        let mut depth = 0i32;
        let mut p = arrow;
        while p > open + 1 {
            p -= 1;
            let t = &self.tokens[p];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    ")" | "]" => depth += 1,
                    "(" | "[" => depth -= 1,
                    "," | "{" | "}" | ";" if depth <= 0 => break,
                    _ => {}
                }
            } else if self.is_binder(p) {
                binders.push(t.text.clone());
            }
        }
        binders
    }

    /// Assignments (plain, compound, deref) and bare expression
    /// statements. Compound `+=` / `*=` / `<<=` are arithmetic sinks
    /// themselves when either side is tainted.
    fn handle_statement(&mut self, i: usize, end: usize) -> usize {
        let mut k = i;
        if self.tokens[k].is_punct("*") {
            k += 1;
        }
        if k + 1 < end && self.tokens[k].kind == TokenKind::Ident {
            let op = &self.tokens[k + 1];
            if op.kind == TokenKind::Punct {
                let is_assign = op.text == "=";
                let compound = matches!(
                    op.text.as_str(),
                    "+=" | "-=" | "*=" | "/=" | "%=" | "<<=" | ">>=" | "&=" | "|=" | "^="
                );
                if is_assign || compound {
                    let name = self.tokens[k].text.clone();
                    let line = op.line;
                    let arith = matches!(op.text.as_str(), "+=" | "*=" | "<<=");
                    let float_exempt = op.text != "<<=" && self.float_lines.contains(&line);
                    let stop = self.find_stop(k + 2, end, false);
                    let val = self.walk_range(k + 2, stop, true);
                    let old = self.state.get(&name).copied().unwrap_or(0);
                    if arith && (old | val) != 0 && !float_exempt {
                        self.sink_hit(
                            "taint-arith",
                            line,
                            old | val,
                            format!("tainted `{}` arithmetic", op.text),
                            true,
                        );
                    }
                    let merged = if is_assign { val } else { old | val };
                    self.bind(&[name], merged);
                    return stop;
                }
            }
        }
        let stop = self.find_stop(i, end, true);
        self.walk_range(i, stop, true);
        stop
    }

    fn bind(&mut self, names: &[String], val: u64) {
        for name in names {
            if val != 0 {
                self.state.insert(name.clone(), val);
            } else {
                self.state.remove(name);
            }
        }
    }

    /// Pattern-position identifier that introduces a binding: lowercase,
    /// not a keyword, not a path segment, not a struct-pattern field key.
    fn is_binder(&self, idx: usize) -> bool {
        let t = &self.tokens[idx];
        t.kind == TokenKind::Ident
            && !matches!(t.text.as_str(), "mut" | "ref" | "box" | "_" | "if" | "in")
            && t.text.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_')
            && !(idx > 0 && self.tokens[idx - 1].is_punct("::"))
            && !self.tokens.get(idx + 1).is_some_and(|n| n.is_punct("::") || n.is_punct(":"))
    }

    /// `let x: T = …` — at pattern depth 0 an identifier followed by a
    /// single `:` is a type-ascribed binder, not a struct-pattern field
    /// key (field keys only occur inside `{ … }`, at depth > 0).
    fn is_ascribed_binder(&self, idx: usize) -> bool {
        let t = &self.tokens[idx];
        t.kind == TokenKind::Ident
            && !matches!(t.text.as_str(), "mut" | "ref" | "box" | "_" | "if" | "in")
            && t.text.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_')
            && !(idx > 0 && self.tokens[idx - 1].is_punct("::"))
            && self.tokens.get(idx + 1).is_some_and(|n| n.is_punct(":"))
    }

    /// First `;` at depth 0 (or `{` when `stop_at_brace`, or the
    /// closing delimiter of the enclosing block), token index.
    fn find_stop(&self, from: usize, end: usize, stop_at_brace: bool) -> usize {
        let mut depth = 0i32;
        let mut j = from;
        while j < end {
            let t = &self.tokens[j];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => {
                        depth -= 1;
                        if depth < 0 {
                            return j;
                        }
                    }
                    "{" => {
                        if stop_at_brace && depth == 0 {
                            return j;
                        }
                        depth += 1;
                    }
                    "}" => {
                        depth -= 1;
                        if depth < 0 {
                            return j;
                        }
                    }
                    ";" if depth == 0 => return j,
                    _ => {}
                }
            }
            j += 1;
        }
        end
    }

    /// Index of the token closing the delimiter opened at `open`.
    fn match_delim(&self, open: usize, o: &str, c: &str) -> usize {
        let mut depth = 0i32;
        let mut j = open;
        while j < self.tokens.len() {
            if self.tokens[j].is_punct(o) {
                depth += 1;
            } else if self.tokens[j].is_punct(c) {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        self.tokens.len().saturating_sub(1)
    }

    // ---- expression walk --------------------------------------------

    /// Linear walk of `tokens[start..end)`: unions variable taints into
    /// the result, detects sinks (emitted only when `emit_here` — arg
    /// sub-evaluations pass `false` so the enclosing linear walk, which
    /// also covers those tokens, reports each sink exactly once),
    /// applies guards and comparison sanitization, and consults callee
    /// summaries. Returns the expression's taint (0 if guarded).
    fn walk_range(&mut self, start: usize, end: usize, emit_here: bool) -> u64 {
        let mut acc = 0u64;
        let mut guarded = false;
        let mut i = start;
        while i < end {
            let t = &self.tokens[i];
            match (t.kind, t.text.as_str()) {
                (TokenKind::Ident, "vec")
                    if self.tokens.get(i + 1).is_some_and(|n| n.is_punct("!")) =>
                {
                    // `vec![elem; len]`: the length is an allocation size.
                    if self.tokens.get(i + 2).is_some_and(|n| n.is_punct("[")) {
                        let close = self.match_delim(i + 2, "[", "]");
                        let mut depth = 0i32;
                        for k in i + 3..close {
                            match self.tokens[k].text.as_str() {
                                "(" | "[" | "{" if self.tokens[k].kind == TokenKind::Punct => {
                                    depth += 1
                                }
                                ")" | "]" | "}" if self.tokens[k].kind == TokenKind::Punct => {
                                    depth -= 1
                                }
                                ";" if depth == 0 && self.tokens[k].kind == TokenKind::Punct => {
                                    let len_taint = self.walk_range(k + 1, close, false);
                                    if len_taint != 0 {
                                        self.sink_hit(
                                            "taint-alloc",
                                            t.line,
                                            len_taint,
                                            "tainted `vec![_; n]` length".to_owned(),
                                            emit_here,
                                        );
                                    }
                                    break;
                                }
                                _ => {}
                            }
                        }
                    }
                    i += 2;
                }
                (TokenKind::Ident, name) if name.starts_with("debug_assert") => {
                    // Compiled out in release: neither a sink nor a guard.
                    if self.tokens.get(i + 1).is_some_and(|n| n.is_punct("!"))
                        && self.tokens.get(i + 2).is_some_and(|n| n.is_punct("("))
                    {
                        i = self.match_delim(i + 2, "(", ")") + 1;
                    } else {
                        i += 1;
                    }
                }
                (TokenKind::Ident, name) => {
                    let prev_dot = i > 0 && self.tokens[i - 1].is_punct(".");
                    let prev_fn = i > 0 && self.tokens[i - 1].is_ident("fn");
                    if !prev_dot && !prev_fn && !NON_CALL_IDENTS.contains(&name) {
                        // Collect a path (`a::b::name`, turbofish skipped).
                        let mut path = vec![t.text.clone()];
                        let mut j = i + 1;
                        loop {
                            if self.at_punct(j, "::") {
                                if self.at_punct(j + 1, "<") {
                                    j = self.skip_angles(j + 1);
                                    continue;
                                }
                                if self
                                    .tokens
                                    .get(j + 1)
                                    .is_some_and(|n| n.kind == TokenKind::Ident)
                                {
                                    path.push(self.tokens[j + 1].text.clone());
                                    j += 2;
                                    continue;
                                }
                            }
                            break;
                        }
                        if self.at_punct(j, "(") {
                            if path.last().is_some_and(|l| is_guard_ident(l)) {
                                guarded = true;
                            }
                            if path[0] == "Self" {
                                match self.item.impl_type.as_deref() {
                                    Some(ty) => path[0] = ty.to_owned(),
                                    None => {
                                        path.remove(0);
                                    }
                                }
                            }
                            acc |= self.handle_call(&path, false, t.line, None, j, emit_here);
                            i = j;
                            continue;
                        }
                        if self.at_punct(j, "!") {
                            // Macro: not a call; its args are walked normally.
                            i = j;
                            continue;
                        }
                    }
                    if !prev_dot {
                        if let Some(&bits) = self.state.get(name) {
                            acc |= bits;
                        }
                    }
                    i += 1;
                }
                (TokenKind::Punct, ".") => {
                    if let Some(next) = self.tokens.get(i + 1) {
                        if next.kind == TokenKind::Ident {
                            let mut j = i + 2;
                            if self.at_punct(j, "::") && self.at_punct(j + 1, "<") {
                                j = self.skip_angles(j + 1);
                            }
                            if self.at_punct(j, "(") {
                                if is_guard_ident(&next.text) {
                                    guarded = true;
                                }
                                let path = [next.text.clone()];
                                acc |=
                                    self.handle_call(&path, true, next.line, Some(i), j, emit_here);
                                i = j;
                                continue;
                            }
                        }
                    }
                    i += 1;
                }
                (TokenKind::Punct, "[") if i > 0 => {
                    let prev = &self.tokens[i - 1];
                    let indexes = match prev.kind {
                        TokenKind::Ident => !reach::NON_INDEX_PREV.contains(&prev.text.as_str()),
                        TokenKind::Punct => prev.text == ")" || prev.text == "]",
                        _ => false,
                    };
                    if indexes {
                        let close = self.match_delim(i, "[", "]");
                        let idx_taint = self.walk_range(i + 1, close, false);
                        if idx_taint != 0 {
                            self.sink_hit(
                                "taint-index",
                                t.line,
                                idx_taint,
                                "tainted slice/array index".to_owned(),
                                emit_here,
                            );
                        }
                    }
                    i += 1;
                }
                (TokenKind::Punct, "+" | "*") => {
                    let binary = i > 0
                        && match self.tokens[i - 1].kind {
                            TokenKind::Ident => {
                                !reach::NON_INDEX_PREV.contains(&self.tokens[i - 1].text.as_str())
                            }
                            TokenKind::Number => true,
                            TokenKind::Punct => {
                                self.tokens[i - 1].text == ")" || self.tokens[i - 1].text == "]"
                            }
                            _ => false,
                        };
                    if binary && !self.float_lines.contains(&t.line) {
                        let bits = self.window_taint(i, start, end);
                        if bits != 0 {
                            self.sink_hit(
                                "taint-arith",
                                t.line,
                                bits,
                                format!("tainted `{}` arithmetic", t.text),
                                emit_here,
                            );
                        }
                    }
                    i += 1;
                }
                (TokenKind::Punct, "<<") => {
                    let bits = self.window_taint(i, start, end);
                    if bits != 0 {
                        self.sink_hit(
                            "taint-arith",
                            t.line,
                            bits,
                            "tainted `<<` shift".to_owned(),
                            emit_here,
                        );
                    }
                    i += 1;
                }
                (TokenKind::Punct, "<" | ">" | "<=" | ">=" | "==" | "!=") => {
                    self.sanitize_window(i, start, end);
                    i += 1;
                }
                _ => i += 1,
            }
        }
        if guarded {
            0
        } else {
            acc
        }
    }

    /// Union of tainted identifiers adjacent to an operator (±4 tokens,
    /// clipped at expression boundaries).
    fn window_taint(&self, i: usize, start: usize, end: usize) -> u64 {
        let mut bits = 0u64;
        let mut j = i;
        let lo = start.max(i.saturating_sub(4));
        while j > lo {
            j -= 1;
            let t = &self.tokens[j];
            if t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "," | "{" | "}") {
                break;
            }
            if t.kind == TokenKind::Ident {
                if let Some(&b) = self.state.get(&t.text) {
                    bits |= b;
                }
            }
        }
        let hi = end.min(i + 5);
        for t in &self.tokens[(i + 1).min(hi)..hi] {
            if t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "," | "{" | "}") {
                break;
            }
            if t.kind == TokenKind::Ident {
                if let Some(&b) = self.state.get(&t.text) {
                    bits |= b;
                }
            }
        }
        bits
    }

    /// A comparison sanitizes adjacent tainted variables — but not a
    /// variable that is merely *derived from* (`buffer.len() < 4` must
    /// not clean `buffer` itself, only values compared directly).
    fn sanitize_window(&mut self, i: usize, start: usize, end: usize) {
        let lo = start.max(i.saturating_sub(3));
        let hi = end.min(i + 4);
        for j in lo..hi {
            if j == i {
                continue;
            }
            let t = &self.tokens[j];
            if t.kind != TokenKind::Ident || !self.state.contains_key(&t.text) {
                continue;
            }
            let derived = self
                .tokens
                .get(j + 1)
                .is_some_and(|n| n.is_punct(".") || n.is_punct("(") || n.is_punct("["));
            if !derived {
                self.state.remove(&t.text.clone());
            }
        }
    }

    /// One call site: syntactic sinks by callee name, source detection,
    /// summary-carried sinks, `&mut` out-parameter tainting. Returns
    /// the call's contribution to the enclosing expression's taint.
    fn handle_call(
        &mut self,
        path: &[String],
        method: bool,
        line: usize,
        dot_idx: Option<usize>,
        open: usize,
        emit_here: bool,
    ) -> u64 {
        let close = self.match_delim(open, "(", ")");
        let rcv = dot_idx.map_or(0, |d| self.back_union(d));
        let args = self.split_args(open, close);
        let arg_taints: Vec<u64> =
            args.iter().map(|&(s, e)| self.walk_range(s, e, false)).collect();
        let all_args = arg_taints.iter().fold(0u64, |a, &b| a | b);
        let last = path.last().map(String::as_str).unwrap_or("");

        match last {
            "with_capacity" | "reserve" | "reserve_exact" | "resize" => {
                let size = arg_taints.first().copied().unwrap_or(0);
                if size != 0 {
                    self.sink_hit(
                        "taint-alloc",
                        line,
                        size,
                        format!("tainted allocation size in `{last}`"),
                        emit_here,
                    );
                }
            }
            "copy_from_slice" => {
                let bits = all_args | rcv;
                if bits != 0 {
                    self.sink_hit(
                        "taint-copy",
                        line,
                        bits,
                        "tainted operand reaches `copy_from_slice`".to_owned(),
                        emit_here,
                    );
                }
            }
            _ => {}
        }

        let mut ext = 0u64;
        let source = if method {
            // Reader methods always take a destination buffer;
            // requiring an argument keeps `RwLock::read()` (and other
            // zero-arg `read` homonyms) from counting as input sources.
            READ_METHODS.contains(&last) && !args.is_empty()
        } else {
            // Entry points count at the call site too: the value
            // `Cst::from_bytes(..)` returns is attacker-shaped data,
            // not just its `bytes` argument.
            let joined = path.join("::");
            SOURCE_PATHS.iter().any(|s| {
                let segs: Vec<&str> = s.split("::").collect();
                path.len() >= segs.len()
                    && path[path.len() - segs.len()..]
                        .iter()
                        .map(String::as_str)
                        .eq(segs.iter().copied())
            }) || ENTRY_SUFFIXES.iter().any(|s| qual_suffix(&joined, s))
        };
        if source {
            ext |= EXT;
            self.saw_ext_source = true;
        }

        let arity = callgraph::arg_count(self.tokens, open);
        for callee in self.ctx.graph.resolve_site(self.item, path, method, arity) {
            let summ = &self.summaries[callee];
            if summ.ret_ext {
                ext |= EXT;
            }
            if summ.sink_params == 0 {
                continue;
            }
            for (j, &at) in arg_taints.iter().enumerate() {
                if at == 0 || j >= 62 || summ.sink_params & (1 << j) == 0 {
                    continue;
                }
                let chain = summ.repr.get(&(j as u32));
                let rule = chain.map_or("taint-index", |c| c.rule);
                let mut full = vec![format!(
                    "{} ({}:{}) passes tainted arg {} into",
                    self.item.qual,
                    self.item.file,
                    line,
                    j + 1
                )];
                if let Some(c) = chain {
                    full.extend(c.chain.iter().cloned());
                }
                if at & EXT != 0 && emit_here {
                    self.emit_finding(rule, line, full.clone());
                }
                let pbits = at & self.param_mask;
                if pbits != 0 {
                    self.out.sink_params |= pbits;
                    for b in 0..62u32 {
                        if pbits & (1 << b) != 0 {
                            self.out
                                .repr
                                .entry(b)
                                .or_insert_with(|| SinkChain { rule, chain: full.clone() });
                        }
                    }
                }
            }
        }

        // `r.read_exact(&mut buf)` and friends write external or
        // receiver-derived bytes into their out-parameters.
        let carry = rcv | all_args | ext;
        if carry != 0 {
            let mut k = open;
            while k + 2 < close {
                if self.tokens[k].is_punct("&")
                    && self.tokens[k + 1].is_ident("mut")
                    && self.tokens[k + 2].kind == TokenKind::Ident
                {
                    let name = self.tokens[k + 2].text.clone();
                    *self.state.entry(name).or_insert(0) |= carry;
                }
                k += 1;
            }
        }
        ext
    }

    /// Receiver taint: tainted identifiers in the short chain before a
    /// method's `.` (stops at statement/argument boundaries).
    fn back_union(&self, dot: usize) -> u64 {
        let mut bits = 0u64;
        let mut j = dot;
        let lo = dot.saturating_sub(6);
        while j > lo {
            j -= 1;
            let t = &self.tokens[j];
            if t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "," | "{" | "}" | "=")
            {
                break;
            }
            if t.kind == TokenKind::Ident {
                if let Some(&b) = self.state.get(&t.text) {
                    bits |= b;
                }
            }
        }
        bits
    }

    /// Top-level comma split of the argument tokens in `(open..close)`.
    fn split_args(&self, open: usize, close: usize) -> Vec<(usize, usize)> {
        let mut args = Vec::new();
        let mut depth = 0i32;
        let mut arg_start = open + 1;
        for j in open + 1..close {
            let t = &self.tokens[j];
            if t.kind != TokenKind::Punct {
                continue;
            }
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => {
                    args.push((arg_start, j));
                    arg_start = j + 1;
                }
                _ => {}
            }
        }
        if arg_start < close {
            args.push((arg_start, close));
        }
        args
    }

    fn at_punct(&self, i: usize, punct: &str) -> bool {
        self.tokens.get(i).is_some_and(|t| t.is_punct(punct))
    }

    fn skip_angles(&self, i: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < self.tokens.len() {
            match self.tokens[j].text.as_str() {
                "<" if self.tokens[j].kind == TokenKind::Punct => depth += 1,
                "<<" if self.tokens[j].kind == TokenKind::Punct => depth += 2,
                ">" if self.tokens[j].kind == TokenKind::Punct => {
                    depth -= 1;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                ">>" if self.tokens[j].kind == TokenKind::Punct => {
                    depth -= 2;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.tokens.len()
    }

    // ---- sinks ------------------------------------------------------

    /// Records a sink hit: EXT taint becomes a finding (final pass,
    /// in-scope files only); parameter bits feed the summary.
    fn sink_hit(
        &mut self,
        rule: &'static str,
        line: usize,
        bits: u64,
        what: String,
        emit_here: bool,
    ) {
        if bits & EXT != 0 && emit_here {
            let mut witness =
                vec![format!("{} ({}:{}): {}", self.item.qual, self.item.file, line, what)];
            if self.is_entry {
                witness.push(format!(
                    "parameters of {} carry untrusted input (taint entry point)",
                    self.item.qual
                ));
            } else {
                witness.push("tainted by an external read in this function".to_owned());
            }
            self.emit_finding(rule, line, witness);
        }
        let pbits = bits & self.param_mask;
        if pbits != 0 {
            self.out.sink_params |= pbits;
            for b in 0..62u32 {
                if pbits & (1 << b) != 0 {
                    self.out.repr.entry(b).or_insert_with(|| SinkChain {
                        rule,
                        chain: vec![format!(
                            "{} ({}:{}) sinks: {}",
                            self.item.qual, self.item.file, line, what
                        )],
                    });
                }
            }
        }
    }

    fn emit_finding(&mut self, rule: &'static str, line: usize, witness: Vec<String>) {
        if !self.emit {
            return;
        }
        if !self.ctx.report_all && self.item.in_test {
            return;
        }
        if !self.reported.insert((line, rule)) {
            return;
        }
        self.findings.push(FlowFinding {
            violation: Violation {
                rule,
                file: self.item.file.clone(),
                line,
                content: self.ctx.line_content(&self.item.file, line),
            },
            witness,
        });
    }
}

/// Keywords that look like call names but are not (shared shape with
/// the call-graph extractor; `vec`/`debug_assert` handled earlier).
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "let", "else", "move", "in", "as", "break",
    "continue", "where", "unsafe", "ref", "mut", "box", "dyn", "impl", "fn", "use", "pub", "mod",
    "const", "static", "type", "enum", "struct", "trait", "true", "false", "super", "crate",
];

// ---- task entry -----------------------------------------------------

pub(crate) fn taint_task(args: &[String]) -> ExitCode {
    let started = std::time::Instant::now();
    let mut rest = Vec::new();
    let mut self_test = false;
    for arg in args {
        if arg == "--self-test" {
            self_test = true;
        } else {
            rest.push(arg.clone());
        }
    }
    let crate::PassArgs { json, update, baseline_path, root } = match crate::parse_pass_args(&rest)
    {
        Ok(parsed) => parsed,
        Err(message) => return crate::usage_error(&message),
    };
    let root = root.unwrap_or_else(crate::workspace_root);
    if self_test {
        return run_self_test(&root);
    }
    let baseline_path = baseline_path.unwrap_or_else(|| root.join(TAINT_BASELINE_FILE));

    let files = analysis::workspace_files(&root);
    let models = analysis::build_models(&root, &files);
    let graph = callgraph::build(&models, CrateScope::load(&root, &models));
    let ctx = Ctx::new(&root, &models, &graph, false);
    let mut findings = analyze(&ctx);
    findings.extend(crate::hotalloc::analyze(&ctx));
    findings.sort_by(|a, b| {
        (&a.violation.file, a.violation.line, a.violation.rule).cmp(&(
            &b.violation.file,
            b.violation.line,
            b.violation.rule,
        ))
    });

    if update {
        let violations: Vec<Violation> = findings.iter().map(|f| f.violation.clone()).collect();
        let rendered = baseline::render_titled(
            "twig-taint",
            "cargo xtask taint --update-baseline",
            &violations,
        );
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
        println!("{}", crate::flow_json_report("twig-taint", scanned, &old, &fresh, elapsed_ms));
    } else {
        crate::flow_human_report("twig-taint", scanned, &old, &fresh, elapsed_ms);
    }
    if fresh.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---- fixture self-test ----------------------------------------------

/// Runs both passes over `crates/xtask/fixtures/taint/` and checks the
/// annotations: every `// FLAG: rule[,rule]` line must produce each
/// named finding on that exact line; `// CLEAN` lines must produce
/// none. Exits non-zero on any miss or false positive.
fn run_self_test(root: &Path) -> ExitCode {
    let fixture_dir = root.join("crates/xtask/fixtures/taint");
    let mut files = Vec::new();
    analysis::collect_rs_files(root, &fixture_dir, &mut files);
    files.sort();
    if files.is_empty() {
        eprintln!("error: no fixtures under {}", fixture_dir.display());
        return ExitCode::FAILURE;
    }

    // Fixture files are under crates/xtask (a test path), so build the
    // models with the test flag forced off: the self-test must exercise
    // the same reporting rules production code gets.
    let mut models = Vec::new();
    let mut sources = BTreeMap::new();
    for file in &files {
        match fs::read_to_string(root.join(file)) {
            Ok(src) => {
                let masked = mask_source(&src);
                let test_lines = test_line_mask(&masked);
                models.push(parse_file(file, tokenize(&masked), &test_lines, false));
                sources.insert(file.clone(), src);
            }
            Err(err) => {
                eprintln!("error: cannot read {file}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    let graph = callgraph::build(&models, CrateScope::load(root, &models));
    let ctx = Ctx::new(root, &models, &graph, true);
    let mut findings = analyze(&ctx);
    findings.extend(crate::hotalloc::analyze(&ctx));

    let mut failures = 0usize;
    let mut checks = 0usize;
    for file in &files {
        let Some(src) = sources.get(file) else { continue };
        for (idx, text) in src.lines().enumerate() {
            let line = idx + 1;
            if let Some(pos) = text.find("// FLAG:") {
                for rule in text[pos + "// FLAG:".len()..].split(',') {
                    let rule = rule.trim();
                    checks += 1;
                    let hit = findings.iter().any(|f| {
                        f.violation.rule == rule
                            && f.violation.file == *file
                            && f.violation.line == line
                    });
                    if hit {
                        println!("ok   {file}:{line} [{rule}]");
                    } else {
                        println!("MISS {file}:{line} [{rule}] — known-bad pattern not flagged");
                        failures += 1;
                    }
                }
            } else if text.contains("// CLEAN") {
                checks += 1;
                match findings
                    .iter()
                    .find(|f| f.violation.file == *file && f.violation.line == line)
                {
                    Some(f) => {
                        println!(
                            "FALSE POSITIVE {file}:{line} [{}] — line annotated CLEAN",
                            f.violation.rule
                        );
                        failures += 1;
                    }
                    None => println!("ok   {file}:{line} [clean]"),
                }
            }
        }
    }
    println!(
        "twig-taint self-test: {checks} annotation(s) checked, {failures} failure(s), \
         {} finding(s) total",
        findings.len()
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::callgraph::{build, CrateScope};

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
        // No `root` on disk for synthetic sources: content lookup
        // degrades to "", which is fine for assertions on rule/line.
        let ctx = Ctx::new(Path::new("/nonexistent"), &models, &graph, true);
        analyze(&ctx)
    }

    fn rules_of(findings: &[FlowFinding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.violation.rule).collect()
    }

    #[test]
    fn entry_param_taints_an_index() {
        let findings = run(&[(
            "crates/serve/src/json.rs",
            "impl Json { pub fn parse(text: &str) -> u8 { let i = text.len(); TAB[i] } }",
        )]);
        assert_eq!(rules_of(&findings), ["taint-index"], "{findings:?}");
    }

    #[test]
    fn type_ascribed_let_still_binds_taint() {
        // `let n: usize = …` — the `:` must not be mistaken for a
        // struct-pattern field key (which would drop the binding).
        let findings = run(&[(
            "crates/serve/src/json.rs",
            "impl Json { pub fn parse(text: &str) -> u8 {\n\
             let n: usize = text.len();\n\
             TAB[n] } }",
        )]);
        assert_eq!(rules_of(&findings), ["taint-index"], "{findings:?}");
    }

    #[test]
    fn array_return_type_does_not_lose_the_body() {
        // The `;` inside `-> [u8; 8]` must not terminate fn-head
        // parsing — the body would silently go unanalyzed.
        let findings = run(&[(
            "crates/serve/src/http.rs",
            "impl Twig { pub fn parse(bytes: &[u8]) -> [u8; 8] {\n\
             let mut head = [0u8; 8];\n\
             head.copy_from_slice(bytes);\n\
             head } }",
        )]);
        assert_eq!(rules_of(&findings), ["taint-copy"], "{findings:?}");
    }

    #[test]
    fn turbofish_alloc_call_is_still_a_sink() {
        // The nested turbofish must be skipped to see `with_capacity`.
        let findings = run(&[(
            "crates/serve/src/json.rs",
            "impl Json { pub fn parse(text: &str) -> usize {\n\
             let n = text.len();\n\
             Vec::<Vec<u8>>::with_capacity(n).capacity() } }",
        )]);
        assert_eq!(rules_of(&findings), ["taint-alloc"], "{findings:?}");
    }

    #[test]
    fn question_mark_chains_propagate_taint() {
        let findings = run(&[(
            "crates/serve/src/json.rs",
            "impl Json { pub fn parse(text: &str) -> Option<u8> {\n\
             let n = text.find(':')?.checked_sub(1)?;\n\
             let m = text.find(',')?;\n\
             Some(TAB[m]) } }",
        )]);
        assert_eq!(rules_of(&findings), ["taint-index"], "{findings:?}");
    }

    #[test]
    fn zero_arg_read_homonyms_are_not_sources() {
        // `RwLock::read()` shares a name with `Read::read` but takes no
        // destination buffer — it must not taint its result.
        let findings = run(&[(
            "crates/serve/src/registry.rs",
            "fn snapshot(lock: &RwLock<Vec<u64>>) -> u64 {\n\
             let guard = lock.read().unwrap();\n\
             let n = guard.len();\n\
             guard[n - 1] }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn entry_call_site_returns_external_data() {
        // The value `Cst::from_bytes(..)` hands back is attacker-shaped
        // even when the caller's own arguments are trusted.
        let findings = run(&[(
            "crates/core/src/load.rs",
            "fn probe(bytes: &[u8], table: &[u8]) -> u8 {\n\
             let n = Cst::from_bytes(bytes).map(|c| c.node_count()).unwrap_or(0);\n\
             table[n] }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].violation.rule, "taint-index");
    }

    #[test]
    fn min_guard_cleans_the_expression() {
        let findings = run(&[(
            "crates/serve/src/json.rs",
            "impl Json { pub fn parse(text: &str) -> u8 { let i = text.len().min(7); TAB[i] } }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn comparison_sanitizes_a_variable() {
        let findings = run(&[(
            "crates/serve/src/json.rs",
            "impl Json { pub fn parse(text: &str) -> u8 {\n\
             let i = text.len();\n\
             if i < 7 { return TAB[i]; }\n\
             0 } }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn length_comparison_does_not_clean_the_buffer_itself() {
        // `buffer.len() < 4` must not sanitize `buffer`: the later
        // tainted-index on a value derived from it still fires.
        let findings = run(&[(
            "crates/serve/src/http.rs",
            "impl Json { pub fn parse(buffer: &str) -> u8 {\n\
             if buffer.len() < 4 { return 0; }\n\
             let end = locate(buffer);\n\
             TAB[end]\n\
             } }\n\
             fn locate(b: &str) -> usize { b.len() }",
        )]);
        assert_eq!(rules_of(&findings), ["taint-index"], "{findings:?}");
    }

    #[test]
    fn arithmetic_and_alloc_sinks_fire() {
        let findings = run(&[(
            "crates/core/src/serialize.rs",
            "impl Cst { pub fn from_bytes(bytes: &str) -> usize {\n\
             let count = bytes.len();\n\
             let total = count + 8;\n\
             let mut v = Vec::with_capacity(count);\n\
             v.push(total); v.len()\n\
             } }",
        )]);
        let mut rules = rules_of(&findings);
        rules.sort_unstable();
        assert_eq!(rules, ["taint-alloc", "taint-arith"], "{findings:?}");
    }

    #[test]
    fn checked_add_guards_arithmetic() {
        let findings = run(&[(
            "crates/core/src/serialize.rs",
            "impl Cst { pub fn from_bytes(bytes: &str) -> usize {\n\
             let count = bytes.len();\n\
             let total = count.checked_add(8).unwrap_or(0);\n\
             total } }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn float_lines_are_exempt_from_arith() {
        let findings = run(&[(
            "crates/core/src/estimate.rs",
            "impl Twig { pub fn parse(q: &str) -> f64 {\n\
             let sel = q.len();\n\
             count_to_f64(sel) * 1.5\n\
             } }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn shadowing_rebind_clears_taint() {
        let findings = run(&[(
            "crates/serve/src/json.rs",
            "impl Json { pub fn parse(text: &str) -> u8 {\n\
             let n = text.len();\n\
             let n = 3;\n\
             TAB[n]\n\
             } }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn compound_add_assign_is_an_arith_sink() {
        let findings = run(&[(
            "crates/serve/src/http.rs",
            "impl Json { pub fn parse(text: &str) -> usize {\n\
             let n = text.len();\n\
             let mut total = 0;\n\
             total += n;\n\
             total } }",
        )]);
        assert_eq!(rules_of(&findings), ["taint-arith"], "{findings:?}");
    }

    #[test]
    fn read_methods_taint_their_buffer() {
        let findings = run(&[(
            "crates/serve/src/http.rs",
            "pub fn recv(stream: &mut TcpStream) -> u8 {\n\
             let mut buf = Vec::new();\n\
             stream.read_to_end(&mut buf);\n\
             let end = locate(&buf);\n\
             TAB[end]\n\
             }\n\
             fn locate(b: &[u8]) -> usize { b.len() }",
        )]);
        assert_eq!(rules_of(&findings), ["taint-index"], "{findings:?}");
    }

    #[test]
    fn summaries_carry_taint_across_helpers() {
        let findings = run(&[(
            "crates/core/src/serialize.rs",
            "impl Cst { pub fn read_from(frame: &str) -> u64 {\n\
             let offset = read_u32(frame);\n\
             pick(offset)\n\
             } }\n\
             fn read_u32(input: &str) -> usize { input.len() }\n\
             fn pick(index: usize) -> u64 { TABLE[index] }",
        )]);
        assert_eq!(rules_of(&findings), ["taint-index"], "{findings:?}");
        // The finding anchors at the caller's call site, with the
        // helper's sink as the witness tail.
        assert_eq!(findings[0].violation.line, 3, "{findings:?}");
        let witness = findings[0].witness.join("\n");
        assert!(witness.contains("passes tainted arg 1"), "{witness}");
        assert!(witness.contains("pick"), "{witness}");
    }

    #[test]
    fn match_arms_bind_the_scrutinee_taint() {
        let findings = run(&[(
            "crates/serve/src/http.rs",
            "impl Json { pub fn parse(text: &str) -> u8 {\n\
             let r = text.len();\n\
             match probe(r) {\n\
             Some(length) => TAB[length],\n\
             None => 0,\n\
             }\n\
             } }\n\
             fn probe(n: usize) -> Option<usize> { Some(n) }",
        )]);
        assert!(rules_of(&findings).contains(&"taint-index"), "{findings:?}");
    }

    #[test]
    fn test_code_is_not_reported_outside_self_test() {
        let models: Vec<FileModel> = [(
            "crates/core/tests/x.rs",
            "impl Json { pub fn parse(text: &str) -> u8 { TAB[text.len()] } }",
        )]
        .iter()
        .map(|(file, src)| {
            let masked = mask_source(src);
            let test_lines = test_line_mask(&masked);
            parse_file(file, tokenize(&masked), &test_lines, crate::rules::test_path(file))
        })
        .collect();
        let graph = build(&models, CrateScope::default());
        let ctx = Ctx::new(Path::new("/nonexistent"), &models, &graph, false);
        assert!(analyze(&ctx).is_empty());
    }
}
