//! Brace-aware item model for the flow analyzer.
//!
//! Walks a file's token stream (see `tokens.rs`) and extracts the items
//! the call graph needs: function declarations with their qualified
//! paths (`crate::module::Type::name`), visibility, `self`-ness, return
//! type text, and body token ranges — plus the names of struct fields
//! holding `Mutex`/`RwLock` values, which seed the lock-discipline pass.
//!
//! The model is deliberately *conservative*, not complete: nested
//! functions are attributed to their lexical module (not the enclosing
//! function), and a nested function's tokens remain inside the outer
//! function's body range, so the outer function inherits the nested
//! one's call sites. Over-approximation is safe for reachability; what
//! matters is never *losing* an edge.

use crate::analysis::tokens::{matching_brace, Token, TokenKind};

/// One `fn` item (free function, inherent/trait method, or default
/// trait method).
#[derive(Debug, Clone)]
pub(crate) struct FnItem {
    /// Bare function name.
    pub(crate) name: String,
    /// Qualified path: `crate::module::Type::name`.
    pub(crate) qual: String,
    /// Repo-relative file path.
    pub(crate) file: String,
    /// 1-based line of the `fn` keyword.
    pub(crate) line: usize,
    /// Declared `pub` (unrestricted; `pub(crate)` and friends are not
    /// entry points and count as private here).
    pub(crate) is_pub: bool,
    /// Takes `self` in any form (method).
    pub(crate) has_self: bool,
    /// Takes `self` exclusively (`&mut self` or by-value `mut self`) —
    /// such methods cannot race and are exempt from lockset inference.
    pub(crate) self_mut: bool,
    /// Inside `#[cfg(test)]` code or a test-path file.
    pub(crate) in_test: bool,
    /// Enclosing `impl`/`trait` type name, if any.
    pub(crate) impl_type: Option<String>,
    /// Parameter names in declaration order, `self` excluded, so its
    /// length is the fn's arity. A pattern parameter (`(a, b): (u32,
    /// u32)`) holds [`PATTERN_PARAM`], which matches no identifier — the
    /// taint summaries that consume this list degrade to "no flow
    /// tracked" for it, which only loses precision, never soundness of
    /// what *is* tracked.
    pub(crate) params: Vec<String>,
    /// Return type text (tokens joined with spaces), empty for `()`.
    pub(crate) ret: String,
    /// Body token range `[start, end)` into the file's token vector
    /// (exclusive of the braces); `None` for bodyless declarations.
    pub(crate) body: Option<(usize, usize)>,
}

/// The [`FnItem::params`] entry of a pattern parameter.
pub(crate) const PATTERN_PARAM: &str = "(pattern)";

/// One declared struct field or `static` item: name, flattened type
/// text (token texts joined with spaces, e.g. `RwLock < Vec < Entry > >`),
/// and declaration line.
#[derive(Debug, Clone)]
pub(crate) struct FieldDecl {
    pub(crate) name: String,
    pub(crate) ty: String,
    pub(crate) line: usize,
}

/// One struct declaration with its named fields (tuple structs carry no
/// named state the race pass can track and are skipped).
#[derive(Debug)]
pub(crate) struct StructDecl {
    pub(crate) name: String,
    pub(crate) fields: Vec<FieldDecl>,
}

/// What kind of `unsafe` region a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnsafeKind {
    /// `unsafe { … }` block.
    Block,
    /// `unsafe fn` item (the span covers the body).
    Fn,
    /// `unsafe impl … for …` (the race pass audits `Send`/`Sync`).
    Impl,
}

/// One `unsafe` region: kind, line range, and — for `unsafe impl` — the
/// asserted trait name (`Send`/`Sync`) when one is present.
#[derive(Debug)]
pub(crate) struct UnsafeSpan {
    pub(crate) kind: UnsafeKind,
    /// 1-based line of the `unsafe` keyword.
    pub(crate) line: usize,
    /// 1-based line of the closing brace (== `line` for bodyless items).
    pub(crate) end_line: usize,
    /// `Some("Send" | "Sync" | …)` for `unsafe impl Trait for Type`.
    pub(crate) trait_name: Option<String>,
    /// The implementing type for `unsafe impl Trait for Type`.
    pub(crate) for_type: Option<String>,
    /// Inside `#[cfg(test)]` code or a test-path file.
    pub(crate) in_test: bool,
}

/// Everything the analyzer extracted from one file.
#[derive(Debug)]
pub(crate) struct FileModel {
    /// Repo-relative path.
    pub(crate) file: String,
    /// The file's full token stream (masked source).
    pub(crate) tokens: Vec<Token>,
    /// Functions declared in the file.
    pub(crate) fns: Vec<FnItem>,
    /// Names of struct fields with `Mutex<…>` / `RwLock<…>` types.
    pub(crate) lock_fields: Vec<String>,
    /// Struct declarations with full (name, type, line) field lists.
    pub(crate) structs: Vec<StructDecl>,
    /// `static NAME: TY` items (including `static mut`).
    pub(crate) statics: Vec<FieldDecl>,
    /// `type Alias = Ty;` items, `(alias, flattened type text)` — lets
    /// the race pass see through `type Flag = AtomicBool;`.
    pub(crate) type_aliases: Vec<(String, String)>,
    /// `unsafe` blocks, fns and impls, for the unsafe-contract audit.
    pub(crate) unsafe_spans: Vec<UnsafeSpan>,
}

/// The crate segment for a repo-relative path: `crates/<name>/…` uses
/// the directory name, `perfbench/…` is the benchmark package; the root
/// `src/` tree is the meta-crate.
pub(crate) fn crate_of(file: &str) -> String {
    let mut parts = file.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_owned(),
        (Some("perfbench"), Some(_)) => "perfbench".to_owned(),
        _ => "twig_repro".to_owned(),
    }
}

/// The directory (repo-relative, `""` for the root) holding the
/// `Cargo.toml` of the package [`crate_of`] names for `file`.
pub(crate) fn package_dir(file: &str) -> String {
    let mut parts = file.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        (Some("perfbench"), Some(_)) => "perfbench".to_owned(),
        _ => String::new(),
    }
}

/// Builds the item model for one file. `test_lines` is the per-line
/// `#[cfg(test)]` mask from `scan::test_line_mask`; `path_is_test`
/// marks whole files that are test-only by location (`tests/`, …).
pub(crate) fn parse_file(
    file: &str,
    tokens: Vec<Token>,
    test_lines: &[bool],
    path_is_test: bool,
) -> FileModel {
    let krate = crate_of(file);
    let mut fns = Vec::new();
    let mut lock_fields = Vec::new();
    let mut structs = Vec::new();
    let mut statics = Vec::new();
    let mut type_aliases = Vec::new();
    let unsafe_spans = collect_unsafe_spans(&tokens, test_lines, path_is_test);

    // (name, depth inside the scope): popped when depth drops back.
    let mut scopes: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut pending_pub = false;
    let mut i = 0usize;

    let in_test_line = |line: usize| {
        path_is_test || test_lines.get(line.saturating_sub(1)).copied().unwrap_or(false)
    };

    while i < tokens.len() {
        let t = &tokens[i];
        match (&t.kind, t.text.as_str()) {
            (TokenKind::Punct, "#") if next_is(&tokens, i + 1, "[") => {
                i = skip_balanced(&tokens, i + 1, "[", "]");
            }
            (TokenKind::Punct, "{") => {
                depth += 1;
                pending_pub = false;
                i += 1;
            }
            (TokenKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                while scopes.last().is_some_and(|&(_, d)| d > depth) {
                    scopes.pop();
                }
                pending_pub = false;
                i += 1;
            }
            (TokenKind::Punct, ";" | ",") => {
                pending_pub = false;
                i += 1;
            }
            (TokenKind::Ident, "pub") => {
                if next_is(&tokens, i + 1, "(") {
                    // pub(crate) / pub(super): not an external entry point.
                    i = skip_balanced(&tokens, i + 1, "(", ")");
                } else {
                    pending_pub = true;
                    i += 1;
                }
            }
            (TokenKind::Ident, "mod") if is_ident(&tokens, i + 1) => {
                let name = tokens[i + 1].text.clone();
                pending_pub = false;
                if next_is(&tokens, i + 2, "{") {
                    scopes.push((name, depth + 1));
                    depth += 1;
                    i += 3;
                } else {
                    i += 2; // `mod foo;`
                }
            }
            (TokenKind::Ident, "impl" | "trait") => {
                let (type_name, after) = parse_impl_head(&tokens, i);
                pending_pub = false;
                if next_is(&tokens, after, "{") {
                    scopes.push((type_name, depth + 1));
                    depth += 1;
                    i = after + 1;
                } else {
                    i = after.max(i + 1);
                }
            }
            (TokenKind::Ident, "struct" | "enum" | "union") if is_ident(&tokens, i + 1) => {
                pending_pub = false;
                let struct_name = tokens[i + 1].text.clone();
                let mut j = i + 2;
                if next_is(&tokens, j, "<") {
                    j = skip_angles(&tokens, j);
                }
                while j < tokens.len()
                    && !tokens[j].is_punct("{")
                    && !tokens[j].is_punct("(")
                    && !tokens[j].is_punct(";")
                {
                    j += 1;
                }
                if next_is(&tokens, j, "{") {
                    let close = matching_brace(&tokens, j);
                    if t.text == "struct" {
                        let fields = collect_fields(&tokens[j + 1..close]);
                        for field in &fields {
                            if type_mentions(&field.ty, &["Mutex", "RwLock"]) {
                                lock_fields.push(field.name.clone());
                            }
                        }
                        structs.push(StructDecl { name: struct_name, fields });
                    }
                    i = close + 1; // field types hold no fn items
                } else if next_is(&tokens, j, "(") {
                    i = skip_balanced(&tokens, j, "(", ")");
                } else {
                    i = j + 1;
                }
            }
            (TokenKind::Ident, "static") if is_static_item(&tokens, i) => {
                let mut j = i + 1;
                if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if is_ident(&tokens, j) && next_is(&tokens, j + 1, ":") {
                    let name = tokens[j].text.clone();
                    let line = tokens[j].line;
                    let (ty, after) = flatten_type(&tokens, j + 2, &["=", ";"]);
                    statics.push(FieldDecl { name, ty, line });
                    pending_pub = false;
                    i = after;
                } else {
                    i += 1;
                }
            }
            (TokenKind::Ident, "type")
                if is_ident(&tokens, i + 1) && next_is(&tokens, i + 2, "=") =>
            {
                let alias = tokens[i + 1].text.clone();
                let (ty, after) = flatten_type(&tokens, i + 3, &[";"]);
                type_aliases.push((alias, ty));
                pending_pub = false;
                i = after;
            }
            (TokenKind::Ident, "macro_rules") if next_is(&tokens, i + 1, "!") => {
                pending_pub = false;
                let mut j = i + 2;
                while j < tokens.len() && !tokens[j].is_punct("{") {
                    j += 1;
                }
                i = matching_brace(&tokens, j) + 1;
            }
            (TokenKind::Ident, "fn") if is_ident(&tokens, i + 1) => {
                let is_pub = pending_pub;
                pending_pub = false;
                let name = tokens[i + 1].text.clone();
                let line = t.line;
                let (has_self, self_mut, params, ret, body_open) = parse_fn_head(&tokens, i + 2);
                let impl_type = match scopes.last() {
                    Some((scope, d)) if *d == depth && is_type_name(scope) => Some(scope.clone()),
                    _ => None,
                };
                let mut qual = krate.clone();
                for (segment, _) in &scopes {
                    qual.push_str("::");
                    qual.push_str(segment);
                }
                qual.push_str("::");
                qual.push_str(&name);
                let body = match body_open {
                    Some(open) => {
                        let close = matching_brace(&tokens, open);
                        Some((open + 1, close))
                    }
                    None => None,
                };
                fns.push(FnItem {
                    name,
                    qual,
                    file: file.to_owned(),
                    line,
                    is_pub,
                    has_self,
                    self_mut,
                    in_test: in_test_line(line),
                    impl_type,
                    params,
                    ret,
                    body,
                });
                // Walk *into* the body: nested items are still parsed.
                i = match body_open {
                    Some(open) => open, // the `{` arm bumps depth
                    None => i + 2,
                };
            }
            _ => {
                i += 1;
            }
        }
    }

    lock_fields.sort();
    lock_fields.dedup();
    FileModel {
        file: file.to_owned(),
        tokens,
        fns,
        lock_fields,
        structs,
        statics,
        type_aliases,
        unsafe_spans,
    }
}

/// Does `static` at `i` start a static item? (`'static` lifetimes are a
/// different token kind; this only needs to recognize the
/// `static [mut] NAME :` shape.)
fn is_static_item(tokens: &[Token], i: usize) -> bool {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    is_ident(tokens, j) && next_is(tokens, j + 1, ":")
}

/// Flattens a type expression starting at `start` into token texts
/// joined with spaces, stopping at the first of `stops` at nesting
/// depth 0. Returns the text and the index of the stop token.
fn flatten_type(tokens: &[Token], start: usize, stops: &[&str]) -> (String, usize) {
    let mut ty = String::new();
    let mut depth = 0isize;
    let mut j = start;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                s if depth <= 0 && stops.contains(&s) => break,
                "<" | "(" | "[" => depth += 1,
                "<<" => depth += 2,
                ">" | ")" | "]" => depth -= 1,
                ">>" => depth -= 2,
                _ => {}
            }
        }
        if !ty.is_empty() {
            ty.push(' ');
        }
        ty.push_str(&t.text);
        j += 1;
    }
    (ty, j)
}

/// Does the flattened type text mention one of `names` as a whole token?
pub(crate) fn type_mentions(ty: &str, names: &[&str]) -> bool {
    ty.split(' ').any(|tok| names.contains(&tok))
}

/// Collects `unsafe` regions: blocks, fn bodies, and impls (with the
/// asserted trait name for `unsafe impl Send/Sync for T`). A linear
/// pre-pass independent of the item state machine, so nesting inside
/// skipped regions (struct bodies, macros) cannot hide a span.
fn collect_unsafe_spans(
    tokens: &[Token],
    test_lines: &[bool],
    path_is_test: bool,
) -> Vec<UnsafeSpan> {
    let in_test_line = |line: usize| {
        path_is_test || test_lines.get(line.saturating_sub(1)).copied().unwrap_or(false)
    };
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("unsafe") {
            i += 1;
            continue;
        }
        let line = tokens[i].line;
        let in_test = in_test_line(line);
        let mut j = i + 1;
        // `unsafe extern "C" fn` / `unsafe fn`: skip qualifiers.
        while tokens.get(j).is_some_and(|t| t.is_ident("extern") || t.kind == TokenKind::Str) {
            j += 1;
        }
        match tokens.get(j) {
            Some(t) if t.is_punct("{") => {
                let close = matching_brace(tokens, j);
                let end_line = tokens.get(close).map_or(line, |t| t.line);
                spans.push(UnsafeSpan {
                    kind: UnsafeKind::Block,
                    line,
                    end_line,
                    trait_name: None,
                    for_type: None,
                    in_test,
                });
                i = j + 1; // walk into the block: nested unsafe still scans
            }
            Some(t) if t.is_ident("fn") => {
                // Body = first `{` before a `;` (bodyless trait decls
                // have none).
                let mut k = j + 1;
                while k < tokens.len() && !tokens[k].is_punct("{") && !tokens[k].is_punct(";") {
                    k += 1;
                }
                let end_line = if next_is(tokens, k, "{") {
                    let close = matching_brace(tokens, k);
                    tokens.get(close).map_or(line, |t| t.line)
                } else {
                    line
                };
                spans.push(UnsafeSpan {
                    kind: UnsafeKind::Fn,
                    line,
                    end_line,
                    trait_name: None,
                    for_type: None,
                    in_test,
                });
                i = j + 1;
            }
            Some(t) if t.is_ident("impl") => {
                // Trait name: the last plain ident before `for` (or the
                // `{` when there is no `for` clause).
                let mut trait_name = None;
                let mut k = j + 1;
                let mut angle = 0isize;
                while k < tokens.len() {
                    let t = &tokens[k];
                    match (&t.kind, t.text.as_str()) {
                        (TokenKind::Punct, "{" | ";") if angle <= 0 => break,
                        (TokenKind::Ident, "for") if angle <= 0 => break,
                        (TokenKind::Punct, "<") => angle += 1,
                        (TokenKind::Punct, "<<") => angle += 2,
                        (TokenKind::Punct, ">") => angle -= 1,
                        (TokenKind::Punct, ">>") => angle -= 2,
                        (TokenKind::Ident, name) if angle <= 0 => {
                            trait_name = Some(name.to_owned());
                        }
                        _ => {}
                    }
                    k += 1;
                }
                // The implementing type: last plain ident before the
                // body (after `for`, when present).
                let mut for_type = None;
                let mut angle = 0isize;
                while k < tokens.len() && !tokens[k].is_punct("{") && !tokens[k].is_punct(";") {
                    let t = &tokens[k];
                    match (&t.kind, t.text.as_str()) {
                        (TokenKind::Punct, "<") => angle += 1,
                        (TokenKind::Punct, "<<") => angle += 2,
                        (TokenKind::Punct, ">") => angle -= 1,
                        (TokenKind::Punct, ">>") => angle -= 2,
                        (TokenKind::Ident, name)
                            if angle <= 0 && name != "for" && name != "where" =>
                        {
                            for_type = Some(name.to_owned());
                        }
                        _ => {}
                    }
                    k += 1;
                }
                let end_line = if next_is(tokens, k, "{") {
                    let close = matching_brace(tokens, k);
                    tokens.get(close).map_or(line, |t| t.line)
                } else {
                    line
                };
                spans.push(UnsafeSpan {
                    kind: UnsafeKind::Impl,
                    line,
                    end_line,
                    trait_name,
                    for_type,
                    in_test,
                });
                i = j + 1;
            }
            _ => {
                // `unsafe trait`, fn-pointer types, …: no auditable span.
                i = j;
            }
        }
    }
    spans
}

/// Heuristic: impl/trait scope names are capitalized type names; module
/// scopes are snake_case. Used to decide whether the innermost scope
/// contributes an `impl_type`.
fn is_type_name(name: &str) -> bool {
    name.chars().next().is_some_and(char::is_uppercase)
}

fn is_ident(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.kind == TokenKind::Ident)
}

fn next_is(tokens: &[Token], i: usize, punct: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(punct))
}

/// Skips a balanced `open`…`close` pair starting at `i` (which must be
/// the opener); returns the index after the closer.
fn skip_balanced(tokens: &[Token], i: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < tokens.len() {
        if tokens[j].is_punct(open) {
            depth += 1;
        } else if tokens[j].is_punct(close) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// Skips a balanced generic-argument list starting at the `<` at `i`.
/// `>>` closes two levels (shift tokens double as generic closers).
fn skip_angles(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0isize;
    let mut j = i;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "<" | "<<" if tokens[j].kind == TokenKind::Punct => {
                depth += if tokens[j].text == "<<" { 2 } else { 1 };
            }
            ">" | ">>" if tokens[j].kind == TokenKind::Punct => {
                depth -= if tokens[j].text == ">>" { 2 } else { 1 };
                if depth <= 0 {
                    return j + 1;
                }
            }
            "->" | "=>" if tokens[j].kind == TokenKind::Punct => {}
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

/// Parses an `impl`/`trait` head starting at the keyword. Returns the
/// scope name (the implementing type for `impl Trait for Type`) and the
/// index of the expected `{`.
fn parse_impl_head(tokens: &[Token], i: usize) -> (String, usize) {
    let mut j = i + 1;
    if next_is(tokens, j, "<") {
        j = skip_angles(tokens, j);
    }
    let mut last_type = String::new();
    let mut angle = 0isize;
    while j < tokens.len() {
        let t = &tokens[j];
        match (&t.kind, t.text.as_str()) {
            (TokenKind::Punct, "{") if angle <= 0 => break,
            (TokenKind::Punct, ";") if angle <= 0 => break,
            (TokenKind::Ident, "for") if angle <= 0 => {
                last_type.clear(); // the implementing type follows
            }
            (TokenKind::Ident, "where") if angle <= 0 => {
                while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
                    j += 1;
                }
                break;
            }
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, "<<") => angle += 2,
            (TokenKind::Punct, ">") => angle -= 1,
            (TokenKind::Punct, ">>") => angle -= 2,
            (TokenKind::Ident, name) if angle <= 0 && name != "dyn" && name != "mut" => {
                last_type = name.to_owned();
            }
            _ => {}
        }
        j += 1;
    }
    (last_type, j)
}

/// Parses a fn head after the name: generics, parameter list (checking
/// for `self` and collecting parameter names), return type text, and
/// the index of the body `{` (None for `;`-terminated declarations).
fn parse_fn_head(
    tokens: &[Token],
    mut j: usize,
) -> (bool, bool, Vec<String>, String, Option<usize>) {
    if next_is(tokens, j, "<") {
        j = skip_angles(tokens, j);
    }
    let mut has_self = false;
    let mut self_mut = false;
    let mut params = Vec::new();
    if next_is(tokens, j, "(") {
        let end = skip_balanced(tokens, j, "(", ")");
        // `self` in the first parameter slot (before the first
        // top-level comma) marks a method. A parameter name is an
        // identifier directly followed by `:` at paren depth 1 while
        // still in binding position (before that parameter's type
        // started) — identifiers inside type expressions sit either at
        // deeper nesting or after the `:`.
        let mut depth = 0usize;
        let mut in_binding = true;
        // Whether the current parameter slot already has its entry.
        let mut slot_named = false;
        for (offset, t) in tokens[j..end].iter().enumerate() {
            match t.text.as_str() {
                "(" | "[" | "{" if t.kind == TokenKind::Punct => depth += 1,
                ")" | "]" | "}" if t.kind == TokenKind::Punct => depth = depth.saturating_sub(1),
                "," if t.kind == TokenKind::Punct && depth == 1 => {
                    in_binding = true;
                    slot_named = false;
                }
                ":" if t.kind == TokenKind::Punct && depth == 1 => {
                    if in_binding && !slot_named {
                        params.push(PATTERN_PARAM.to_owned());
                    }
                    in_binding = false;
                }
                "self" if t.kind == TokenKind::Ident && params.is_empty() && in_binding => {
                    has_self = true;
                    slot_named = true;
                    // `&mut self` / by-value `mut self` = exclusive
                    // receiver; `&self` and `self: Arc<Self>` are not.
                    self_mut = j + offset >= 1
                        && tokens.get(j + offset - 1).is_some_and(|p| p.is_ident("mut"));
                }
                _ if t.kind == TokenKind::Ident
                    && depth == 1
                    && in_binding
                    && next_is(tokens, j + offset + 1, ":") =>
                {
                    params.push(t.text.clone());
                    slot_named = true;
                }
                _ => {}
            }
        }
        j = end;
    }
    let mut ret = String::new();
    if next_is(tokens, j, "->") {
        j += 1;
        let mut angle = 0isize;
        // `[u8; 8]` return types contain a `;` that must not terminate
        // the scan; track bracket/paren nesting alongside angles.
        let mut nest = 0isize;
        while j < tokens.len() {
            let t = &tokens[j];
            match (&t.kind, t.text.as_str()) {
                (TokenKind::Punct, "{" | ";") if angle <= 0 && nest <= 0 => break,
                (TokenKind::Ident, "where") if angle <= 0 && nest <= 0 => break,
                (TokenKind::Punct, "<") => angle += 1,
                (TokenKind::Punct, "<<") => angle += 2,
                (TokenKind::Punct, ">") => angle -= 1,
                (TokenKind::Punct, ">>") => angle -= 2,
                (TokenKind::Punct, "[" | "(") => nest += 1,
                (TokenKind::Punct, "]" | ")") => nest -= 1,
                _ => {}
            }
            if !ret.is_empty() {
                ret.push(' ');
            }
            ret.push_str(&t.text);
            j += 1;
        }
    }
    // Where clause (and anything else) up to the body or terminator.
    while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
        j += 1;
    }
    if next_is(tokens, j, "{") {
        (has_self, self_mut, params, ret, Some(j))
    } else {
        (has_self, self_mut, params, ret, None)
    }
}

/// Records every named struct field with its flattened type text. The
/// lock-discipline pass filters for `Mutex`/`RwLock` mentions; the race
/// pass additionally needs atomics, cells and plain fields.
fn collect_fields(body: &[Token]) -> Vec<FieldDecl> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < body.len() {
        if body[i].kind == TokenKind::Ident && next_is(body, i + 1, ":") {
            let name = body[i].text.clone();
            let line = body[i].line;
            let (ty, after) = flatten_type(body, i + 2, &[","]);
            out.push(FieldDecl { name, ty, line });
            i = after;
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::scan::{mask_source, test_line_mask};
    use crate::analysis::tokens::tokenize;

    fn model(file: &str, src: &str) -> FileModel {
        let masked = mask_source(src);
        let test_lines = test_line_mask(&masked);
        parse_file(file, tokenize(&masked), &test_lines, false)
    }

    #[test]
    fn free_fns_and_methods_are_qualified() {
        let src = "
pub fn top() {}
mod inner {
    fn helper() {}
    impl Widget {
        pub fn poke(&self) {}
        fn quiet() {}
    }
}
";
        let m = model("crates/core/src/x.rs", src);
        let quals: Vec<&str> = m.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            [
                "core::top",
                "core::inner::helper",
                "core::inner::Widget::poke",
                "core::inner::Widget::quiet"
            ]
        );
        assert!(m.fns[0].is_pub && !m.fns[1].is_pub);
        assert!(m.fns[2].has_self && !m.fns[3].has_self);
        assert_eq!(m.fns[2].impl_type.as_deref(), Some("Widget"));
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let src = "impl std::fmt::Display for LoadError { fn fmt(&self) {} }";
        let m = model("crates/serve/src/x.rs", src);
        assert_eq!(m.fns[0].qual, "serve::LoadError::fmt");
    }

    #[test]
    fn generic_impl_blocks_resolve_the_base_type() {
        let src = "impl<C: Component> Signature<C> { pub fn len(&self) -> usize { 0 } }";
        let m = model("crates/sethash/src/lib.rs", src);
        assert_eq!(m.fns[0].qual, "sethash::Signature::len");
        assert_eq!(m.fns[0].ret, "usize");
    }

    #[test]
    fn pub_crate_is_not_an_entry_point() {
        let src = "pub(crate) fn internal() {} pub fn external() {}";
        let m = model("crates/core/src/x.rs", src);
        assert!(!m.fns[0].is_pub);
        assert!(m.fns[1].is_pub);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "
fn lib() {}
#[cfg(test)]
mod tests {
    fn t() {}
}
";
        let m = model("crates/core/src/x.rs", src);
        assert!(!m.fns[0].in_test);
        assert!(m.fns[1].in_test);
    }

    #[test]
    fn guard_return_types_are_captured() {
        let src = "
struct R { entries: RwLock<Vec<Entry>>, plain: usize }
impl R {
    fn read_entries(&self) -> std::sync::RwLockReadGuard<'_, Vec<Entry>> { x }
}
";
        let m = model("crates/serve/src/x.rs", src);
        assert_eq!(m.lock_fields, ["entries"]);
        assert!(m.fns[0].ret.contains("RwLockReadGuard"));
    }

    #[test]
    fn nested_fn_bodies_stay_inside_the_outer_range() {
        let src = "fn outer() { fn inner() { poke(); } inner(); }";
        let m = model("crates/core/src/x.rs", src);
        assert_eq!(m.fns.len(), 2);
        let (outer, inner) = (&m.fns[0], &m.fns[1]);
        let (os, oe) = outer.body.unwrap_or((0, 0));
        let (is_, ie) = inner.body.unwrap_or((0, 0));
        assert!(os < is_ && ie <= oe, "inner range nests in outer");
    }

    #[test]
    fn bodyless_trait_methods_have_no_body() {
        let src = "trait Probe { fn poke(&self); fn dflt(&self) { self.poke() } }";
        let m = model("crates/core/src/x.rs", src);
        assert!(m.fns[0].body.is_none());
        assert!(m.fns[1].body.is_some());
        assert_eq!(m.fns[1].qual, "core::Probe::dflt");
    }

    #[test]
    fn struct_bodies_do_not_hide_following_items() {
        let src = "struct S { a: u32 } pub fn after() {}";
        let m = model("crates/core/src/x.rs", src);
        assert_eq!(m.fns.len(), 1);
        assert!(m.fns[0].is_pub);
    }

    #[test]
    fn struct_fields_carry_types_and_lines() {
        let src = "
struct State {
    shutdown: AtomicBool,
    entries: RwLock<Vec<Entry>>,
    generation: u64,
    state: [AtomicU8; 4],
}
";
        let m = model("crates/serve/src/x.rs", src);
        assert_eq!(m.structs.len(), 1);
        let s = &m.structs[0];
        assert_eq!(s.name, "State");
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["shutdown", "entries", "generation", "state"]);
        assert!(type_mentions(&s.fields[0].ty, &["AtomicBool"]));
        assert!(type_mentions(&s.fields[3].ty, &["AtomicU8"]), "{}", s.fields[3].ty);
        assert!(!type_mentions(&s.fields[2].ty, &["AtomicU64"]));
        assert_eq!(m.lock_fields, ["entries"]);
        assert_eq!(s.fields[1].line, 4);
    }

    #[test]
    fn statics_and_type_aliases_are_collected() {
        let src = "
type Flag = AtomicBool;
static ACTIVE: Flag = Flag::new(false);
static mut RAW: u64 = 0;
fn with_lifetime(x: &'static str) {}
";
        let m = model("crates/util/src/x.rs", src);
        assert_eq!(m.type_aliases, [("Flag".to_owned(), "AtomicBool".to_owned())]);
        let names: Vec<&str> = m.statics.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["ACTIVE", "RAW"]);
        assert_eq!(m.statics[0].ty, "Flag");
    }

    #[test]
    fn unsafe_block_vs_unsafe_fn_spans() {
        let src = "
fn outer() {
    let x = unsafe {
        do_thing()
    };
}
unsafe fn raw_read(p: *const u8) -> u8 {
    *p
}
trait T { unsafe fn decl(&self); }
";
        let m = model("crates/flat/src/x.rs", src);
        assert_eq!(m.unsafe_spans.len(), 3, "{:?}", m.unsafe_spans);
        assert_eq!(m.unsafe_spans[0].kind, UnsafeKind::Block);
        assert_eq!((m.unsafe_spans[0].line, m.unsafe_spans[0].end_line), (3, 5));
        assert_eq!(m.unsafe_spans[1].kind, UnsafeKind::Fn);
        assert_eq!((m.unsafe_spans[1].line, m.unsafe_spans[1].end_line), (7, 9));
        // Bodyless trait declaration: the span collapses to its line.
        assert_eq!(m.unsafe_spans[2].kind, UnsafeKind::Fn);
        assert_eq!(m.unsafe_spans[2].line, m.unsafe_spans[2].end_line);
    }

    #[test]
    fn unsafe_impl_send_sync_carries_the_trait_name() {
        let src = "
unsafe impl Send for Region {}
unsafe impl Sync for Region {}
unsafe impl<T> MarkerWith<T> for Holder<T> {}
";
        let m = model("crates/flat/src/x.rs", src);
        let traits: Vec<Option<&str>> =
            m.unsafe_spans.iter().map(|s| s.trait_name.as_deref()).collect();
        assert_eq!(traits, [Some("Send"), Some("Sync"), Some("MarkerWith")]);
        assert!(m.unsafe_spans.iter().all(|s| s.kind == UnsafeKind::Impl));
        let types: Vec<Option<&str>> =
            m.unsafe_spans.iter().map(|s| s.for_type.as_deref()).collect();
        assert_eq!(types, [Some("Region"), Some("Region"), Some("Holder")]);
    }

    #[test]
    fn mut_self_receivers_are_distinguished() {
        let src = "
impl S {
    fn shared(&self) {}
    fn excl(&mut self) {}
    fn owned(mut self) {}
    fn free(x: u32) {}
}
";
        let m = model("crates/serve/src/x.rs", src);
        let muts: Vec<bool> = m.fns.iter().map(|f| f.self_mut).collect();
        assert_eq!(muts, [false, true, true, false]);
    }

    #[test]
    fn unsafe_extern_fn_is_a_fn_span() {
        let src = "unsafe extern \"C\" fn cb(x: u32) -> u32 { x }";
        let m = model("crates/flat/src/x.rs", src);
        assert_eq!(m.unsafe_spans.len(), 1);
        assert_eq!(m.unsafe_spans[0].kind, UnsafeKind::Fn);
    }
}
