//! Lexical source model for the lint pass.
//!
//! The workspace builds offline, so no `syn`/`proc-macro2` is available —
//! the scanner is a hand-rolled lexer that understands exactly as much
//! Rust as the lint rules need:
//!
//! 1. [`mask_source`] blanks out comments and string/char literal
//!    *contents* (newlines preserved), so rule matching never fires on
//!    text inside a doc comment or an error message.
//! 2. [`test_line_mask`] marks the lines belonging to `#[cfg(test)]`
//!    items (the conventional `mod tests { … }` and any other gated item)
//!    so rules can exempt test code.
//!
//! Both operate on bytes; non-ASCII text only ever appears inside
//! literals and comments, which are masked before any rule looks at them.

/// Replaces the contents of comments and string/char literals with
/// spaces. Delimiters are kept (so `"x"` becomes `" "`) and newlines
/// survive, which keeps line numbers and column positions stable.
pub(crate) fn mask_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;

    // Writes `b` unless it is being masked; newlines always survive.
    fn push_masked(out: &mut Vec<u8>, b: u8) {
        out.push(if b == b'\n' { b'\n' } else { b' ' });
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    push_masked(&mut out, bytes[i]);
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        push_masked(&mut out, bytes[i]);
                        push_masked(&mut out, bytes[i + 1]);
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        push_masked(&mut out, bytes[i]);
                        push_masked(&mut out, bytes[i + 1]);
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        push_masked(&mut out, bytes[i]);
                        i += 1;
                    }
                }
            }
            b'"' => {
                out.push(b'"');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        push_masked(&mut out, bytes[i]);
                        push_masked(&mut out, bytes[i + 1]);
                        i += 2;
                    } else if bytes[i] == b'"' {
                        out.push(b'"');
                        i += 1;
                        break;
                    } else {
                        push_masked(&mut out, bytes[i]);
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if starts_raw_string(bytes, i) => {
                // r"…", r#"…"#, br"…", b"…" handled here and below; this
                // arm covers the raw forms (any number of `#`s).
                let start = i;
                i += 1; // past r or b
                if bytes.get(i) == Some(&b'r') {
                    i += 1; // past the r of br
                }
                let mut hashes = 0usize;
                while bytes.get(i) == Some(&b'#') {
                    hashes += 1;
                    i += 1;
                }
                // Opening quote.
                out.extend_from_slice(&bytes[start..=i]);
                i += 1;
                loop {
                    if i >= bytes.len() {
                        break;
                    }
                    if bytes[i] == b'"' && closes_raw(bytes, i, hashes) {
                        out.push(b'"');
                        out.extend(std::iter::repeat_n(b'#', hashes));
                        i += 1 + hashes;
                        break;
                    }
                    push_masked(&mut out, bytes[i]);
                    i += 1;
                }
            }
            b'b' if bytes.get(i + 1) == Some(&b'"') => {
                // Plain byte string b"…": emit the b, let the next loop
                // round hit the `"` arm.
                out.push(b'b');
                i += 1;
            }
            b'\'' => {
                // Lifetime or char literal. A char literal is 'x', '\…',
                // or a multi-byte character followed by a closing quote; a
                // lifetime is '<ident> with no closing quote.
                if let Some(end) = char_literal_end(bytes, i) {
                    out.push(b'\'');
                    for &byte in &bytes[i + 1..end] {
                        push_masked(&mut out, byte);
                    }
                    out.push(b'\'');
                    i = end + 1;
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    // Masking writes only ASCII in place of multi-byte characters, so the
    // result is valid UTF-8 by construction.
    String::from_utf8(out).unwrap_or_default()
}

/// Is a raw-string opener (`r"`, `r#…"`, `br"`, `br#…"`) at `i`, not an
/// identifier that merely starts with r/b?
fn starts_raw_string(bytes: &[u8], i: usize) -> bool {
    // Must not be preceded by an identifier character (e.g. `for r` vs
    // `attr"`): a literal prefix starts its own token.
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return false;
    }
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if bytes.get(j) != Some(&b'r') {
            return false;
        }
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Does the `"` at `i` close a raw string with `hashes` trailing `#`s?
fn closes_raw(bytes: &[u8], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| bytes.get(i + k) == Some(&b'#'))
}

/// If a char literal starts at the `'` at `i`, returns the index of its
/// closing quote; `None` for lifetimes / loop labels.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let next = *bytes.get(i + 1)?;
    if next == b'\\' {
        // Escape: the byte after the backslash is part of the escape —
        // `'\''` ends at index 3, not at the escaped quote — then scan
        // to the first unescaped quote (`'\x41'`, `'\u{1F600}'`).
        let mut j = i + 3;
        while j < bytes.len() {
            match bytes[j] {
                b'\\' => j += 2,
                b'\'' => return Some(j),
                _ => j += 1,
            }
        }
        return None;
    }
    if next == b'\'' {
        return None; // '' is not a char literal
    }
    // One character (possibly multi-byte) then a quote → char literal.
    let mut j = i + 2;
    while j < bytes.len() && j <= i + 5 {
        if bytes[j] == b'\'' {
            return Some(j);
        }
        // Past one UTF-8 character's worth without a quote: lifetime.
        if bytes[j].is_ascii() {
            break;
        }
        j += 1;
    }
    None
}

/// Returns one flag per line of `masked`: `true` when the line lies
/// inside a `#[cfg(test)]`-gated item (attribute line included). The
/// attribute is matched token-wise, so rustfmt splitting it across
/// lines (`#[cfg(\n    test\n)]`) still gates the item.
pub(crate) fn test_line_mask(masked: &str) -> Vec<bool> {
    let line_count = masked.lines().count();
    let mut flags = vec![false; line_count];
    let bytes = masked.as_bytes();
    let mut search_from = 0;
    while let Some(pos) = find(bytes, b"#", search_from) {
        search_from = pos + 1;
        let Some(attr_end) = cfg_test_end(bytes, pos) else {
            continue;
        };
        let Some((item_start, item_end)) = gated_item_span(bytes, attr_end) else {
            continue;
        };
        let first_line = line_of(bytes, pos);
        let last_line = line_of(bytes, item_end.min(bytes.len().saturating_sub(1)));
        for flag in flags.iter_mut().take(last_line + 1).skip(first_line) {
            *flag = true;
        }
        // Nested `#[cfg(test)]` inside the span is already covered.
        search_from = item_end.max(item_start);
    }
    flags
}

/// If a `#[cfg(test)]` attribute starts at the `#` at `pos` — with any
/// whitespace (including newlines) between its tokens — returns the
/// index just past the closing `]`. Exactly `test` must fill the
/// parentheses: `#[cfg(any(test, …))]` compiles into non-test builds
/// and must not match.
fn cfg_test_end(bytes: &[u8], pos: usize) -> Option<usize> {
    let mut i = pos;
    for token in [&b"#"[..], b"[", b"cfg", b"(", b"test", b")", b"]"] {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if !bytes[i..].starts_with(token) {
            return None;
        }
        i += token.len();
    }
    Some(i)
}

/// Finds the span of the item following a `#[cfg(test)]` attribute that
/// ends at `from`: skips whitespace and further attributes, then either
/// brace-matches a `{ … }` body or runs to the first `;`.
fn gated_item_span(bytes: &[u8], from: usize) -> Option<(usize, usize)> {
    let mut i = from;
    loop {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            return None;
        }
        if bytes[i] == b'#' {
            // Another attribute: bracket-match past it.
            while i < bytes.len() && bytes[i] != b'[' {
                i += 1;
            }
            let mut depth = 0usize;
            while i < bytes.len() {
                match bytes[i] {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            continue;
        }
        break;
    }
    let item_start = i;
    let mut brace_depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => brace_depth += 1,
            b'}' => {
                if brace_depth <= 1 {
                    return Some((item_start, i));
                }
                brace_depth -= 1;
            }
            b';' if brace_depth == 0 => return Some((item_start, i)),
            _ => {}
        }
        i += 1;
    }
    Some((item_start, bytes.len().saturating_sub(1)))
}

fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if from >= haystack.len() {
        return None;
    }
    haystack[from..].windows(needle.len()).position(|w| w == needle).map(|p| p + from)
}

fn line_of(bytes: &[u8], pos: usize) -> usize {
    bytes[..pos].iter().filter(|&&b| b == b'\n').count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_and_block_comments() {
        let masked = mask_source("let x = 1; // unwrap() here\n/* panic! *//*n/*est*/ed*/ y");
        assert!(!masked.contains("unwrap"));
        assert!(!masked.contains("panic"));
        assert!(!masked.contains("est"));
        assert!(masked.contains("let x = 1;"));
        assert!(masked.ends_with(" y"));
    }

    #[test]
    fn masks_string_contents_keeps_delimiters() {
        let masked = mask_source(r#"let s = "call .unwrap() now"; s.len()"#);
        assert!(!masked.contains("unwrap"));
        assert!(masked.contains("s.len()"));
        assert!(masked.contains('"'));
    }

    #[test]
    fn masks_raw_and_byte_strings() {
        let masked = mask_source(r##"let s = r#"a "quoted" panic!"# ; b"assert!(x)"; br"as f64""##);
        assert!(!masked.contains("panic"));
        assert!(!masked.contains("assert"));
        assert!(!masked.contains("as f64"));
        assert!(masked.contains(';'));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let masked = mask_source(r#"let s = "a\".unwrap()\""; x.f()"#);
        assert!(!masked.contains("unwrap"));
        assert!(masked.contains("x.f()"));
    }

    #[test]
    fn char_literals_masked_lifetimes_kept() {
        let masked = mask_source("fn f<'a>(x: &'a str) { let c = 'u'; let e = '\\n'; }");
        assert!(masked.contains("<'a>"));
        assert!(masked.contains("&'a str"));
        assert!(!masked.contains("'u'"));
        assert!(masked.contains("let c = ' '"));
    }

    #[test]
    fn newlines_survive_masking() {
        let src = "a\n// b\nc\n\"d\ne\"\nf";
        assert_eq!(mask_source(src).lines().count(), src.lines().count());
    }

    #[test]
    fn cfg_test_module_lines_flagged() {
        let src = "\
fn library() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert!(true); }
}

fn also_library() {}
";
        let flags = test_line_mask(&mask_source(src));
        assert!(!flags[0], "library fn is not test code");
        assert!(flags[2], "attribute line is test code");
        assert!(flags[3] && flags[4] && flags[5] && flags[6], "module body is test code");
        assert!(!flags[8], "code after the module is not test code");
    }

    #[test]
    fn cfg_test_with_stacked_attributes() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn helper() {\n  x();\n}\nfn lib() {}\n";
        let flags = test_line_mask(&mask_source(src));
        assert!(flags[0] && flags[1] && flags[2] && flags[3] && flags[4]);
        assert!(!flags[5]);
    }

    #[test]
    fn cfg_any_test_feature_is_not_test_only() {
        // `#[cfg(any(test, feature = "failpoints"))]` compiles into
        // non-test builds — the scanner must NOT treat it as test code.
        let src = "#[cfg(any(test, feature = \"failpoints\"))]\npub mod hooks;\nfn lib() {}\n";
        let flags = test_line_mask(&mask_source(src));
        assert!(flags.iter().all(|&f| !f));
    }

    #[test]
    fn escaped_quote_char_literals() {
        // `'\''` and `b'\''` end at the 4th byte, not at the escaped
        // quote — getting this wrong desynchronizes everything after.
        let masked = mask_source("let q = '\\''; let bq = b'\\''; x.unwrap();");
        assert!(masked.contains("x.unwrap();"), "{masked:?}");
        assert!(!masked.contains('\\'), "escape masked: {masked:?}");
        let masked = mask_source("let bs = b'\\\\'; y.f()");
        assert!(masked.contains("y.f()"), "{masked:?}");
    }

    #[test]
    fn unterminated_block_comment_masks_to_eof() {
        let masked = mask_source("fn f() {}\n/* dangling panic!()\nstill comment unwrap()");
        assert!(masked.contains("fn f() {}"));
        assert!(!masked.contains("panic"));
        assert!(!masked.contains("unwrap"));
        assert_eq!(masked.lines().count(), 3, "newlines survive: {masked:?}");
    }

    #[test]
    fn cfg_test_attribute_split_across_lines() {
        let src = "#[cfg(\n    test\n)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib() {}\n";
        let flags = test_line_mask(&mask_source(src));
        assert!(flags[..6].iter().all(|&f| f), "{flags:?}");
        assert!(!flags[6]);
        // `any(test, …)` stays non-test even when split.
        let src = "#[cfg(any(\n    test,\n    feature = \"x\"\n))]\nmod audit {}\n";
        let flags = test_line_mask(&mask_source(src));
        assert!(flags.iter().all(|&f| !f), "{flags:?}");
    }

    #[test]
    fn semicolon_terminated_gated_item() {
        let src = "#[cfg(test)]\nmod tests;\nfn lib() { x.unwrap(); }\n";
        let flags = test_line_mask(&mask_source(src));
        assert!(flags[0] && flags[1]);
        assert!(!flags[2]);
    }
}
