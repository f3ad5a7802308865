//! `fsd-lint`: a dependency-free, token-level static analyzer that enforces
//! FSD-Inference project invariants the compiler cannot see.
//!
//! The build container is offline, so there is no `syn`/`proc-macro2` to lean
//! on. Instead this crate ships a small hand-rolled lexer (comments, strings,
//! raw strings, char-vs-lifetime disambiguation, line numbers) and a set of
//! lint passes that work on the token stream plus a little shape recovery
//! (brace matching, `#[cfg(test)]` region tracking, match-arm splitting).
//!
//! Launch lints (all deny-by-default; see `ALL_LINTS`):
//!
//! | lint | invariant |
//! |------|-----------|
//! | `variant-exhaustive` | every `match` over `Variant` in non-test code names all variants — no `_` or binding catch-all, so adding a variant fails lint at every stale site |
//! | `billing-pair` | `.begin_request(..)` calls balance `.finish_request(..)` calls within a function body |
//! | `raw-channel-name` | queue/bucket/topic name literals (`fsd-f*`, `bucket-*`, `topic-*`) only appear inside `*_name` helper functions |
//! | `teardown-pair` | every `pub fn create_*`/`provision_*` in `crates/core`/`crates/comm` has a `remove_*`/`delete_*`/`teardown_*`/`destroy_*` twin in the same module; every `pub fn insert_*` has an `evict_*` twin |
//! | `no-unwrap` | no `.unwrap()`, bare/undocumented `.expect(..)`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` in non-test library code |
//! | `lock-across-blocking` | a live `.lock()` guard must not be held across `.wait*(`/`.recv*(`/`sleep(` (condvar waits that consume the guard are recognized and allowed) |
//! | `retry-idempotent` | a `RetryPolicy` `.run(..)` closure — or one handed to the channel engine's `.retried(..)` wrapper around it — must not call non-idempotent channel ops (`take_visible`, `settle_receives`, `enqueue`) — a retried attempt repeats its calls, so only idempotent ops may sit inside one |
//! | `real-wait` | in non-test `crates/comm/src`, real time (`wait_for(`, `wait_until(`, `sleep(`, `Instant::now`) appears only in `mailbox.rs` — the one producer-grace wait; everything else settles from virtual stamps |
//!
//! Escape hatch: a comment containing `fsd_lint::allow(lint-name)` (optionally
//! a comma-separated list, optionally followed by `: reason`) suppresses those
//! lints on the comment's line and the next source line.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lint name: non-exhaustive `match` over `Variant`.
pub const LINT_VARIANT_EXHAUSTIVE: &str = "variant-exhaustive";
/// Lint name: unbalanced `begin_request`/`finish_request` in a function body.
pub const LINT_BILLING_PAIR: &str = "billing-pair";
/// Lint name: raw channel-name string literal outside a `*_name` helper.
pub const LINT_RAW_CHANNEL_NAME: &str = "raw-channel-name";
/// Lint name: `create_*`/`provision_*`/`insert_*` without a teardown twin.
pub const LINT_TEARDOWN_PAIR: &str = "teardown-pair";
/// Lint name: `unwrap`/undocumented `expect`/`panic!`-family in library code.
pub const LINT_NO_UNWRAP: &str = "no-unwrap";
/// Lint name: mutex guard held across a blocking call.
pub const LINT_LOCK_BLOCKING: &str = "lock-across-blocking";
/// Lint name: non-idempotent op inside a `RetryPolicy::run` closure.
pub const LINT_RETRY_IDEMPOTENT: &str = "retry-idempotent";

/// Lint name: real-time wait or clock read in `crates/comm` outside `mailbox.rs`.
pub const LINT_REAL_TIME: &str = "real-wait";

/// Every lint this binary knows about, in diagnostic-name form.
pub const ALL_LINTS: [&str; 8] = [
    LINT_VARIANT_EXHAUSTIVE,
    LINT_BILLING_PAIR,
    LINT_RAW_CHANNEL_NAME,
    LINT_TEARDOWN_PAIR,
    LINT_NO_UNWRAP,
    LINT_LOCK_BLOCKING,
    LINT_RETRY_IDEMPOTENT,
    LINT_REAL_TIME,
];

/// A single diagnostic: `path:line: [lint] message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based source line of the diagnostic anchor.
    pub line: u32,
    /// One of [`ALL_LINTS`].
    pub lint: &'static str,
    /// Human-readable explanation of the violated invariant.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Per-file lint configuration.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// The full variant set of the workspace `Variant` enum. Empty disables
    /// the `variant-exhaustive` lint (e.g. before discovery has run).
    pub variants: Vec<String>,
    /// Workspace-relative path of the file; drives path-scoped rules
    /// (test/bench exemptions, core/comm-only lints) and diagnostics.
    pub path: String,
}

impl LintConfig {
    fn is_test_path(&self) -> bool {
        let p = &self.path;
        p.starts_with("tests/")
            || p.starts_with("benches/")
            || p.starts_with("examples/")
            || p.contains("/tests/")
            || p.contains("/benches/")
            || p.contains("/examples/")
    }

    fn is_bin_path(&self) -> bool {
        self.path.contains("/src/bin/")
    }

    fn is_core_or_comm(&self) -> bool {
        self.path.starts_with("crates/core/") || self.path.starts_with("crates/comm/")
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Word,
    Str,
    Num,
    Ch,
    Life,
    Sym,
}

#[derive(Debug, Clone)]
struct Tok {
    kind: Kind,
    text: String,
    line: u32,
}

impl Tok {
    fn is_sym(&self, c: char) -> bool {
        self.kind == Kind::Sym && self.text.len() == 1 && self.text.starts_with(c)
    }

    fn is_word(&self, w: &str) -> bool {
        self.kind == Kind::Word && self.text == w
    }
}

/// Lines on which each lint is suppressed via `fsd_lint::allow(..)` comments.
type Allows = BTreeMap<u32, BTreeSet<String>>;

fn parse_allow_names(comment: &str) -> Vec<String> {
    let Some(start) = comment.find("fsd_lint::allow(") else {
        return Vec::new();
    };
    let rest = &comment[start + "fsd_lint::allow(".len()..];
    let Some(end) = rest.find(')') else {
        return Vec::new();
    };
    rest[..end]
        .split(',')
        .map(|n| n.trim().to_string())
        .filter(|n| !n.is_empty())
        .collect()
}

fn allowed(allows: &Allows, line: u32, lint: &str) -> bool {
    allows
        .get(&line)
        .is_some_and(|s| s.contains(lint) || s.contains("all"))
}

fn lex(src: &str) -> (Vec<Tok>, Allows) {
    let bytes: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    // (comment line, lint names) — resolved to an Allows map after lexing,
    // once token positions are known.
    let mut directives: Vec<(u32, Vec<String>)> = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = bytes.len();

    let count_newlines = |s: &[char]| s.iter().filter(|&&c| c == '\n').count() as u32;

    while i < n {
        let c = bytes[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (incl. doc comments).
        if c == '/' && i + 1 < n && bytes[i + 1] == '/' {
            let start = i;
            while i < n && bytes[i] != '\n' {
                i += 1;
            }
            let text: String = bytes[start..i].iter().collect();
            let names = parse_allow_names(&text);
            if !names.is_empty() {
                directives.push((line, names));
            }
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && i + 1 < n && bytes[i + 1] == '*' {
            let start = i;
            let start_line = line;
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if bytes[i] == '/' && i + 1 < n && bytes[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == '*' && i + 1 < n && bytes[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if bytes[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            let text: String = bytes[start..i.min(n)].iter().collect();
            let names = parse_allow_names(&text);
            if !names.is_empty() {
                directives.push((start_line, names));
            }
            continue;
        }
        // Raw string: r"..." / r#"..."# / br#"..."#.
        if (c == 'r' || c == 'b') && i + 1 < n {
            let mut j = i;
            if c == 'b' && bytes[j + 1] == 'r' {
                j += 1;
            }
            if bytes[j] == 'r' || (c == 'r' && j == i) {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while k < n && bytes[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && bytes[k] == '"' && (bytes[j] == 'r') {
                    // Scan to closing quote followed by `hashes` hashes.
                    let body_start = k + 1;
                    let mut m = body_start;
                    while m < n {
                        if bytes[m] == '"' {
                            let mut h = 0usize;
                            while m + 1 + h < n && h < hashes && bytes[m + 1 + h] == '#' {
                                h += 1;
                            }
                            if h == hashes {
                                break;
                            }
                        }
                        m += 1;
                    }
                    let text: String = bytes[body_start..m.min(n)].iter().collect();
                    line += count_newlines(&bytes[i..m.min(n)]);
                    toks.push(Tok {
                        kind: Kind::Str,
                        text,
                        line,
                    });
                    i = (m + 1 + hashes).min(n);
                    continue;
                }
            }
        }
        // Plain / byte string.
        if c == '"' || (c == 'b' && i + 1 < n && bytes[i + 1] == '"') {
            let start_line = line;
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            let body_start = j;
            while j < n {
                if bytes[j] == '\\' {
                    j += 2;
                    continue;
                }
                if bytes[j] == '"' {
                    break;
                }
                if bytes[j] == '\n' {
                    line += 1;
                }
                j += 1;
            }
            let text: String = bytes[body_start..j.min(n)].iter().collect();
            toks.push(Tok {
                kind: Kind::Str,
                text,
                line: start_line,
            });
            i = (j + 1).min(n);
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let next = bytes.get(i + 1).copied().unwrap_or(' ');
            let after = bytes.get(i + 2).copied().unwrap_or(' ');
            if (next.is_alphabetic() || next == '_') && after != '\'' {
                // Lifetime.
                let mut j = i + 1;
                while j < n && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                    j += 1;
                }
                toks.push(Tok {
                    kind: Kind::Life,
                    text: bytes[i + 1..j].iter().collect(),
                    line,
                });
                i = j;
                continue;
            }
            // Char literal: 'x', '\n', '\u{..}'.
            let mut j = i + 1;
            while j < n {
                if bytes[j] == '\\' {
                    j += 2;
                    continue;
                }
                if bytes[j] == '\'' {
                    break;
                }
                j += 1;
            }
            toks.push(Tok {
                kind: Kind::Ch,
                text: String::new(),
                line,
            });
            i = (j + 1).min(n);
            continue;
        }
        // Ident / keyword.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                i += 1;
            }
            toks.push(Tok {
                kind: Kind::Word,
                text: bytes[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Number (digits plus alnum/`.`/`_` continuation: 0xff, 1_000, 1.5e3).
        if c.is_ascii_digit() {
            let start = i;
            while i < n
                && (bytes[i].is_alphanumeric()
                    || bytes[i] == '_'
                    || (bytes[i] == '.' && i + 1 < n && bytes[i + 1].is_ascii_digit()))
            {
                i += 1;
            }
            toks.push(Tok {
                kind: Kind::Num,
                text: bytes[start..i].iter().collect(),
                line,
            });
            continue;
        }
        toks.push(Tok {
            kind: Kind::Sym,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    // A directive covers its own line (trailing comments) and the line of
    // the next code token after it, however many comment lines intervene.
    let mut allows = Allows::new();
    for (cline, names) in directives {
        let mut lines = vec![cline];
        if let Some(next) = toks.iter().find(|t| t.line > cline) {
            lines.push(next.line);
        }
        for l in lines {
            allows.entry(l).or_default().extend(names.iter().cloned());
        }
    }
    (toks, allows)
}

// ---------------------------------------------------------------------------
// Shape recovery helpers
// ---------------------------------------------------------------------------

/// Index of the matching close token for the open bracket at `open`, or the
/// stream end if unbalanced.
fn matching_close(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks.get(open).map(|t| t.text.as_str()) {
        Some("{") => ('{', '}'),
        Some("(") => ('(', ')'),
        Some("[") => ('[', ']'),
        _ => return open,
    };
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_sym(o) {
            depth += 1;
        } else if t.is_sym(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Marks each token as test code: inside an item carrying a `#[cfg(test)]` or
/// `#[test]`-family attribute (attribute detection + brace matching).
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_sym('#') && toks.get(i + 1).is_some_and(|t| t.is_sym('[')) {
            let close = matching_close(toks, i + 1);
            let attr_words: Vec<&str> = toks[i + 1..=close.min(toks.len() - 1)]
                .iter()
                .filter(|t| t.kind == Kind::Word)
                .map(|t| t.text.as_str())
                .collect();
            let is_test_attr = attr_words.first() == Some(&"test")
                || (attr_words.contains(&"cfg") && attr_words.contains(&"test"));
            if is_test_attr {
                // Find the item body: first `{` before any top-level `;`.
                let mut j = close + 1;
                let mut depth = 0i32;
                while j < toks.len() {
                    let t = &toks[j];
                    if depth == 0 && t.is_sym('{') {
                        let end = matching_close(toks, j);
                        for m in mask.iter_mut().take(end + 1).skip(i) {
                            *m = true;
                        }
                        break;
                    }
                    if depth == 0 && t.is_sym(';') {
                        // `#[cfg(test)] use ...;` — only the statement is test.
                        for m in mask.iter_mut().take(j + 1).skip(i) {
                            *m = true;
                        }
                        break;
                    }
                    match t.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// For each token index, the name of the innermost enclosing `fn`, if any.
fn fn_context(toks: &[Tok]) -> Vec<Option<String>> {
    let mut ctx: Vec<Option<String>> = vec![None; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_word("fn") {
            if let Some(name_tok) = toks.get(i + 1) {
                if name_tok.kind == Kind::Word {
                    let name = name_tok.text.clone();
                    // Body: first `{` at zero ()/[]/<-free depth after the
                    // parameter list. Track only ()/[] — generics `<>` are
                    // ambiguous with comparisons and never contain `{`
                    // in signatures we lint.
                    let mut j = i + 2;
                    let mut depth = 0i32;
                    while j < toks.len() {
                        let t = &toks[j];
                        if depth == 0 && t.is_sym('{') {
                            let end = matching_close(toks, j);
                            for slot in ctx.iter_mut().take(end + 1).skip(j) {
                                *slot = Some(name.clone());
                            }
                            break;
                        }
                        if depth == 0 && t.is_sym(';') {
                            break; // trait method declaration, no body
                        }
                        match t.text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                }
            }
        }
        i += 1;
    }
    ctx
}

// ---------------------------------------------------------------------------
// Lint passes
// ---------------------------------------------------------------------------

struct FileCtx<'a> {
    toks: &'a [Tok],
    test: &'a [bool],
    allows: &'a Allows,
    cfg: &'a LintConfig,
}

impl FileCtx<'_> {
    fn push(&self, out: &mut Vec<Finding>, line: u32, lint: &'static str, message: String) {
        if !allowed(self.allows, line, lint) {
            out.push(Finding {
                file: self.cfg.path.clone(),
                line,
                lint,
                message,
            });
        }
    }
}

/// Lint 1: `variant-exhaustive`.
fn lint_variant_exhaustive(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.cfg.variants.is_empty() {
        return;
    }
    let toks = ctx.toks;
    let full: BTreeSet<&str> = ctx.cfg.variants.iter().map(String::as_str).collect();
    for i in 0..toks.len() {
        if !toks[i].is_word("match") || ctx.test[i] {
            continue;
        }
        // Locate the match body `{`: first top-level brace after the scrutinee.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut body_open = None;
        while j < toks.len() {
            let t = &toks[j];
            if depth == 0 && t.is_sym('{') {
                body_open = Some(j);
                break;
            }
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else { continue };
        let close = matching_close(toks, open);

        // Split arms: boundaries are depth-0 `,` and depth-0 block closes.
        let mut named: BTreeSet<String> = BTreeSet::new();
        let mut has_catch_all = false;
        let mut mentions_variant = false;
        let mut depth = 0i32;
        let mut arm_start = open + 1;
        let mut k = open + 1;
        while k < close {
            let t = &toks[k];
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth -= 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        arm_start = k + 1; // block-bodied arm just ended
                    }
                }
                "," if depth == 0 => arm_start = k + 1,
                "=" if depth == 0 && toks.get(k + 1).is_some_and(|t| t.is_sym('>')) => {
                    // Pattern tokens: arm_start..k, guard stripped.
                    let mut pat: Vec<&Tok> = Vec::new();
                    for p in toks.iter().take(k).skip(arm_start) {
                        if p.is_word("if") {
                            break;
                        }
                        pat.push(p);
                    }
                    // Collect `Variant::Name` mentions.
                    for w in 0..pat.len() {
                        if pat[w].is_word("Variant")
                            && pat.get(w + 1).is_some_and(|t| t.is_sym(':'))
                            && pat.get(w + 2).is_some_and(|t| t.is_sym(':'))
                        {
                            mentions_variant = true;
                            if let Some(name) = pat.get(w + 3) {
                                if name.kind == Kind::Word {
                                    named.insert(name.text.clone());
                                }
                            }
                        }
                    }
                    // Catch-all: a lone `_` or a lone lowercase binding.
                    let non_trivial: Vec<&&Tok> = pat
                        .iter()
                        .filter(|t| !t.is_word("mut") && !t.is_word("ref"))
                        .collect();
                    if non_trivial.len() == 1 {
                        let only = non_trivial[0];
                        let lone_binding = only.kind == Kind::Word
                            && only
                                .text
                                .chars()
                                .next()
                                .is_some_and(|c| c.is_lowercase() || c == '_');
                        if only.is_sym('_') || lone_binding {
                            has_catch_all = true;
                        }
                    }
                    // Skip past `=>` so `>` is not miscounted.
                    k += 1;
                }
                _ => {}
            }
            k += 1;
        }

        if mentions_variant {
            let missing: Vec<&str> = full
                .iter()
                .filter(|v| !named.contains(**v))
                .copied()
                .collect();
            if has_catch_all || !missing.is_empty() {
                let mut why = Vec::new();
                if has_catch_all {
                    why.push("catch-all arm".to_string());
                }
                if !missing.is_empty() {
                    why.push(format!("unnamed variants: {}", missing.join(", ")));
                }
                ctx.push(
                    out,
                    toks[i].line,
                    LINT_VARIANT_EXHAUSTIVE,
                    format!(
                        "match over Variant must name every variant explicitly ({})",
                        why.join("; ")
                    ),
                );
            }
        }
    }
}

/// Lint 2: `billing-pair`.
fn lint_billing_pair(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_word("fn") && !ctx.test[i] {
            let name = toks
                .get(i + 1)
                .filter(|t| t.kind == Kind::Word)
                .map(|t| t.text.clone());
            // Find the body.
            let mut j = i + 2;
            let mut depth = 0i32;
            while j < toks.len() {
                if depth == 0 && toks[j].is_sym('{') {
                    break;
                }
                if depth == 0 && toks[j].is_sym(';') {
                    j = toks.len();
                    break;
                }
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            if j >= toks.len() {
                i += 1;
                continue;
            }
            let close = matching_close(toks, j);
            let mut begins = 0usize;
            let mut finishes = 0usize;
            for k in j..close {
                if toks[k].is_sym('.') && toks.get(k + 2).is_some_and(|t| t.is_sym('(')) {
                    if toks[k + 1].is_word("begin_request") {
                        begins += 1;
                    } else if toks[k + 1].is_word("finish_request") {
                        finishes += 1;
                    }
                }
            }
            if begins != finishes {
                ctx.push(
                    out,
                    toks[i].line,
                    LINT_BILLING_PAIR,
                    format!(
                        "fn {} has {} begin_request call(s) but {} finish_request call(s); billing windows must pair within a function body",
                        name.unwrap_or_else(|| "<anon>".into()),
                        begins,
                        finishes
                    ),
                );
            }
        }
        i += 1;
    }
}

/// Lint 3: `raw-channel-name`.
fn lint_raw_channel_name(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let fns = fn_context(ctx.toks);
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.kind != Kind::Str || ctx.test[i] {
            continue;
        }
        let s = &t.text;
        let channel_like = {
            // `fsd-f<digit-or-brace>`: a flow-namespaced channel name.
            let flow = s.len() > 5
                && s.starts_with("fsd-f")
                && s[5..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit() || c == '{');
            flow || s.starts_with("bucket-") || s.starts_with("topic-")
        };
        if !channel_like {
            continue;
        }
        match &fns[i] {
            // Literals outside any fn are named consts — the sanctioned
            // single-definition-point pattern.
            None => continue,
            Some(f) if f.ends_with("_name") => continue,
            Some(f) => ctx.push(
                out,
                t.line,
                LINT_RAW_CHANNEL_NAME,
                format!(
                    "channel-name-like literal \"{s}\" in fn {f}; construct names via a *_name helper (queue_name/bucket_name/topic_name)"
                ),
            ),
        }
    }
}

/// Lint 4: `teardown-pair` (scoped to `crates/core` and `crates/comm`).
fn lint_teardown_pair(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.cfg.is_core_or_comm() {
        return;
    }
    let toks = ctx.toks;
    // Collect `pub fn <name>` along with the token index of the name.
    let mut pub_fns: Vec<(String, u32, usize)> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_word("pub") && !ctx.test[i] {
            // Allow `pub(crate) fn` / `pub fn`.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_sym('(')) {
                j = matching_close(toks, j) + 1;
            }
            if toks.get(j).is_some_and(|t| t.is_word("fn")) {
                if let Some(name) = toks.get(j + 1) {
                    if name.kind == Kind::Word {
                        pub_fns.push((name.text.clone(), name.line, i));
                    }
                }
            }
        }
    }
    let names: BTreeSet<&str> = pub_fns.iter().map(|(n, _, _)| n.as_str()).collect();
    for (name, line, _) in &pub_fns {
        // `insert_*` populates a shared container and must be paired with
        // an `evict_*` on the same surface; `create_*`/`provision_*` stand
        // up cloud state and accept the wider teardown vocabulary.
        let (twins, expected) = if let Some(s) = name.strip_prefix("insert_") {
            (vec![format!("evict_{s}")], format!("evict_{s}"))
        } else if let Some(s) = name
            .strip_prefix("create_")
            .or_else(|| name.strip_prefix("provision_"))
        {
            (
                vec![
                    format!("remove_{s}"),
                    format!("delete_{s}"),
                    format!("teardown_{s}"),
                    format!("destroy_{s}"),
                ],
                format!("one of remove_{s}/delete_{s}/teardown_{s}/destroy_{s}"),
            )
        } else {
            continue;
        };
        if !twins.iter().any(|t| names.contains(t.as_str())) {
            ctx.push(
                out,
                *line,
                LINT_TEARDOWN_PAIR,
                format!("pub fn {name} has no teardown twin (expected {expected} in this module)"),
            );
        }
    }
}

/// Lint 5: `no-unwrap`.
fn lint_no_unwrap(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.cfg.is_bin_path() {
        return; // CLI binaries may fail fast on bad input.
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if ctx.test[i] {
            continue;
        }
        let t = &toks[i];
        // `.unwrap()` / `.expect(..)` method calls.
        if t.is_sym('.') {
            let Some(m) = toks.get(i + 1) else { continue };
            if !toks.get(i + 2).is_some_and(|t| t.is_sym('(')) {
                continue;
            }
            if m.is_word("unwrap") {
                ctx.push(
                    out,
                    m.line,
                    LINT_NO_UNWRAP,
                    "unwrap() in library code; return a structured error or use expect(\"<invariant>\")".into(),
                );
            } else if m.is_word("expect") {
                // Allowed only with a non-empty string-literal invariant message.
                let arg = toks.get(i + 3);
                let documented =
                    arg.is_some_and(|a| a.kind == Kind::Str && !a.text.trim().is_empty());
                if !documented {
                    ctx.push(
                        out,
                        m.line,
                        LINT_NO_UNWRAP,
                        "expect() without a literal invariant message; document why this cannot fail".into(),
                    );
                }
            }
        }
        // `panic!` family macros.
        if t.kind == Kind::Word
            && toks.get(i + 1).is_some_and(|n| n.is_sym('!'))
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
        {
            // Skip definitions/paths like `std::panic::catch_unwind` (no `!`)
            // — already filtered by requiring `!`.
            ctx.push(
                out,
                t.line,
                LINT_NO_UNWRAP,
                format!(
                    "{}! in library code; return a structured error (or add an fsd_lint::allow with the invariant)",
                    t.text
                ),
            );
        }
    }
}

/// Lint 6: `lock-across-blocking`.
fn lint_lock_across_blocking(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    const BLOCKING: [&str; 7] = [
        "wait",
        "wait_for",
        "wait_timeout",
        "wait_while",
        "recv",
        "recv_timeout",
        "sleep",
    ];
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_word("let") || ctx.test[i] {
            i += 1;
            continue;
        }
        // Statement: let [mut] NAME ... = ... ;  — look for `.lock()` inside.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_word("mut")) {
            j += 1;
        }
        let Some(name_tok) = toks.get(j) else { break };
        if name_tok.kind != Kind::Word {
            i += 1;
            continue;
        }
        let guard = name_tok.text.clone();
        // Find statement end `;` at relative depth 0.
        let mut k = j + 1;
        let mut depth = 0i32;
        let mut has_lock = false;
        while k < toks.len() {
            let t = &toks[k];
            if depth == 0 && t.is_sym(';') {
                break;
            }
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                _ => {}
            }
            if t.is_sym('.')
                && toks.get(k + 1).is_some_and(|t| t.is_word("lock"))
                && toks.get(k + 2).is_some_and(|t| t.is_sym('('))
            {
                // The binding is a guard only if `.lock()` terminates the
                // initializer (optionally via `.unwrap()`/`.expect(..)`).
                // `lock().expect(..).get_mut(..)...` yields a value extracted
                // under a temporary guard that drops at statement end.
                let mut idx = matching_close(toks, k + 2) + 1;
                while toks.get(idx).is_some_and(|t| t.is_sym('.'))
                    && toks
                        .get(idx + 1)
                        .is_some_and(|t| t.is_word("unwrap") || t.is_word("expect"))
                    && toks.get(idx + 2).is_some_and(|t| t.is_sym('('))
                {
                    idx = matching_close(toks, idx + 2) + 1;
                }
                if toks.get(idx).is_some_and(|t| t.is_sym(';')) {
                    has_lock = true;
                }
            }
            k += 1;
        }
        if !has_lock {
            i = k;
            continue;
        }
        // Scan from the end of the statement to the close of the enclosing
        // block; flag blocking calls unless the guard is consumed by them
        // (condvar-style `cvar.wait(&mut guard)` releases the lock) or
        // dropped first.
        let mut m = k + 1;
        let mut bdepth = 0i32;
        while m < toks.len() {
            let t = &toks[m];
            match t.text.as_str() {
                "{" => bdepth += 1,
                "}" => {
                    bdepth -= 1;
                    if bdepth < 0 {
                        break; // enclosing block closed; guard dropped
                    }
                }
                _ => {}
            }
            // drop(guard) ends the window.
            if t.is_word("drop")
                && toks.get(m + 1).is_some_and(|t| t.is_sym('('))
                && toks.get(m + 2).is_some_and(|t| t.is_word(&guard))
            {
                break;
            }
            // Re-assignment shadows the binding; stop tracking.
            if t.is_word("let")
                && (toks.get(m + 1).is_some_and(|t| t.is_word(&guard))
                    || (toks.get(m + 1).is_some_and(|t| t.is_word("mut"))
                        && toks.get(m + 2).is_some_and(|t| t.is_word(&guard))))
            {
                break;
            }
            if t.kind == Kind::Word
                && BLOCKING.contains(&t.text.as_str())
                && toks.get(m + 1).is_some_and(|t| t.is_sym('('))
            {
                // Allowed if the guard itself is an argument (condvar wait
                // atomically releases the lock).
                let close = matching_close(toks, m + 1);
                let consumes_guard = toks[m + 1..=close.min(toks.len() - 1)]
                    .iter()
                    .any(|a| a.is_word(&guard));
                if !consumes_guard {
                    ctx.push(
                        out,
                        t.line,
                        LINT_LOCK_BLOCKING,
                        format!(
                            "blocking call `{}(` while mutex guard `{}` (locked at line {}) is still live; drop the guard first",
                            t.text, guard, name_tok.line
                        ),
                    );
                    break; // one diagnostic per guard is enough
                }
            }
            m += 1;
        }
        i = k + 1;
    }
}

/// Lint 7: `retry-idempotent`.
///
/// A retried attempt repeats every call its closure makes, so only
/// idempotent ops (re-PUT same key, re-GET, re-publish of a deduped
/// record) may run under a `RetryPolicy`. Consuming/destructive ops —
/// receives that pop messages, visibility takes, deletes, scheduler
/// enqueues — would double their effect on retry.
fn lint_retry_idempotent(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    const NON_IDEMPOTENT: [&str; 3] = ["take_visible", "settle_receives", "enqueue"];
    let toks = ctx.toks;
    for i in 0..toks.len() {
        let (run, retried) = (toks[i].is_word("run"), toks[i].is_word("retried"));
        if ctx.test[i] || !(run || retried) {
            continue;
        }
        if i == 0 || !toks[i - 1].is_sym('.') || !toks.get(i + 1).is_some_and(|t| t.is_sym('(')) {
            continue;
        }
        // `.retried(` is the channel engine's wrapper around the policy.
        // A `.run(` receiver must be retry-ish: a `retry` field/binding or
        // a `RetryPolicy` constructor within the few tokens leading up to
        // it (e.g. `self.opts.retry.run(` or `RetryPolicy::default().run(`).
        let lookback_start = i.saturating_sub(8);
        let retry_ish = toks[lookback_start..i]
            .iter()
            .any(|t| t.is_word("retry") || t.is_word("RetryPolicy"));
        if run && !retry_ish {
            continue;
        }
        let close = matching_close(toks, i + 1);
        for k in i + 2..close {
            let t = &toks[k];
            if t.kind == Kind::Word
                && NON_IDEMPOTENT.contains(&t.text.as_str())
                && toks.get(k + 1).is_some_and(|n| n.is_sym('('))
            {
                ctx.push(
                    out,
                    t.line,
                    LINT_RETRY_IDEMPOTENT,
                    format!(
                        "non-idempotent op `{}(` inside a RetryPolicy::run closure (entered at line {}); a retry repeats its calls, so only idempotent ops may run under the policy",
                        t.text,
                        toks[i].line
                    ),
                );
            }
        }
    }
}

/// Lint 8: `real-wait`.
///
/// The simulated services settle every virtual effect from stamps; real
/// time enters `crates/comm` only through the producer-grace wait in
/// `mailbox.rs`. A real-time wait or clock read anywhere else in the crate
/// would make a receive's result depend on thread timing again.
fn lint_real_wait(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let path = &ctx.cfg.path;
    if !path.starts_with("crates/comm/src/") || path.ends_with("/mailbox.rs") {
        return;
    }
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if ctx.test[i] || t.kind != Kind::Word {
            continue;
        }
        let waits = matches!(t.text.as_str(), "wait_for" | "wait_until" | "sleep")
            && toks.get(i + 1).is_some_and(|n| n.is_sym('('));
        let reads_clock = t.is_word("now")
            && i >= 3
            && toks[i - 1].is_sym(':')
            && toks[i - 2].is_sym(':')
            && toks[i - 3].is_word("Instant");
        if waits || reads_clock {
            ctx.push(
                out,
                t.line,
                LINT_REAL_TIME,
                format!(
                    "real time (`{}`) in crates/comm outside mailbox.rs; wait through `mailbox::wait_for_producers` and settle timing from virtual stamps",
                    t.text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Lint a single source string under `cfg`. This is the unit the fixture
/// tests drive directly; `lint_workspace` calls it per file.
pub fn lint_source(src: &str, cfg: &LintConfig) -> Vec<Finding> {
    let (toks, allows) = lex(src);
    let test = test_mask(&toks);
    let ctx = FileCtx {
        toks: &toks,
        test: &test,
        allows: &allows,
        cfg,
    };
    let mut out = Vec::new();
    if !cfg.is_test_path() {
        lint_variant_exhaustive(&ctx, &mut out);
        lint_billing_pair(&ctx, &mut out);
        lint_raw_channel_name(&ctx, &mut out);
        lint_teardown_pair(&ctx, &mut out);
        lint_no_unwrap(&ctx, &mut out);
        lint_lock_across_blocking(&ctx, &mut out);
        lint_retry_idempotent(&ctx, &mut out);
        lint_real_wait(&ctx, &mut out);
    }
    out.sort();
    out
}

/// Extract the variant names of `pub enum Variant { ... }` from a source
/// string, if the file defines it.
pub fn discover_variants_in(src: &str) -> Option<Vec<String>> {
    let (toks, _) = lex(src);
    for i in 0..toks.len() {
        if toks[i].is_word("enum") && toks.get(i + 1).is_some_and(|t| t.is_word("Variant")) {
            // Find the body brace.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_sym('{') {
                j += 1;
            }
            if j >= toks.len() {
                return None;
            }
            let close = matching_close(&toks, j);
            let mut names = Vec::new();
            let mut depth = 0i32;
            for k in j..=close {
                match toks[k].text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => depth -= 1,
                    _ => {}
                }
                // Variant idents sit at depth 1 and are followed by `,`, `}`,
                // `(`, `{`, or `=`.
                if depth == 1
                    && toks[k].kind == Kind::Word
                    && toks[k]
                        .text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_uppercase())
                    && toks.get(k + 1).is_some_and(|t| {
                        t.is_sym(',')
                            || t.is_sym('}')
                            || t.is_sym('(')
                            || t.is_sym('{')
                            || t.is_sym('=')
                    })
                {
                    names.push(toks[k].text.clone());
                }
            }
            if !names.is_empty() {
                return Some(names);
            }
        }
    }
    None
}

fn should_skip_dir(name: &str) -> bool {
    matches!(name, "target" | ".git" | "fixtures" | "shims" | ".github")
}

/// Recursively collect workspace `.rs` files (skipping `target`, `.git`,
/// `fixtures`, and the vendored `shims`), returned as root-relative paths in
/// deterministic order.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if path.is_dir() {
                if !should_skip_dir(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_path_buf());
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint every workspace source file under `root`. Discovers the `Variant`
/// enum automatically so the exhaustiveness lint self-updates when new
/// variants land.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let files = collect_rs_files(root)?;
    let mut variants = Vec::new();
    let mut sources: Vec<(String, String)> = Vec::new();
    for rel in &files {
        let src = fs::read_to_string(root.join(rel))?;
        if variants.is_empty() {
            if let Some(v) = discover_variants_in(&src) {
                variants = v;
            }
        }
        sources.push((rel.to_string_lossy().replace('\\', "/"), src));
    }
    let mut out = Vec::new();
    for (path, src) in &sources {
        let cfg = LintConfig {
            variants: variants.clone(),
            path: path.clone(),
        };
        out.extend(lint_source(src, &cfg));
    }
    out.sort();
    Ok(out)
}
