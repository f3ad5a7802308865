//! `fsd-lint`: a dependency-free, token-level static analyzer that enforces
//! FSD-Inference project invariants the compiler cannot see.
//!
//! The build container is offline, so there is no `syn`/`proc-macro2` to lean
//! on. Instead this crate ships a small hand-rolled lexer (comments, strings,
//! raw strings, char-vs-lifetime disambiguation, line numbers) and a set of
//! lint passes that work on the token stream plus a little shape recovery
//! (brace matching, `#[cfg(test)]` region tracking, match-arm splitting).
//!
//! Lints (all deny-by-default):
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
//! | `real-wait` | in non-test `crates/{comm,core,faas,sched}/src`, real time (`wait_for(`, `wait_until(`, `sleep(`, `Instant::now`) never appears — every effect settles from virtual stamps and every wait is untimed, ended by a notify (a raw receive's by its producer's post or its tree's poison) |
//! | `byte-reader` | in non-test `crates/{sparse,core,comm}/src`, `from_le_bytes` and any `fn` whose name contains `varint` appear only in `crates/sparse/src/bytes.rs` — every byte format decodes through its one bounds-checked `Reader` |
//! | `std-lock` | in non-test `crates/{comm,core,faas,sched}/src`, no `std::sync::{Mutex, RwLock, Condvar}` — by path or in a (brace) import — so every lock goes through the `parking_lot` shim, the one place a lock can be instrumented or its interleaving replayed; `std::sync::mpsc` channels stay allowed until the executor's own channels move behind the shim (ROADMAP item 2) |
//! | `orphan-pub` | every bare-`pub` `fn`/`const`/`static` of non-test library code (`crates/*/src` outside `src/bin/`) is named by another file's non-test code — library, bin or example; tests, comments and `use` lines do not count, and a `fn` is named only call-shaped (`name(`, `name::<`, `::name`) |
//!
//! Escape hatch: a comment containing `fsd_lint::allow(lint-name): reason`
//! (optionally a comma-separated list of lints) suppresses those lints on the
//! comment's line and the next source line. The reason is required: an allow
//! without one suppresses nothing and is itself reported.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lint name: non-exhaustive `match` over `Variant`.
const LINT_VARIANT_EXHAUSTIVE: &str = "variant-exhaustive";
/// Lint name: unbalanced `begin_request`/`finish_request` in a function body.
const LINT_BILLING_PAIR: &str = "billing-pair";
/// Lint name: raw channel-name string literal outside a `*_name` helper.
const LINT_RAW_CHANNEL_NAME: &str = "raw-channel-name";
/// Lint name: `create_*`/`provision_*`/`insert_*` without a teardown twin.
const LINT_TEARDOWN_PAIR: &str = "teardown-pair";
/// Lint name: `unwrap`/undocumented `expect`/`panic!`-family in library code.
const LINT_NO_UNWRAP: &str = "no-unwrap";
/// Lint name: mutex guard held across a blocking call.
const LINT_LOCK_BLOCKING: &str = "lock-across-blocking";
/// Lint name: non-idempotent op inside a `RetryPolicy::run` closure.
const LINT_RETRY_IDEMPOTENT: &str = "retry-idempotent";

/// Lint name: real-time wait or clock read in the comm, core, faas or sched
/// crates.
const LINT_REAL_TIME: &str = "real-wait";

/// Lint name: a byte decoder outside the shared `fsd_sparse::bytes` reader.
const LINT_BYTE_READER: &str = "byte-reader";

/// Lint name: a `std::sync` lock in the comm, core, faas or sched crates.
const LINT_STD_LOCK: &str = "std-lock";

/// Lint name: a public item no other file's non-test code names.
const LINT_ORPHAN_PUB: &str = "orphan-pub";

/// Every lint this binary knows about, in diagnostic-name form.
const ALL_LINTS: [&str; 11] = [
    LINT_VARIANT_EXHAUSTIVE,
    LINT_BILLING_PAIR,
    LINT_RAW_CHANNEL_NAME,
    LINT_TEARDOWN_PAIR,
    LINT_NO_UNWRAP,
    LINT_LOCK_BLOCKING,
    LINT_RETRY_IDEMPOTENT,
    LINT_REAL_TIME,
    LINT_BYTE_READER,
    LINT_STD_LOCK,
    LINT_ORPHAN_PUB,
];

/// A single diagnostic: `path:line: [lint] message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based source line of the diagnostic anchor.
    pub line: u32,
    /// The lint's diagnostic name, e.g. `no-unwrap`.
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

/// Integration tests, bench harnesses and `tests.rs` modules (the body of a
/// `#[cfg(test)] mod tests;`): never linted, never a caller.
fn is_test_file(p: &str) -> bool {
    p.starts_with("tests/")
        || p.starts_with("benches/")
        || p.contains("/tests/")
        || p.contains("/benches/")
        || p.ends_with("/tests.rs")
}

/// Examples are callers, but not linted as library code.
fn is_example(p: &str) -> bool {
    p.starts_with("examples/") || p.contains("/examples/")
}

fn is_bin_path(p: &str) -> bool {
    p.contains("/src/bin/")
}

/// Library code: a crate's `src/`, outside its bins and test modules.
fn is_library(p: &str) -> bool {
    p.starts_with("crates/") && p.contains("/src/") && !is_bin_path(p) && !is_test_file(p)
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

/// Lines on which each lint is suppressed via `fsd_lint::allow(..): reason`
/// comments.
type Allows = BTreeMap<u32, BTreeSet<String>>;

/// `(comment line, lint names)` of each allow that gives no reason.
type Unreasoned = Vec<(u32, Vec<String>)>;

/// The lint names of an `fsd_lint::allow(..)` directive in `comment`, and
/// whether a `: reason` follows them.
fn parse_allow(comment: &str) -> Option<(Vec<String>, bool)> {
    let start = comment.find("fsd_lint::allow(")?;
    let rest = &comment[start + "fsd_lint::allow(".len()..];
    let end = rest.find(')')?;
    let names: Vec<String> = rest[..end]
        .split(',')
        .map(|n| n.trim().to_string())
        .filter(|n| !n.is_empty())
        .collect();
    let reasoned = rest[end + 1..]
        .trim_start()
        .strip_prefix(':')
        .is_some_and(|r| !r.trim().is_empty());
    (!names.is_empty()).then_some((names, reasoned))
}

fn allowed(allows: &Allows, line: u32, lint: &str) -> bool {
    allows.get(&line).is_some_and(|s| s.contains(lint))
}

/// Lexes `src` into tokens, the lines its reasoned allows cover, and its
/// allows that give no reason (which suppress nothing).
fn lex(src: &str) -> (Vec<Tok>, Allows, Unreasoned) {
    let bytes: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    // (comment line, lint names, reasoned) — resolved to an Allows map after
    // lexing, once token positions are known.
    let mut directives: Vec<(u32, Vec<String>, bool)> = Vec::new();
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
            if let Some((names, reasoned)) = parse_allow(&text) {
                directives.push((line, names, reasoned));
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
            if let Some((names, reasoned)) = parse_allow(&text) {
                directives.push((start_line, names, reasoned));
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
    let mut bare = Vec::new();
    for (cline, names, reasoned) in directives {
        if !reasoned {
            bare.push((cline, names));
            continue;
        }
        let mut lines = vec![cline];
        if let Some(next) = toks.iter().find(|t| t.line > cline) {
            lines.push(next.line);
        }
        for l in lines {
            allows.entry(l).or_default().extend(names.iter().cloned());
        }
    }
    (toks, allows, bare)
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

/// One lexed source file.
struct FileCtx<'a> {
    /// Workspace-relative path; drives path-scoped rules and diagnostics.
    path: &'a str,
    toks: Vec<Tok>,
    test: Vec<bool>,
    allows: Allows,
    /// Allows with no `: reason`: they suppress nothing and are reported.
    bare: Unreasoned,
}

impl FileCtx<'_> {
    fn push(&self, out: &mut Vec<Finding>, line: u32, lint: &'static str, message: String) {
        if !allowed(&self.allows, line, lint) {
            out.push(Finding {
                file: self.path.to_string(),
                line,
                lint,
                message,
            });
        }
    }
}

/// Lint 1: `variant-exhaustive`.
fn lint_variant_exhaustive(ctx: &FileCtx<'_>, variants: &[String], out: &mut Vec<Finding>) {
    if variants.is_empty() {
        return;
    }
    let toks = &ctx.toks;
    let full: BTreeSet<&str> = variants.iter().map(String::as_str).collect();
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
    let toks = &ctx.toks;
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
    let fns = fn_context(&ctx.toks);
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
    if !(ctx.path.starts_with("crates/core/") || ctx.path.starts_with("crates/comm/")) {
        return;
    }
    let toks = &ctx.toks;
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
    if is_bin_path(ctx.path) {
        return; // CLI binaries may fail fast on bad input.
    }
    let toks = &ctx.toks;
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
    let toks = &ctx.toks;
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
        // `if let` / `while let` bind a pattern for a block, not a guard.
        let conditional = i > 0 && (toks[i - 1].is_word("if") || toks[i - 1].is_word("while"));
        if !toks[i].is_word("let") || ctx.test[i] || conditional {
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
    let toks = &ctx.toks;
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
/// The simulated services settle every virtual effect from stamps, and
/// every wait blocks untimed until the state change it waits for is
/// notified — a raw receive until its producer posts or its tree's poison
/// wakes it. A real-time wait or clock read anywhere in the comm, core,
/// faas or sched crates would make a result depend on thread timing
/// again, or hide a missed notify behind a poll.
fn lint_real_wait(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !in_serving_stack(ctx.path) {
        return;
    }
    let toks = &ctx.toks;
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
                    "real time (`{}`) in the serving stack; settle timing from virtual stamps and wait untimed for a notify",
                    t.text
                ),
            );
        }
    }
}

/// Whether `path` is in the comm, core, faas or sched crates' sources.
fn in_serving_stack(path: &str) -> bool {
    ["comm", "core", "faas", "sched"]
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

/// Lint 9: `byte-reader`.
///
/// Every byte format of the sparse, core and comm crates — activation
/// blocks, LZ frames, staged artifacts, hybrid pointer records — decodes
/// through `fsd_sparse::bytes::Reader`, whose reads are bounds-checked and
/// whose varints refuse overflow and overlong forms. A `from_le_bytes` or
/// a varint function anywhere else is a second decoder that can panic or
/// silently wrap on untrusted bytes.
fn lint_byte_reader(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let path = ctx.path;
    let scoped = ["sparse", "core", "comm"]
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")));
    if !scoped || path == "crates/sparse/src/bytes.rs" {
        return;
    }
    let toks = &ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if ctx.test[i] || t.kind != Kind::Word {
            continue;
        }
        let reads_le = t.text == "from_le_bytes";
        let varint_fn = t.text.contains("varint") && i > 0 && toks[i - 1].is_word("fn");
        if reads_le || varint_fn {
            ctx.push(
                out,
                t.line,
                LINT_BYTE_READER,
                format!(
                    "`{}` outside crates/sparse/src/bytes.rs; decode bytes through `fsd_sparse::bytes::Reader`",
                    t.text
                ),
            );
        }
    }
}

/// Lint 10: `std-lock`.
///
/// Every lock of the serving stack is the `parking_lot` shim's: one lock
/// type, poison-free, and the one place a lock can be instrumented or its
/// interleavings replayed. A `std::sync::{Mutex, RwLock, Condvar}` —
/// named by path, or imported directly in a `std::sync::{..}` group — is a
/// lock outside it. `std::sync::mpsc` and the atomics are not locks.
fn lint_std_lock(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !in_serving_stack(ctx.path) {
        return;
    }
    let toks = &ctx.toks;
    let is_lock = |t: &Tok| matches!(t.text.as_str(), "Mutex" | "RwLock" | "Condvar");
    let path_sep = |i: usize| toks[i].is_sym(':') && toks[i + 1].is_sym(':');
    for i in 0..toks.len().saturating_sub(5) {
        if ctx.test[i] || !toks[i].is_word("std") || !path_sep(i + 1) {
            continue;
        }
        if !toks[i + 3].is_word("sync") || !path_sep(i + 4) {
            continue;
        }
        let Some(next) = toks.get(i + 6) else {
            continue;
        };
        let mut locks = Vec::new();
        if next.kind == Kind::Word && is_lock(next) {
            locks.push(next);
        } else if next.is_sym('{') {
            // Only the group's own members: a nested group belongs to a
            // submodule (`mpsc::{..}`, `atomic::{..}`).
            let close = matching_close(toks, i + 6);
            let mut depth = 0usize;
            for t in toks.get(i + 7..close).unwrap_or_default() {
                if t.is_sym('{') {
                    depth += 1;
                } else if t.is_sym('}') {
                    depth -= 1;
                } else if depth == 0 && t.kind == Kind::Word && is_lock(t) {
                    locks.push(t);
                }
            }
        }
        for t in locks {
            ctx.push(
                out,
                t.line,
                LINT_STD_LOCK,
                format!(
                    "`std::sync::{}` in the serving stack; lock through the `parking_lot` shim",
                    t.text
                ),
            );
        }
    }
}

/// Lint 11: `orphan-pub`.
///
/// A bare-`pub` `fn`, `const` or `static` of library code that no other
/// file names outside tests, comments and `use` lines has no caller, so it
/// is deleted, made private or made `#[cfg(test)]`. Types are not indexed:
/// signatures keep them reachable. A `const` or `static` is named by any
/// same-named identifier. A `fn` is named only where the name is
/// call-shaped — `name(`, `name::<` or `::name` (a path, so `Type::name`
/// passed as a value counts) — so a field of the same name no longer
/// keeps a method alive. The receiver's type is not resolved, so a
/// same-named method of another type still counts.
fn lint_orphan_pub(files: &[FileCtx<'_>], out: &mut Vec<Finding>) {
    // Each identifier a caller names, and each it names call-shaped, with
    // the indices of the files naming it.
    let mut named: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    let mut called: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (f, file) in files.iter().enumerate() {
        if is_test_file(file.path) {
            continue;
        }
        let toks = &file.toks;
        let sym = |k: usize, c: char| toks.get(k).is_some_and(|t| t.is_sym(c));
        let mut in_use = false;
        for (k, (t, &test)) in toks.iter().zip(&file.test).enumerate() {
            in_use |= t.is_word("use");
            if in_use {
                in_use = !t.is_sym(';');
            } else if t.kind == Kind::Word && !test {
                named.entry(&t.text).or_default().insert(f);
                let defines = k >= 1 && toks[k - 1].is_word("fn");
                let call_shaped = sym(k + 1, '(')
                    || (sym(k + 1, ':') && sym(k + 2, ':') && sym(k + 3, '<'))
                    || (k >= 2 && sym(k - 1, ':') && sym(k - 2, ':'));
                if call_shaped && !defines {
                    called.entry(&t.text).or_default().insert(f);
                }
            }
        }
    }
    for (f, file) in files.iter().enumerate() {
        if !is_library(file.path) {
            continue;
        }
        let toks = &file.toks;
        for i in 0..toks.len() {
            if !toks[i].is_word("pub") || file.test[i] {
                continue;
            }
            // Skip qualifiers: `pub const fn`, `pub unsafe extern "C" fn`.
            let mut j = i + 1;
            while toks.get(j).is_some_and(|t| {
                t.kind == Kind::Str
                    || t.is_word("unsafe")
                    || t.is_word("async")
                    || t.is_word("extern")
                    || (t.is_word("const") && toks.get(j + 1).is_some_and(|n| n.is_word("fn")))
            }) {
                j += 1;
            }
            let Some(kind) = toks
                .get(j)
                .filter(|t| t.is_word("fn") || t.is_word("const") || t.is_word("static"))
            else {
                continue;
            };
            if toks.get(j + 1).is_some_and(|t| t.is_word("mut")) {
                j += 1;
            }
            let Some(name) = toks.get(j + 1).filter(|t| t.kind == Kind::Word) else {
                continue;
            };
            let index = if kind.is_word("fn") { &called } else { &named };
            let is_named = index
                .get(name.text.as_str())
                .is_some_and(|callers| callers.iter().any(|&g| g != f));
            if !is_named {
                file.push(
                    out,
                    toks[i].line,
                    LINT_ORPHAN_PUB,
                    format!(
                        "pub {} {} is named by no other file outside tests, comments and `use` lines; delete it, make it private or #[cfg(test)]",
                        kind.text, name.text
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Lint a set of `(workspace-relative path, source)` files: every per-file
/// pass over each file that is neither a test nor an example, then the
/// cross-file `orphan-pub` pass over the set. The `Variant` enum is
/// discovered from whichever file declares it, so the exhaustiveness lint
/// self-updates when a variant lands.
// fsd_lint::allow(orphan-pub): the fixture tests inject their file sets here
pub fn lint_files(files: &[(String, String)]) -> Vec<Finding> {
    let ctxs: Vec<FileCtx<'_>> = files
        .iter()
        .map(|(path, src)| {
            let (toks, allows, bare) = lex(src);
            let test = test_mask(&toks);
            FileCtx {
                path,
                toks,
                test,
                allows,
                bare,
            }
        })
        .collect();
    let variants = ctxs
        .iter()
        .find_map(|c| discover_variants(&c.toks))
        .unwrap_or_default();
    let mut out = Vec::new();
    for ctx in &ctxs {
        if is_test_file(ctx.path) || is_example(ctx.path) {
            continue;
        }
        for (line, names) in &ctx.bare {
            for &lint in ALL_LINTS.iter().filter(|l| names.iter().any(|n| n == *l)) {
                out.push(Finding {
                    file: ctx.path.to_string(),
                    line: *line,
                    lint,
                    message: format!(
                        "fsd_lint::allow({lint}) gives no `: reason`, so it suppresses nothing"
                    ),
                });
            }
        }
        lint_variant_exhaustive(ctx, &variants, &mut out);
        lint_billing_pair(ctx, &mut out);
        lint_raw_channel_name(ctx, &mut out);
        lint_teardown_pair(ctx, &mut out);
        lint_no_unwrap(ctx, &mut out);
        lint_lock_across_blocking(ctx, &mut out);
        lint_retry_idempotent(ctx, &mut out);
        lint_real_wait(ctx, &mut out);
        lint_byte_reader(ctx, &mut out);
        lint_std_lock(ctx, &mut out);
    }
    lint_orphan_pub(&ctxs, &mut out);
    out.sort();
    out
}

/// The variant names of `enum Variant { ... }`, if `toks` declares it.
fn discover_variants(toks: &[Tok]) -> Option<Vec<String>> {
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
            let close = matching_close(toks, j);
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
fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
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

/// Lint every workspace source file under `root` with [`lint_files`].
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for rel in collect_rs_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        files.push((rel.to_string_lossy().replace('\\', "/"), src));
    }
    Ok(lint_files(&files))
}
