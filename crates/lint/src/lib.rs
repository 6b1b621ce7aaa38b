//! `mar-lint` — the workspace determinism & float-soundness linter.
//!
//! The repo's core scientific claim is that every experiment is
//! byte-identical run to run (DESIGN.md "Determinism invariants"). Generic
//! tooling cannot enforce the repo-specific rules that claim rests on (and
//! the build environment has no crates.io access for `dylint`-style custom
//! lints), so this crate implements a small comment/string-aware Rust
//! tokenizer plus a rule engine with five checks:
//!
//! * **D001** — no `HashMap`/`HashSet` in the deterministic crates'
//!   library code: hash iteration order differs per map instance, which is
//!   exactly the bug class PR 1 had to hand-fix three times.
//! * **D002** — no `partial_cmp(..).unwrap()`/`.expect(..)` comparators:
//!   they panic on NaN and are not a total order; use `f64::total_cmp`.
//! * **D003** — no wall-clock or ambient nondeterminism (`Instant::now`,
//!   `SystemTime`, `thread_rng`, `RandomState`) anywhere results are
//!   computed.
//! * **D004** — no `unwrap()`/`expect()`/`panic!`/`todo!`/
//!   `unimplemented!` in library (non-test, non-bin) code without
//!   justification.
//! * **D005** — every crate root carries `#![forbid(unsafe_code)]`.
//!
//! On top of the per-file rules, the `concurrency` module runs a
//! workspace-wide lock analysis (guard liveness + call graph — see its
//! module docs) with three more rules:
//!
//! * **D006** — cycle in the global lock-order graph (potential
//!   deadlock), reported with the full witness chain. The intended
//!   acquisition order is written down in DESIGN.md §13.
//! * **D007** — blocking operation (socket read/write/accept,
//!   `JoinHandle::join`, channel `recv`, `thread::sleep`, condvar
//!   `wait`) while a lock guard is live.
//! * **D008** — guard held across a re-acquisition of the same named
//!   lock, directly or through a call chain (self-deadlock).
//!
//! The only escape hatch is an annotation with a **mandatory** reason,
//! naming one or more comma-separated rules:
//!
//! ```text
//! // mar-lint: allow(D001) — membership-only set; iteration order never observed
//! // mar-lint: allow(D006,D007) — startup path; single-threaded by construction
//! ```
//!
//! placed either at the end of the offending line or alone on the line
//! directly above it. An annotation without a reason (or with an unknown
//! rule) is itself reported as **D000** and does not suppress anything.

#![forbid(unsafe_code)]

mod concurrency;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Crates whose library code must be deterministic (D001 applies).
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "bench", "buffer", "core", "geom", "link", "mesh", "motion", "rtree", "served", "store",
    "workload",
];

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Malformed `mar-lint` annotation (missing reason / unknown rule).
    D000,
    /// `HashMap`/`HashSet` in deterministic-crate library code.
    D001,
    /// `partial_cmp(..).unwrap()` / `.expect(..)` comparator.
    D002,
    /// Wall-clock or ambient nondeterminism.
    D003,
    /// Panicking call in library code without justification.
    D004,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    D005,
    /// Cycle in the workspace lock-order graph (potential deadlock).
    D006,
    /// Blocking operation while a lock guard is live.
    D007,
    /// Same lock acquired again while its guard is live (self-deadlock).
    D008,
}

impl Rule {
    /// The rule's identifier as written in annotations and reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D000 => "D000",
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::D005 => "D005",
            Rule::D006 => "D006",
            Rule::D007 => "D007",
            Rule::D008 => "D008",
        }
    }

    /// Parses an identifier such as `D001`.
    pub fn parse(s: &str) -> Option<Rule> {
        match s.trim() {
            "D000" => Some(Rule::D000),
            "D001" => Some(Rule::D001),
            "D002" => Some(Rule::D002),
            "D003" => Some(Rule::D003),
            "D004" => Some(Rule::D004),
            "D005" => Some(Rule::D005),
            "D006" => Some(Rule::D006),
            "D007" => Some(Rule::D007),
            "D008" => Some(Rule::D008),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{} [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

// ---------------------------------------------------------------------------
// File classification
// ---------------------------------------------------------------------------

/// What kind of compilation context a file belongs to; decides which rules
/// apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/lib.rs` — library code that must also carry D005.
    CrateRoot,
    /// Other `src/**` library code.
    Library,
    /// `src/bin/**`, `src/main.rs`, example targets — the CLI/IO layer.
    Bin,
    /// `tests/**` and `benches/**` targets.
    TestOrBench,
}

/// A classified file: which crate it belongs to and its compilation role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate directory name (`core`, `buffer`, …; `examples`, `tests` for
    /// the two top-level members).
    pub crate_name: String,
    /// The compilation role.
    pub kind: FileKind,
}

/// Classifies a workspace-relative path; `None` means "not linted"
/// (vendor shims, build output, lint fixtures, non-Rust files).
pub fn classify(rel: &str) -> Option<FileClass> {
    if !rel.ends_with(".rs") {
        return None;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    if parts
        .iter()
        .any(|p| matches!(*p, "vendor" | "target" | "fixtures") || p.starts_with('.'))
    {
        return None;
    }
    let class = |crate_name: &str, kind| {
        Some(FileClass {
            crate_name: crate_name.to_string(),
            kind,
        })
    };
    match parts.as_slice() {
        ["crates", name, "src", "lib.rs"] => class(name, FileKind::CrateRoot),
        ["crates", name, "src", "main.rs"] => class(name, FileKind::Bin),
        ["crates", name, "src", "bin", ..] => class(name, FileKind::Bin),
        ["crates", name, "examples", ..] => class(name, FileKind::Bin),
        ["crates", name, "src", ..] => class(name, FileKind::Library),
        ["crates", name, "tests", ..] | ["crates", name, "benches", ..] => {
            class(name, FileKind::TestOrBench)
        }
        ["examples", "src", "lib.rs"] => class("examples", FileKind::CrateRoot),
        ["examples", "src", ..] => class("examples", FileKind::Library),
        ["examples", _] => class("examples", FileKind::Bin),
        ["tests", "src", "lib.rs"] => class("tests", FileKind::CrateRoot),
        ["tests", "src", ..] => class("tests", FileKind::Library),
        ["tests", _] => class("tests", FileKind::TestOrBench),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
    /// Numeric literal (contents irrelevant to every rule).
    Num,
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: u32,
    col: u32,
}

#[derive(Debug, Clone)]
struct Comment {
    /// Text after the `//` (line comments only; block comments are skipped
    /// but never carry annotations).
    text: String,
    line: u32,
    col: u32,
    /// True when nothing but whitespace precedes the comment on its line.
    own_line: bool,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into code tokens and line comments, skipping string/char
/// literal and comment *contents* so rule matching never fires inside them.
fn tokenize(src: &str) -> (Vec<Token>, Vec<Comment>) {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut tokens = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    let mut line_has_code = false;

    // Consumes a (non-raw) string body starting after the opening quote.
    let eat_escaped_string =
        |i: &mut usize, line: &mut u32, col: &mut u32, chars: &[char], quote: char| {
            while *i < chars.len() {
                let c = chars[*i];
                *i += 1;
                *col += 1;
                match c {
                    '\\' if *i < chars.len() => {
                        // Skip the escaped character (covers \" and \\).
                        if chars[*i] == '\n' {
                            *line += 1;
                            *col = 1;
                        } else {
                            *col += 1;
                        }
                        *i += 1;
                    }
                    '\n' => {
                        *line += 1;
                        *col = 1;
                    }
                    c if c == quote => break,
                    _ => {}
                }
            }
        };

    while i < n {
        let c = chars[i];
        if c == '\n' {
            i += 1;
            line += 1;
            col = 1;
            line_has_code = false;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            col += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start_col = col;
            let mut text = String::new();
            i += 2;
            col += 2;
            while i < n && chars[i] != '\n' {
                text.push(chars[i]);
                i += 1;
                col += 1;
            }
            comments.push(Comment {
                text,
                line,
                col: start_col,
                own_line: !line_has_code,
            });
            continue;
        }
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            // Nested block comment; contents (and any annotations in them)
            // are ignored.
            let mut depth = 1u32;
            i += 2;
            col += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                    col += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                    col += 2;
                } else if chars[i] == '\n' {
                    i += 1;
                    line += 1;
                    col = 1;
                } else {
                    i += 1;
                    col += 1;
                }
            }
            continue;
        }
        // String literal.
        if c == '"' {
            line_has_code = true;
            i += 1;
            col += 1;
            eat_escaped_string(&mut i, &mut line, &mut col, &chars, '"');
            continue;
        }
        // Char literal or lifetime.
        if c == '\'' {
            line_has_code = true;
            if i + 1 < n && chars[i + 1] == '\\' {
                // Escaped char literal: skip to the closing quote.
                i += 2;
                col += 2;
                eat_escaped_string(&mut i, &mut line, &mut col, &chars, '\'');
                continue;
            }
            if i + 1 < n && is_ident_char(chars[i + 1]) {
                let mut k = i + 1;
                while k < n && is_ident_char(chars[k]) {
                    k += 1;
                }
                if k < n && chars[k] == '\'' {
                    // 'a' — a char literal.
                    col += (k + 1 - i) as u32;
                    i = k + 1;
                } else {
                    // 'lifetime — no token needed.
                    col += (k - i) as u32;
                    i = k;
                }
                continue;
            }
            if i + 2 < n && chars[i + 2] == '\'' {
                // Non-alphanumeric char literal like '€' or '('.
                i += 3;
                col += 3;
                continue;
            }
            i += 1;
            col += 1;
            continue;
        }
        // Identifier (and raw/byte string heads).
        if is_ident_start(c) {
            line_has_code = true;
            let start = i;
            let start_col = col;
            while i < n && is_ident_char(chars[i]) {
                i += 1;
                col += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            if matches!(ident.as_str(), "r" | "b" | "br") {
                // r"…", r#"…"#, b"…", br#"…"# string forms.
                let mut k = i;
                let mut hashes = 0usize;
                while k < n && chars[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && chars[k] == '"' {
                    if ident == "b" && hashes == 0 {
                        // Byte string with ordinary escapes.
                        i = k + 1;
                        col += 1;
                        eat_escaped_string(&mut i, &mut line, &mut col, &chars, '"');
                    } else {
                        // Raw string: ends at `"` + the same number of `#`.
                        i = k + 1;
                        col += (hashes + 1) as u32;
                        while i < n {
                            if chars[i] == '"'
                                && chars[i + 1..]
                                    .iter()
                                    .take(hashes)
                                    .filter(|&&h| h == '#')
                                    .count()
                                    == hashes
                            {
                                i += 1 + hashes;
                                col += (1 + hashes) as u32;
                                break;
                            }
                            if chars[i] == '\n' {
                                line += 1;
                                col = 1;
                            } else {
                                col += 1;
                            }
                            i += 1;
                        }
                    }
                    continue;
                }
            }
            tokens.push(Token {
                tok: Tok::Ident(ident),
                line,
                col: start_col,
            });
            continue;
        }
        // Numeric literal; a `.` belongs to the number only when a digit
        // follows (so `pair.0.unwrap()` still yields a `.`-`unwrap` pair).
        if c.is_ascii_digit() {
            line_has_code = true;
            let start_col = col;
            while i < n {
                let d = chars[i];
                let in_number =
                    is_ident_char(d) || (d == '.' && i + 1 < n && chars[i + 1].is_ascii_digit());
                if !in_number {
                    break;
                }
                i += 1;
                col += 1;
            }
            tokens.push(Token {
                tok: Tok::Num,
                line,
                col: start_col,
            });
            continue;
        }
        line_has_code = true;
        tokens.push(Token {
            tok: Tok::Punct(c),
            line,
            col,
        });
        i += 1;
        col += 1;
    }
    (tokens, comments)
}

// ---------------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------------

/// Token-index ranges (half-open) covered by `#[cfg(test)]` / `#[test]`
/// items: rules D001/D004 do not apply inside them.
fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].tok != Tok::Punct('#') {
            i += 1;
            continue;
        }
        let Some(attr_end) = matching_bracket(tokens, i + 1, '[', ']') else {
            i += 1;
            continue;
        };
        let attr = &tokens[i + 2..attr_end];
        let has = |name: &str| attr.iter().any(|t| t.tok == Tok::Ident(name.to_string()));
        // `#[cfg(not(test))]` guards *non*-test code.
        let is_test_attr = has("test") && !has("not");
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut k = attr_end + 1;
        while k < tokens.len() && tokens[k].tok == Tok::Punct('#') {
            match matching_bracket(tokens, k + 1, '[', ']') {
                Some(e) => k = e + 1,
                None => break,
            }
        }
        // The item ends at the first `;` at depth 0, or at the `}` closing
        // the first `{`.
        let mut depth = 0i32;
        let mut end = k;
        while end < tokens.len() {
            match tokens[end].tok {
                Tok::Punct(';') if depth == 0 => {
                    end += 1;
                    break;
                }
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        end += 1;
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        regions.push((i, end));
        i = end;
    }
    regions
}

/// Index of the token holding the `close` matching the `open` expected at
/// `start` (which must point at the opening token).
fn matching_bracket(tokens: &[Token], start: usize, open: char, close: char) -> Option<usize> {
    if tokens.get(start)?.tok != Tok::Punct(open) {
        return None;
    }
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(start) {
        match t.tok {
            Tok::Punct(c) if c == open => depth += 1,
            Tok::Punct(c) if c == close => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Allow annotations
// ---------------------------------------------------------------------------

/// Per-line allow sets plus D000 findings for malformed annotations.
fn collect_allows(
    file: &str,
    comments: &[Comment],
    token_lines: &BTreeSet<u32>,
    findings: &mut Vec<Finding>,
) -> BTreeMap<u32, BTreeSet<Rule>> {
    let mut allows: BTreeMap<u32, BTreeSet<Rule>> = BTreeMap::new();
    for c in comments {
        // Doc comments (`///`, `//!`) are prose, never annotations — they
        // may legitimately *mention* the annotation syntax.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        // Only the tool name immediately followed by a colon marks an
        // annotation attempt; plain prose mentioning the tool is ignored.
        let Some(pos) = c.text.find("mar-lint:") else {
            continue;
        };
        let mut bad = |message: &str| {
            findings.push(Finding {
                file: file.to_string(),
                line: c.line,
                col: c.col,
                rule: Rule::D000,
                message: message.to_string(),
            });
        };
        let rest = c.text[pos + "mar-lint".len()..].trim_start();
        let Some(rest) = rest.strip_prefix(':') else {
            bad("malformed annotation: expected `mar-lint: allow(RULE, …) — <reason>`");
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            bad("malformed annotation: only `allow(RULE, …)` is supported");
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else {
            bad("malformed annotation: missing `(` after `allow`");
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad("malformed annotation: missing `)` after the rule list");
            continue;
        };
        let mut rules = BTreeSet::new();
        let mut unknown = None;
        for part in rest[..close].split(',') {
            match Rule::parse(part) {
                Some(Rule::D000) | None => unknown = Some(part.trim().to_string()),
                Some(r) => {
                    rules.insert(r);
                }
            }
        }
        if let Some(u) = unknown {
            bad(&format!("unknown rule `{u}` in allow annotation"));
            continue;
        }
        if rules.is_empty() {
            bad("allow annotation names no rule");
            continue;
        }
        // The reason is mandatory: anything substantive after the `)` and
        // its separator punctuation.
        let reason = rest[close + 1..].trim_matches(|ch: char| {
            ch.is_whitespace() || matches!(ch, '—' | '–' | '-' | ':' | '·')
        });
        if reason.is_empty() {
            bad("allow annotation requires a reason: `… allow(RULE) — <reason>`");
            continue;
        }
        // A trailing annotation covers its own line; an own-line annotation
        // covers the next line holding code.
        let target = if c.own_line {
            token_lines.range(c.line + 1..).next().copied()
        } else {
            Some(c.line)
        };
        if let Some(t) = target {
            allows.entry(t).or_default().extend(rules.iter().copied());
        }
    }
    allows
}

// ---------------------------------------------------------------------------
// Rule engine
// ---------------------------------------------------------------------------

/// Lints one file's source under its workspace-relative path. Paths that
/// [`classify`] rejects return no findings.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let Some(class) = classify(rel) else {
        return Vec::new();
    };
    let (tokens, comments) = tokenize(src);
    let regions = test_regions(&tokens);
    let in_test = |idx: usize| regions.iter().any(|&(a, b)| a <= idx && idx < b);
    let token_lines: BTreeSet<u32> = tokens.iter().map(|t| t.line).collect();

    let mut findings = Vec::new();
    let allows = collect_allows(rel, &comments, &token_lines, &mut findings);
    let allowed = |line: u32, rule: Rule| allows.get(&line).is_some_and(|s| s.contains(&rule));

    let library_code = matches!(class.kind, FileKind::CrateRoot | FileKind::Library);
    let deterministic = library_code && DETERMINISTIC_CRATES.contains(&class.crate_name.as_str());

    let mut push = |t: &Token, rule: Rule, message: String| {
        if !allowed(t.line, rule) {
            findings.push(Finding {
                file: rel.to_string(),
                line: t.line,
                col: t.col,
                rule,
                message,
            });
        }
    };

    for (idx, t) in tokens.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        match name.as_str() {
            // D001 — hashed collections in deterministic library code.
            "HashMap" | "HashSet" if deterministic && !in_test(idx) => {
                push(
                    t,
                    Rule::D001,
                    format!(
                        "`{name}` in deterministic crate `{}`: hash iteration order differs per \
                         map instance; use `BTreeMap`/`BTreeSet` (or justify a membership-only \
                         use with `// mar-lint: allow(D001) — <reason>`)",
                        class.crate_name
                    ),
                );
            }
            // D002 — NaN-panicking comparator.
            "partial_cmp" => {
                if let Some(close) = matching_bracket(&tokens, idx + 1, '(', ')') {
                    if tokens.get(close + 1).map(|t| &t.tok) == Some(&Tok::Punct('.')) {
                        if let Some(Tok::Ident(m)) = tokens.get(close + 2).map(|t| &t.tok) {
                            if m == "unwrap" || m == "expect" {
                                push(
                                    t,
                                    Rule::D002,
                                    format!(
                                        "`partial_cmp(..).{m}(..)` panics on NaN and is not a \
                                         total order; use `f64::total_cmp`"
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            // D003 — ambient nondeterminism.
            "Instant"
                if tokens.get(idx + 1).map(|t| &t.tok) == Some(&Tok::Punct(':'))
                    && tokens.get(idx + 2).map(|t| &t.tok) == Some(&Tok::Punct(':'))
                    && tokens.get(idx + 3).map(|t| &t.tok)
                        == Some(&Tok::Ident("now".to_string())) =>
            {
                push(
                    t,
                    Rule::D003,
                    "`Instant::now` is wall-clock nondeterminism; keep timing in the CLI \
                     progress layer and justify it with `// mar-lint: allow(D003) — <reason>`"
                        .to_string(),
                );
            }
            "SystemTime" | "thread_rng" | "RandomState" => {
                push(
                    t,
                    Rule::D003,
                    format!(
                        "`{name}` is ambient nondeterminism; results must be a pure function \
                         of explicit inputs and seeds"
                    ),
                );
            }
            // D004 — panicking calls in library code.
            "unwrap" | "expect" if library_code && !in_test(idx) => {
                let after_dot = idx > 0 && tokens[idx - 1].tok == Tok::Punct('.');
                let called = tokens.get(idx + 1).map(|t| &t.tok) == Some(&Tok::Punct('('));
                if after_dot && called {
                    push(
                        t,
                        Rule::D004,
                        format!(
                            "`.{name}(..)` in library code; handle the case, restructure, or \
                             justify the invariant with `// mar-lint: allow(D004) — <reason>`"
                        ),
                    );
                }
            }
            "panic" | "todo" | "unimplemented"
                if library_code
                    && !in_test(idx)
                    && tokens.get(idx + 1).map(|t| &t.tok) == Some(&Tok::Punct('!')) =>
            {
                push(
                    t,
                    Rule::D004,
                    format!(
                        "`{name}!` in library code; return an error or justify with \
                         `// mar-lint: allow(D004) — <reason>`"
                    ),
                );
            }
            _ => {}
        }
    }

    // D005 — crate roots must forbid unsafe code.
    if class.kind == FileKind::CrateRoot {
        let has_forbid = tokens.windows(4).any(|w| {
            w[0].tok == Tok::Ident("forbid".to_string())
                && w[1].tok == Tok::Punct('(')
                && w[2].tok == Tok::Ident("unsafe_code".to_string())
                && w[3].tok == Tok::Punct(')')
        });
        if !has_forbid {
            findings.push(Finding {
                file: rel.to_string(),
                line: 1,
                col: 1,
                rule: Rule::D005,
                message: "crate root must carry `#![forbid(unsafe_code)]`".to_string(),
            });
        }
    }

    findings.sort();
    findings
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Lints a set of `(workspace-relative path, source)` pairs: per-file
/// rules (D001–D005) on each file plus the workspace-wide concurrency
/// pass (D006–D008) across the whole set. Findings come back sorted by
/// `(file, line, col, rule)`.
pub fn lint_files(files: &[(String, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (rel, src) in files {
        findings.extend(lint_source(rel, src));
    }
    findings.extend(concurrency::analyze(files));
    findings.sort();
    findings.dedup();
    findings
}

/// Lints every non-vendor workspace source file under `root` and returns
/// the findings sorted by `(file, line, col, rule)`.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for top in ["crates", "examples", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut sources = Vec::new();
    for path in files {
        let rel = match path.strip_prefix(root) {
            Ok(p) => p
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/"),
            Err(_) => continue,
        };
        if classify(&rel).is_none() {
            continue;
        }
        let src = fs::read_to_string(&path)?;
        sources.push((rel, src));
    }
    Ok(lint_files(&sources))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | "fixtures") || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders findings as a JSON document (stable field order, sorted input).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.col,
            f.rule,
            json_escape(&f.message)
        ));
    }
    out.push_str(&format!("],\"count\":{}}}", findings.len()));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DET_LIB: &str = "crates/core/src/fake.rs";

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        let mut rules: Vec<Rule> = findings.iter().map(|f| f.rule).collect();
        rules.sort();
        rules
    }

    #[test]
    fn classify_roles() {
        assert_eq!(
            classify("crates/core/src/lib.rs").map(|c| c.kind),
            Some(FileKind::CrateRoot)
        );
        assert_eq!(
            classify("crates/bench/src/bin/reproduce.rs").map(|c| c.kind),
            Some(FileKind::Bin)
        );
        assert_eq!(
            classify("crates/rtree/tests/properties.rs").map(|c| c.kind),
            Some(FileKind::TestOrBench)
        );
        assert_eq!(
            classify("crates/bench/benches/fig8_retrieval.rs").map(|c| c.kind),
            Some(FileKind::TestOrBench)
        );
        assert_eq!(
            classify("examples/quickstart.rs").map(|c| c.kind),
            Some(FileKind::Bin)
        );
        assert_eq!(classify("vendor/rand/src/lib.rs"), None);
        assert_eq!(classify("crates/lint/tests/fixtures/d001_fail.rs"), None);
        assert_eq!(classify("README.md"), None);
    }

    #[test]
    fn strings_comments_and_doc_comments_never_fire() {
        let src = r##"
            //! HashMap in docs is fine; so is partial_cmp().unwrap() prose.
            /* block with Instant::now and nested /* HashSet */ still fine */
            pub fn f() -> &'static str {
                let _lifetime: &'static str = "HashMap<SystemTime> .unwrap()";
                let _raw = r#"thread_rng() and panic!"#;
                let _ch = '"';
                let _esc = '\'';
                "partial_cmp().unwrap()"
            }
        "##;
        assert!(lint_source(DET_LIB, src).is_empty());
    }

    #[test]
    fn d001_fires_only_in_deterministic_library_code() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules_of(&lint_source(DET_LIB, src)), vec![Rule::D001]);
        // The lint crate itself is not on the deterministic list.
        assert!(lint_source("crates/lint/src/fake.rs", src).is_empty());
        // Test targets are exempt.
        assert!(lint_source("crates/core/tests/fake.rs", src).is_empty());
        // Bin targets are exempt.
        assert!(lint_source("crates/bench/src/bin/fake.rs", src).is_empty());
    }

    #[test]
    fn d001_exempts_cfg_test_modules() {
        let src = r#"
            pub fn lib_code() {}
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() {
                    let _m: HashMap<u32, u32> = HashMap::new();
                }
            }
        "#;
        assert!(lint_source(DET_LIB, src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nuse std::collections::HashMap;\n";
        assert_eq!(rules_of(&lint_source(DET_LIB, src)), vec![Rule::D001]);
    }

    #[test]
    fn d002_fires_across_lines_and_for_expect() {
        let src = "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a\n        .partial_cmp(b)\n        .expect(\"NaN\"));\n}\n";
        let f = lint_source(DET_LIB, src);
        // `.expect(..)` in library code also fires D004 — both vanish when
        // the comparator migrates to `total_cmp`.
        assert_eq!(rules_of(&f), vec![Rule::D002, Rule::D004]);
        assert_eq!(f[0].line, 3);
        // total_cmp passes.
        let ok = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }\n";
        assert!(lint_source(DET_LIB, ok).is_empty());
        // partial_cmp without a panicking projection passes (e.g. inside a
        // PartialOrd impl).
        let ok2 = "fn g(a: f64, b: f64) -> Option<std::cmp::Ordering> { a.partial_cmp(&b) }\n";
        assert!(lint_source(DET_LIB, ok2).is_empty());
    }

    #[test]
    fn d002_applies_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn s(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n}\n";
        assert_eq!(rules_of(&lint_source(DET_LIB, src)), vec![Rule::D002]);
    }

    #[test]
    fn d003_patterns() {
        let src = "fn f() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(rules_of(&lint_source(DET_LIB, src)), vec![Rule::D003]);
        // `Instant` as a stored value (no ::now) is fine.
        let ok = "fn f(t: std::time::Instant) -> std::time::Instant { t }\n";
        assert!(lint_source(DET_LIB, ok).is_empty());
        let sys = "fn f() { let _ = std::time::SystemTime::UNIX_EPOCH; }\n";
        assert_eq!(rules_of(&lint_source(DET_LIB, sys)), vec![Rule::D003]);
    }

    #[test]
    fn d004_patterns_and_exemptions() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rules_of(&lint_source(DET_LIB, src)), vec![Rule::D004]);
        let p = "pub fn f() { panic!(\"boom\"); }\n";
        assert_eq!(rules_of(&lint_source(DET_LIB, p)), vec![Rule::D004]);
        // Bins may unwrap.
        assert!(lint_source("crates/bench/src/bin/fake.rs", src).is_empty());
        // `unwrap_or` is not `unwrap`.
        let ok = "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(lint_source(DET_LIB, ok).is_empty());
        // Tuple-field receiver still fires (number lexing must not eat the dot).
        let tup = "pub fn f(x: (Option<u32>, u8)) -> u32 { x.0.unwrap() }\n";
        assert_eq!(rules_of(&lint_source(DET_LIB, tup)), vec![Rule::D004]);
    }

    #[test]
    fn d005_checks_crate_roots_only() {
        let src = "pub fn f() {}\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/lib.rs", src)),
            vec![Rule::D005]
        );
        assert!(lint_source(DET_LIB, src).is_empty());
        let ok = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(lint_source("crates/core/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn allow_annotation_suppresses_same_line_and_next_line() {
        let same = "use std::collections::HashMap; // mar-lint: allow(D001) — lookup-only\n";
        assert!(lint_source(DET_LIB, same).is_empty());
        let above = "// mar-lint: allow(D001) — lookup-only\nuse std::collections::HashMap;\n";
        assert!(lint_source(DET_LIB, above).is_empty());
        // The annotation is rule-specific.
        let wrong = "use std::collections::HashMap; // mar-lint: allow(D004) — wrong rule\n";
        assert_eq!(rules_of(&lint_source(DET_LIB, wrong)), vec![Rule::D001]);
        // And line-specific: it must not leak past the next code line.
        let leak =
            "// mar-lint: allow(D001) — first only\nuse std::collections::HashMap;\nuse std::collections::HashSet;\n";
        let f = lint_source(DET_LIB, leak);
        assert_eq!(rules_of(&f), vec![Rule::D001]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn allow_without_reason_is_rejected_and_does_not_suppress() {
        let src = "use std::collections::HashMap; // mar-lint: allow(D001)\n";
        let f = lint_source(DET_LIB, src);
        assert_eq!(rules_of(&f), vec![Rule::D000, Rule::D001]);
        let dashes = "use std::collections::HashMap; // mar-lint: allow(D001) — \n";
        assert_eq!(
            rules_of(&lint_source(DET_LIB, dashes)),
            vec![Rule::D000, Rule::D001]
        );
    }

    #[test]
    fn allow_with_unknown_rule_is_rejected() {
        let src = "pub fn f() {} // mar-lint: allow(D9) — nope\n";
        let f = lint_source(DET_LIB, src);
        assert_eq!(rules_of(&f), vec![Rule::D000]);
        assert!(f[0].message.contains("unknown rule"));
    }

    #[test]
    fn prose_mentions_of_the_tool_are_not_annotations() {
        let prose =
            "//! `mar-lint` — run it with cargo.\npub fn f() {} // checked by mar-lint in CI\n";
        assert!(lint_source(DET_LIB, prose).is_empty());
        // Even the full syntax inside a doc comment is documentation.
        let doc = "/// Use `// mar-lint: allow(D9)` — no wait, D9 is not a rule.\npub fn f() {}\n";
        assert!(lint_source(DET_LIB, doc).is_empty());
    }

    #[test]
    fn multi_rule_allow() {
        let src = "use std::collections::HashMap; // mar-lint: allow(D001, D004) — shared justification\n";
        assert!(lint_source(DET_LIB, src).is_empty());
    }

    #[test]
    fn findings_format() {
        let f = lint_source(DET_LIB, "use std::collections::HashSet;\n");
        assert_eq!(f.len(), 1);
        let line = f[0].to_string();
        assert!(
            line.starts_with("crates/core/src/fake.rs:1:23 [D001]"),
            "{line}"
        );
        let json = to_json(&f);
        assert!(json.starts_with("{\"findings\":[{\"file\":"));
        assert!(json.ends_with("\"count\":1}"));
        assert!(json.contains("\"rule\":\"D001\""));
    }
}
