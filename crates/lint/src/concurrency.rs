//! Concurrency static analysis — rules **D006**, **D007**, **D008**.
//!
//! The serving path holds real locks (the striped session maps, token
//! map and per-session filters in `mar-core`, the pager, the bench
//! engine's result slots), and a review once caught its ordering bugs by
//! manual inspection. This module makes that inspection mechanical:
//!
//! 1. **Lock identity.** A workspace pre-pass collects every named
//!    `Mutex`/`RwLock` declaration: struct fields, `let` bindings, statics
//!    and parameters typed `Mutex<..>`/`RwLock<..>` (directly or through a
//!    type alias such as `type Table = Mutex<..>`), plus accessor
//!    functions returning `&Mutex<..>` (the `Server::stripe` pattern, named
//!    after the function) and accessor functions returning a guard
//!    (`fn lock_pager(&self) -> MutexGuard<..>`, the `PagedIndex` pattern:
//!    a call acquires the lock the function's body locks). Locks are
//!    identified **by declared name**: two
//!    fields both called `slots` in different crates collapse into one
//!    node. That trades a little precision for zero configuration; the
//!    convention (DESIGN.md §13) is to name locks distinctively.
//! 2. **Guard liveness.** Each function body is scanned with a brace-depth
//!    scope stack. `recv.lock()` / `recv.read()` / `recv.write()` on a
//!    known lock name is an acquisition. `let g = recv.lock()` followed
//!    only by an `.expect(..)`/`.unwrap()` chain binds a named guard that
//!    dies at the `}` closing its block or at an explicit `drop(g)`; any
//!    other shape (`.take()` projections, bare statements) is a temporary
//!    guard that dies at the end of its statement.
//!    A function that uses one of its closure parameters (`f: impl
//!    FnOnce(..)`) while guards are live — the `Sessions::with` pattern:
//!    look the session up, lock its filter, run `f` on it — lends those
//!    guards to its callers' closure literals: in `table.with(id, |x| {
//!    .. })` the closure body is scanned as if the caller held them, so
//!    what a query does under its session's filter lock (fault pages
//!    through the pager, say) lands in the lock-order graph.
//! 3. **Call graph.** `name(..)` call sites are resolved against every
//!    workspace `fn name` (union over same-name functions), except a
//!    denylist of ubiquitous std-colliding names (`len`, `insert`,
//!    `join`, …) that would otherwise wire unrelated code together. A
//!    fixpoint then computes each function's **transitive lock set** with
//!    a human-readable witness trace per lock. A call made with no guard
//!    live resolves only within the caller's file, so a type's private
//!    helper chain (`PageCache::plan` → `plan_uncounted` → `install` →
//!    `set_resident`, which writes a residency record) passes its locks
//!    up to the public entry a guard holder calls, without wiring every
//!    same-named function of the workspace into every lock-free chain.
//!
//! On top of that state, three rules:
//!
//! * **D006** — a cycle in the global lock-order graph. Edges are added
//!   when a guard of `L1` is live while `L2` is acquired directly, or
//!   while a function that transitively acquires `L2` is called. Cycles
//!   are reported once per strongly-connected component with the full
//!   witness chain. Suppressible with `// mar-lint: allow(D006) — <reason>`
//!   on any edge's line.
//! * **D007** — a blocking operation (socket or file read/write, cursor
//!   or positioned; `accept`, `JoinHandle::join`, channel `recv`,
//!   `thread::sleep`, `park`, condvar `wait`) while any guard is live. Intra-procedural: the
//!   blocking call must be textually under the guard.
//! * **D008** — a guard of `L` live while `L` is acquired again, directly
//!   or via a call into a function that transitively acquires `L`
//!   (self-deadlock on a non-reentrant `Mutex`).
//!
//! Known limitations (all false-*negative* directions, chosen so the
//! self-lint gate stays meaningful): closure-parameter receivers
//! (`|s| s.lock()`) are not named locks; a closure is followed only as a
//! literal at the call site of a function that takes it as `impl Fn*`
//! (not through a generic `F: Fn*`, a variable, or two such functions
//! deep); denylisted method names are never edges. See DESIGN.md §13 for the discipline that keeps these gaps
//! harmless.

use crate::{
    classify, collect_allows, matching_bracket, test_regions, tokenize, FileKind, Finding, Rule,
    Tok, Token,
};
use std::collections::{BTreeMap, BTreeSet};

/// Lock flavour — decides which acquisition methods apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LockKind {
    /// `Mutex`: acquired via `.lock()`.
    Mutex,
    /// `RwLock`: acquired via `.read()` / `.write()` (and `.lock()` never).
    RwLock,
}

/// Function names that collide with ubiquitous std methods: resolving
/// them by name would wire every `.len()` or `.insert(..)` call site to
/// whatever workspace function shares the name, creating phantom lock
/// edges. Calls to these names never become call-graph edges.
const CALL_DENYLIST: &[&str] = &[
    "all",
    "any",
    "append",
    "as_mut",
    "as_ref",
    "clamp",
    "clone",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "count",
    "default",
    "drop",
    "entry",
    "eq",
    "expect",
    "extend",
    "filter",
    "finish",
    "flush",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "join",
    "len",
    "lock",
    "map",
    "max",
    "min",
    "new",
    "next",
    "or_default",
    "or_insert_with",
    "pop",
    "push",
    "read",
    "recv",
    "remove",
    "rev",
    "send",
    "sort",
    "sort_unstable",
    "spawn",
    "split",
    "sum",
    "take",
    "to_string",
    "trim",
    "unwrap",
    "windows",
    "write",
    "zip",
];

/// Blocking operations that must take zero arguments to count (so
/// `Vec::join(sep)` and `Path::join(p)` never fire).
const BLOCKING_ZERO_ARG: &[&str] = &["accept", "join", "park", "recv"];

/// Blocking operations that count with any argument list: cursor and
/// positioned (`FileExt`) file and socket I/O, sleeps and condvar waits.
const BLOCKING_ANY_ARG: &[&str] = &[
    "read_at",
    "read_exact",
    "read_exact_at",
    "read_line",
    "read_to_end",
    "read_to_string",
    "read_until",
    "recv_timeout",
    "seek_read",
    "sleep",
    "wait",
    "wait_timeout",
    "write_all",
    "write_all_at",
    "write_at",
];

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(t: &Token, c: char) -> bool {
    t.tok == Tok::Punct(c)
}

/// One analysed source file.
struct FileCtx {
    rel: String,
    tokens: Vec<Token>,
    /// Per-line allowed rules (D000s are discarded here; `lint_source`
    /// already reported them).
    allows: BTreeMap<u32, BTreeSet<Rule>>,
    /// `#[cfg(test)]` / `#[test]` token ranges — excluded entirely.
    excluded: Vec<(usize, usize)>,
}

impl FileCtx {
    fn in_excluded(&self, idx: usize) -> bool {
        self.excluded.iter().any(|&(a, b)| a <= idx && idx < b)
    }

    fn allowed(&self, line: u32, rule: Rule) -> bool {
        self.allows.get(&line).is_some_and(|s| s.contains(&rule))
    }
}

/// A function definition: where its body lives and which nested-fn token
/// ranges inside it belong to someone else.
struct FnDef {
    name: String,
    file: usize,
    /// Token range of the body, **excluding** the braces.
    body: (usize, usize),
    /// Nested `fn` bodies inside `body` (scanned as their own defs).
    nested: Vec<(usize, usize)>,
    /// Parameters typed `impl Fn*(..)`: closures the body may run.
    closure_params: Vec<String>,
}

/// A live guard during the body scan.
#[derive(Debug, Clone)]
struct Guard {
    lock: String,
    /// `None` for statement temporaries.
    binding: Option<String>,
    /// Brace depth at acquisition (body starts at depth 1).
    depth: u32,
    line: u32,
    /// A guard lent to a closure literal (see [`Lent`]) is live up to
    /// this token — the `)` closing the call it was passed to.
    until: Option<usize>,
}

/// Per function name: the locks it holds while it uses a closure
/// parameter — what a closure literal passed to it runs under.
type Lent = BTreeMap<String, BTreeSet<String>>;

/// A call site made while guards were live.
struct Call {
    callee: String,
    line: u32,
    col: u32,
    held: Vec<Guard>,
}

/// Everything one function body scan produced.
#[derive(Default)]
struct FnFacts {
    /// First acquisition site per lock (for the transitive traces).
    direct: BTreeMap<String, (u32, u32)>,
    /// Workspace-resolvable call sites with the guards held at each (none
    /// at most).
    calls: Vec<Call>,
    /// `(held_lock, acquired_lock, line, col)` direct-nesting events.
    nests: Vec<(String, String, u32, u32)>,
    /// Ready-made D007/D008 findings (allow-filtered later).
    findings: Vec<(u32, u32, Rule, String)>,
    /// Locks held at a use of one of the function's closure parameters.
    lends: Vec<String>,
}

/// Runs the concurrency pass over the full file set and returns D006/
/// D007/D008 findings (sorted by the caller).
pub(crate) fn analyze(files: &[(String, String)]) -> Vec<Finding> {
    let mut ctxs = Vec::new();
    for (rel, src) in files {
        let Some(class) = classify(rel) else { continue };
        if class.kind == FileKind::TestOrBench {
            continue;
        }
        let (tokens, comments) = tokenize(src);
        let token_lines: BTreeSet<u32> = tokens.iter().map(|t| t.line).collect();
        // D000s from malformed annotations were already reported by
        // `lint_source`; this re-parse only wants the allow map.
        let mut discard = Vec::new();
        let allows = collect_allows(rel, &comments, &token_lines, &mut discard);
        let excluded = test_regions(&tokens);
        ctxs.push(FileCtx {
            rel: rel.clone(),
            tokens,
            allows,
            excluded,
        });
    }

    let locks = collect_locks(&ctxs);
    let defs = collect_fns(&ctxs);
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, d) in defs.iter().enumerate() {
        by_name.entry(d.name.as_str()).or_default().push(i);
    }

    // Two scans: the first learns which functions run a closure
    // parameter under guards, the second lends those guards to the
    // closure literals at their call sites.
    let scan = |lent: &Lent| -> Vec<FnFacts> {
        defs.iter()
            .map(|d| scan_fn(&ctxs[d.file], d, &locks, &by_name, lent))
            .collect()
    };
    let mut lent = Lent::new();
    for (d, f) in defs.iter().zip(scan(&lent)) {
        if !f.lends.is_empty() {
            lent.entry(d.name.clone()).or_default().extend(f.lends);
        }
    }
    let facts = scan(&lent);

    let traces = transitive_locks(&ctxs, &defs, &facts, &by_name);
    build_findings(&ctxs, &defs, &facts, &traces, &by_name)
}

// ---------------------------------------------------------------------------
// Pass A — lock declarations
// ---------------------------------------------------------------------------

/// Every known lock: declared field/binding/static/parameter names,
/// accessor-function names, and the flavour of each.
struct Locks {
    /// Receiver names that denote a lock (`stripes`, `tokens`, `filter`…).
    names: BTreeMap<String, LockKind>,
    /// Function names returning `&Mutex<..>`/`&RwLock<..>` — a call like
    /// `self.stripe(id).lock()` acquires the lock named after the fn.
    returning: BTreeMap<String, LockKind>,
    /// Function names returning a guard (`fn lock_pager(&self) ->
    /// MutexGuard<'_, Pager>`), mapped to the lock their body acquires — a
    /// call like `self.lock_pager()` acquires that lock, and `let g =
    /// self.lock_pager();` binds a named guard.
    guard_fns: BTreeMap<String, String>,
}

fn collect_locks(ctxs: &[FileCtx]) -> Locks {
    // Type aliases first, so `table: &Table` resolves.
    let mut aliases: BTreeMap<String, LockKind> = BTreeMap::new();
    for ctx in ctxs {
        let toks = &ctx.tokens;
        for i in 0..toks.len() {
            if ctx.in_excluded(i) || ident(&toks[i]) != Some("type") {
                continue;
            }
            let Some(name) = toks.get(i + 1).and_then(ident) else {
                continue;
            };
            // Scan the alias RHS up to `;` for a lock type.
            let mut j = i + 2;
            let mut kind = None;
            while j < toks.len() && !is_punct(&toks[j], ';') {
                match ident(&toks[j]) {
                    Some("Mutex") => kind = Some(LockKind::Mutex),
                    Some("RwLock") => kind = Some(LockKind::RwLock),
                    _ => {}
                }
                j += 1;
            }
            if let Some(k) = kind {
                aliases.insert(name.to_string(), k);
            }
        }
    }

    let lock_kind = |name: &str| match name {
        "Mutex" => Some(LockKind::Mutex),
        "RwLock" => Some(LockKind::RwLock),
        other => aliases.get(other).copied(),
    };

    let mut names = BTreeMap::new();
    let mut returning = BTreeMap::new();
    for ctx in ctxs {
        let toks = &ctx.tokens;
        for i in 0..toks.len() {
            if ctx.in_excluded(i) {
                continue;
            }
            // Accessor functions: `fn stripe(..) -> &Mutex<..>`.
            if ident(&toks[i]) == Some("fn") {
                if let Some((fname, kind)) = lock_returning_fn(toks, i, &lock_kind) {
                    returning.insert(fname, kind);
                }
                continue;
            }
            let Some(kind) = ident(&toks[i]).and_then(&lock_kind) else {
                continue;
            };
            // Type position only: `name: … Lock<…> …`. Walk back over type
            // syntax to the single `:` of the declaration; `::` path
            // separators and `=`/`;`/`>` boundaries bail out.
            if !toks.get(i + 1).is_some_and(|t| is_punct(t, '<'))
                && !aliases.contains_key(ident(&toks[i]).unwrap_or(""))
            {
                continue;
            }
            if let Some(name) = decl_name(toks, i) {
                names.entry(name).or_insert(kind);
            }
        }
    }
    let mut locks = Locks {
        names,
        returning,
        guard_fns: BTreeMap::new(),
    };
    for ctx in ctxs {
        let toks = &ctx.tokens;
        for i in 0..toks.len() {
            if ctx.in_excluded(i) || ident(&toks[i]) != Some("fn") {
                continue;
            }
            if let Some((fname, lock)) = guard_returning_fn(toks, i, &locks) {
                locks.guard_fns.insert(fname, lock);
            }
        }
    }
    locks
}

/// If the `fn` at `fn_idx` returns a lock guard, yields `(name, lock)`:
/// the lock is the first one its body acquires.
fn guard_returning_fn(toks: &[Token], fn_idx: usize, locks: &Locks) -> Option<(String, String)> {
    let name = toks.get(fn_idx + 1).and_then(ident)?;
    let (open, close) = fn_body(toks, fn_idx)?;
    let returns_guard = toks[fn_idx..open].iter().any(|t| {
        matches!(
            ident(t),
            Some("MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard")
        )
    });
    if !returns_guard {
        return None;
    }
    (open + 1..close).find_map(|i| {
        let method = ident(&toks[i]).filter(|m| matches!(*m, "lock" | "read" | "write"))?;
        let called = is_punct(&toks[i - 1], '.') && is_punct(toks.get(i + 1)?, '(');
        let lock = acquisition_target(toks, i, method, locks).filter(|_| called)?;
        Some((name.to_string(), lock))
    })
}

/// Walks backward from the lock-type token to the declaration's `name:`.
fn decl_name(toks: &[Token], lock_idx: usize) -> Option<String> {
    let mut j = lock_idx;
    while j > 0 {
        j -= 1;
        match &toks[j].tok {
            // `::` path separator — skip it and the segment before it.
            Tok::Punct(':') if j > 0 && is_punct(&toks[j - 1], ':') => {
                j -= 1;
            }
            // The declaration colon: the name is the ident before it.
            Tok::Punct(':') => {
                return match toks.get(j.checked_sub(1)?).map(|t| &t.tok) {
                    Some(Tok::Ident(name)) => Some(name.clone()),
                    _ => None,
                };
            }
            // Type syntax we walk through.
            Tok::Punct('<')
            | Tok::Punct('[')
            | Tok::Punct('(')
            | Tok::Punct('&')
            | Tok::Ident(_) => {}
            // Anything else (`=`, `;`, `>`, `-`, `{`, …): not a
            // `name: Type` declaration.
            _ => return None,
        }
    }
    None
}

/// If the `fn` at `fn_idx` returns a lock type, yields `(name, kind)`.
fn lock_returning_fn(
    toks: &[Token],
    fn_idx: usize,
    lock_kind: &impl Fn(&str) -> Option<LockKind>,
) -> Option<(String, LockKind)> {
    let name = toks.get(fn_idx + 1).and_then(ident)?;
    // Params start at the first `(` after the name (simple generics never
    // contain parens in this workspace).
    let mut p = fn_idx + 2;
    while p < toks.len() && !is_punct(&toks[p], '(') {
        if is_punct(&toks[p], '{') || is_punct(&toks[p], ';') {
            return None;
        }
        p += 1;
    }
    let params_end = matching_bracket(toks, p, '(', ')')?;
    // Return type: between the params and the body. Require an explicit
    // `->` before the lock token so parameters misparsed into this range
    // can never mint a lock name.
    let mut arrow = false;
    let mut j = params_end + 1;
    while j < toks.len() && !is_punct(&toks[j], '{') && !is_punct(&toks[j], ';') {
        if is_punct(&toks[j], '-') && toks.get(j + 1).is_some_and(|t| is_punct(t, '>')) {
            arrow = true;
        }
        if arrow {
            if let Some(kind) = ident(&toks[j]).and_then(lock_kind) {
                return Some((name.to_string(), kind));
            }
        }
        j += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// Pass B — function definitions
// ---------------------------------------------------------------------------

fn collect_fns(ctxs: &[FileCtx]) -> Vec<FnDef> {
    let mut defs = Vec::new();
    for (fidx, ctx) in ctxs.iter().enumerate() {
        let toks = &ctx.tokens;
        for i in 0..toks.len() {
            if ctx.in_excluded(i) || ident(&toks[i]) != Some("fn") {
                continue;
            }
            let Some(name) = toks.get(i + 1).and_then(ident) else {
                continue;
            };
            let Some((open, close)) = fn_body(toks, i) else {
                continue;
            };
            // Nested fn bodies belong to their own defs; the outer scan
            // must skip them.
            let mut nested = Vec::new();
            let mut j = open + 1;
            while j < close {
                if ident(&toks[j]) == Some("fn") && toks.get(j + 1).and_then(ident).is_some() {
                    if let Some((no, nc)) = fn_body(toks, j) {
                        nested.push((no, nc + 1));
                        j = nc + 1;
                        continue;
                    }
                }
                j += 1;
            }
            defs.push(FnDef {
                name: name.to_string(),
                file: fidx,
                body: (open + 1, close),
                nested,
                closure_params: closure_params(&toks[i..open]),
            });
        }
    }
    defs
}

/// The parameters of the signature `sig` declared `name: [&mut] impl
/// Fn*(..)`.
fn closure_params(sig: &[Token]) -> Vec<String> {
    let mut params = Vec::new();
    for (i, t) in sig.iter().enumerate() {
        let is_fn_trait = matches!(ident(t), Some("Fn" | "FnMut" | "FnOnce"));
        if !is_fn_trait || i == 0 || ident(&sig[i - 1]) != Some("impl") {
            continue;
        }
        // Back over `impl`, `&`, `mut` to the declaration's `name :`.
        let mut j = i - 1;
        while j > 0 && (is_punct(&sig[j - 1], '&') || ident(&sig[j - 1]) == Some("mut")) {
            j -= 1;
        }
        if j >= 2 && is_punct(&sig[j - 1], ':') {
            if let Some(name) = ident(&sig[j - 2]) {
                params.push(name.to_string());
            }
        }
    }
    params
}

/// Token indices of the `{` / `}` delimiting the body of the `fn` at
/// `fn_idx`; `None` for bodyless trait/extern signatures.
fn fn_body(toks: &[Token], fn_idx: usize) -> Option<(usize, usize)> {
    let mut j = fn_idx + 1;
    while j < toks.len() {
        if is_punct(&toks[j], ';') {
            return None;
        }
        if is_punct(&toks[j], '{') {
            let close = matching_bracket(toks, j, '{', '}')?;
            return Some((j, close));
        }
        j += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// Pass C — per-function guard-liveness scan
// ---------------------------------------------------------------------------

fn scan_fn(
    ctx: &FileCtx,
    def: &FnDef,
    locks: &Locks,
    fns: &BTreeMap<&str, Vec<usize>>,
    lent: &Lent,
) -> FnFacts {
    let toks = &ctx.tokens;
    let mut facts = FnFacts::default();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 1u32;
    // Token index where the current statement began (tracks the last
    // `;`/`{`/`}` so `let g = …` binding shapes can be recognised).
    let mut stmt = def.body.0;

    let mut i = def.body.0;
    while i < def.body.1 {
        if let Some(&(a, b)) = def.nested.iter().find(|&&(a, b)| a <= i && i < b) {
            let _ = a;
            i = b;
            continue;
        }
        let t = &toks[i];
        guards.retain(|g| g.until != Some(i));
        match &t.tok {
            Tok::Punct('{') => {
                depth += 1;
                stmt = i + 1;
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                stmt = i + 1;
            }
            Tok::Punct(';') => {
                // Statement temporaries die with their statement.
                guards.retain(|g| g.binding.is_some() || g.depth < depth);
                stmt = i + 1;
            }
            Tok::Ident(name) => {
                let next_open = toks.get(i + 1).is_some_and(|n| is_punct(n, '('));
                if name == "drop" && next_open && toks.get(i + 3).is_some_and(|n| is_punct(n, ')'))
                {
                    if let Some(b) = toks.get(i + 2).and_then(ident) {
                        // Kill the most recent guard with this binding.
                        if let Some(pos) =
                            guards.iter().rposition(|g| g.binding.as_deref() == Some(b))
                        {
                            guards.remove(pos);
                        }
                    }
                } else if (matches!(name.as_str(), "lock" | "read" | "write")
                    || locks.guard_fns.contains_key(name))
                    && i > 0
                    && is_punct(&toks[i - 1], '.')
                    && next_open
                    && toks.get(i + 2).is_some_and(|n| is_punct(n, ')'))
                {
                    // `recv.lock()` on a known lock, or a guard accessor
                    // (`self.lock_pager()`), which acquires its body's lock.
                    let via_accessor = locks.guard_fns.get(name).cloned();
                    let target = via_accessor.or_else(|| acquisition_target(toks, i, name, locks));
                    if let Some(lock) = target {
                        on_acquire(ctx, &mut facts, &guards, &lock, t.line, t.col);
                        let binding = guard_binding(toks, stmt, i);
                        guards.push(Guard {
                            lock,
                            binding,
                            depth,
                            line: t.line,
                            until: None,
                        });
                    }
                } else if def.closure_params.contains(name) {
                    // Called or handed on (`f(x)`, `.map(f)`): either way
                    // it may run under whatever is held here.
                    facts.lends.extend(guards.iter().map(|g| g.lock.clone()));
                } else if next_open && is_blocking(toks, i, name) {
                    if let Some(g) = guards.first() {
                        facts.findings.push((
                            t.line,
                            t.col,
                            Rule::D007,
                            format!(
                                "blocking `{name}(..)` while holding the `{}` guard (acquired at \
                                 line {}): a blocked holder stalls every thread contending for \
                                 the lock; release the guard first or justify with `// mar-lint: \
                                 allow(D007) — <reason>`",
                                g.lock, g.line
                            ),
                        ));
                    }
                } else if next_open
                    && !CALL_DENYLIST.contains(&name.as_str())
                    && fns.contains_key(name.as_str())
                    && (i == 0 || ident(&toks[i - 1]) != Some("fn"))
                {
                    // Recorded with or without guards: an unguarded call
                    // still passes the callee's locks on to this
                    // function's transitive set.
                    facts.calls.push(Call {
                        callee: name.clone(),
                        line: t.line,
                        col: t.col,
                        held: guards.clone(),
                    });
                    // A closure literal among the arguments runs under
                    // what the callee holds when it uses its closure
                    // parameter: lend those guards for the span of the
                    // argument list.
                    if let (Some(held), Some(close)) =
                        (lent.get(name), matching_bracket(toks, i + 1, '(', ')'))
                    {
                        if (i + 2..close).any(|j| is_punct(&toks[j], '|')) {
                            guards.extend(held.iter().map(|lock| Guard {
                                lock: lock.clone(),
                                binding: Some(format!("closure passed to {name}")),
                                depth,
                                line: t.line,
                                until: Some(close),
                            }));
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    facts
}

/// Records the nesting/self-nesting consequences of acquiring `lock`
/// while `guards` are live.
fn on_acquire(
    ctx: &FileCtx,
    facts: &mut FnFacts,
    guards: &[Guard],
    lock: &str,
    line: u32,
    col: u32,
) {
    let _ = ctx;
    facts.direct.entry(lock.to_string()).or_insert((line, col));
    for g in guards {
        if g.lock == lock {
            facts.findings.push((
                line,
                col,
                Rule::D008,
                format!(
                    "`{lock}` acquired again while its guard (line {}) is still live — a \
                     non-reentrant `Mutex` self-deadlocks; drop the first guard or justify \
                     with `// mar-lint: allow(D008) — <reason>`",
                    g.line
                ),
            ));
        } else {
            facts
                .nests
                .push((g.lock.clone(), lock.to_string(), line, col));
        }
    }
}

/// The lock name acquired by the `.lock()`/`.read()`/`.write()` whose
/// method ident sits at `m_idx`, if the receiver is a known lock.
fn acquisition_target(toks: &[Token], m_idx: usize, method: &str, locks: &Locks) -> Option<String> {
    // Receiver is the token before the `.`: an ident, an index `…]`, or a
    // call `…)` (the accessor-fn pattern).
    let recv = m_idx.checked_sub(2)?;
    let (name, via_call) = match &toks[recv].tok {
        Tok::Ident(n) => (n.clone(), false),
        Tok::Punct(']') => {
            let open = matching_open(toks, recv, '[', ']')?;
            (ident(toks.get(open.checked_sub(1)?)?)?.to_string(), false)
        }
        Tok::Punct(')') => {
            let open = matching_open(toks, recv, '(', ')')?;
            (ident(toks.get(open.checked_sub(1)?)?)?.to_string(), true)
        }
        _ => return None,
    };
    let kind = if via_call {
        locks.returning.get(&name).copied()?
    } else {
        locks.names.get(&name).copied()?
    };
    let applies = match method {
        "lock" => kind == LockKind::Mutex,
        // `.read()`/`.write()` collide with `io::Read`/`io::Write`; they
        // only count on names declared as `RwLock`.
        _ => kind == LockKind::RwLock,
    };
    if applies {
        Some(name)
    } else {
        None
    }
}

/// Backward bracket match: the index of the `open` matching the `close`
/// at `close_idx`.
fn matching_open(toks: &[Token], close_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = close_idx + 1;
    while j > 0 {
        j -= 1;
        match &toks[j].tok {
            Tok::Punct(c) if *c == close => depth += 1,
            Tok::Punct(c) if *c == open => {
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

/// If the statement starting at `stmt` is `let [mut] NAME = …` and the
/// chain after the acquisition is nothing but `.expect(..)`/`.unwrap()`
/// up to the `;`, the acquisition binds a named guard `NAME`.
fn guard_binding(toks: &[Token], stmt: usize, m_idx: usize) -> Option<String> {
    let mut k = stmt;
    if ident(toks.get(k)?)? != "let" {
        return None;
    }
    k += 1;
    if ident(toks.get(k)?) == Some("mut") {
        k += 1;
    }
    let name = match &toks.get(k)?.tok {
        Tok::Ident(n) => n.clone(),
        _ => return None,
    };
    if !is_punct(toks.get(k + 1)?, '=') {
        return None;
    }
    // Walk the trailing chain: `.expect(..)` / `.unwrap()` repetitions,
    // then the statement must end.
    let mut p = m_idx + 3; // past `lock ( )`
    loop {
        let t = toks.get(p)?;
        if is_punct(t, ';') {
            return Some(name);
        }
        if !is_punct(t, '.') {
            return None;
        }
        match ident(toks.get(p + 1)?) {
            Some("expect") | Some("unwrap") => {
                let close = matching_bracket(toks, p + 2, '(', ')')?;
                p = close + 1;
            }
            _ => return None,
        }
    }
}

/// True when the ident at `i` is a blocking operation in call position
/// (`.op(..)` or `path::op(..)`).
fn is_blocking(toks: &[Token], i: usize, name: &str) -> bool {
    let qualified = i > 0
        && (is_punct(&toks[i - 1], '.')
            || (is_punct(&toks[i - 1], ':') && i > 1 && is_punct(&toks[i - 2], ':')));
    if !qualified {
        return false;
    }
    if BLOCKING_ZERO_ARG.contains(&name) {
        // Truly empty parens: the tokenizer drops string-literal contents,
        // so `join("\n")` also tokenizes as `join ( )` — require the `)`
        // to sit directly after the `(` in source coordinates.
        return match (toks.get(i + 1), toks.get(i + 2)) {
            (Some(open), Some(close)) if is_punct(close, ')') => {
                close.line == open.line && close.col == open.col + 1
            }
            _ => false,
        };
    }
    BLOCKING_ANY_ARG.contains(&name)
}

// ---------------------------------------------------------------------------
// Transitive lock sets
// ---------------------------------------------------------------------------

/// Per function name: the locks it (transitively) acquires, each with a
/// readable witness trace ("calls `b`, which locks `x` (file:line)").
///
/// The fixpoint runs per definition. A call made under a guard resolves
/// to every workspace function of its name; a call made under none only
/// to those in the caller's own file — enough to follow a type's private
/// helpers down to the lock one of them takes (`plan` → `plan_uncounted`
/// → `install` → `set_resident`), without wiring every same-named
/// function of the workspace into every lock-free call chain.
fn transitive_locks(
    ctxs: &[FileCtx],
    defs: &[FnDef],
    facts: &[FnFacts],
    by_name: &BTreeMap<&str, Vec<usize>>,
) -> BTreeMap<String, BTreeMap<String, String>> {
    let mut trans: Vec<BTreeMap<String, String>> = defs
        .iter()
        .zip(facts)
        .map(|(def, f)| {
            f.direct
                .iter()
                .map(|(lock, &(line, _))| {
                    let trace = format!("locks `{lock}` ({}:{line})", ctxs[def.file].rel);
                    (lock.clone(), trace)
                })
                .collect()
        })
        .collect();
    // Per definition, its resolved callees (deduped, sorted — the
    // fixpoint is deterministic).
    let callees: Vec<BTreeSet<(&str, usize)>> = defs
        .iter()
        .zip(facts)
        .map(|(def, f)| {
            let mut out = BTreeSet::new();
            for c in &f.calls {
                for &dj in by_name.get(c.callee.as_str()).into_iter().flatten() {
                    if !c.held.is_empty() || defs[dj].file == def.file {
                        out.insert((c.callee.as_str(), dj));
                    }
                }
            }
            out
        })
        .collect();
    loop {
        let mut grew = false;
        for (di, calls) in callees.iter().enumerate() {
            for &(callee, dj) in calls {
                let inherited: Vec<(String, String)> = trans[dj]
                    .iter()
                    .map(|(l, tr)| (l.clone(), format!("calls `{callee}`, which {tr}")))
                    .collect();
                for (lock, trace) in inherited {
                    if let std::collections::btree_map::Entry::Vacant(slot) = trans[di].entry(lock)
                    {
                        slot.insert(trace);
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    let mut by: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for (name, idxs) in by_name {
        let entry = by.entry((*name).to_string()).or_default();
        for &di in idxs {
            for (lock, trace) in &trans[di] {
                entry.entry(lock.clone()).or_insert_with(|| trace.clone());
            }
        }
    }
    by
}

// ---------------------------------------------------------------------------
// Findings — D006 (lock-order cycles), D007/D008 (collected per fn)
// ---------------------------------------------------------------------------

/// One lock-order edge with its witness.
struct Edge {
    file: usize,
    line: u32,
    col: u32,
    desc: String,
}

fn build_findings(
    ctxs: &[FileCtx],
    defs: &[FnDef],
    facts: &[FnFacts],
    traces: &BTreeMap<String, BTreeMap<String, String>>,
    by_name: &BTreeMap<&str, Vec<usize>>,
) -> Vec<Finding> {
    let _ = by_name;
    let mut findings = Vec::new();
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();

    for (di, def) in defs.iter().enumerate() {
        let ctx = &ctxs[def.file];
        // Direct nesting → edges.
        for (from, to, line, col) in &facts[di].nests {
            edges
                .entry((from.clone(), to.clone()))
                .or_insert_with(|| Edge {
                    file: def.file,
                    line: *line,
                    col: *col,
                    desc: format!(
                        "`{}` ({}:{line}) acquires `{to}` while holding `{from}`",
                        def.name, ctx.rel
                    ),
                });
        }
        // Calls under guards → edges (different lock) and D008 (same lock).
        for call in &facts[di].calls {
            let Some(callee_locks) = traces.get(&call.callee) else {
                continue;
            };
            for g in &call.held {
                for (lock, trace) in callee_locks {
                    if *lock == g.lock {
                        if !ctx.allowed(call.line, Rule::D008) {
                            findings.push(Finding {
                                file: ctx.rel.clone(),
                                line: call.line,
                                col: call.col,
                                rule: Rule::D008,
                                message: format!(
                                    "`{}` holds the `{}` guard (line {}) across a call to \
                                     `{}`, which {trace} — re-acquiring a non-reentrant \
                                     `Mutex` self-deadlocks; drop the guard before the call \
                                     or justify with `// mar-lint: allow(D008) — <reason>`",
                                    def.name, g.lock, g.line, call.callee
                                ),
                            });
                        }
                    } else {
                        edges
                            .entry((g.lock.clone(), lock.clone()))
                            .or_insert_with(|| Edge {
                                file: def.file,
                                line: call.line,
                                col: call.col,
                                desc: format!(
                                    "`{}` ({}:{}) calls `{}` while holding `{}`; `{}` {trace}",
                                    def.name, ctx.rel, call.line, call.callee, g.lock, call.callee
                                ),
                            });
                    }
                }
            }
        }
        // D007 (and direct D008) findings collected during the scan.
        for (line, col, rule, message) in &facts[di].findings {
            if !ctx.allowed(*line, *rule) {
                findings.push(Finding {
                    file: ctx.rel.clone(),
                    line: *line,
                    col: *col,
                    rule: *rule,
                    message: message.clone(),
                });
            }
        }
    }

    findings.extend(cycle_findings(ctxs, &edges));
    findings.sort();
    findings.dedup();
    findings
}

/// One D006 finding per strongly-connected component of the lock-order
/// graph, carrying the full witness chain.
fn cycle_findings(ctxs: &[FileCtx], edges: &BTreeMap<(String, String), Edge>) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (from, to) in edges.keys() {
        adj.entry(from.as_str()).or_default().insert(to.as_str());
        nodes.insert(from.as_str());
        nodes.insert(to.as_str());
    }

    let mut findings = Vec::new();
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    for &start in &nodes {
        if reported.contains(start) {
            continue;
        }
        // The SCC containing `start`: nodes reachable from it that also
        // reach back. Graphs here have a handful of nodes, so two BFS
        // passes per candidate are plenty.
        let fwd = reachable(&adj, start);
        let scc: BTreeSet<&str> = fwd
            .iter()
            .copied()
            .filter(|&n| reachable(&adj, n).contains(start))
            .collect();
        // A strongly-connected component of ≥ 2 locks is an ordering
        // cycle. (Self-edges never exist: same-lock nesting is D008.)
        if scc.len() < 2 || !scc.contains(start) {
            continue;
        }
        reported.extend(scc.iter().copied());
        let Some(cycle) = witness_cycle(&adj, &scc, start) else {
            continue;
        };
        let mut chain = Vec::new();
        let mut descs = Vec::new();
        let mut suppressed = false;
        for w in cycle.windows(2) {
            let Some(e) = edges.get(&(w[0].to_string(), w[1].to_string())) else {
                continue;
            };
            if ctxs[e.file].allowed(e.line, Rule::D006) {
                suppressed = true;
            }
            descs.push(e.desc.clone());
        }
        for n in &cycle {
            chain.push(format!("`{n}`"));
        }
        if suppressed {
            continue;
        }
        let Some(first) = edges.get(&(cycle[0].to_string(), cycle[1].to_string())) else {
            continue;
        };
        findings.push(Finding {
            file: ctxs[first.file].rel.clone(),
            line: first.line,
            col: first.col,
            rule: Rule::D006,
            message: format!(
                "lock-order cycle {}: {} — two threads taking these locks in opposing order \
                 deadlock; acquire in one global order (DESIGN.md §13) or justify every edge \
                 with `// mar-lint: allow(D006) — <reason>`",
                chain.join(" → "),
                descs.join("; ")
            ),
        });
    }
    findings
}

fn reachable<'a>(adj: &BTreeMap<&'a str, BTreeSet<&'a str>>, from: &'a str) -> BTreeSet<&'a str> {
    let mut seen = BTreeSet::new();
    let mut queue = vec![from];
    while let Some(n) = queue.pop() {
        if let Some(next) = adj.get(n) {
            for &m in next {
                if seen.insert(m) {
                    queue.push(m);
                }
            }
        }
    }
    seen
}

/// A concrete cycle `start → … → start` inside `scc` (shortest via BFS),
/// returned as the node list with `start` at both ends.
fn witness_cycle<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    scc: &BTreeSet<&'a str>,
    start: &'a str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    while let Some(n) = queue.pop_front() {
        let Some(next) = adj.get(n) else { continue };
        for &m in next {
            if m == start {
                // Unwind the path start → … → n, then close the loop.
                let mut path = vec![start];
                let mut cur = n;
                let mut rev = Vec::new();
                while cur != start {
                    rev.push(cur);
                    cur = prev.get(cur)?;
                }
                rev.reverse();
                path.extend(rev);
                path.push(start);
                return Some(path);
            }
            if scc.contains(m) && !prev.contains_key(m) {
                prev.insert(m, n);
                queue.push_back(m);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_files;

    fn lib(src: &str) -> Vec<(String, String)> {
        vec![("crates/core/src/fake.rs".to_string(), src.to_string())]
    }

    fn rules_of(f: &[Finding]) -> Vec<Rule> {
        let mut r: Vec<Rule> = f.iter().map(|x| x.rule).collect();
        r.sort();
        r
    }

    /// ABBA ordering between two functions is a D006 cycle with a witness
    /// chain naming both functions.
    #[test]
    fn abba_cycle_is_d006() {
        let src = r#"
            use std::sync::Mutex;
            pub struct S { alpha: Mutex<u32>, beta: Mutex<u32> }
            impl S {
                pub fn forward(&self) {
                    let a = self.alpha.lock();
                    let b = self.beta.lock();
                    drop(b);
                    drop(a);
                }
                pub fn backward(&self) {
                    let b = self.beta.lock();
                    let a = self.alpha.lock();
                    drop(a);
                    drop(b);
                }
            }
        "#;
        let f = analyze(&lib(src));
        assert_eq!(rules_of(&f), vec![Rule::D006]);
        assert!(
            f[0].message.contains("`alpha` → `beta` → `alpha`"),
            "{}",
            f[0].message
        );
        assert!(f[0].message.contains("forward"), "{}", f[0].message);
        assert!(f[0].message.contains("backward"), "{}", f[0].message);
    }

    /// A consistent global order is no cycle.
    #[test]
    fn consistent_order_passes() {
        let src = r#"
            use std::sync::Mutex;
            pub struct S { alpha: Mutex<u32>, beta: Mutex<u32> }
            impl S {
                pub fn one(&self) {
                    let a = self.alpha.lock();
                    let b = self.beta.lock();
                    drop(b);
                    drop(a);
                }
                pub fn two(&self) {
                    let a = self.alpha.lock();
                    let b = self.beta.lock();
                    drop(b);
                    drop(a);
                }
            }
        "#;
        assert!(analyze(&lib(src)).is_empty());
    }

    /// The cycle survives one hop of indirection through the call graph —
    /// and the witness trace names the callee.
    #[test]
    fn cycle_through_call_graph_is_d006() {
        let src = r#"
            use std::sync::Mutex;
            pub struct S { alpha: Mutex<u32>, beta: Mutex<u32> }
            impl S {
                pub fn forward(&self) {
                    let a = self.alpha.lock();
                    self.bump_beta();
                    drop(a);
                }
                fn bump_beta(&self) {
                    let _b = self.beta.lock();
                }
                pub fn backward(&self) {
                    let b = self.beta.lock();
                    let a = self.alpha.lock();
                    drop(a);
                    drop(b);
                }
            }
        "#;
        let f = analyze(&lib(src));
        assert_eq!(rules_of(&f), vec![Rule::D006]);
        assert!(f[0].message.contains("bump_beta"), "{}", f[0].message);
    }

    /// Sequential block-scoped guards (the `Server::disconnect` /
    /// `connect_with_token` shape) never nest, so opposing *textual*
    /// orders are fine.
    #[test]
    fn block_scoped_sequential_guards_pass() {
        let src = r#"
            use std::sync::Mutex;
            pub struct S { alpha: Mutex<u32>, beta: Mutex<u32> }
            impl S {
                pub fn forward(&self) {
                    let x = {
                        let a = self.alpha.lock();
                        1
                    };
                    let b = self.beta.lock();
                    drop(b);
                    let _ = x;
                }
                pub fn backward(&self) {
                    let y = {
                        let b = self.beta.lock();
                        2
                    };
                    let a = self.alpha.lock();
                    drop(a);
                    let _ = y;
                }
            }
        "#;
        assert!(analyze(&lib(src)).is_empty());
    }

    /// Explicit `drop(guard)` releases before the second acquisition.
    #[test]
    fn explicit_drop_releases_the_guard() {
        let src = r#"
            use std::sync::Mutex;
            pub struct S { alpha: Mutex<u32>, beta: Mutex<u32> }
            impl S {
                pub fn forward(&self) {
                    let a = self.alpha.lock();
                    drop(a);
                    let _b = self.beta.lock();
                }
                pub fn backward(&self) {
                    let b = self.beta.lock();
                    drop(b);
                    let _a = self.alpha.lock();
                }
            }
        "#;
        assert!(analyze(&lib(src)).is_empty());
    }

    /// A statement temporary (`*slots[i].lock().expect(..) = v;`) dies at
    /// its own `;` and never reaches the next statement.
    #[test]
    fn statement_temporaries_die_at_semicolon() {
        let src = r#"
            use std::sync::Mutex;
            pub fn f(slots: &[Mutex<u32>], outs: &[Mutex<u32>]) {
                let v = slots[0].lock();
                drop(v);
            }
            pub fn g(slots: &[Mutex<u32>], outs: &[Mutex<u32>]) {
                let a = outs[0].lock();
                drop(a);
                let b = slots[0].lock();
                drop(b);
            }
        "#;
        assert!(analyze(&lib(src)).is_empty());
    }

    /// D007: blocking while a guard is live; dropping first passes.
    #[test]
    fn blocking_under_guard_is_d007() {
        let bad = r#"
            use std::sync::Mutex;
            pub struct S { inner: Mutex<u32>, rx: std::sync::mpsc::Receiver<u32> }
            impl S {
                pub fn drain(&self) {
                    let g = self.inner.lock();
                    let _v = self.rx.recv();
                    drop(g);
                }
            }
        "#;
        let f = analyze(&lib(bad));
        assert_eq!(rules_of(&f), vec![Rule::D007]);
        assert!(f[0].message.contains("recv"), "{}", f[0].message);

        let ok = r#"
            use std::sync::Mutex;
            pub struct S { inner: Mutex<u32>, rx: std::sync::mpsc::Receiver<u32> }
            impl S {
                pub fn drain(&self) {
                    let g = self.inner.lock();
                    drop(g);
                    let _v = self.rx.recv();
                }
            }
        "#;
        assert!(analyze(&lib(ok)).is_empty());
    }

    /// `Vec::join(sep)` takes an argument, `JoinHandle::join()` does not —
    /// only the zero-argument form is blocking.
    #[test]
    fn join_with_arguments_is_not_blocking() {
        let src = r#"
            use std::sync::Mutex;
            pub struct S { inner: Mutex<u32> }
            impl S {
                pub fn render(&self, lines: &[String]) -> String {
                    let g = self.inner.lock();
                    let out = lines.join("\n");
                    drop(g);
                    out
                }
            }
        "#;
        assert!(analyze(&lib(src)).is_empty());
    }

    /// D008: re-acquiring the same named lock, directly and through a call.
    #[test]
    fn double_lock_is_d008() {
        let direct = r#"
            use std::sync::Mutex;
            pub struct S { n: Mutex<u32> }
            impl S {
                pub fn f(&self) {
                    let a = self.n.lock();
                    let b = self.n.lock();
                    drop(b);
                    drop(a);
                }
            }
        "#;
        assert_eq!(rules_of(&analyze(&lib(direct))), vec![Rule::D008]);

        let via_call = r#"
            use std::sync::Mutex;
            pub struct S { n: Mutex<u32> }
            impl S {
                pub fn outer(&self) {
                    let g = self.n.lock();
                    self.total();
                    drop(g);
                }
                fn total(&self) {
                    let _g = self.n.lock();
                }
            }
        "#;
        let f = analyze(&lib(via_call));
        assert_eq!(rules_of(&f), vec![Rule::D008]);
        assert!(f[0].message.contains("total"), "{}", f[0].message);
    }

    /// A closure literal runs under what the function it is passed to
    /// holds around its closure parameter: the per-session `with` shape
    /// puts `filter → pool` into the graph (a cycle once anything under
    /// the pool reaches back), re-entering `with` from its own closure is
    /// D008, and a function that has let go of its guard before it runs
    /// the closure lends nothing.
    #[test]
    fn guards_are_lent_to_closure_literals() {
        let table = r#"
            use std::sync::{Arc, Mutex};
            pub struct S { filter: Arc<Mutex<u32>>, pool: Mutex<u32> }
            impl S {
                pub fn with<R>(&self, f: impl FnOnce(&mut u32) -> R) -> R {
                    let mut filter = self.filter.lock();
                    f(&mut filter)
                }
                pub fn after<R>(&self, f: impl FnOnce(u32) -> R) -> R {
                    let seen = {
                        let filter = self.filter.lock();
                        7
                    };
                    f(seen)
                }
                fn fault(&self) {
                    let _p = self.pool.lock();
                }
        "#;
        let clean = r#"
                pub fn query(&self) {
                    self.with(|sent| {
                        *sent += 1;
                        self.fault();
                    });
                    self.after(|_| self.fault());
                }
            }
        "#;
        assert!(analyze(&lib(&format!("{table}{clean}"))).is_empty());

        let cycle = r#"
                pub fn query(&self) {
                    self.with(|sent| {
                        *sent += 1;
                        self.fault();
                    });
                }
                pub fn evict(&self) {
                    let p = self.pool.lock();
                    let f = self.filter.lock();
                    drop(f);
                    drop(p);
                }
            }
        "#;
        let f = analyze(&lib(&format!("{table}{cycle}")));
        assert_eq!(rules_of(&f), vec![Rule::D006]);
        assert!(f[0].message.contains("`query`"), "{}", f[0].message);
        assert!(f[0].message.contains("fault"), "{}", f[0].message);

        let reentry = r#"
                pub fn query(&self) {
                    self.with(|_| self.with(|sent| *sent += 1));
                }
            }
        "#;
        let f = analyze(&lib(&format!("{table}{reentry}")));
        assert_eq!(rules_of(&f), vec![Rule::D008]);
        assert!(f[0].message.contains("`filter`"), "{}", f[0].message);
    }

    /// `.read()`/`.write()` only fire on declared `RwLock` names — an
    /// `io::Read`-style `.read(buf)` on a non-lock receiver is ignored,
    /// and RwLock guards participate in ordering edges.
    #[test]
    fn rwlock_read_write_and_io_read_disambiguation() {
        let src = r#"
            use std::sync::{Mutex, RwLock};
            pub struct S { table: RwLock<u32>, n: Mutex<u32> }
            impl S {
                pub fn forward(&self) {
                    let t = self.table.read();
                    let g = self.n.lock();
                    drop(g);
                    drop(t);
                }
                pub fn backward(&self) {
                    let g = self.n.lock();
                    let t = self.table.write();
                    drop(t);
                    drop(g);
                }
            }
        "#;
        let f = analyze(&lib(src));
        assert_eq!(rules_of(&f), vec![Rule::D006]);

        let io = r#"
            use std::sync::Mutex;
            pub struct S { n: Mutex<u32> }
            pub fn f(s: &S, sock: &mut std::net::TcpStream, buf: &mut [u8]) {
                let g = s.n.lock();
                let _ = sock.read(buf);
                drop(g);
            }
        "#;
        // `sock` is not a declared lock: `.read(buf)` is io, not an
        // acquisition (and not in the zero-arg blocking set).
        assert!(analyze(&lib(io)).is_empty());
    }

    /// Locks reached through a type alias (`type Ledgers = Mutex<..>`)
    /// and through accessor functions (`fn stripe(..) -> &Mutex<..>`)
    /// resolve to named locks.
    #[test]
    fn alias_and_accessor_locks_resolve() {
        let src = r#"
            use std::collections::BTreeMap;
            use std::sync::Mutex;
            type Ledgers = Mutex<BTreeMap<u64, u64>>;
            pub struct S { ledgers: Ledgers, stripes: Vec<Mutex<u32>> }
            impl S {
                fn stripe(&self, i: usize) -> &Mutex<u32> {
                    &self.stripes[i]
                }
                pub fn forward(&self) {
                    let l = self.ledgers.lock();
                    let s = self.stripe(0).lock();
                    drop(s);
                    drop(l);
                }
                pub fn backward(&self) {
                    let s = self.stripe(0).lock();
                    let l = self.ledgers.lock();
                    drop(l);
                    drop(s);
                }
            }
        "#;
        let f = analyze(&lib(src));
        assert_eq!(rules_of(&f), vec![Rule::D006]);
        assert!(f[0].message.contains("`ledgers`"), "{}", f[0].message);
        assert!(f[0].message.contains("`stripe`"), "{}", f[0].message);
    }

    /// Denylisted ubiquitous names (`len`, …) never become call edges,
    /// even when a workspace fn with that name takes locks.
    #[test]
    fn denylisted_names_are_not_call_edges() {
        let src = r#"
            use std::sync::Mutex;
            pub struct C { scenes: Mutex<u32> }
            impl C {
                pub fn len(&self) -> u32 {
                    let g = self.scenes.lock();
                    drop(g);
                    0
                }
            }
            pub struct S { stripes: Mutex<u32> }
            impl S {
                pub fn count(&self, items: &[u32]) -> usize {
                    let g = self.stripes.lock();
                    let n = items.len();
                    drop(g);
                    n
                }
            }
        "#;
        assert!(analyze(&lib(src)).is_empty());
    }

    /// The allow escape hatch: any edge line of the cycle suppresses
    /// D006; the finding line suppresses D007/D008.
    #[test]
    fn allow_annotations_suppress() {
        let d006 = r#"
            use std::sync::Mutex;
            pub struct S { alpha: Mutex<u32>, beta: Mutex<u32> }
            impl S {
                pub fn forward(&self) {
                    let a = self.alpha.lock();
                    let b = self.beta.lock();
                    drop(b);
                    drop(a);
                }
                pub fn backward(&self) {
                    let b = self.beta.lock();
                    // mar-lint: allow(D006) — probe order is deliberate and documented
                    let a = self.alpha.lock();
                    drop(a);
                    drop(b);
                }
            }
        "#;
        assert!(analyze(&lib(d006)).is_empty());

        let d007 = r#"
            use std::sync::Mutex;
            pub struct S { inner: Mutex<u32>, rx: std::sync::mpsc::Receiver<u32> }
            impl S {
                pub fn drain(&self) {
                    let g = self.inner.lock();
                    // mar-lint: allow(D007) — bounded: the sender is in-process and never blocks
                    let _v = self.rx.recv();
                    drop(g);
                }
            }
        "#;
        assert!(analyze(&lib(d007)).is_empty());
    }

    /// Cross-file cycles resolve through the workspace-wide call graph.
    #[test]
    fn cross_file_cycle_is_d006() {
        let a = r#"
            use std::sync::Mutex;
            pub struct A { alpha: Mutex<u32> }
            impl A {
                pub fn forward(&self) {
                    let g = self.alpha.lock();
                    grab_beta();
                    drop(g);
                }
            }
        "#;
        let b = r#"
            use std::sync::Mutex;
            pub struct B { beta: Mutex<u32> }
            pub fn grab_beta() {
                let _g = BETA.beta.lock();
            }
            pub fn backward() {
                let g = BETA.beta.lock();
                grab_alpha();
                drop(g);
            }
            pub fn grab_alpha() {
                let _g = ALPHA.alpha.lock();
            }
            static ALPHA: u32 = 0;
            static BETA: u32 = 0;
        "#;
        let files = vec![
            ("crates/core/src/a.rs".to_string(), a.to_string()),
            ("crates/served/src/b.rs".to_string(), b.to_string()),
        ];
        let f = analyze(&files);
        assert_eq!(rules_of(&f), vec![Rule::D006]);
        assert!(f[0].message.contains("grab_beta"), "{}", f[0].message);
        assert!(f[0].message.contains("grab_alpha"), "{}", f[0].message);
    }

    /// Test modules are exempt: a lock dance inside `#[cfg(test)]` is the
    /// test's business.
    #[test]
    fn test_regions_are_exempt() {
        let src = r#"
            pub fn lib_code() {}
            #[cfg(test)]
            mod tests {
                use std::sync::Mutex;
                pub struct S { alpha: Mutex<u32>, beta: Mutex<u32> }
                impl S {
                    pub fn forward(&self) {
                        let a = self.alpha.lock();
                        let b = self.beta.lock();
                        drop(b);
                        drop(a);
                    }
                    pub fn backward(&self) {
                        let b = self.beta.lock();
                        let a = self.alpha.lock();
                        drop(a);
                        drop(b);
                    }
                }
            }
        "#;
        assert!(analyze(&lib(src)).is_empty());
    }

    /// `lint_files` merges per-file rules with the concurrency pass.
    #[test]
    fn lint_files_merges_rule_families() {
        let src = r#"
            use std::collections::HashMap;
            use std::sync::Mutex;
            pub struct S { alpha: Mutex<u32>, beta: Mutex<u32> }
            impl S {
                pub fn forward(&self) {
                    let a = self.alpha.lock();
                    let b = self.beta.lock();
                    drop(b);
                    drop(a);
                }
                pub fn backward(&self) {
                    let b = self.beta.lock();
                    let a = self.alpha.lock();
                    drop(a);
                    drop(b);
                }
            }
        "#;
        let f = lint_files(&lib(src));
        assert_eq!(rules_of(&f), vec![Rule::D001, Rule::D006]);
    }
}
