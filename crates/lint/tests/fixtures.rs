//! Fixture-based tests: each rule has one failing and one passing fixture
//! under `tests/fixtures/`, linted here under a pretend deterministic-crate
//! library path (the walker skips `fixtures` directories, so the deliberate
//! violations never pollute a workspace run).

use mar_lint::{lint_files, lint_source, Finding, Rule};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lints a fixture as if it were library code inside `mar-core`.
fn lint_as_core_lib(name: &str) -> Vec<Finding> {
    lint_source("crates/core/src/fixture.rs", &fixture(name))
}

/// Lints a fixture through [`lint_files`], so the workspace-wide
/// concurrency pass (D006–D008) runs over it.
fn lint_concurrency(name: &str) -> Vec<Finding> {
    lint_files(&[("crates/core/src/fixture.rs".to_string(), fixture(name))])
}

#[test]
fn d001_failing_fixture() {
    let f = lint_as_core_lib("d001_fail.rs");
    assert_eq!(f.len(), 3, "one finding per HashMap token: {f:#?}");
    assert!(f.iter().all(|x| x.rule == Rule::D001));
    assert_eq!((f[0].line, f[0].col), (1, 23), "use-declaration site");
    assert!(f[0].message.contains("BTreeMap"));
}

#[test]
fn d001_passing_fixture() {
    assert!(lint_as_core_lib("d001_pass.rs").is_empty());
}

#[test]
fn d001_allow_fixture_suppresses_with_reason() {
    assert!(lint_as_core_lib("d001_allow.rs").is_empty());
}

#[test]
fn d001_allow_without_reason_is_rejected() {
    let f = lint_as_core_lib("d001_allow_missing_reason.rs");
    // The bare annotation is itself a D000 finding AND fails to suppress
    // the D001 on the use-declaration it precedes.
    assert_eq!(
        f.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec![Rule::D000, Rule::D001],
        "{f:#?}"
    );
    assert_eq!(f[0].line, 1, "the malformed annotation line");
    assert_eq!(f[1].line, 2, "the unsuppressed use-declaration");
    assert!(f[0].message.contains("reason"));
}

#[test]
fn d002_failing_fixture() {
    let f = lint_as_core_lib("d002_fail.rs");
    assert!(f.iter().any(|x| x.rule == Rule::D002), "{f:#?}");
    let d002 = f.iter().find(|x| x.rule == Rule::D002).unwrap();
    assert_eq!(d002.line, 2);
    assert!(d002.message.contains("total_cmp"));
}

#[test]
fn d002_passing_fixture() {
    assert!(lint_as_core_lib("d002_pass.rs").is_empty());
}

#[test]
fn d003_failing_fixture() {
    let f = lint_as_core_lib("d003_fail.rs");
    assert_eq!(
        f.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec![Rule::D003]
    );
    assert_eq!(f[0].line, 2);
    // D003 applies even in bin targets outside the annotated timing layer.
    let binf = lint_source("crates/bench/src/bin/fixture.rs", &fixture("d003_fail.rs"));
    assert_eq!(binf.len(), 1);
}

#[test]
fn d003_passing_fixture() {
    assert!(lint_as_core_lib("d003_pass.rs").is_empty());
}

#[test]
fn d004_failing_fixture() {
    let f = lint_as_core_lib("d004_fail.rs");
    assert_eq!(
        f.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec![Rule::D004]
    );
    assert_eq!(f[0].line, 2);
    // The same code is fine in a bin target.
    assert!(lint_source("crates/bench/src/bin/fixture.rs", &fixture("d004_fail.rs")).is_empty());
}

#[test]
fn d004_passing_fixture_includes_test_module_unwrap() {
    assert!(lint_as_core_lib("d004_pass.rs").is_empty());
}

#[test]
fn d005_failing_fixture() {
    let f = lint_source("crates/core/src/lib.rs", &fixture("d005_fail.rs"));
    assert_eq!(
        f.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec![Rule::D005]
    );
    assert_eq!((f[0].line, f[0].col), (1, 1));
}

#[test]
fn d005_passing_fixture() {
    assert!(lint_source("crates/core/src/lib.rs", &fixture("d005_pass.rs")).is_empty());
}

#[test]
fn d006_failing_fixture() {
    let f = lint_concurrency("d006_fail.rs");
    assert_eq!(
        f.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec![Rule::D006],
        "{f:#?}"
    );
    // The witness chain names the cycle and both functions.
    assert!(
        f[0].message.contains("`alpha` → `beta` → `alpha`"),
        "{}",
        f[0].message
    );
    assert!(f[0].message.contains("forward"), "{}", f[0].message);
    assert!(f[0].message.contains("backward"), "{}", f[0].message);
    assert!(f[0].message.contains("bump_beta"), "{}", f[0].message);
}

#[test]
fn d006_passing_fixture() {
    assert!(lint_concurrency("d006_pass.rs").is_empty());
}

#[test]
fn d006_allow_fixture_suppresses_with_reason() {
    assert!(lint_concurrency("d006_allow.rs").is_empty());
}

/// The session table's lock family (DESIGN.md §13.1): a stripe guard
/// live across a per-session filter lock is an ordering edge — a cycle
/// as soon as anything under a filter reaches back into the table — and
/// re-entering a held filter is a self-deadlock; the look-up-then-release
/// shape `Sessions::with` uses is clean.
#[test]
fn d006_d008_know_the_session_filter_lock() {
    let f = lint_concurrency("d006_filter_lock_fail.rs");
    assert_eq!(
        f.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec![Rule::D006, Rule::D008],
        "{f:#?}"
    );
    let (cycle, reentry) = (&f[0].message, &f[1].message);
    assert!(cycle.contains("`filter` → `stripes` → `filter`"), "{cycle}");
    assert!(cycle.contains("`with`"), "{cycle}");
    assert!(cycle.contains("session_count"), "{cycle}");
    assert!(reentry.contains("mark_sent"), "{reentry}");
    assert!(reentry.contains("`filter`"), "{reentry}");
    assert!(lint_concurrency("d006_filter_lock_pass.rs").is_empty());
}

/// The pool's residency record (DESIGN.md §13.1), reached through an
/// accessor returning `&RwLock<..>` and written by a private helper chain
/// the pager's holder calls: taking the pager under a record guard closes
/// a cycle; read with no other guard live, the record is a leaf and the
/// fixture is clean.
#[test]
fn d006_knows_the_residency_record() {
    let f = lint_concurrency("d006_residency_fail.rs");
    assert_eq!(
        f.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec![Rule::D006],
        "{f:#?}"
    );
    let cycle = &f[0].message;
    assert!(cycle.contains("`pager`"), "{cycle}");
    assert!(cycle.contains("`residency`"), "{cycle}");
    assert!(cycle.contains("serve_and_count"), "{cycle}");
    assert!(cycle.contains("set_resident"), "{cycle}");
    assert!(lint_concurrency("d006_residency_pass.rs").is_empty());
}

#[test]
fn d007_failing_fixture() {
    let f = lint_concurrency("d007_fail.rs");
    assert_eq!(
        f.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec![Rule::D007],
        "{f:#?}"
    );
    assert!(f[0].message.contains("recv"), "{}", f[0].message);
    assert!(f[0].message.contains("`inner`"), "{}", f[0].message);
}

#[test]
fn d007_passing_fixture() {
    assert!(lint_concurrency("d007_pass.rs").is_empty());
}

#[test]
fn d007_knows_positioned_file_io_under_a_guard_accessor() {
    let f = lint_concurrency("d007_positioned_fail.rs");
    assert_eq!(
        f.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec![Rule::D007],
        "{f:#?}"
    );
    assert!(f[0].message.contains("read_exact_at"), "{}", f[0].message);
    assert!(f[0].message.contains("`pool`"), "{}", f[0].message);
    assert!(lint_concurrency("d007_positioned_pass.rs").is_empty());
}

#[test]
fn d007_allow_fixture_suppresses_with_reason() {
    assert!(lint_concurrency("d007_allow.rs").is_empty());
}

#[test]
fn d008_failing_fixture() {
    let f = lint_concurrency("d008_fail.rs");
    assert_eq!(
        f.iter().map(|x| x.rule).collect::<Vec<_>>(),
        vec![Rule::D008],
        "{f:#?}"
    );
    assert!(f[0].message.contains("inner_total"), "{}", f[0].message);
    assert!(f[0].message.contains("`n`"), "{}", f[0].message);
}

#[test]
fn d008_passing_fixture() {
    assert!(lint_concurrency("d008_pass.rs").is_empty());
}

#[test]
fn d008_allow_fixture_suppresses_with_reason() {
    assert!(lint_concurrency("d008_allow.rs").is_empty());
}

#[test]
fn multi_rule_allow_fixture_suppresses_both_rules() {
    assert!(lint_concurrency("allow_multi_rule.rs").is_empty());
}

#[test]
fn findings_render_as_file_line_col_rule() {
    let f = lint_as_core_lib("d004_fail.rs");
    assert_eq!(
        f[0].to_string(),
        format!("crates/core/src/fixture.rs:2:16 [D004] {}", f[0].message)
    );
}
