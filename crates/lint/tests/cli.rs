//! End-to-end CLI tests: exit codes, `file:line:col` output, and the JSON
//! format, exercised on a throwaway mini-workspace under `target/`.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// Builds a tiny fake workspace (inside `target/`, which both git and the
/// lint walker ignore) whose one crate root violates D001/D005.
fn fake_workspace(name: &str, src: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src_dir = root.join("crates/demo/src");
    fs::create_dir_all(&src_dir).expect("mkdir fake workspace");
    fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    fs::write(src_dir.join("lib.rs"), src).expect("write lib.rs");
    root
}

fn run_lint(root: &PathBuf, extra: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mar-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn mar-lint");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn failing_workspace_exits_one_with_file_line_findings() {
    // `demo` is not a deterministic crate, so HashMap passes D001 — but the
    // missing forbid and the library unwrap are violations anywhere.
    let root = fake_workspace(
        "cli-fail",
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let (code, stdout, stderr) = run_lint(&root, &[]);
    assert_eq!(code, Some(1), "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout.contains("crates/demo/src/lib.rs:1:1 [D005]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/demo/src/lib.rs:2:7 [D004]"),
        "{stdout}"
    );
    assert!(stderr.contains("2 finding(s)"), "{stderr}");
}

#[test]
fn clean_workspace_exits_zero() {
    let root = fake_workspace(
        "cli-pass",
        "#![forbid(unsafe_code)]\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n",
    );
    let (code, stdout, _) = run_lint(&root, &[]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("0 findings"), "{stdout}");
}

#[test]
fn json_format_is_machine_readable() {
    let root = fake_workspace("cli-json", "pub fn f() {\n    todo!()\n}\n");
    let (code, stdout, _) = run_lint(&root, &["--format", "json"]);
    assert_eq!(code, Some(1), "{stdout}");
    let line = stdout.trim();
    assert!(line.starts_with("{\"findings\":["), "{line}");
    assert!(line.contains("\"rule\":\"D004\""), "{line}");
    assert!(line.contains("\"rule\":\"D005\""), "{line}");
    assert!(line.ends_with("\"count\":2}"), "{line}");
}

#[test]
fn missing_baseline_file_exits_two() {
    // The baseline mode is gone: `--baseline` is an unknown argument, so it
    // still exits 2 whether or not the file exists.
    let root = fake_workspace(
        "cli-baseline-missing",
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    );
    let (code, _, stderr) = run_lint(&root, &["--baseline", "does-not-exist.txt"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument `--baseline`"), "{stderr}");
}

#[test]
fn baseline_and_record_baseline_are_mutually_exclusive() {
    // Both baseline flags are gone; together they exit 2 on the first one.
    let root = fake_workspace(
        "cli-baseline-excl",
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    );
    let (code, _, stderr) = run_lint(&root, &["--baseline", "a", "--record-baseline", "b"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument `--baseline`"), "{stderr}");
    let (code, _, stderr) = run_lint(&root, &["--record-baseline", "b"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown argument `--record-baseline`"),
        "{stderr}"
    );
}

#[test]
fn unknown_arguments_exit_two() {
    let (code, _, stderr) = {
        let out = Command::new(env!("CARGO_BIN_EXE_mar-lint"))
            .arg("--bogus")
            .output()
            .expect("spawn mar-lint");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown argument"), "{stderr}");
}
