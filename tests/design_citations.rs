//! Every `DESIGN.md §N` or `§N.M` citation in the code, the examples, the
//! tests, the README, EXPERIMENTS.md, CI and the verification notes names
//! a section DESIGN.md has, so renumbering or folding a section cannot
//! leave a pointer to nothing behind; and DESIGN.md stays within its line
//! budget, so the document can only shrink.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The section numbers of DESIGN.md's headings (`## 10. …`, `### 12.1 …`).
fn sections(design: &str) -> BTreeSet<String> {
    design
        .lines()
        .filter(|line| line.starts_with('#'))
        .filter_map(|line| {
            let title = line.trim_start_matches('#').trim_start();
            let number = title.split_whitespace().next()?.trim_end_matches('.');
            let numeric =
                !number.is_empty() && number.chars().all(|c| c.is_ascii_digit() || c == '.');
            numeric.then(|| number.to_string())
        })
        .collect()
}

/// The sections `text` cites as `DESIGN.md §N` or `DESIGN.md §N.M`; a
/// line break and comment markers may sit between the two.
fn citations(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("DESIGN.md") {
        let rest = text[at + "DESIGN.md".len()..]
            .trim_start_matches(|c: char| c.is_whitespace() || "/!#*".contains(c));
        let Some(rest) = rest.strip_prefix('§') else {
            continue;
        };
        let digits = |s: &str| s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        let major = digits(rest);
        if major == 0 {
            continue;
        }
        let mut end = major;
        if rest[major..].starts_with('.') {
            let minor = digits(&rest[major + 1..]);
            if minor > 0 {
                end = major + 1 + minor;
            }
        }
        out.push(rest[..end].to_string());
    }
    out
}

/// DESIGN.md's most lines.
const DESIGN_MAX_LINES: usize = 896;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the workspace root")
}

/// Every file under `dir`, skipping build output and hidden directories.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                files(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

#[test]
fn every_design_citation_names_a_design_heading() {
    let root = root();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let known = sections(&design);
    let mut paths = vec![root.join("README.md"), root.join("EXPERIMENTS.md")];
    for dir in ["crates", "examples", "tests"] {
        files(&root.join(dir), &mut paths);
    }
    // `files` skips hidden directories below the ones it is given, so the
    // top-level ones — CI and the verification notes — are walked here,
    // all but git's own and the benchmark's build output.
    for entry in std::fs::read_dir(root)
        .expect("the workspace root")
        .flatten()
    {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.path().is_dir()
            && name.starts_with('.')
            && ![".git", ".bench_build"].contains(&&*name)
        {
            files(&entry.path(), &mut paths);
        }
    }
    let (mut cited, mut dangling) = (BTreeSet::new(), Vec::new());
    for path in &paths {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        for section in citations(&text) {
            if !known.contains(&section) {
                let file = path.strip_prefix(root).unwrap_or(path);
                dangling.push(format!("{}: §{section}", file.display()));
            }
            cited.insert(section);
        }
    }
    assert!(
        !cited.is_empty(),
        "no DESIGN.md citation found under {root:?}"
    );
    assert!(
        dangling.is_empty(),
        "citations of missing sections:\n{}",
        dangling.join("\n")
    );
}

#[test]
fn design_md_stays_within_its_line_budget() {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
    let lines = design.lines().count();
    assert!(
        lines <= DESIGN_MAX_LINES,
        "DESIGN.md has {lines} lines, over its budget of {DESIGN_MAX_LINES}"
    );
}

#[test]
fn citations_are_read_across_line_breaks_and_sentence_ends() {
    // Spelled through `d` so that this file cites nothing itself.
    let d = "DESIGN.md";
    let text = format!("see {d} §10. And ({d}\n//! §12.3) or {d} §15.\n");
    assert_eq!(citations(&text), ["10", "12.3", "15"]);
    assert!(citations(&format!("{d}, §4 or {d} §N")).is_empty());
    let headings = "# DESIGN\n## 1. Problem\n### 12.1 Frame grammar\n### Determinism\n";
    assert_eq!(
        sections(headings),
        BTreeSet::from(["1".into(), "12.1".into()])
    );
}
