//! CLI for `mar-lint`: lints the workspace and exits 1 on any finding.
//!
//! Usage: `cargo run -p mar-lint [-- --format json] [--root PATH]`

#![forbid(unsafe_code)]

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Writes to stdout ignoring `EPIPE`, so `mar-lint | head` exits quietly
/// instead of panicking (Rust leaves `SIGPIPE` ignored by default).
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    let _ = out.write_all(text.as_bytes());
    let _ = out.write_all(b"\n");
}

fn usage() -> &'static str {
    "mar-lint — workspace determinism, float-soundness & concurrency linter\n\
     \n\
     USAGE:\n\
     \tmar-lint [--format text|json] [--root PATH]\n\
     \n\
     OPTIONS:\n\
     \t--format text|json\toutput format (default: text)\n\
     \t--root PATH\t\tworkspace root (default: ascend from cwd)\n\
     \t-h, --help\t\tprint this help\n\
     \n\
     EXIT CODES:\n\
     \t0  no findings\n\
     \t1  findings reported\n\
     \t2  usage or I/O error"
}

/// Ascends from `start` to the first directory that looks like the
/// workspace root (has both `Cargo.toml` and `crates/`).
fn find_root(start: PathBuf) -> Option<PathBuf> {
    let mut dir = start;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut format_json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => format_json = true,
                Some("text") => format_json = false,
                other => {
                    eprintln!(
                        "mar-lint: --format expects `text` or `json`, got {:?}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("mar-lint: --root expects a path");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                emit(usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("mar-lint: unknown argument `{other}`\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("mar-lint: cannot read current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_root(cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "mar-lint: no workspace root found (looked for Cargo.toml + crates/); \
                         pass --root PATH"
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let findings = match mar_lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("mar-lint: I/O error while linting {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if format_json {
        emit(&mar_lint::to_json(&findings));
    } else {
        let mut report = findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        if findings.is_empty() {
            report = "mar-lint: 0 findings".to_string();
        } else {
            eprintln!("mar-lint: {} finding(s)", findings.len());
        }
        emit(&report);
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
