//! The `main` the `serve`, `chaos` and `fleet` binaries share: one flag
//! table, one snapshot path, one exit-code rule.

use crate::cli::{ensure_out_dir, exit_usage, Args, CliError};
use crate::engine::default_jobs;
use crate::report::{render, Json};

/// The command line of a harness binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessOptions {
    /// `--smoke`: the seconds-scale CI workload instead of the full one.
    pub smoke: bool,
    /// `--paged`: serve from a page file (only `chaos` takes it).
    pub paged: bool,
    /// `--jobs N`: worker threads (default: [`default_jobs`]).
    pub jobs: usize,
    /// `--out-dir DIR`: where the snapshot goes (default: `.`).
    pub out_dir: String,
}

fn parse_args(line: &[String], takes_paged: bool) -> Result<HarnessOptions, CliError> {
    let mut opts = HarnessOptions {
        smoke: false,
        paged: false,
        jobs: default_jobs(),
        out_dir: ".".to_string(),
    };
    let mut args = Args::new(line);
    while let Some(flag) = args.next_flag()? {
        match flag {
            "--smoke" => opts.smoke = true,
            "--paged" if takes_paged => opts.paged = true,
            "--jobs" => opts.jobs = args.parse("number")?,
            "--out-dir" => opts.out_dir = args.value()?.to_string(),
            _ => return Err(args.unknown()),
        }
    }
    Ok(opts)
}

/// `main` of the harness binary `name`: parses `[--smoke] [--jobs N]
/// [--out-dir DIR]` (plus `--paged` when `takes_paged`), calls `run` with
/// the options and the snapshot's `mode` (`"smoke"` or `"full"`), and
/// writes the snapshot it returns to `DIR/BENCH_<name>.json` — and to
/// stderr, as the run's report. Exits non-zero when the file cannot be
/// written or `run` reports (`false`) that the harness's invariant failed.
pub fn harness_main(
    name: &str,
    takes_paged: bool,
    run: impl FnOnce(&HarnessOptions, &'static str) -> (Json, bool),
) {
    let paged = if takes_paged { " [--paged]" } else { "" };
    let usage = format!("usage: {name} [--smoke]{paged} [--jobs N] [--out-dir DIR]");
    let line: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&line, takes_paged).unwrap_or_else(|e| exit_usage(&e, &usage));
    ensure_out_dir(&opts.out_dir);
    let mode = if opts.smoke { "smoke" } else { "full" };
    let backend = if opts.paged { ", paged" } else { "" };
    eprintln!("{name}: {mode} run (jobs={}{backend})", opts.jobs);
    let (snapshot, invariant_ok) = run(&opts, mode);
    let path = format!("{}/BENCH_{name}.json", opts.out_dir);
    let text = render(&snapshot);
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("{name}: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("{text}{name}: wrote {path}");
    if !invariant_ok {
        eprintln!("{name}: INVARIANT VIOLATED");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_chaos_takes_paged() {
        let line = ["--smoke", "--paged", "--jobs=3"].map(String::from);
        let opts = parse_args(&line, true).expect("chaos flags");
        assert_eq!((opts.smoke, opts.paged, opts.jobs), (true, true, 3));
        assert_eq!(
            parse_args(&line, false),
            Err(CliError::Unknown("--paged".to_string()))
        );
    }
}
