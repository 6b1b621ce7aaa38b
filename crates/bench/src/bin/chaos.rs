//! `chaos` — the fault-injection harness for the resilient retrieval
//! protocol (`mar-bench chaos`).
//!
//! Sweeps the serve-style multi-session workload over a fault grid via
//! [`mar_bench::chaos::run_chaos`] and writes `BENCH_chaos.json`
//! (see EXPERIMENTS.md for the schema):
//!
//! ```text
//! cargo run -p mar-bench --release --bin chaos              # full grid
//! cargo run -p mar-bench --release --bin chaos -- --jobs 4
//! cargo run -p mar-bench --release --bin chaos -- --smoke --out-dir target
//! ```
//!
//! The process exits non-zero when the chaos invariant fails — a faulted
//! session whose final resident set diverged from the fault-free run — so
//! CI turns red on any resilience regression. The transcript and every
//! aggregate are byte-identical for any `--jobs` value; the JSON records
//! the FNV-1a transcript fingerprint for cross-process comparison.

use mar_bench::chaos::{run_chaos_backend, ChaosConfig, ChaosReport};
use mar_bench::cli::{exit_usage, Args, CliError};
use mar_bench::engine::default_jobs;
use mar_bench::serve::{fnv1a64, ServeBackend};

struct Options {
    smoke: bool,
    paged: bool,
    jobs: usize,
    out_dir: String,
}

const USAGE: &str = "usage: chaos [--smoke] [--paged] [--jobs N] [--out-dir DIR]";

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        smoke: false,
        paged: false,
        jobs: default_jobs(),
        out_dir: ".".to_string(),
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.next_flag()? {
        match flag {
            "--smoke" => opts.smoke = true,
            "--paged" => opts.paged = true,
            "--jobs" => opts.jobs = args.parse("number")?,
            "--out-dir" => opts.out_dir = args.value()?.to_string(),
            _ => return Err(args.unknown()),
        }
    }
    Ok(opts)
}

fn write_chaos_json(path: &str, mode: &str, jobs: usize, r: &ChaosReport) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"mar-bench-chaos/1\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"sessions\": {},\n", r.sessions));
    out.push_str(&format!("  \"ticks\": {},\n", r.ticks));
    out.push_str(&format!("  \"invariant_ok\": {},\n", r.invariant_ok));
    out.push_str(&format!("  \"elapsed_s\": {:.6},\n", r.elapsed_s));
    out.push_str("  \"grid\": [\n");
    for (i, p) in r.points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"loss_pct\": {}, \"drop_every\": {}, \"retries\": {}, \"drops\": {}, \
             \"resumed\": {}, \"reconnects\": {}, \"degraded_ticks\": {}, \"max_level\": {}, \
             \"bytes\": {:.1}, \"link_time_s\": {:.3}, \"ideal_time_s\": {:.3}, \
             \"goodput\": {:.4}}}{}\n",
            p.loss * 100.0,
            p.drop_every,
            p.retries,
            p.drops,
            p.resumed,
            p.reconnects,
            p.degraded_ticks,
            p.max_level,
            p.bytes,
            p.link_time_s,
            p.ideal_time_s,
            p.goodput(),
            if i + 1 < r.points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"transcript_fnv64\": \"{:016x}\"\n",
        fnv1a64(&r.transcript)
    ));
    out.push_str("}\n");
    std::fs::write(path, out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| exit_usage(&e, USAGE));
    let mode = if opts.smoke { "smoke" } else { "full" };
    let cfg = if opts.smoke {
        ChaosConfig::smoke(opts.jobs)
    } else {
        ChaosConfig::full(opts.jobs)
    };
    // Out-of-core mode replays the same grid over a store-backed core —
    // the transcript must not change (DESIGN.md §15), only the backend.
    let store_path = std::env::temp_dir().join(format!("mar-chaos-{}.pages", std::process::id()));
    let backend = if opts.paged {
        ServeBackend::Paged {
            path: store_path.clone(),
            budget_bytes: 256 * 1024,
            policy: mar_core::CachePolicy::MotionAware,
        }
    } else {
        ServeBackend::Ram
    };
    eprintln!(
        "chaos: {mode} run ({} sessions x {} ticks, {} grid points, jobs={}, backend={})",
        cfg.sessions,
        cfg.ticks,
        cfg.grid.len(),
        cfg.jobs,
        if opts.paged { "paged" } else { "ram" }
    );

    let report = run_chaos_backend(&cfg, &backend);
    if opts.paged {
        let _ = std::fs::remove_file(&store_path);
    }
    for p in &report.points {
        eprintln!(
            "chaos: loss {:>4.1}% drop_every {:>3}: {} retries, {} drops ({} resumed), \
             {} degraded ticks, goodput {:.3}",
            p.loss * 100.0,
            p.drop_every,
            p.retries,
            p.drops,
            p.resumed,
            p.degraded_ticks,
            p.goodput()
        );
    }
    eprintln!(
        "chaos: {} in {:.3} s wall clock",
        if report.invariant_ok {
            "invariant OK at every grid point"
        } else {
            "INVARIANT VIOLATED"
        },
        report.elapsed_s
    );

    let path = format!("{}/BENCH_chaos.json", opts.out_dir);
    if let Err(e) = write_chaos_json(&path, mode, opts.jobs, &report) {
        eprintln!("chaos: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "chaos: wrote {path} (transcript fnv64 {:016x})",
        fnv1a64(&report.transcript)
    );
    if !report.invariant_ok {
        std::process::exit(1);
    }
}
