//! `serve` — the multi-session serving throughput harness
//! (`mar-bench serve`).
//!
//! Replays K concurrent client tours against one shared [`mar_core::Server`]
//! via [`mar_bench::serve::run_serve`] and writes `BENCH_serve.json`
//! (see EXPERIMENTS.md for the schema):
//!
//! ```text
//! cargo run -p mar-bench --release --bin serve              # full run
//! cargo run -p mar-bench --release --bin serve -- --jobs 4
//! cargo run -p mar-bench --release --bin serve -- --smoke --out-dir target
//! ```
//!
//! The transcript (and every served-payload aggregate) is byte-identical
//! for any `--jobs` value — the JSON records its FNV-1a fingerprint so
//! runs can be compared across processes. Only the wall-clock fields
//! (`elapsed_s`, `queries_per_sec`, tick latencies) vary with `--jobs`.
//! `--smoke` collapses the workload so CI can prove the harness in
//! seconds; its numbers are not meaningful measurements and are flagged
//! as `"mode": "smoke"`.

use mar_bench::cli::{exit_usage, Args, CliError};
use mar_bench::engine::default_jobs;
use mar_bench::serve::{fnv1a64, run_serve, ServeConfig, ServeReport};

struct Options {
    smoke: bool,
    jobs: usize,
    out_dir: String,
}

const USAGE: &str = "usage: serve [--smoke] [--jobs N] [--out-dir DIR]";

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        smoke: false,
        jobs: default_jobs(),
        out_dir: ".".to_string(),
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.next_flag()? {
        match flag {
            "--smoke" => opts.smoke = true,
            "--jobs" => opts.jobs = args.parse("number")?,
            "--out-dir" => opts.out_dir = args.value()?.to_string(),
            _ => return Err(args.unknown()),
        }
    }
    Ok(opts)
}

fn write_serve_json(path: &str, mode: &str, jobs: usize, r: &ServeReport) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"mar-bench-serve/2\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"sessions\": {},\n", r.sessions));
    out.push_str(&format!("  \"ticks\": {},\n", r.ticks));
    out.push_str(&format!("  \"queries\": {},\n", r.queries));
    out.push_str(&format!("  \"bytes_served\": {:.1},\n", r.bytes));
    out.push_str(&format!("  \"coeffs_served\": {},\n", r.coeffs));
    out.push_str(&format!("  \"index_io\": {},\n", r.io));
    out.push_str(&format!("  \"index_unique_io\": {},\n", r.unique_io));
    out.push_str(&format!("  \"elapsed_s\": {:.6},\n", r.elapsed_s));
    out.push_str(&format!(
        "  \"queries_per_sec\": {:.1},\n",
        r.queries_per_sec()
    ));
    out.push_str(&format!(
        "  \"tick_latency_ns\": {{\"p50\": {}, \"p99\": {}, \"max\": {}}},\n",
        r.tick_latency_ns(0.50),
        r.tick_latency_ns(0.99),
        r.tick_latency_ns(1.0)
    ));
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
        ServeConfig::smoke(opts.jobs)
    } else {
        ServeConfig::full(opts.jobs)
    };
    eprintln!(
        "serve: {mode} run ({} sessions x {} ticks, {} objects, jobs={})",
        cfg.sessions, cfg.ticks, cfg.objects, cfg.jobs
    );

    let report = run_serve(&cfg);
    eprintln!(
        "serve: {} queries in {:.3} s ({:.1} q/s), {:.1} KiB served, \
         tick p50 {:.1} us / p99 {:.1} us",
        report.queries,
        report.elapsed_s,
        report.queries_per_sec(),
        report.bytes / 1024.0,
        report.tick_latency_ns(0.50) as f64 / 1e3,
        report.tick_latency_ns(0.99) as f64 / 1e3,
    );

    let path = format!("{}/BENCH_serve.json", opts.out_dir);
    if let Err(e) = write_serve_json(&path, mode, opts.jobs, &report) {
        eprintln!("serve: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "serve: wrote {path} (transcript fnv64 {:016x})",
        fnv1a64(&report.transcript)
    );
}
