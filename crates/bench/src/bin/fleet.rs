//! `fleet` — the sharded serving tier harness (`mar-bench fleet`).
//!
//! Sweeps the multi-session tour workload over a shard-failure grid via
//! [`mar_bench::fleet::run_fleet`] and writes `BENCH_fleet.json`
//! (see EXPERIMENTS.md for the schema):
//!
//! ```text
//! cargo run -p mar-bench --release --bin fleet              # full fleet
//! cargo run -p mar-bench --release --bin fleet -- --jobs 4
//! cargo run -p mar-bench --release --bin fleet -- --smoke --out-dir target
//! ```
//!
//! The process exits non-zero when the shard-kill invariant fails — a
//! session errored during an outage, availability hit zero while an
//! outage was active, or a post-recovery resident set diverged from the
//! outage-free run — so CI turns red on any failover regression. The
//! transcript and every deterministic aggregate are byte-identical for
//! any `--jobs` value; the JSON records the FNV-1a transcript fingerprint
//! for cross-process comparison. Throughput and the p50/p99 latencies are
//! wall-clock measurements and vary run to run.

use mar_bench::cli::{exit_usage, Args, CliError};
use mar_bench::engine::default_jobs;
use mar_bench::fleet::{run_fleet, FleetBenchConfig, FleetReport};
use mar_bench::serve::fnv1a64;

struct Options {
    smoke: bool,
    jobs: usize,
    out_dir: String,
}

const USAGE: &str = "usage: fleet [--smoke] [--jobs N] [--out-dir DIR]";

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

fn write_fleet_json(path: &str, mode: &str, jobs: usize, r: &FleetReport) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"mar-bench-fleet/1\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"sessions\": {},\n", r.sessions));
    out.push_str(&format!("  \"ticks\": {},\n", r.ticks));
    out.push_str(&format!("  \"shards\": {},\n", r.shards));
    out.push_str(&format!("  \"invariant_ok\": {},\n", r.invariant_ok));
    out.push_str(&format!("  \"elapsed_s\": {:.6},\n", r.elapsed_s));
    out.push_str("  \"grid\": [\n");
    for (i, p) in r.points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"replicas\": {}, \"period\": {}, \"outage\": {}, \"queries\": {}, \
             \"tasks\": {}, \"replica_promotions\": {}, \"degraded_subqueries\": {}, \
             \"unserved_subqueries\": {}, \"outage_queries\": {}, \
             \"complete_outage_queries\": {}, \"availability\": {:.6}, \"bytes\": {:.1}, \
             \"io\": {}, \"queries_per_sec\": {:.1}, \"p50_latency_us\": {:.1}, \
             \"p99_latency_us\": {:.1}}}{}\n",
            p.point.replicas,
            p.point.period,
            p.point.outage,
            p.queries,
            p.tasks,
            p.replica_promotions,
            p.degraded_subqueries,
            p.unserved_subqueries,
            p.outage_queries,
            p.complete_outage_queries,
            p.availability(),
            p.bytes,
            p.io,
            p.queries_per_sec(),
            p.latency_ns(0.5) as f64 / 1000.0,
            p.latency_ns(0.99) as f64 / 1000.0,
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
        FleetBenchConfig::smoke(opts.jobs)
    } else {
        FleetBenchConfig::full(opts.jobs)
    };
    eprintln!(
        "fleet: {mode} run ({} sessions x {} ticks over {} shards, {} grid points, jobs={})",
        cfg.sessions,
        cfg.ticks,
        cfg.shards(),
        cfg.grid.len(),
        cfg.jobs
    );

    let report = run_fleet(&cfg);
    for p in &report.points {
        eprintln!(
            "fleet: replicas={} period={:>2}: {} queries ({:.0} q/s, p50 {:.0} us, p99 {:.0} us), \
             {} promotions, {} degraded, availability {:.4}",
            p.point.replicas,
            p.point.period,
            p.queries,
            p.queries_per_sec(),
            p.latency_ns(0.5) as f64 / 1000.0,
            p.latency_ns(0.99) as f64 / 1000.0,
            p.replica_promotions,
            p.degraded_subqueries,
            p.availability()
        );
    }
    eprintln!(
        "fleet: {} in {:.3} s wall clock",
        if report.invariant_ok {
            "invariant OK at every grid point"
        } else {
            "INVARIANT VIOLATED"
        },
        report.elapsed_s
    );

    let path = format!("{}/BENCH_fleet.json", opts.out_dir);
    if let Err(e) = write_fleet_json(&path, mode, opts.jobs, &report) {
        eprintln!("fleet: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "fleet: wrote {path} (transcript fnv64 {:016x})",
        fnv1a64(&report.transcript)
    );
    if !report.invariant_ok {
        std::process::exit(1);
    }
}
