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
//! snapshot is a value: byte-identical for any `--jobs`.

use mar_bench::fleet::{run_fleet, FleetBenchConfig};
use mar_bench::harness::harness_main;

fn main() {
    harness_main("fleet", false, |opts, mode| {
        let cfg = if opts.smoke {
            FleetBenchConfig::smoke(opts.jobs)
        } else {
            FleetBenchConfig::full(opts.jobs)
        };
        let report = run_fleet(&cfg);
        (report.snapshot(mode), report.invariant_ok)
    });
}
