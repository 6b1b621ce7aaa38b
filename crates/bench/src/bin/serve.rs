//! `serve` — the multi-session serving harness (`mar-bench serve`).
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
//! The snapshot is a value: byte-identical for any `--jobs`, so CI diffs
//! the committed file against a fresh full run. `--smoke` collapses the
//! workload so CI can prove the harness in seconds (`"mode": "smoke"`).

use mar_bench::harness::harness_main;
use mar_bench::serve::{run_serve, ServeConfig};
use mar_core::Residence;

fn main() {
    harness_main("serve", false, |opts, mode| {
        let cfg = if opts.smoke {
            ServeConfig::smoke(opts.jobs)
        } else {
            ServeConfig::full(opts.jobs)
        };
        (run_serve(&cfg, &Residence::Ram).snapshot(mode), true)
    });
}
