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
//! CI turns red on any resilience regression. The snapshot is a value:
//! byte-identical for any `--jobs` and with or without `--paged`.

use mar_bench::chaos::{run_chaos, ChaosConfig};
use mar_bench::harness::harness_main;
use mar_core::{Residence, ScratchPath};

fn main() {
    harness_main("chaos", true, |opts, mode| {
        let cfg = if opts.smoke {
            ChaosConfig::smoke(opts.jobs)
        } else {
            ChaosConfig::full(opts.jobs)
        };
        // Out-of-core mode replays the same grid over a store-backed core —
        // the transcript must not change (DESIGN.md §15), only the residence.
        let store = opts
            .paged
            .then(|| ScratchPath::new("chaos", "chaos.pages").expect("create a scratch dir"));
        let residence = match &store {
            Some(path) => Residence::Paged {
                path: path.to_path_buf(),
                budget_bytes: 256 * 1024,
            },
            None => Residence::Ram,
        };
        let report = run_chaos(&cfg, &residence);
        (report.snapshot(mode), report.invariant_ok)
    });
}
