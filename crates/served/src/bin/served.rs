//! `mar-served` — the TCP retrieval daemon.
//!
//! Builds the deterministic serve scene, bulk-loads the wavelet index,
//! and serves it over the DESIGN.md §12 wire protocol:
//!
//! ```text
//! cargo run -p mar-served --release --bin mar-served -- --smoke --port 0 \
//!     --port-file target/mar-served.port --max-conns 5
//! ```
//!
//! `--port 0` binds an ephemeral port; `--port-file` publishes the bound
//! port so a separate `mar-load` process can find it. `--max-conns N`
//! makes the daemon exit after serving N connections — how CI bounds the
//! loopback smoke job. The scene parameters must match the load
//! generator's (`--smoke` on both sides) or the transcripts will not
//! fingerprint-equal.
//!
//! `--store PATH` switches the daemon out-of-core: the index is written
//! to a page file at `PATH` and every descent reads through an LRU
//! buffer pool, capped at `--cache-mb N` MiB (default 64).
//! Responses are byte-identical to the in-RAM build (DESIGN.md §15), so
//! `mar-load --check` passes against either backend. On exit an
//! out-of-core daemon reports its pool's counters next to the
//! connection counters.

use mar_bench::cli::{exit_usage, Args, CliError};
use mar_bench::engine::default_jobs;
use mar_bench::serve::{serve_scene, ServeConfig};
use mar_core::{Residence, Server, ServerCore, POOL_POLICY};
use mar_served::{spawn_daemon, DaemonConfig, DEFAULT_OUTBOX_CAP};
use std::net::TcpListener;
use std::num::NonZeroUsize;
use std::sync::Arc;

struct Options {
    smoke: bool,
    jobs: usize,
    port: u16,
    port_file: Option<String>,
    outbox_cap: f64,
    max_conns: Option<usize>,
    /// `None` (the default) mints session tokens from per-process
    /// entropy; `Some` pins the keyed PRF for reproducible debugging.
    token_seed: Option<u64>,
    /// `Some(path)` serves out-of-core from a page file at `path`.
    store: Option<String>,
    /// Buffer-pool budget in bytes (`--cache-mb` MiB); `None` is the
    /// 64 MiB default. Only accepted with `--store`.
    cache_bytes: Option<usize>,
}

const USAGE: &str = "usage: mar-served [--smoke|--full] [--jobs N] [--port P] [--port-file PATH] \
                     [--outbox-cap BYTES] [--max-conns N] [--token-seed N] [--store PATH] \
                     [--cache-mb N]";

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        smoke: false,
        jobs: default_jobs(),
        port: 4818,
        port_file: None,
        outbox_cap: DEFAULT_OUTBOX_CAP,
        max_conns: None,
        token_seed: None,
        store: None,
        cache_bytes: None,
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.next_flag()? {
        match flag {
            "--smoke" => opts.smoke = true,
            "--full" => opts.smoke = false,
            "--jobs" => opts.jobs = args.parse("number")?,
            "--port" => opts.port = args.parse("port")?,
            "--port-file" => opts.port_file = Some(args.value()?.to_string()),
            "--outbox-cap" => opts.outbox_cap = args.parse("number")?,
            "--max-conns" => opts.max_conns = Some(args.parse("number")?),
            "--token-seed" => opts.token_seed = Some(args.parse("u64")?),
            "--store" => opts.store = Some(args.value()?.to_string()),
            "--cache-mb" => {
                let mb: NonZeroUsize = args.parse("positive number")?;
                let bytes = mb.get().checked_mul(1 << 20).ok_or_else(|| {
                    CliError::Invalid(format!("--cache-mb: {mb} MiB overflows a byte count"))
                })?;
                opts.cache_bytes = Some(bytes);
            }
            _ => return Err(args.unknown()),
        }
    }
    if opts.store.is_none() && opts.cache_bytes.is_some() {
        return Err(CliError::Invalid(
            "--cache-mb only makes sense with --store".to_string(),
        ));
    }
    // Admission refuses at `outstanding >= cap`: a NaN cap never refuses,
    // a cap <= 0 refuses a session that has nothing outstanding.
    if opts.outbox_cap.is_nan() || opts.outbox_cap <= 0.0 {
        return Err(CliError::Invalid(format!(
            "--outbox-cap: not a positive number of bytes: {}",
            opts.outbox_cap
        )));
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| exit_usage(&e, USAGE));
    let cfg = if opts.smoke {
        ServeConfig::smoke(opts.jobs)
    } else {
        ServeConfig::full(opts.jobs)
    };

    eprintln!(
        "mar-served: building scene ({} objects, {} levels) and index (jobs={})",
        cfg.objects, cfg.levels, cfg.jobs
    );
    let scene = serve_scene(cfg.objects, cfg.levels);
    let residence = match &opts.store {
        None => Residence::Ram,
        Some(path) => {
            let budget_bytes = opts.cache_bytes.unwrap_or(64 << 20);
            eprintln!(
                "mar-served: out-of-core — store {path}, pool {} MiB, {} eviction policy",
                budget_bytes >> 20,
                POOL_POLICY.name()
            );
            Residence::Paged {
                path: path.into(),
                budget_bytes,
            }
        }
    };
    let core = ServerCore::build(&scene, &residence, cfg.jobs).unwrap_or_else(|e| {
        let path = opts.store.as_deref().unwrap_or_default();
        eprintln!("mar-served: cannot build page store at {path}: {e}");
        std::process::exit(1);
    });
    let server = Arc::new(match opts.token_seed {
        // Entropy-keyed tokens by default: there is no public key an
        // attacker could use to mint another session's token.
        None => Server::from_core(core),
        Some(seed) => Server::from_core_seeded(core, seed),
    });

    let listener = match TcpListener::bind(("127.0.0.1", opts.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("mar-served: cannot bind 127.0.0.1:{}: {e}", opts.port);
            std::process::exit(1);
        }
    };
    let handle = match spawn_daemon(
        Arc::clone(&server),
        listener,
        DaemonConfig {
            outbox_cap: opts.outbox_cap,
            max_conns: opts.max_conns,
        },
    ) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("mar-served: cannot spawn acceptor: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &opts.port_file {
        if let Err(e) = std::fs::write(path, format!("{}\n", handle.addr.port())) {
            eprintln!("mar-served: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    eprintln!(
        "mar-served: listening on {} (outbox cap {} B{})",
        handle.addr,
        opts.outbox_cap,
        match opts.max_conns {
            Some(m) => format!(", exits after {m} conns"),
            None => String::new(),
        }
    );

    let stats = handle.join();
    eprintln!(
        "mar-served: done — {} conns, {} frames in, {} frames out, {} overloads, {} errors, \
         {} socket_reads, {} socket_writes",
        stats.connections,
        stats.frames_in,
        stats.frames_out,
        stats.overloads,
        stats.errors,
        stats.socket_reads,
        stats.socket_writes
    );
    if let Some(pool) = server.index().cache_stats() {
        eprintln!(
            "mar-served: pool — {} look-ups, {} hits, {} faults, {} evictions, {} bypasses, \
             {} physical reads",
            pool.lookups,
            pool.hits,
            pool.faults,
            pool.evictions,
            pool.bypasses,
            server.index().io_snapshot().physical
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<Options, CliError> {
        let line: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        parse_args(&line)
    }

    #[test]
    fn cache_mb_without_store_is_a_usage_error_at_any_value() {
        // 64 is the default budget: spelling it out is still `--cache-mb`.
        for mb in ["1", "64", "65"] {
            let e = parse(&["--cache-mb", mb]).err().expect("rejected");
            assert_eq!(
                e,
                CliError::Invalid("--cache-mb only makes sense with --store".to_string())
            );
        }
        assert!(parse(&["--cache-mb", "0", "--store", "x"]).is_err());
        let opts = parse(&["--store", "x", "--cache-mb", "64"]).expect("accepted");
        assert_eq!(opts.cache_bytes, Some(64 << 20));
        // 2^44 MiB is 2^64 bytes: one more than a `usize` byte count holds.
        let e = parse(&["--store", "x", "--cache-mb", "17592186044416"])
            .err()
            .expect("rejected");
        assert!(
            matches!(&e, CliError::Invalid(m) if m.starts_with("--cache-mb: 17592186044416 MiB")),
            "{e:?}"
        );
        let opts = parse(&["--store", "x"]).expect("accepted");
        assert_eq!((opts.store.as_deref(), opts.cache_bytes), (Some("x"), None));
        assert_eq!(parse(&[]).expect("defaults").cache_bytes, None);
    }

    #[test]
    fn outbox_cap_must_be_a_positive_number() {
        for cap in ["nan", "NaN", "0", "-0", "-5", "-inf"] {
            let e = parse(&["--outbox-cap", cap]).err().expect("rejected");
            assert!(
                matches!(&e, CliError::Invalid(m) if m.starts_with("--outbox-cap: not a positive")),
                "{cap}: {e:?}"
            );
        }
        assert_eq!(
            parse(&["--outbox-cap=1"]).expect("accepted").outbox_cap,
            1.0
        );
        assert!(parse(&["--outbox-cap", "inf"]).is_ok(), "no cap at all");
        assert_eq!(parse(&[]).expect("defaults").outbox_cap, DEFAULT_OUTBOX_CAP);
    }
}
