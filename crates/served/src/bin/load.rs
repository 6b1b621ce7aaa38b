//! `mar-load` — the wire workload generator.
//!
//! Replays the `mar-bench serve` tours against a live `mar-served`
//! daemon and writes `BENCH_wire.json` (see EXPERIMENTS.md):
//!
//! ```text
//! cargo run -p mar-served --release --bin mar-load -- --smoke \
//!     --port-file target/mar-served.port --check --saturate
//! ```
//!
//! `--check` also runs the in-process `mar-bench serve` harness for the
//! same config and fails (exit 1) unless the two transcripts are
//! byte-identical — the wire layer must be unobservable. `--saturate`
//! opens one extra connection that withholds `ACK`s to drive the
//! session's outbox over the cap and asserts the daemon answers with a
//! typed `OVERLOAD` (and recovers after credit returns).

use mar_bench::cli::{ensure_out_dir, exit_usage, Args, CliError};
use mar_bench::report::render;
use mar_bench::serve::{fnv1a64, run_serve, serve_scene, ServeConfig};
use mar_core::{QueryRegion, Residence};
use mar_geom::Rect2;
use mar_mesh::ResolutionBand;
use mar_served::{run_wire_replay, QueryReply, WireClient};
use std::net::SocketAddr;
use std::num::NonZeroUsize;

struct Options {
    smoke: bool,
    addr: Option<String>,
    port_file: Option<String>,
    check: bool,
    saturate: bool,
    out_dir: String,
    pipeline: usize,
}

const USAGE: &str = "usage: mar-load (--addr HOST:PORT | --port-file PATH) [--smoke|--full] \
                     [--check] [--saturate] [--pipeline N] [--out-dir DIR]";

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        smoke: false,
        addr: None,
        port_file: None,
        check: false,
        saturate: false,
        out_dir: ".".to_string(),
        pipeline: 1,
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.next_flag()? {
        match flag {
            "--smoke" => opts.smoke = true,
            "--full" => opts.smoke = false,
            "--check" => opts.check = true,
            "--saturate" => opts.saturate = true,
            "--addr" => opts.addr = Some(args.value()?.to_string()),
            "--port-file" => opts.port_file = Some(args.value()?.to_string()),
            "--out-dir" => opts.out_dir = args.value()?.to_string(),
            "--pipeline" => opts.pipeline = args.parse::<NonZeroUsize>("positive integer")?.get(),
            _ => return Err(args.unknown()),
        }
    }
    Ok(opts)
}

fn resolve_addr(opts: &Options) -> Result<SocketAddr, String> {
    let text = match (&opts.addr, &opts.port_file) {
        (Some(a), _) => a.clone(),
        (None, Some(path)) => {
            let port = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read --port-file {path}: {e}"))?;
            format!("127.0.0.1:{}", port.trim())
        }
        (None, None) => return Err("need --addr or --port-file".to_string()),
    };
    text.parse()
        .map_err(|e| format!("bad daemon address {text}: {e}"))
}

/// Saturates one extra session's outbox: a whole-space full-resolution
/// query is admitted (the ledger starts at 0) but not acked, so the next
/// query must be refused with `OVERLOAD`; acking the credit back must
/// let queries through again.
fn prove_overload(addr: SocketAddr, space: Rect2) -> Result<(f64, f64), String> {
    let mut client =
        WireClient::connect(addr).map_err(|e| format!("saturate connect failed: {e}"))?;
    let whole = [QueryRegion {
        region: space,
        band: ResolutionBand::FULL,
    }];
    client
        .send(&mar_served::Frame::Query {
            regions: whole.to_vec(),
        })
        .map_err(|e| format!("saturate query failed: {e}"))?;
    let first = match client.recv().map_err(|e| format!("saturate recv: {e}"))? {
        mar_served::Frame::Result { bytes, .. } => bytes,
        other => return Err(format!("saturate: wanted RESULT, got {}", other.name())),
    };
    // Second query with the first's payload still unacked.
    let (outstanding, cap) = match client
        .query(&whole)
        .map_err(|e| format!("saturate second query: {e}"))?
    {
        QueryReply::Overloaded { outstanding, cap } => (outstanding, cap),
        QueryReply::Served(_) => {
            return Err(format!(
                "daemon served a query with {first} unacked bytes outstanding — \
                 expected OVERLOAD (is --outbox-cap larger than the scene?)"
            ))
        }
    };
    // Return the credit; the session must be admitted again.
    client
        .send(&mar_served::Frame::Ack { bytes: first })
        .map_err(|e| format!("saturate ack: {e}"))?;
    match client
        .query(&whole)
        .map_err(|e| format!("saturate recovery query: {e}"))?
    {
        QueryReply::Served(_) => {}
        QueryReply::Overloaded { outstanding, cap } => {
            return Err(format!(
                "daemon still overloaded after full ack ({outstanding} of {cap} B)"
            ))
        }
    }
    client.bye().map_err(|e| format!("saturate bye: {e}"))?;
    Ok((outstanding, cap))
}

/// Everything after the command line: replay, the opt-in assertions, the
/// snapshot. An `Err` is a failed run (exit 1).
fn run(opts: &Options, addr: SocketAddr) -> Result<(), String> {
    let mode = if opts.smoke { "smoke" } else { "full" };
    // jobs=1: the wire replay is serial by design (session order is the
    // transcript order); the field only shapes the in-process reference.
    let cfg = if opts.smoke {
        ServeConfig::smoke(1)
    } else {
        ServeConfig::full(1)
    };
    eprintln!(
        "mar-load: {mode} replay against {addr} ({} sessions x {} ticks, pipeline {})",
        cfg.sessions, cfg.ticks, opts.pipeline
    );
    let report =
        run_wire_replay(addr, &cfg, opts.pipeline).map_err(|e| format!("replay failed: {e}"))?;

    let check = if opts.check {
        eprintln!("mar-load: --check: replaying the same config in-process");
        let reference = run_serve(&cfg, &Residence::Ram);
        let (wire, local) = (&report.transcript.text, &reference.transcript.text);
        if wire != local {
            return Err(format!(
                "TRANSCRIPT MISMATCH — wire fnv64 {:016x}, in-process fnv64 {:016x}",
                fnv1a64(wire),
                fnv1a64(local)
            ));
        }
        eprintln!(
            "mar-load: transcripts byte-identical (fnv64 {:016x})",
            fnv1a64(wire)
        );
        "pass"
    } else {
        "skipped"
    };

    let overload = if opts.saturate {
        let space = serve_scene(cfg.objects, cfg.levels).config.space;
        let (outstanding, cap) =
            prove_overload(addr, space).map_err(|e| format!("saturation probe failed: {e}"))?;
        eprintln!(
            "mar-load: OVERLOAD confirmed at {outstanding:.1} B outstanding (cap {cap:.1} B), \
             recovered after ack"
        );
        Some((outstanding, cap))
    } else {
        None
    };

    let path = format!("{}/BENCH_wire.json", opts.out_dir);
    let text = render(&report.snapshot(mode, overload, check));
    std::fs::write(&path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("{text}mar-load: wrote {path}");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| exit_usage(&e, USAGE));
    ensure_out_dir(&opts.out_dir);
    let addr = resolve_addr(&opts).unwrap_or_else(|e| {
        eprintln!("mar-load: {e}");
        std::process::exit(2)
    });
    if let Err(e) = run(&opts, addr) {
        eprintln!("mar-load: {e}");
        std::process::exit(1);
    }
}
