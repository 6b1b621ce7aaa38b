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

use mar_bench::cli::{exit_usage, Args, CliError};
use mar_bench::serve::{fnv1a64, run_serve, ServeConfig};
use mar_core::QueryRegion;
use mar_geom::Rect2;
use mar_mesh::ResolutionBand;
use mar_served::{run_wire_replay_pipelined, QueryReply, ReplayReport, WireClient};
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

#[allow(clippy::too_many_arguments)]
fn write_wire_json(
    path: &str,
    mode: &str,
    addr: SocketAddr,
    r: &ReplayReport,
    overload: Option<(f64, f64)>,
    check: &str,
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"mar-load-wire/2\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"addr\": \"{addr}\",\n"));
    out.push_str(&format!("  \"sessions\": {},\n", r.sessions));
    out.push_str(&format!("  \"ticks\": {},\n", r.ticks));
    out.push_str(&format!("  \"queries\": {},\n", r.queries));
    out.push_str(&format!("  \"pipeline\": {},\n", r.pipeline));
    out.push_str(&format!("  \"bytes_served\": {:.1},\n", r.bytes));
    out.push_str(&format!("  \"coeffs_served\": {},\n", r.coeffs));
    out.push_str(&format!("  \"index_io\": {},\n", r.io));
    out.push_str(&format!("  \"wire_bytes\": {},\n", r.wire_bytes));
    out.push_str(&format!("  \"elapsed_s\": {:.6},\n", r.elapsed_s));
    out.push_str(&format!(
        "  \"queries_per_sec\": {:.1},\n",
        r.queries_per_sec()
    ));
    out.push_str(&format!(
        "  \"frame_latency_ns\": {{\"p50\": {}, \"p99\": {}, \"max\": {}}},\n",
        r.frame_latency_ns(0.50),
        r.frame_latency_ns(0.99),
        r.frame_latency_ns(1.0)
    ));
    match overload {
        Some((outstanding, cap)) => out.push_str(&format!(
            "  \"overload\": {{\"seen\": true, \"outstanding\": {outstanding:.1}, \
             \"cap\": {cap:.1}}},\n"
        )),
        None => out.push_str("  \"overload\": {\"seen\": false},\n"),
    }
    out.push_str(&format!("  \"check\": \"{check}\",\n"));
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
    let addr = match resolve_addr(&opts) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mar-load: {e}");
            std::process::exit(2);
        }
    };
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

    let report = match run_wire_replay_pipelined(addr, &cfg, opts.pipeline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mar-load: replay failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "mar-load: {} queries in {:.3} s ({:.1} q/s), {:.1} KiB payload, {:.1} KiB on wire, \
         frame p50 {:.1} us / p99 {:.1} us",
        report.queries,
        report.elapsed_s,
        report.queries_per_sec(),
        report.bytes / 1024.0,
        report.wire_bytes as f64 / 1024.0,
        report.frame_latency_ns(0.50) as f64 / 1e3,
        report.frame_latency_ns(0.99) as f64 / 1e3,
    );

    let check = if opts.check {
        eprintln!("mar-load: --check: replaying the same config in-process");
        let reference = run_serve(&cfg);
        if reference.transcript == report.transcript {
            eprintln!(
                "mar-load: transcripts byte-identical (fnv64 {:016x})",
                fnv1a64(&report.transcript)
            );
            "pass"
        } else {
            eprintln!(
                "mar-load: TRANSCRIPT MISMATCH — wire fnv64 {:016x}, in-process fnv64 {:016x}",
                fnv1a64(&report.transcript),
                fnv1a64(&reference.transcript)
            );
            std::process::exit(1);
        }
    } else {
        "skipped"
    };

    let overload = if opts.saturate {
        let space = mar_bench::serve::serve_scene(cfg.objects, cfg.levels)
            .config
            .space;
        match prove_overload(addr, space) {
            Ok((outstanding, cap)) => {
                eprintln!(
                    "mar-load: OVERLOAD confirmed at {outstanding:.1} B outstanding (cap {cap:.1} B), \
                     recovered after ack"
                );
                Some((outstanding, cap))
            }
            Err(e) => {
                eprintln!("mar-load: saturation probe failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    let path = format!("{}/BENCH_wire.json", opts.out_dir);
    if let Err(e) = write_wire_json(&path, mode, addr, &report, overload, check) {
        eprintln!("mar-load: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "mar-load: wrote {path} (transcript fnv64 {:016x})",
        fnv1a64(&report.transcript)
    );
}
