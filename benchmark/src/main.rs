//! `mar-benchmark` — the end-to-end + per-layer serving benchmark.
//!
//! ```text
//! mar-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--expect HEX]
//!     one run of one workload; the last line of stdout is the result
//!     (the form /BENCHMARK.json's command is driven in)
//! mar-benchmark run   [--seed N] [--seconds S] [--smoke] [--out FILE]
//! mar-benchmark trace [--seed N] [--seconds S] [--smoke] [--out FILE]
//!     all four workloads, each in a fresh process; prints every metric by
//!     name with its unit, appends one line per workload to FILE
//! mar-benchmark compare A B
//!     applies each end-to-end metric's bound to two sets of runs
//! ```
//!
//! See README.md for what the workloads and metrics are and why.

mod adapter;
mod compare;
mod json;
mod proc;
mod run;
mod stats;
mod trace;
mod workload;

use json::Json;
use std::io::Write;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: proc::CountingAlloc = proc::CountingAlloc;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    expect: Option<u64>,
    out: Option<String>,
    paths: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 901,
        seconds: None,
        trace: false,
        smoke: false,
        expect: None,
        out: None,
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--expect" => {
                parsed.expect =
                    Some(u64::from_str_radix(value()?, 16).map_err(|e| format!("--expect: {e}"))?);
            }
            "--out" => parsed.out = Some(value()?.clone()),
            "--smoke" => parsed.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => parsed.paths.push(path.to_string()),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare")) => (c, &argv[1..]),
        _ => ("one", &argv[..]),
    };
    let args = match parse(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mar-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match command {
        "one" => one(&args),
        "compare" => match args.paths.as_slice() {
            [a, b] => compare::compare(a, b),
            _ => Err("compare takes two result files".to_string()),
        },
        all => every_workload(&args, all == "trace"),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mar-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One run of one workload in this process; prints the info line and then,
/// last, the result line.
fn one(args: &Args) -> Result<bool, String> {
    let workload = args.workload.as_deref().ok_or("missing --workload")?;
    if !workload::WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload}; the workloads are {:?}",
            workload::WORKLOADS
        ));
    }
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.3 } else { 20.0 });
    let report = run::run_workload(
        workload,
        args.seed,
        seconds,
        args.trace,
        args.smoke,
        args.expect,
    );
    let info: Vec<String> = report
        .info
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let mut stdout = std::io::stdout().lock();
    let printed = writeln!(stdout, "{{\"info\": {{{}}}}}", info.join(", ")).and_then(|()| {
        writeln!(
            stdout,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            report.correct,
            report.attempted,
            report.failed,
            metrics.join(", ")
        )
    });
    printed.map_err(|e| e.to_string())?;
    Ok(report.correct)
}

/// Runs every workload, each in a fresh process of this executable, prints
/// one table of every metric by name and unit, and checks that the gate
/// fingerprints of the three tour workloads are one and the same.
fn every_workload(args: &Args, trace: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut columns: Vec<Json> = Vec::new();
    let mut infos: Vec<Json> = Vec::new();
    let mut lines = String::new();
    let mut ok = true;
    for workload in workload::WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if let Some(s) = args.seconds {
            child.args(["--seconds", &s.to_string()]);
        }
        if args.smoke {
            child.arg("--smoke");
        }
        let output = child.output().map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut tail = stdout.lines().rev();
        let result = tail.next().map(Json::parse);
        let info = tail.next().map(Json::parse);
        let (Some(Ok(result)), Some(Ok(info))) = (result, info) else {
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            return Err(format!("{workload} printed no result ({})", output.status));
        };
        ok &=
            output.status.success() && result.get("correct").and_then(Json::as_bool) == Some(true);
        lines.push_str(&format!(
            "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {trace}, \"result\": {}}}\n",
            args.seed,
            stdout.lines().last().unwrap_or("null")
        ));
        columns.push(result);
        infos.push(info.get("info").cloned().unwrap_or(Json::Null));
    }

    let table = if trace {
        &run::PER_LAYER[..]
    } else {
        &run::END_TO_END[..]
    };
    print!("{:<36}{:<7}", "metric", "unit");
    for workload in workload::WORKLOADS {
        print!("{workload:>18}");
    }
    println!();
    for (name, unit, _) in table {
        print!("{name:<36}{unit:<7}");
        for column in &columns {
            let value = column
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            match value {
                Some(v) => print!("{:>18}", format!("{v:.4}")),
                None => {
                    ok = false;
                    print!("{:>18}", "missing");
                }
            }
        }
        println!();
    }
    let row = |label: &str, unit: &str, cell: &dyn Fn(usize) -> String| {
        print!("{label:<36}{unit:<7}");
        for i in 0..columns.len() {
            print!("{:>18}", cell(i));
        }
        println!();
    };
    let number = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(0.0);
    let text = |v: Option<&Json>| v.and_then(Json::as_str).unwrap_or("none").to_string();
    row("error_rate", "ratio", &|i| {
        let c = &columns[i];
        format!(
            "{}",
            number(c.get("failed")) / number(c.get("attempted")).max(1.0)
        )
    });
    if !trace {
        row("samples", "count", &|i| {
            format!("{}", number(infos[i].get("latency_samples")))
        });
    }
    row("driver_threads", "count", &|i| {
        format!("{}", number(infos[i].get("driver_threads")))
    });
    row("fingerprint", "fnv64", &|i| {
        text(infos[i].get("fingerprint"))
    });
    let info = &infos[0];
    println!(
        "seed {}, nproc {}, {} objects, closed loops; wire traffic crosses host loopback (127.0.0.1)",
        args.seed,
        number(info.get("nproc")),
        number(info.get("objects")),
    );
    // RAM ≡ paged ≡ wire: the same tours give the same transcripts.
    let tours: Vec<String> = (0..3).map(|i| text(infos[i].get("fingerprint"))).collect();
    if tours.iter().any(|f| *f != tours[0] || f == "none") {
        ok = false;
        println!("FAIL: tour fingerprints differ across backends: {tours:?}");
    }
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "FAIL: a check failed"
        }
    );

    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        file.write_all(lines.as_bytes())
            .map_err(|e| e.to_string())?;
    }
    Ok(ok)
}
