//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! cargo run -p mar-bench --release --bin reproduce               # all, quick scale
//! cargo run -p mar-bench --release --bin reproduce -- --paper    # full paper scale
//! cargo run -p mar-bench --release --bin reproduce -- fig8 fig12
//! cargo run -p mar-bench --release --bin reproduce -- --jobs 8   # 8 worker threads
//! cargo run -p mar-bench --release --bin reproduce -- --serial   # force 1 worker
//! cargo run -p mar-bench --release --bin reproduce -- --ablations
//! ```
//!
//! Sweeps run on a deterministic parallel [`Engine`]: the worker count
//! changes wall-clock time only, never the numbers (see DESIGN.md §6).
//! Tables are printed to stdout and each is written to `results/<id>.csv`
//! **as soon as it completes**, so a crash or interrupt in a later figure
//! cannot lose earlier results.
//!
//! The experiments are [`mar_bench::EXPERIMENTS`]. Positional arguments
//! select them by exact table id (`fig9a`, `fig10b`, `abl_sectors`),
//! experiment name (`fig10` = both of its tables), or group (`fig9`,
//! `fig13`, `abl`). Unknown selectors are an error, not a silent no-op.

use mar_bench::cli::{exit_usage, Args, CliError};
use mar_bench::engine::Engine;
use mar_bench::{Experiment, Scale, EXPERIMENTS};
use std::io::Write as _;

/// Predicate deciding whether a group selector covers an experiment.
type GroupPred = fn(&Experiment) -> bool;

/// Group selectors: a name expanding to several experiments.
const GROUPS: &[(&str, GroupPred)] = &[
    ("fig9", |e| e.name.starts_with("fig9")),
    ("fig10", |e| e.name == "fig10"),
    ("fig13", |e| e.name.starts_with("fig13")),
    ("abl", |e| e.ablation),
];

fn selector_matches(exp: &Experiment, sel: &str) -> bool {
    if exp.name == sel || exp.ids.contains(&sel) {
        return true;
    }
    GROUPS.iter().any(|(g, pred)| *g == sel && pred(exp))
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS
        .iter()
        .flat_map(|e| e.ids.iter().copied())
        .collect();
    format!(
        "usage: reproduce [--paper] [--ablations] [--jobs N | --serial] [SELECTOR...]\n\
         selectors: exact table ids ({}), experiment names (fig10, fig11,\n\
         fig14_15 parts as fig14/fig15), or groups (fig9, fig13, abl)",
        names.join(", ")
    )
}

struct Options {
    paper: bool,
    ablations: bool,
    jobs: Option<usize>,
    selectors: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        paper: false,
        ablations: false,
        jobs: None,
        selectors: Vec::new(),
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.next_flag()? {
        match flag {
            "--paper" => opts.paper = true,
            "--ablations" => opts.ablations = true,
            "--serial" => opts.jobs = Some(1),
            "--jobs" => opts.jobs = Some(args.parse::<usize>("number")?.max(1)),
            _ if flag.starts_with("--") => return Err(args.unknown()),
            _ => opts.selectors.push(flag.to_string()),
        }
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| exit_usage(&e, &usage()));

    // Resolve selectors to experiments — every selector must match
    // something, and an unmatched one is an error (a bare `fig1` used to
    // silently run fig10–fig15).
    let mut selected = vec![false; EXPERIMENTS.len()];
    if opts.selectors.is_empty() {
        for (i, exp) in EXPERIMENTS.iter().enumerate() {
            selected[i] = !exp.ablation || opts.ablations;
        }
    } else {
        for sel in &opts.selectors {
            let mut hit = false;
            for (i, exp) in EXPERIMENTS.iter().enumerate() {
                if selector_matches(exp, sel) {
                    selected[i] = true;
                    hit = true;
                }
            }
            if !hit {
                eprintln!("reproduce: no experiment matches '{sel}'\n{}", usage());
                std::process::exit(2);
            }
        }
        if opts.ablations {
            for (i, exp) in EXPERIMENTS.iter().enumerate() {
                if exp.ablation {
                    selected[i] = true;
                }
            }
        }
    }

    let scale = if opts.paper {
        Scale::paper()
    } else {
        Scale::quick()
    };
    let engine = match opts.jobs {
        Some(n) => Engine::new(n),
        None => Engine::auto(),
    };
    eprintln!(
        "reproduce: scale = {} ({} objects, {} ticks, {} speeds, {} seeds), {} worker(s)",
        if opts.paper { "paper" } else { "quick" },
        scale.objects_default,
        scale.ticks,
        scale.speeds.len(),
        scale.tour_seeds.len(),
        engine.jobs(),
    );

    std::fs::create_dir_all("results").expect("create results dir");
    // mar-lint: allow(D003) — progress display only; never enters results
    let t0 = std::time::Instant::now();
    let mut written = 0usize;
    for (i, exp) in EXPERIMENTS.iter().enumerate() {
        if !selected[i] {
            continue;
        }
        for table in (exp.run)(&engine, &scale) {
            // Persist before moving on: a panic in a later figure must not
            // lose this one.
            let path = format!("results/{}.csv", table.id);
            let mut f = std::fs::File::create(&path).expect("create csv");
            f.write_all(table.to_csv().as_bytes()).expect("write csv");
            print!("{}", table.render());
            eprintln!(
                "  [{:6.1}s] {} done -> {}",
                t0.elapsed().as_secs_f64(),
                table.id,
                path
            );
            written += 1;
        }
    }
    eprintln!(
        "\nreproduce: {} tables written to results/ in {:.1}s ({} worker(s), {} cached scene(s))",
        written,
        t0.elapsed().as_secs_f64(),
        engine.jobs(),
        engine.cache().len(),
    );
}
