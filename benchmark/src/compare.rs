//! `compare A B`: each end-to-end (metric, workload) row of two sets of
//! runs, judged by the metric's bound in `/BENCHMARK.json`.
//!
//! A row is `regressed` when B's median is worse than A's by more than the
//! bound, and `unresolved` — not "unchanged" — when the run-to-run spread
//! of either set exceeds the bound, unless every run of B reads better
//! than every run of A (choosing-metrics §6.5).

use crate::json::Json;
use crate::stats::quartiles;
use crate::workload::WORKLOADS;
use std::collections::BTreeMap;
use std::path::Path;

/// `(workload, metric) -> values`, one per run, from a file `run --out` wrote.
fn read_set(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let metrics = run.get("result").and_then(|r| r.get("metrics"));
        for (name, metric) in metrics.map(Json::fields).unwrap_or_default() {
            if let Some(v) = metric.get("value").and_then(Json::as_f64) {
                set.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let spec = Json::parse(&spec)?;
    let a = read_set(a_path)?;
    let b = read_set(b_path)?;
    println!(
        "{:<12}{:<20}{:>14}{:>14}{:>9}{:>9}{:>8}  verdict",
        "workload", "metric", "median A", "median B", "worse %", "spread %", "bound %"
    );
    let mut all_ok = true;
    for workload in WORKLOADS {
        for metric in spec.get("end_to_end").map(Json::items).unwrap_or_default() {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default();
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = metric.get("better").and_then(Json::as_str) == Some("higher");
            let key = (workload.to_string(), name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<12}{name:<20} missing from a set");
                all_ok = false;
                continue;
            };
            let (a1, am, a3) = quartiles(va);
            let (b1, bm, b3) = quartiles(vb);
            // Positive = B is worse, as a share of A's median.
            let worse = if higher {
                (am - bm) / am
            } else {
                (bm - am) / am
            };
            let spread = ((a3 - a1) / am).max((b3 - b1) / bm);
            let b_always_better = va
                .iter()
                .all(|x| vb.iter().all(|y| if higher { y > x } else { y < x }));
            let verdict = if spread > bound && !b_always_better {
                "unresolved"
            } else if worse > bound {
                "regressed"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            println!(
                "{workload:<12}{name:<20}{am:>14.4}{bm:>14.4}{:>9.2}{:>9.2}{:>8.1}  {verdict}",
                100.0 * worse,
                100.0 * spread,
                100.0 * bound
            );
        }
    }
    println!(
        "{} runs per row in A, {} in B",
        a.values().map(Vec::len).max().unwrap_or(0),
        b.values().map(Vec::len).max().unwrap_or(0)
    );
    Ok(all_ok)
}
