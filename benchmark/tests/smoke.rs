//! Runs the smoke benchmark (same code paths, 30-object scene, seconds in
//! all) and holds its output against `/BENCHMARK.json`: every workload and
//! metric named there is printed exactly once, with its unit.

use std::process::Command;

/// The `(name, unit)` pairs of one top-level array of `/BENCHMARK.json`
/// (`unit` is empty for workloads).
fn section(spec: &str, key: &str) -> Vec<(String, String)> {
    let start = spec
        .find(&format!("\"{key}\": ["))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find("\n  ]").expect("section closes")];
    let field = |object: &str, name: &str| {
        let at = object.find(&format!("\"{name}\": \""))? + name.len() + 5;
        Some(object[at..at + object[at..].find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|object| {
            (
                field(object, "name").expect("every entry has a name"),
                field(object, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn smoke(command: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_mar-benchmark"))
        .args([command, "--smoke"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{command} --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// The cells of the one table row that starts with `name`.
fn row<'a>(stdout: &'a str, name: &str) -> Vec<&'a str> {
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|cells| cells.first() == Some(&name))
        .collect();
    assert_eq!(
        rows.len(),
        1,
        "{name} must be printed exactly once:\n{stdout}"
    );
    rows[0].clone()
}

#[test]
fn smoke_run_prints_every_metric_of_the_contract() {
    let spec = include_str!("../../BENCHMARK.json");
    let workloads = section(spec, "workloads");
    assert_eq!(workloads.len(), 4);

    let run = smoke("run");
    let header = row(&run, "metric");
    for (workload, _) in &workloads {
        assert_eq!(
            header.iter().filter(|cell| *cell == workload).count(),
            1,
            "{workload} must head exactly one column"
        );
    }
    for (metric, unit) in section(spec, "end_to_end") {
        let cells = row(&run, &metric);
        assert_eq!(cells[1], unit, "{metric}");
        assert_eq!(cells.len(), 2 + workloads.len(), "{metric}");
        for cell in &cells[2..] {
            assert!(
                cell.parse::<f64>().expect("a number") > 0.0,
                "{metric} is never 0"
            );
        }
    }
    assert_eq!(row(&run, "error_rate")[2..], ["0"; 4]);
    let fingerprints = row(&run, "fingerprint");
    assert_ne!(fingerprints[2], "none");
    assert_eq!(
        fingerprints[2], fingerprints[3],
        "RAM and paged transcripts"
    );
    assert_eq!(fingerprints[2], fingerprints[4], "RAM and wire transcripts");

    let trace = smoke("trace");
    for (metric, unit) in section(spec, "per_layer") {
        let cells = row(&trace, &metric);
        assert_eq!(cells[1], unit, "{metric}");
        assert_eq!(cells.len(), 2 + workloads.len(), "{metric}");
    }
    assert_eq!(row(&trace, "error_rate")[2..], ["0"; 4]);
}
