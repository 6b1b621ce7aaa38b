//! # mar-bench — the reproduction harness
//!
//! Shared machinery for regenerating every figure of the paper's
//! evaluation (§VII). Each `figN` function in [`figs`] produces a
//! [`Table`] — the same series the paper plots — on an
//! [`engine::Engine`]; the `reproduce` binary runs them all.
//!
//! Determinism: every experiment is seeded; two runs of `reproduce`
//! produce byte-identical tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod chaos;
pub mod cli;
pub mod engine;
pub mod figs;
pub mod fleet;
pub mod grid;
pub mod harness;
pub mod report;
pub mod serve;

/// A result table: one labelled x column plus named data series.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. "fig8".
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Label of the x column.
    pub xlabel: &'static str,
    /// Names of the data series.
    pub columns: Vec<String>,
    /// Rows: x value plus one value per series.
    pub rows: Vec<(f64, Vec<f64>)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        id: &'static str,
        title: &'static str,
        xlabel: &'static str,
        columns: Vec<String>,
    ) -> Self {
        Self {
            id,
            title,
            xlabel,
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the value count does not match the series count.
    pub fn push(&mut self, x: f64, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row arity mismatch");
        self.rows.push((x, values));
    }

    /// Renders the table for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("\n## {} — {}\n", self.id, self.title));
        out.push_str(&format!("{:>12}", self.xlabel));
        for c in &self.columns {
            out.push_str(&format!("  {c:>18}"));
        }
        out.push('\n');
        for (x, vals) in &self.rows {
            out.push_str(&format!("{x:>12.4}"));
            for v in vals {
                out.push_str(&format!("  {v:>18.4}"));
            }
            out.push('\n');
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(self.xlabel);
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (x, vals) in &self.rows {
            out.push_str(&format!("{x}"));
            for v in vals {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }

    /// The series named `name`, if present.
    pub fn series(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|(_, v)| v[idx]).collect())
    }
}

/// Experiment scale: `quick` for CI-sized runs, `paper` for the full
/// §VII-A parameters.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Tour length in ticks.
    pub ticks: usize,
    /// Normalised speeds to sweep (the paper's 0.001–1.0).
    pub speeds: Vec<f64>,
    /// Objects in the default (60 MB-equivalent) dataset.
    pub objects_default: usize,
    /// Bytes per object (0.2 MB in the paper).
    pub bytes_per_object: f64,
    /// Subdivision levels per object.
    pub levels: usize,
    /// Tour seeds averaged per data point.
    pub tour_seeds: Vec<u64>,
    /// Scene seed.
    pub scene_seed: u64,
}

impl Scale {
    /// CI-sized: small scenes, short tours, 4 speeds. Seconds per figure.
    pub fn quick() -> Self {
        Self {
            ticks: 200,
            speeds: vec![0.001, 0.25, 0.5, 1.0],
            objects_default: 60,
            bytes_per_object: 0.2 * 1024.0 * 1024.0,
            levels: 3,
            tour_seeds: vec![101],
            scene_seed: 42,
        }
    }

    /// Paper-sized: 300-object 60 MB default dataset, 6-point speed sweep,
    /// multi-seed tours.
    pub fn paper() -> Self {
        Self {
            ticks: 500,
            speeds: vec![0.001, 0.1, 0.25, 0.5, 0.75, 1.0],
            objects_default: 300,
            bytes_per_object: 0.2 * 1024.0 * 1024.0,
            levels: 4,
            tour_seeds: vec![101, 202, 303],
            scene_seed: 42,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trip() {
        let mut t = Table::new("figX", "test", "speed", vec!["a".into(), "b".into()]);
        t.push(0.5, vec![1.0, 2.0]);
        t.push(1.0, vec![3.0, 4.0]);
        assert_eq!(t.series("a"), Some(vec![1.0, 3.0]));
        assert_eq!(t.series("b"), Some(vec![2.0, 4.0]));
        assert!(t.series("c").is_none());
        let csv = t.to_csv();
        assert!(csv.starts_with("speed,a,b\n"));
        assert!(csv.contains("0.5,1,2"));
        let render = t.render();
        assert!(render.contains("figX"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_arity_checked() {
        let mut t = Table::new("figX", "test", "x", vec!["a".into()]);
        t.push(0.0, vec![1.0, 2.0]);
    }
}
