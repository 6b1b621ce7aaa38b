//! The experiment registry is the paper's evidence table for table: its
//! ids are unique, and they name exactly the committed `results/*.csv`, so
//! a table `reproduce` writes cannot escape the tests that iterate the
//! registry, and a committed table cannot lose its experiment.

use mar_bench::EXPERIMENTS;
use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn registry_ids_are_unique_and_are_the_committed_results() {
    let ids: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.ids.to_vec()).collect();
    let unique: BTreeSet<String> = ids.iter().map(|id| id.to_string()).collect();
    assert_eq!(unique.len(), ids.len(), "a table id is registered twice");

    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let committed: BTreeSet<String> = std::fs::read_dir(&results)
        .expect("results/ is committed")
        .map(|entry| entry.expect("results/ is readable").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
        .filter_map(|path| Some(path.file_stem()?.to_str()?.to_string()))
        .collect();
    assert_eq!(committed.len(), 19, "the paper's 19 tables: {committed:?}");
    assert_eq!(unique, committed);
}
