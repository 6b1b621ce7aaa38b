//! `mar-served`'s command line, end to end: a bad `--cache-mb` is a usage
//! error (exit 2, a message on stderr) that the daemon reports before it
//! builds a scene, writes a store or binds a port.

use mar_core::PAGE_SIZE;
use std::process::Command;

fn served(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mar-served"))
        .args(args)
        .output()
        .expect("spawn mar-served");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_pool_below_one_page_is_a_usage_error() {
    let store = env!("CARGO_TARGET_TMPDIR").to_string() + "/cli-never-written.pages";
    for mb in ["0.001", "0", "-1"] {
        let (code, stderr) = served(&["--store", &store, "--cache-mb", mb]);
        assert_eq!(code, Some(2), "--cache-mb {mb}: {stderr}");
        let floor = format!("less than one {PAGE_SIZE}-byte page");
        assert!(stderr.contains(&floor), "{stderr}");
    }
    assert!(
        !std::path::Path::new(&store).exists(),
        "no store was written"
    );
}
