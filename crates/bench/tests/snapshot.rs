//! Snapshots are values: the rendered `BENCH_{serve,chaos,fleet}.json` of
//! a run is a pure function of its mode — no field may depend on
//! `--jobs` or on a clock — which is what lets CI diff the committed
//! files whole against a fresh run.

use mar_bench::chaos::{run_chaos, ChaosConfig};
use mar_bench::fleet::{run_fleet, FleetBenchConfig};
use mar_bench::report::render;
use mar_bench::serve::{run_serve, ServeConfig};
use mar_core::Residence;

#[test]
fn smoke_snapshots_are_byte_equal_at_jobs_1_and_4() {
    let serve =
        |jobs| render(&run_serve(&ServeConfig::smoke(jobs), &Residence::Ram).snapshot("smoke"));
    let chaos =
        |jobs| render(&run_chaos(&ChaosConfig::smoke(jobs), &Residence::Ram).snapshot("smoke"));
    let fleet = |jobs| render(&run_fleet(&FleetBenchConfig::smoke(jobs)).snapshot("smoke"));
    assert_eq!(serve(1), serve(4), "BENCH_serve.json depends on --jobs");
    assert_eq!(chaos(1), chaos(4), "BENCH_chaos.json depends on --jobs");
    assert_eq!(fleet(1), fleet(4), "BENCH_fleet.json depends on --jobs");
    // Not vacuous: each document carries its transcript's fingerprint.
    for doc in [serve(1), chaos(1), fleet(1)] {
        assert!(doc.contains("\"transcript_fnv64\": \""), "{doc}");
    }
}
