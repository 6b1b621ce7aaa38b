//! The fleet harness's contract, mirroring `tests/serve.rs` and
//! `tests/chaos.rs`: `--jobs` never changes a transcript byte — and the
//! shard-kill invariant holds across the smoke failure grid.

use mar_bench::fleet::{run_fleet, FleetBenchConfig};
use mar_bench::serve::fnv1a64;

/// The smoke transcript's FNV-1a fingerprint, pinned so that any byte of
/// drift — in routing, halo placement, task order or the session filter's
/// f64 byte accounting — fails loudly.
const FLEET_SMOKE_TRANSCRIPT_FNV64: u64 = 0x1db5_4563_fe6d_ee9d;

#[test]
fn fleet_transcript_is_byte_identical_jobs_1_vs_4() {
    let serial = run_fleet(&FleetBenchConfig::smoke(1));
    let parallel = run_fleet(&FleetBenchConfig::smoke(4));
    assert_eq!(
        serial.transcript, parallel.transcript,
        "fleet transcript differs between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        fnv1a64(&serial.transcript),
        FLEET_SMOKE_TRANSCRIPT_FNV64,
        "the fleet smoke transcript fingerprint moved — if intentional, repin"
    );
    assert!(
        serial.invariant_ok && parallel.invariant_ok,
        "a post-recovery resident set diverged from the outage-free run"
    );
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(a.bytes.to_bits(), b.bytes.to_bits());
        assert_eq!(a.fingerprints, b.fingerprints);
    }
}
