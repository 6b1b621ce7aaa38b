//! The chaos harness's contract, mirroring `tests/serve.rs`: `--jobs`
//! never changes a transcript byte — and the resilience invariant holds
//! across the smoke fault grid.

use mar_bench::chaos::{run_chaos, ChaosConfig};
use mar_bench::serve::fnv1a64;
use mar_core::{Residence, ScratchPath};

/// The smoke transcript's FNV-1a fingerprint, pinned like
/// `SMOKE_TRANSCRIPT_FNV64` in `tests/serve.rs`: any byte of drift in the
/// fault schedule, the resilient protocol or the session filter fails
/// loudly instead of silently shifting `BENCH_chaos.json`.
const CHAOS_SMOKE_TRANSCRIPT_FNV64: u64 = 0x67d5_a7d0_39c1_fea8;

#[test]
fn chaos_transcript_is_byte_identical_jobs_1_vs_4() {
    let serial = run_chaos(&ChaosConfig::smoke(1), &Residence::Ram);
    let parallel = run_chaos(&ChaosConfig::smoke(4), &Residence::Ram);
    assert_eq!(
        serial.transcript, parallel.transcript,
        "chaos transcript differs between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        fnv1a64(&serial.transcript),
        CHAOS_SMOKE_TRANSCRIPT_FNV64,
        "the chaos smoke transcript fingerprint moved — if intentional, repin"
    );
    // Every aggregate and every per-session fingerprint must agree too.
    assert_eq!(serial.points.len(), parallel.points.len());
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(a, b, "grid-point report differs between jobs 1 and 4");
    }
}

#[test]
fn chaos_smoke_holds_the_invariant_at_every_grid_point() {
    let cfg = ChaosConfig::smoke(2);
    let r = run_chaos(&cfg, &Residence::Ram);
    assert!(
        r.invariant_ok,
        "a faulted session's final resident set diverged from the fault-free run"
    );
    assert_eq!(r.sessions, cfg.serve.sessions);
    assert_eq!(r.ticks, cfg.serve.ticks);
    assert_eq!(r.points.len(), cfg.grid.len());
    assert_eq!(
        r.transcript.lines().count(),
        1 + cfg.grid.len() * cfg.serve.sessions * (cfg.serve.ticks + 1),
        "one row per (grid point, session, tick) plus finish rows and header"
    );
    // The faulted points actually exercised the protocol.
    let hostile = r.points.last().expect("smoke grid is non-empty");
    let faults = &hostile.metrics;
    assert!(faults.retries > 0, "20% loss must retry");
    assert!(faults.drops > 0, "scheduled drops must fire");
    assert_eq!(faults.drops, faults.resumed, "all drops heal via resume");
    assert!(hostile.goodput() < 1.0, "faults must cost link time");
    // The clean reference is ideal.
    let clean = &r.points[0];
    assert_eq!(clean.metrics.retries + clean.metrics.drops, 0);
    assert!((clean.goodput() - 1.0).abs() < 1e-9);
}

#[test]
fn paged_chaos_smoke_reproduces_the_pinned_transcript() {
    // The out-of-core server must answer the smoke grid byte for byte like
    // RAM, under a pool small enough that the sessions' page reads evict
    // one another.
    let path = ScratchPath::new("bench-chaos-smoke-paged", "chaos.pages").expect("create tmp dir");
    let residence = Residence::Paged {
        path: path.to_path_buf(),
        budget_bytes: 64 * 1024,
    };
    let r = run_chaos(&ChaosConfig::smoke(2), &residence);
    assert!(r.invariant_ok, "the chaos invariant must hold out of core");
    assert_eq!(
        fnv1a64(&r.transcript),
        CHAOS_SMOKE_TRANSCRIPT_FNV64,
        "the paged chaos smoke transcript differs from RAM's"
    );
}
