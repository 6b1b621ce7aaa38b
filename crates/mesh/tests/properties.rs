//! Property tests for the wavelet pipeline: for arbitrary generated
//! objects and arbitrary magnitude bands, the §III invariants must hold.

use mar_mesh::generate::{generate, ObjectKind, ObjectParams};
use mar_mesh::ResolutionBand;
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = ObjectKind> {
    prop_oneof![
        Just(ObjectKind::Building),
        Just(ObjectKind::BumpySphere),
        Just(ObjectKind::Terrain),
    ]
}

fn arb_params() -> impl Strategy<Value = ObjectParams> {
    (arb_kind(), 1usize..4, 0u64..1000, 0.5f64..30.0, 0.0f64..0.4).prop_map(
        |(kind, levels, seed, radius, detail)| ObjectParams {
            kind,
            levels,
            seed,
            radius,
            detail,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full reconstruction is exact for every generated object.
    #[test]
    fn full_reconstruction_exact(params in arb_params()) {
        let wm = generate(&params);
        let rec = wm.reconstruct(ResolutionBand::FULL);
        prop_assert!(wm.rms_error(&rec) < 1e-9);
    }

    /// Magnitudes are normalised into [0, 1] with the max achieved.
    #[test]
    fn magnitudes_normalized(params in arb_params()) {
        let wm = generate(&params);
        let mut max_w = 0.0f64;
        for c in &wm.coeffs {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&c.w));
            max_w = max_w.max(c.w);
        }
        if wm.max_detail > 0.0 {
            prop_assert!((max_w - 1.0).abs() < 1e-9);
        }
    }

    /// Widening the band keeps the error non-increasing *up to a small
    /// slack*: for the interpolating wavelet, selecting a parent whose
    /// children's details are still missing shifts those children's
    /// midpoint predictions, which can transiently add a little error.
    /// The claim that holds (and that the retrieval design relies on) is
    /// aggregate: wider bands never make things much worse, and the full
    /// band is exact.
    #[test]
    fn error_near_monotone_in_band(params in arb_params(),
                                   w1 in 0.0f64..1.0, w2 in 0.0f64..1.0) {
        let wm = generate(&params);
        let (lo, hi) = if w1 < w2 { (w1, w2) } else { (w2, w1) };
        let narrow = wm.reconstruct(ResolutionBand::new(hi, 1.0));
        let wide = wm.reconstruct(ResolutionBand::new(lo, 1.0));
        prop_assert!(
            wm.rms_error(&wide) <= wm.rms_error(&narrow) * 1.25 + 1e-9,
            "wider band hurt too much: [{lo},1] err {} vs [{hi},1] err {}",
            wm.rms_error(&wide), wm.rms_error(&narrow)
        );
        // And the full band is always exact.
        let full = wm.reconstruct(ResolutionBand::FULL);
        prop_assert!(wm.rms_error(&full) < 1e-9);
    }

    /// Subdivision connectivity survives: closed genus-0 inputs stay
    /// closed genus-0 at the finest level (V − E + F = 2).
    #[test]
    fn closed_objects_stay_closed(params in arb_params()) {
        prop_assume!(params.kind != ObjectKind::Terrain);
        let wm = generate(&params);
        let mesh = wm.reconstruct(ResolutionBand::FULL);
        prop_assert!(mesh.is_closed());
        prop_assert_eq!(mesh.euler_characteristic(), 2);
    }
}
