//! Pins the reproduced result *shapes* of §VII at quick scale: who wins,
//! in which direction each curve moves, and rough magnitudes. These are
//! the claims EXPERIMENTS.md reports; if a refactor breaks one, this
//! fails before the full reproduction run would notice.

use mar_bench::engine::Engine;
use mar_bench::figs;
use mar_bench::Scale;
use mar_workload::Placement;

fn quick() -> Scale {
    let mut s = Scale::quick();
    // Trim the sweep; keep the object density (a sparser scene makes the
    // swept object set frame-size-insensitive and the shapes noisy).
    s.ticks = 150;
    s.speeds = vec![0.001, 0.5, 1.0];
    s
}

#[test]
fn fig8_retrieval_decreases_with_speed() {
    let t = figs::fig8(&Engine::serial(), &quick());
    for series in ["tram_kb_per_kdist", "walk_kb_per_kdist"] {
        let v = t.series(series).unwrap();
        assert!(
            v[0] > v[v.len() - 1] * 3.0,
            "{series}: slowest {} must be ≫ fastest {}",
            v[0],
            v[v.len() - 1]
        );
    }
}

#[test]
fn fig9a_larger_queries_retrieve_more() {
    let t = figs::fig9a(&Engine::serial(), &quick());
    let q5 = t.series("q5%_kb").unwrap();
    let q20 = t.series("q20%_kb").unwrap();
    // Sum across the speed sweep: a single short tour can coincidentally
    // sweep the same objects with both frame heights, but not at every
    // speed (each speed uses a different tour geometry).
    let s5: f64 = q5.iter().sum();
    let s20: f64 = q20.iter().sum();
    assert!(
        s20 > s5,
        "20% frames ({s20}) must retrieve more than 5% frames ({s5}) overall"
    );
}

#[test]
fn fig12_index_io_shape() {
    let t = figs::fig12(&Engine::serial(), &quick());
    let ma = t.series("motion_aware_io").unwrap();
    let nv = t.series("naive_io").unwrap();
    // Speed reduces I/O by a large factor (paper: 8–11×; accept ≥ 3×).
    assert!(
        ma[0] > 3.0 * ma[ma.len() - 1],
        "I/O at 0.001 ({}) vs 1.0 ({})",
        ma[0],
        ma[ma.len() - 1]
    );
    // The support-region index beats the naive index at every speed.
    for (i, (g, n)) in ma.iter().zip(&nv).enumerate() {
        assert!(g < n, "speed row {i}: support {g} vs naive {n}");
    }
}

#[test]
fn fig13a_io_grows_with_query_size_and_support_wins() {
    let t = figs::fig13a(&Engine::serial(), &quick());
    let ma = t.series("motion_aware_io").unwrap();
    let nv = t.series("naive_io").unwrap();
    assert!(ma[ma.len() - 1] > ma[0], "I/O must grow with query size");
    for (g, n) in ma.iter().zip(&nv) {
        assert!(g < n);
    }
}

#[test]
fn fig14_motion_aware_wins_at_high_speed() {
    let t = figs::fig14_15(&Engine::serial(), &quick(), Placement::Uniform);
    let ma = t.series("ma_tram_s").unwrap();
    let nv = t.series("naive_tram_s").unwrap();
    let last = ma.len() - 1;
    assert!(
        nv[last] > 2.0 * ma[last],
        "at speed 1.0 naive ({}) must be ≫ motion-aware ({})",
        nv[last],
        ma[last]
    );
    // The naive system degrades with speed.
    assert!(
        nv[last] > nv[1] * 0.8,
        "naive should not improve much with speed"
    );
}
