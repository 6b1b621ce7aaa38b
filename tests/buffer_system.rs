//! Buffer-management integration: the §V stack end to end.

use mar_buffer::{MotionAwarePrefetcher, NaivePrefetcher};
use mar_core::system::{run_motion_aware_system, SystemConfig};
use mar_core::Server;
use mar_geom::Point2;
use mar_workload::{Scene, SceneConfig, Tour, TourKind, TourSample};

fn scene() -> Scene {
    let mut cfg = SceneConfig::paper(40, 19);
    cfg.levels = 3;
    cfg.target_bytes = 8_000_000.0;
    Scene::generate(cfg)
}

/// A perfectly straight eastbound tour — the motion predictor's best case.
fn line_tour(ticks: usize, speed: f64) -> Tour {
    let max_step = 21.0;
    let samples = (0..ticks)
        .map(|t| TourSample {
            tick: t,
            pos: Point2::new([30.0 + t as f64 * speed * max_step, 500.0]),
            speed,
        })
        .collect();
    Tour {
        kind: TourKind::Tram,
        samples,
        max_step,
    }
}

#[test]
fn motion_aware_dominates_naive_on_predictable_motion() {
    let sc = scene();
    let tour = line_tour(90, 0.5);
    let cfg = SystemConfig {
        buffer_bytes: 32.0 * 1024.0,
        ..Default::default()
    };
    let server = Server::new(&sc);
    let mut ma = MotionAwarePrefetcher::new(4);
    let m_ma = run_motion_aware_system(&server, &sc, &tour, &mut ma, &cfg).cache;
    let server2 = Server::new(&sc);
    let mut nv = NaivePrefetcher;
    let m_nv = run_motion_aware_system(&server2, &sc, &tour, &mut nv, &cfg).cache;
    assert!(
        m_ma.hit_rate() > m_nv.hit_rate(),
        "hit: ma {:.3} vs naive {:.3}",
        m_ma.hit_rate(),
        m_nv.hit_rate()
    );
    assert!(
        m_ma.utilization() > m_nv.utilization(),
        "util: ma {:.3} vs naive {:.3}",
        m_ma.utilization(),
        m_nv.utilization()
    );
}

#[test]
fn buffer_sim_accounting_is_consistent() {
    let sc = scene();
    let tour = line_tour(60, 0.4);
    let cfg = SystemConfig::default();
    let server = Server::new(&sc);
    let mut p = MotionAwarePrefetcher::new(4);
    let m = run_motion_aware_system(&server, &sc, &tour, &mut p, &cfg);
    assert!(m.cache.hits <= m.cache.lookups);
    assert!(m.cache.prefetched_used <= m.cache.prefetched);
    assert!(m.bytes > 0.0);
    // Every tick looks up at least one block.
    assert!(m.cache.lookups >= tour.samples.len() as u64);
}

#[test]
fn stationary_client_hits_after_warmup() {
    let sc = scene();
    let samples: Vec<TourSample> = (0..50)
        .map(|t| TourSample {
            tick: t,
            pos: Point2::new([500.0, 500.0]),
            speed: 0.0,
        })
        .collect();
    let tour = Tour {
        kind: TourKind::Pedestrian,
        samples,
        max_step: 21.0,
    };
    let server = Server::new(&sc);
    let mut p = MotionAwarePrefetcher::new(4);
    let m = run_motion_aware_system(&server, &sc, &tour, &mut p, &SystemConfig::default()).cache;
    // Only the first tick misses; everything after is a hit.
    assert!(
        m.hit_rate() > 0.9,
        "stationary client must hit nearly always: {:.3}",
        m.hit_rate()
    );
}

#[test]
fn multires_buffering_outperforms_full_resolution_at_speed() {
    // The §V multiresolution claim: at high speed, buffering coarse blocks
    // (more of them) beats buffering few full-resolution blocks.
    let sc = scene();
    let tour = line_tour(120, 0.9);
    let mut hit = [0.0f64; 2];
    for (i, multires) in [(0, true), (1, false)] {
        let cfg = SystemConfig {
            buffer_bytes: 32.0 * 1024.0,
            multires,
            ..Default::default()
        };
        let server = Server::new(&sc);
        let mut p = MotionAwarePrefetcher::new(4);
        hit[i] = run_motion_aware_system(&server, &sc, &tour, &mut p, &cfg)
            .cache
            .hit_rate();
    }
    assert!(
        hit[0] >= hit[1],
        "multires {:.3} must be at least as good as full-res {:.3}",
        hit[0],
        hit[1]
    );
}

#[test]
fn larger_buffers_do_not_hurt() {
    let sc = scene();
    let tour = line_tour(100, 0.5);
    let mut last = 0.0;
    for kb in [8.0, 32.0, 128.0] {
        let cfg = SystemConfig {
            buffer_bytes: kb * 1024.0,
            ..Default::default()
        };
        let server = Server::new(&sc);
        let mut p = MotionAwarePrefetcher::new(4);
        let hit = run_motion_aware_system(&server, &sc, &tour, &mut p, &cfg)
            .cache
            .hit_rate();
        assert!(
            hit >= last - 0.03,
            "hit rate regressed from {last:.3} to {hit:.3} at {kb} KB"
        );
        last = hit;
    }
}
