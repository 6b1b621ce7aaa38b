//! The buffered client (§V) and the end-to-end systems built on it
//! (§VII-C Figs. 10–11, §VII-E Figs. 14–15).
//!
//! **Motion-aware system**: the full stack — speed→resolution mapping,
//! block cache with motion-aware prefetching at speed-scaled resolutions,
//! the support-region wavelet index, and incremental (session-deduped)
//! retrieval. Per tick:
//!
//! 1. the motion predictor observes the client's position and produces
//!    visit probabilities for the surrounding blocks (§V-B);
//! 2. the frame's blocks are looked up in the cache at the resolution the
//!    current speed demands; hits answer locally, misses pay the wireless
//!    link;
//! 3. the multiresolution policy converts the byte buffer into a block
//!    budget for the current speed, and the prefetcher fills it.
//!    Prefetch traffic flows in the background and does not add to query
//!    response time (it does count toward total bytes).
//!
//! §VII reads two independent gauges off that one loop: the cache's hit
//! rate and data utilization (Figs. 10–11) and the response time over the
//! link (Figs. 14–15). The same loop runs with the
//! [`mar_buffer::MotionAwarePrefetcher`] or with the paper's naive
//! equal-probability baseline — that switch is the entire difference
//! behind Fig. 10's gap.
//!
//! **Naive system**: "we always retrieve objects with the highest
//! resolution and we use an R*-tree to index objects without using
//! multiple resolutions. We also use a simple LRU scheme for caching."
//! Whole objects are the retrieval unit; every miss ships a full-resolution
//! object over the link.

use crate::metrics::SystemMetrics;
use crate::server::{QueryRegion, Server};
use crate::speedmap::{LinearSpeedMap, SpeedResolutionMap};
use mar_buffer::{BlockCache, LruCache, MultiresPolicy, PrefetchContext, Prefetcher};
use mar_geom::{GridSpec, Rect2};
use mar_link::LinkConfig;
use mar_mesh::ResolutionBand;
use mar_motion::MotionPredictor;
use mar_rtree::{RTree, RTreeConfig};
use mar_workload::{frame_at, Scene, Tour};
use std::collections::BTreeSet;

/// Grid blocks per axis (motion-aware system).
const GRID_BLOCKS: u32 = 25;
/// Shortest prediction horizon in ticks (motion-aware system).
const MIN_HORIZON: u32 = 4;
/// Simulated duration of one tick — the frame deadline. Responses longer
/// than this stall the display (counted as late frames).
const TICK_SECONDS: f64 = 1.0;

/// Shared system parameters.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Client buffer in bytes (paper: 16–128 KB).
    pub buffer_bytes: f64,
    /// Query-frame size as a fraction of the space (paper default: 0.1).
    pub frame_frac: f64,
    /// Whether prefetching uses speed-scaled resolutions (§V last ¶).
    pub multires: bool,
    /// Drive the direction allocation from an empirical Markov direction
    /// model (the \[15\]-style estimator) instead of the Kalman/RLS block
    /// probabilities.
    pub markov_directions: bool,
    /// The wireless link.
    pub link: LinkConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            buffer_bytes: 64.0 * 1024.0,
            frame_frac: 0.1,
            multires: true,
            markov_directions: false,
            link: LinkConfig::paper(),
        }
    }
}

/// Runs the buffered client over a tour with the given prefetcher — the
/// motion-aware system with [`mar_buffer::MotionAwarePrefetcher`], the
/// naive-prefetching baseline of Figs. 10–11 with
/// [`mar_buffer::NaivePrefetcher`].
pub fn run_motion_aware_system(
    server: &Server,
    scene: &Scene,
    tour: &Tour,
    prefetcher: &mut dyn Prefetcher,
    cfg: &SystemConfig,
) -> SystemMetrics {
    let grid = GridSpec::new(scene.config.space, GRID_BLOCKS, GRID_BLOCKS);
    let session = server.connect();
    let speed_map = LinearSpeedMap;
    let policy = if cfg.multires {
        MultiresPolicy::new(cfg.buffer_bytes)
    } else {
        MultiresPolicy::full_resolution(cfg.buffer_bytes)
    };
    // Average block cost at a given resolution floor, from the scene-wide
    // magnitude distribution (planning estimate only; actual fetch bytes
    // come from real index queries). Sorted once in
    // `SceneIndexData::build`; the closure shares the `Arc` handle instead
    // of deep-copying the magnitude vector.
    let data = server.core().data_arc();
    let total_coeffs = data.len() as f64;
    let coeff_bytes = data.coeff_bytes;
    let n_blocks = grid.block_count() as f64;
    let bytes_per_block = move |w: f64| -> f64 {
        // Fraction of coefficients with magnitude >= w.
        let sorted_w = &data.sorted_w;
        let idx = sorted_w.partition_point(|&x| x < w);
        let frac = (sorted_w.len() - idx) as f64 / sorted_w.len().max(1) as f64;
        total_coeffs * frac * coeff_bytes / n_blocks
    };

    let mut cache = BlockCache::new(1);
    let mut predictor = MotionPredictor::new();
    let mut markov = cfg
        .markov_directions
        .then(|| mar_motion::MarkovDirectionModel::new(4, 0.97));
    let mut smooth = crate::speedmap::SmoothedSpeed::default();
    // The buffering policy follows the *cruising* speed: a 3-tick station
    // dwell must not collapse the prefetch resolution to full detail (and
    // the block budget to zero), but a genuine regime change should.
    let mut cruise = crate::speedmap::SmoothedSpeed::with_alphas(0.5, 0.008);
    let mut metrics = SystemMetrics::default();

    // Per-tick scratch, allocated once and reused across the whole tour so
    // the steady-state loop body allocates nothing.
    let mut frame_blocks: Vec<mar_geom::BlockId> = Vec::new();
    let mut misses: Vec<mar_geom::BlockId> = Vec::new();
    let mut predictions: Vec<mar_motion::Prediction> = Vec::new();
    let mut block_probs: std::collections::BTreeMap<mar_geom::BlockId, f64> =
        std::collections::BTreeMap::new();
    let mut markov_probs: Vec<f64> = Vec::new();
    let mut keep: Vec<mar_geom::BlockId> = Vec::new();

    for s in &tour.samples {
        let frame = frame_at(&scene.config.space, &s.pos, cfg.frame_frac);
        grid.blocks_overlapping_into(&frame, &mut frame_blocks);
        let speed = smooth.update(s.speed);
        let cruise_speed = cruise.update(s.speed);
        let needed = speed_map.band_for(speed);
        predictor.observe(s.pos);
        if let Some(m) = markov.as_mut() {
            m.observe(s.pos);
        }

        // Demand: misses pay one link round trip carrying their payload.
        cache.access_into(&frame_blocks, needed.w_min, &mut misses);
        let mut demand_bytes = 0.0;
        for b in &misses {
            let block = QueryRegion {
                region: grid.block_rect(b),
                band: needed,
            };
            let r = server
                .query(session, &[block])
                // mar-lint: allow(D004) — the session was minted by connect above and stays live for the whole simulation
                .expect("system session vanished");
            demand_bytes += r.bytes;
            metrics.io += r.io;
        }
        cache.install_demand(&misses, needed.w_min);
        let response = if misses.is_empty() {
            0.0
        } else {
            cfg.link.request_time(demand_bytes, speed)
        };
        metrics.sim_time_s += response.max(TICK_SECONDS);
        if response > TICK_SECONDS {
            metrics.late_frames += 1;
        }
        metrics.response_times.push(response);
        metrics.bytes += demand_bytes;
        metrics.ticks += 1;

        // Background prefetch at the speed-scaled resolution, replanned
        // only on a miss (the [15] model: "the client does not need to
        // contact the server as long as it remains in the buffered
        // region"; the N(j) blocks of Eq. 1 are fetched at the j-th
        // miss). How well the prefetched region is *placed* therefore
        // directly determines the miss frequency — which is the entire
        // Fig. 10 gap between motion-aware and naive.
        if misses.is_empty() && s.tick > 0 {
            continue;
        }
        let mut contact_blocks = misses.len() as u64;
        let buffer_band = ResolutionBand::new(policy.buffer_w_min(cruise_speed), 1.0);
        // The byte budget is a *prefetch* budget: the frame's own blocks
        // live alongside it (the renderer holds the visible data anyway),
        // so the cache capacity is frame + prefetch budget.
        let budget = policy.block_budget(cruise_speed, &bytes_per_block);
        cache.set_capacity(frame_blocks.len() + budget);
        let horizon = adaptive_horizon(&grid, &predictor, budget);
        predictor.predict_horizon_into(horizon, &mut predictions);
        mar_motion::probability::gaussian_block_probabilities_into(
            &grid,
            &predictions,
            &mut block_probs,
        );
        let direction_hint = match markov.as_ref() {
            Some(m) => {
                m.probabilities_into(&mut markov_probs);
                Some(&markov_probs[..])
            }
            None => None,
        };
        let ctx = PrefetchContext {
            grid: &grid,
            position: s.pos,
            frame_blocks: &frame_blocks,
            budget,
            block_probs: &block_probs,
            direction_hint,
        };
        let plan = prefetcher.plan(&ctx);
        // Keep the frame plus the plan; evict the rest. Sorted scratch +
        // binary search: same membership test the old `BTreeSet` answered,
        // without rebuilding a tree every replan.
        keep.clear();
        keep.extend(frame_blocks.iter().chain(plan.iter()).copied());
        keep.sort_unstable();
        cache.retain(|b| keep.binary_search(b).is_ok());
        for b in &plan {
            if !cache.contains(b, buffer_band.w_min) {
                let block = QueryRegion {
                    region: grid.block_rect(b),
                    band: buffer_band,
                };
                if cache.install_prefetch(*b, buffer_band.w_min) {
                    let r = server
                        .query(session, &[block])
                        // mar-lint: allow(D004) — same live session as the demand path above
                        .expect("system session vanished");
                    metrics.bytes += r.bytes;
                    metrics.io += r.io;
                    contact_blocks += 1;
                }
            }
        }
        metrics.blocks_per_miss.push(contact_blocks);
    }
    metrics.cache = *cache.stats();
    server
        .disconnect(session)
        // mar-lint: allow(D004) — disconnecting the session this function connected
        .expect("system session vanished");
    metrics
}

/// Prediction horizon adapted to the block-crossing time: the predictor
/// must see a few blocks ahead for the allocation to have anything to
/// place, whether the client crawls (long horizon) or sprints (short).
fn adaptive_horizon(grid: &GridSpec, predictor: &MotionPredictor, budget: usize) -> u32 {
    let step = predictor
        .speed()
        .max(grid.block_w().min(grid.block_h()) / 64.0);
    let reach_blocks = 2.0 + (budget as f64).sqrt() * 0.5;
    let ticks = (reach_blocks * grid.block_w().min(grid.block_h()) / step).ceil() as u32;
    ticks.clamp(MIN_HORIZON, 48)
}

/// The naive system: full-resolution objects, an object-level R*-tree, and
/// an LRU object cache.
pub fn run_naive_system(
    server: &Server,
    scene: &Scene,
    tour: &Tour,
    cfg: &SystemConfig,
) -> SystemMetrics {
    // Object-level index over footprints.
    let items: Vec<(Rect2, u32)> = server
        .data()
        .footprints
        .iter()
        .enumerate()
        .map(|(i, r)| (*r, i as u32))
        .collect();
    let tree: RTree<2, u32> = RTree::bulk_load(RTreeConfig::paper(), items);
    // LRU capacity: how many average full-resolution objects fit the buffer.
    let avg_object: f64 = server.data().object_bytes.iter().sum::<f64>()
        / server.data().object_bytes.len().max(1) as f64;
    let capacity = ((cfg.buffer_bytes / avg_object).floor() as usize).max(1);
    let mut lru: LruCache<u32, ()> = LruCache::new(capacity);
    // Objects currently on screen: the renderer holds them regardless of
    // the cache, so a tiny LRU cannot thrash on the visible set.
    let mut visible: BTreeSet<u32> = BTreeSet::new();
    let mut metrics = SystemMetrics::default();

    for s in &tour.samples {
        let frame = frame_at(&scene.config.space, &s.pos, cfg.frame_frac);
        let (hits, io) = tree.query(&frame);
        metrics.io += io;
        let mut bytes = 0.0;
        let mut now_visible = BTreeSet::new();
        for &obj in hits {
            now_visible.insert(obj);
            if !visible.contains(&obj) && lru.get(&obj).is_none() {
                bytes += server.data().object_bytes[obj as usize];
                lru.put(obj, ());
            }
        }
        visible = now_visible;
        let response = if bytes > 0.0 {
            cfg.link.request_time(bytes, s.speed)
        } else {
            0.0
        };
        metrics.sim_time_s += response.max(TICK_SECONDS);
        if response > TICK_SECONDS {
            metrics.late_frames += 1;
        }
        metrics.response_times.push(response);
        metrics.bytes += bytes;
        metrics.ticks += 1;
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_buffer::MotionAwarePrefetcher;
    use mar_workload::{tram_tour, SceneConfig, TourConfig};

    fn scene() -> Scene {
        let mut cfg = SceneConfig::paper(60, 8);
        cfg.levels = 3;
        cfg.target_bytes = 12_000_000.0; // 0.2 MB per object
        Scene::generate(cfg)
    }

    fn tour(speed: f64) -> Tour {
        tram_tour(&TourConfig::new(
            mar_workload::paper_space(),
            300,
            23,
            speed,
        ))
    }

    fn test_cfg() -> SystemConfig {
        SystemConfig {
            frame_frac: 0.15,
            ..Default::default()
        }
    }

    #[test]
    fn motion_aware_system_runs_and_measures() {
        let sc = scene();
        let server = Server::new(&sc);
        let mut p = MotionAwarePrefetcher::new(4);
        let m = run_motion_aware_system(&server, &sc, &tour(0.5), &mut p, &test_cfg());
        assert_eq!(m.ticks, 300);
        assert_eq!(m.response_times.len(), 300);
        assert!(m.bytes > 0.0);
        assert!(m.mean_response() >= 0.0);
    }

    #[test]
    fn cache_gauges_are_independent_of_the_link() {
        // Figs. 10–11 read the cache, Figs. 14–15 the link, off the same
        // loop: the link must shape response times only, never what the
        // client looks up, misses or prefetches.
        let sc = scene();
        let t = tour(0.5);
        let run = |link: LinkConfig| {
            let server = Server::new(&sc);
            let mut p = MotionAwarePrefetcher::new(4);
            let cfg = SystemConfig { link, ..test_cfg() };
            run_motion_aware_system(&server, &sc, &t, &mut p, &cfg)
        };
        let paper = run(LinkConfig::paper());
        let slow = run(LinkConfig {
            bandwidth_bps: LinkConfig::paper().bandwidth_bps / 10.0,
            ..LinkConfig::paper()
        });
        assert!(paper.cache.lookups > 0 && paper.cache.prefetched > 0);
        assert_eq!(paper.cache, slow.cache);
        assert_eq!(paper.blocks_per_miss, slow.blocks_per_miss);
        assert_eq!(paper.bytes, slow.bytes);
        assert!(
            slow.mean_response() > paper.mean_response(),
            "10x slower link: {:.3}s vs {:.3}s",
            slow.mean_response(),
            paper.mean_response()
        );
    }

    #[test]
    fn naive_system_runs_and_measures() {
        let sc = scene();
        let server = Server::new(&sc);
        let m = run_naive_system(&server, &sc, &tour(0.5), &test_cfg());
        assert_eq!(m.ticks, 300);
        assert!(m.bytes > 0.0);
    }

    #[test]
    fn motion_aware_beats_naive_at_high_speed() {
        let sc = scene();
        let t = tour(1.0);
        let cfg = test_cfg();
        let server = Server::new(&sc);
        let mut p = MotionAwarePrefetcher::new(4);
        let ma = run_motion_aware_system(&server, &sc, &t, &mut p, &cfg);
        let nv = run_naive_system(&server, &sc, &t, &cfg);
        assert!(
            ma.mean_response() < nv.mean_response(),
            "motion-aware {:.3}s must beat naive {:.3}s at speed 1.0",
            ma.mean_response(),
            nv.mean_response()
        );
    }

    #[test]
    fn naive_degrades_with_speed() {
        let sc = scene();
        let server = Server::new(&sc);
        let cfg = test_cfg();
        let slow = run_naive_system(&server, &sc, &tour(0.01), &cfg);
        let fast = run_naive_system(&server, &sc, &tour(1.0), &cfg);
        assert!(
            fast.mean_response() > slow.mean_response(),
            "naive must degrade: slow {:.4}s fast {:.4}s",
            slow.mean_response(),
            fast.mean_response()
        );
    }
}

#[cfg(test)]
mod qos_tests {
    use super::*;
    use mar_buffer::MotionAwarePrefetcher;
    use mar_workload::{tram_tour, SceneConfig, TourConfig};

    #[test]
    fn late_frames_favor_motion_aware_at_speed() {
        let mut cfg = SceneConfig::paper(60, 8);
        cfg.levels = 3;
        cfg.target_bytes = 12_000_000.0;
        let scene = Scene::generate(cfg);
        let tour = tram_tour(&TourConfig::new(mar_workload::paper_space(), 300, 23, 1.0));
        let sys = SystemConfig {
            frame_frac: 0.15,
            ..Default::default()
        };
        let server = Server::new(&scene);
        let mut p = MotionAwarePrefetcher::new(4);
        let ma = run_motion_aware_system(&server, &scene, &tour, &mut p, &sys);
        let nv = run_naive_system(&server, &scene, &tour, &sys);
        // Bookkeeping: sim time is at least ticks × deadline, late frames
        // are bounded by ticks, and the rate is consistent.
        for m in [&ma, &nv] {
            assert!(m.sim_time_s >= m.ticks as f64 * TICK_SECONDS - 1e-9);
            assert!(m.late_frames <= m.ticks);
            assert!((0.0..=1.0).contains(&m.late_frame_rate()));
        }
        // The naive system stalls more at full speed.
        assert!(
            ma.late_frame_rate() <= nv.late_frame_rate(),
            "ma {:.3} vs naive {:.3}",
            ma.late_frame_rate(),
            nv.late_frame_rate()
        );
        // And its simulated tour takes longer in user time.
        assert!(ma.sim_time_s <= nv.sim_time_s);
    }
}

#[cfg(test)]
mod buffer_tests {
    use super::*;
    use mar_buffer::{MotionAwarePrefetcher, NaivePrefetcher};
    use mar_link::TransferCostModel;
    use mar_workload::{tram_tour, SceneConfig, TourConfig};

    fn scene() -> Scene {
        let mut cfg = SceneConfig::paper(10, 5);
        cfg.levels = 3;
        cfg.target_bytes = 2_000_000.0;
        Scene::generate(cfg)
    }

    fn tour(speed: f64) -> Tour {
        tram_tour(&TourConfig::new(
            mar_workload::paper_space(),
            250,
            17,
            speed,
        ))
    }

    #[test]
    fn simulation_produces_sane_metrics() {
        let sc = scene();
        let server = Server::new(&sc);
        let mut p = MotionAwarePrefetcher::new(4);
        let m = run_motion_aware_system(&server, &sc, &tour(0.5), &mut p, &SystemConfig::default())
            .cache;
        assert!(m.lookups > 0);
        assert!(m.hits <= m.lookups);
        assert!((0.0..=1.0).contains(&m.hit_rate()));
        assert!((0.0..=1.0).contains(&m.utilization()));
        assert!(m.prefetched > 0, "prefetcher must act");
    }

    #[test]
    fn motion_aware_beats_naive_hit_rate_on_trams() {
        // The paper's buffers are tiny against the dataset (16-128 KB vs
        // 20-80 MB); keep that proportion so prefetch placement matters.
        let sc = scene();
        let cfg = SystemConfig {
            buffer_bytes: 2048.0,
            ..Default::default()
        };
        let mut hit_ma = 0.0;
        let mut hit_nv = 0.0;
        for seed in [17u64, 18, 19] {
            let t = tram_tour(&TourConfig::new(
                mar_workload::paper_space(),
                400,
                seed,
                0.5,
            ));
            let server = Server::new(&sc);
            let mut ma = MotionAwarePrefetcher::new(4);
            hit_ma += run_motion_aware_system(&server, &sc, &t, &mut ma, &cfg)
                .cache
                .hit_rate();
            let server2 = Server::new(&sc);
            let mut nv = NaivePrefetcher;
            hit_nv += run_motion_aware_system(&server2, &sc, &t, &mut nv, &cfg)
                .cache
                .hit_rate();
        }
        assert!(
            hit_ma > hit_nv,
            "motion-aware {:.3} must beat naive {:.3} (3-seed sums)",
            hit_ma,
            hit_nv
        );
    }

    #[test]
    fn bigger_buffer_does_not_hurt_hit_rate() {
        let sc = scene();
        let t = tour(0.5);
        let mut hit_small = 0.0;
        let mut hit_big = 0.0;
        for (bytes, out) in [
            (16.0 * 1024.0, &mut hit_small),
            (128.0 * 1024.0, &mut hit_big),
        ] {
            let server = Server::new(&sc);
            let mut p = MotionAwarePrefetcher::new(4);
            let cfg = SystemConfig {
                buffer_bytes: bytes,
                ..Default::default()
            };
            *out = run_motion_aware_system(&server, &sc, &t, &mut p, &cfg)
                .cache
                .hit_rate();
        }
        assert!(
            hit_big >= hit_small - 0.02,
            "128K {hit_big} vs 16K {hit_small}"
        );
    }

    #[test]
    fn eq1_cost_tracks_miss_frequency() {
        // The Eq. 1 cost of a tour must strictly reflect the recorded
        // server contacts: fewer misses (better prefetching) ⇒ lower cost
        // for comparable per-contact block counts.
        let mut cfg = SceneConfig::paper(20, 31);
        cfg.levels = 3;
        cfg.target_bytes = 4_000_000.0;
        let scene = Scene::generate(cfg);
        let tour = tram_tour(&TourConfig::new(mar_workload::paper_space(), 300, 5, 0.5));
        let sim_cfg = SystemConfig {
            buffer_bytes: 32.0 * 1024.0,
            ..Default::default()
        };
        let model = TransferCostModel::from_link(&LinkConfig::paper(), 4096.0);
        let server = Server::new(&scene);
        let mut ma = MotionAwarePrefetcher::new(4);
        let m_ma = run_motion_aware_system(&server, &scene, &tour, &mut ma, &sim_cfg);
        let server2 = Server::new(&scene);
        let mut nv = NaivePrefetcher;
        let m_nv = run_motion_aware_system(&server2, &scene, &tour, &mut nv, &sim_cfg);
        // Both recorded at least one contact, and the cost is positive and
        // composed of exactly miss_count() connection charges.
        for m in [&m_ma, &m_nv] {
            assert!(m.miss_count() >= 1);
            let cost = m.eq1_cost(&model);
            let min_cost = m.miss_count() as f64 * model.connection_cost;
            assert!(cost >= min_cost);
        }
        // Consistency: blocks_per_miss sums to everything fetched.
        let total_blocks: u64 = m_ma.blocks_per_miss.iter().sum();
        assert!(total_blocks >= m_ma.miss_count());
    }
}
