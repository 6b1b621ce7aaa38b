//! Tour generators: tram and pedestrian movement traces.

use mar_geom::{Point2, Rect2, Vec2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which kind of tour a trace came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TourKind {
    /// Rail-bound, long straight segments, station dwells — predictable.
    Tram,
    /// Random-waypoint walking with heading noise — less predictable.
    Pedestrian,
}

/// One timestamped sample of a tour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TourSample {
    /// Tick index (one query frame is issued per tick).
    pub tick: usize,
    /// Client position.
    pub pos: Point2,
    /// Normalised speed in `[0, 1]` over the last step.
    pub speed: f64,
}

/// A complete movement trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Tour {
    /// The trace kind.
    pub kind: TourKind,
    /// Per-tick samples, `samples[t].tick == t`.
    pub samples: Vec<TourSample>,
    /// Space units one tick covers at normalised speed 1.0.
    pub max_step: f64,
}

impl Tour {
    /// Number of ticks.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True for an empty trace.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total distance covered.
    pub fn distance(&self) -> f64 {
        self.samples
            .windows(2)
            .map(|w| w[0].pos.distance(&w[1].pos))
            .sum()
    }
}

/// Tour generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TourConfig {
    /// The data space the tour stays inside.
    pub space: Rect2,
    /// Number of ticks to generate.
    pub ticks: usize,
    /// Seed (tours with equal configs are identical).
    pub seed: u64,
    /// Target normalised speed in `[0, 1]` (the x-axis of Figs. 8–15).
    pub speed: f64,
    /// Space units per tick at normalised speed 1.0.
    pub max_step: f64,
    /// Relative speed jitter (the paper: "the speed of the clients may
    /// also slightly vary at different parts of a tour").
    pub speed_jitter: f64,
}

impl TourConfig {
    /// A sensible default over the given space: 1.5 % of the space diagonal
    /// per tick at full speed, 10 % speed jitter.
    pub fn new(space: Rect2, ticks: usize, seed: u64, speed: f64) -> Self {
        let diag = (space.extent(0).powi(2) + space.extent(1).powi(2)).sqrt();
        Self {
            space,
            ticks,
            seed,
            speed: speed.clamp(0.0, 1.0),
            max_step: diag * 0.015,
            speed_jitter: 0.1,
        }
    }
}

/// Generates a tram tour: the client rides a rail network made of long
/// straight horizontal/vertical segments (Manhattan-style), slowing briefly
/// at periodic "stations". Long straight runs make the trace very
/// predictable for the state estimator.
pub fn tram_tour(cfg: &TourConfig) -> Tour {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_0001);
    let mut samples = Vec::with_capacity(cfg.ticks);
    let inset = cfg.max_step;
    let lo = [cfg.space.lo[0] + inset, cfg.space.lo[1] + inset];
    let hi = [cfg.space.hi[0] - inset, cfg.space.hi[1] - inset];
    let mut pos = Point2::new([rng.gen_range(lo[0]..hi[0]), rng.gen_range(lo[1]..hi[1])]);
    // Axis-aligned heading: 0 = +x, 1 = +y, 2 = −x, 3 = −y.
    let mut heading = rng.gen_range(0..4u8);
    let mut segment_left = rng.gen_range(40..120u32); // ticks until next turn
    let mut station_in = rng.gen_range(25..60u32);
    let mut dwell = 0u32;

    samples.push(TourSample {
        tick: 0,
        pos,
        speed: 0.0,
    });
    for tick in 1..cfg.ticks {
        let jitter = 1.0 + cfg.speed_jitter * (rng.gen::<f64>() * 2.0 - 1.0);
        let mut speed = (cfg.speed * jitter).clamp(0.0, 1.0);
        if dwell > 0 {
            // Stopped at a station.
            dwell -= 1;
            speed = 0.0;
        } else {
            station_in = station_in.saturating_sub(1);
            if station_in == 0 {
                dwell = rng.gen_range(2..5);
                station_in = rng.gen_range(25..60);
            }
        }
        let step = speed * cfg.max_step;
        let dir = match heading {
            0 => Vec2::new([1.0, 0.0]),
            1 => Vec2::new([0.0, 1.0]),
            2 => Vec2::new([-1.0, 0.0]),
            _ => Vec2::new([0.0, -1.0]),
        };
        let mut next = pos + dir * step;
        // Turn at segment end or when hitting the edge of the rail area.
        segment_left = segment_left.saturating_sub(1);
        let out = next[0] < lo[0] || next[0] > hi[0] || next[1] < lo[1] || next[1] > hi[1];
        if out || segment_left == 0 {
            // Turn left or right (never reverse — trams do not U-turn
            // mid-line), preferring a direction that stays inside.
            let turn: i8 = if rng.gen::<bool>() { 1 } else { 3 };
            heading = ((heading as i8 + turn).rem_euclid(4)) as u8;
            segment_left = rng.gen_range(40..120);
            // Recompute the step along the new heading; clamp inside.
            let dir = match heading {
                0 => Vec2::new([1.0, 0.0]),
                1 => Vec2::new([0.0, 1.0]),
                2 => Vec2::new([-1.0, 0.0]),
                _ => Vec2::new([0.0, -1.0]),
            };
            next = pos + dir * step;
            next = Point2::new([next[0].clamp(lo[0], hi[0]), next[1].clamp(lo[1], hi[1])]);
        }
        let actual_speed = pos.distance(&next) / cfg.max_step;
        pos = next;
        samples.push(TourSample {
            tick,
            pos,
            speed: actual_speed.clamp(0.0, 1.0),
        });
    }
    Tour {
        kind: TourKind::Tram,
        samples,
        max_step: cfg.max_step,
    }
}

/// Generates a pedestrian tour: random-waypoint movement with per-tick
/// heading noise and speed jitter. Turns are frequent and smooth-ish but
/// not axis-aligned, making the trace measurably harder to predict than a
/// tram's.
pub fn pedestrian_tour(cfg: &TourConfig) -> Tour {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_0002);
    let mut samples = Vec::with_capacity(cfg.ticks);
    let inset = cfg.max_step;
    let lo = [cfg.space.lo[0] + inset, cfg.space.lo[1] + inset];
    let hi = [cfg.space.hi[0] - inset, cfg.space.hi[1] - inset];
    let mut pos = Point2::new([rng.gen_range(lo[0]..hi[0]), rng.gen_range(lo[1]..hi[1])]);
    let mut target = Point2::new([rng.gen_range(lo[0]..hi[0]), rng.gen_range(lo[1]..hi[1])]);
    samples.push(TourSample {
        tick: 0,
        pos,
        speed: 0.0,
    });
    for tick in 1..cfg.ticks {
        // Re-target on arrival or spontaneously (window shopping).
        if pos.distance(&target) < cfg.max_step || rng.gen::<f64>() < 0.01 {
            target = Point2::new([rng.gen_range(lo[0]..hi[0]), rng.gen_range(lo[1]..hi[1])]);
        }
        let jitter = 1.0 + cfg.speed_jitter * (rng.gen::<f64>() * 2.0 - 1.0);
        let speed = (cfg.speed * jitter).clamp(0.0, 1.0);
        let step = speed * cfg.max_step;
        let to_target = (target - pos).normalized().unwrap_or(Vec2::new([1.0, 0.0]));
        // Heading noise: rotate the direction by a gaussian-ish angle.
        let noise = (rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>() - 1.5) * 0.5;
        let (s, c) = noise.sin_cos();
        let dir = Vec2::new([
            to_target[0] * c - to_target[1] * s,
            to_target[0] * s + to_target[1] * c,
        ]);
        let mut next = pos + dir * step;
        next = Point2::new([next[0].clamp(lo[0], hi[0]), next[1].clamp(lo[1], hi[1])]);
        let actual_speed = pos.distance(&next) / cfg.max_step;
        pos = next;
        samples.push(TourSample {
            tick,
            pos,
            speed: actual_speed.clamp(0.0, 1.0),
        });
    }
    Tour {
        kind: TourKind::Pedestrian,
        samples,
        max_step: cfg.max_step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_space;

    fn cfg(speed: f64, seed: u64) -> TourConfig {
        TourConfig::new(paper_space(), 500, seed, speed)
    }

    #[test]
    fn tours_are_deterministic() {
        for gen in [tram_tour, pedestrian_tour] {
            let a = gen(&cfg(0.5, 9));
            let b = gen(&cfg(0.5, 9));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn tours_stay_inside_the_space() {
        let space = paper_space();
        for gen in [tram_tour, pedestrian_tour] {
            for seed in 0..5 {
                let t = gen(&cfg(1.0, seed));
                for s in &t.samples {
                    assert!(
                        space.contains_point(&s.pos),
                        "{:?} escaped at {:?}",
                        t.kind,
                        s
                    );
                }
            }
        }
    }

    #[test]
    fn tour_length_and_ticks() {
        let t = tram_tour(&cfg(0.5, 1));
        assert_eq!(t.len(), 500);
        for (i, s) in t.samples.iter().enumerate() {
            assert_eq!(s.tick, i);
        }
    }

    #[test]
    fn faster_tours_cover_more_distance() {
        let slow = tram_tour(&cfg(0.1, 4));
        let fast = tram_tour(&cfg(0.9, 4));
        assert!(fast.distance() > 3.0 * slow.distance());
    }

    #[test]
    fn step_sizes_respect_max_step() {
        for gen in [tram_tour, pedestrian_tour] {
            let t = gen(&cfg(1.0, 5));
            for w in t.samples.windows(2) {
                let d = w[0].pos.distance(&w[1].pos);
                assert!(d <= t.max_step * 1.0001, "step {d} > max {}", t.max_step);
            }
        }
    }

    #[test]
    fn tram_straighter_than_pedestrian() {
        // Heading-change rate: fraction of ticks where the direction turns
        // by more than ~15 degrees. Trams turn rarely; pedestrians often.
        let turn_rate = |t: &Tour| {
            let mut turns = 0;
            let mut moves = 0;
            for w in t.samples.windows(3) {
                let v1 = (w[1].pos - w[0].pos).normalized();
                let v2 = (w[2].pos - w[1].pos).normalized();
                if let (Some(a), Some(b)) = (v1, v2) {
                    moves += 1;
                    if a.dot(&b) < 0.966 {
                        turns += 1;
                    }
                }
            }
            turns as f64 / moves.max(1) as f64
        };
        let mut tram_avg = 0.0;
        let mut ped_avg = 0.0;
        for seed in 0..4 {
            tram_avg += turn_rate(&tram_tour(&cfg(0.5, seed)));
            ped_avg += turn_rate(&pedestrian_tour(&cfg(0.5, seed)));
        }
        assert!(
            ped_avg > 2.0 * tram_avg,
            "pedestrians must turn much more: tram {tram_avg} vs ped {ped_avg}"
        );
    }
}
