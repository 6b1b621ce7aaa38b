//! Query frames: the client's view window at a tour position.

use mar_geom::{Point2, Rect2};

/// The query frame for a client at `pos`: a window whose width/height are
/// `frac` of the data space's width/height (the paper's 5–20 %), clamped so
/// the whole frame stays inside the space (the view cannot see beyond the
/// city).
pub fn frame_at(space: &Rect2, pos: &Point2, frac: f64) -> Rect2 {
    assert!(frac > 0.0 && frac <= 1.0, "frame fraction out of range");
    let w = space.extent(0) * frac;
    let h = space.extent(1) * frac;
    let cx = pos[0].clamp(space.lo[0] + w / 2.0, space.hi[0] - w / 2.0);
    let cy = pos[1].clamp(space.lo[1] + h / 2.0, space.hi[1] - h / 2.0);
    Rect2::centered(Point2::new([cx, cy]), [w / 2.0, h / 2.0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_space;
    use crate::tour::{tram_tour, TourConfig};

    #[test]
    fn frame_size_is_fraction_of_space() {
        let space = paper_space();
        let f = frame_at(&space, &Point2::new([500.0, 500.0]), 0.1);
        assert!((f.extent(0) - 100.0).abs() < 1e-9);
        assert!((f.extent(1) - 100.0).abs() < 1e-9);
        assert_eq!(f.center(), Point2::new([500.0, 500.0]));
    }

    #[test]
    fn frames_clamp_at_the_edge() {
        let space = paper_space();
        let f = frame_at(&space, &Point2::new([5.0, 995.0]), 0.2);
        assert!(space.contains_rect(&f));
        assert!((f.extent(0) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn stream_covers_whole_tour_inside_space() {
        let space = paper_space();
        let tour = tram_tour(&TourConfig::new(space, 200, 3, 0.7));
        assert_eq!(tour.len(), 200);
        for s in &tour.samples {
            let frame = frame_at(&space, &s.pos, 0.15);
            assert!(s.tick < 200);
            assert!(space.contains_rect(&frame));
            assert!((0.0..=1.0).contains(&s.speed));
            assert!(frame.contains_point(&s.pos) || !space.contains_point(&s.pos));
        }
    }

    #[test]
    fn bigger_fraction_bigger_frames() {
        let space = paper_space();
        let p = Point2::new([500.0, 500.0]);
        assert!(frame_at(&space, &p, 0.2).volume() > frame_at(&space, &p, 0.05).volume());
    }
}
