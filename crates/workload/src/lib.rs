//! # mar-workload — tours, scenes, and query frames (§VII-A)
//!
//! The paper's experimental setup is "a realistic augmented-reality city
//! tour": 100–400 objects (20–80 MB) distributed over the data space,
//! uniformly or Zipfian; head-movement traces of tourists on **trams** and
//! **on foot**; query frames sized 5–20 % of the data space; and normalised
//! client speeds in 0.001–1.0.
//!
//! We cannot ship the authors' recorded tourist traces, so this crate
//! generates the synthetic equivalent (DESIGN.md §4): tram tours follow a
//! rail-like network of long straight segments with station dwells (highly
//! predictable — the property the paper repeatedly leans on), while
//! pedestrian tours are random-waypoint walks with per-step heading noise
//! (harder to predict). Both expose the same [`Tour`] interface and are
//! fully deterministic in their seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frames;
pub mod scene;
pub mod tour;

pub use frames::frame_at;
pub use scene::{Placement, Scene, SceneConfig, SceneObject};
pub use tour::{pedestrian_tour, tram_tour, Tour, TourConfig, TourKind, TourSample};

use mar_geom::{Point2, Rect2};

/// The canonical data space used throughout the experiments: a
/// 1000 × 1000 unit "city".
pub fn paper_space() -> Rect2 {
    Rect2::new(Point2::new([0.0, 0.0]), Point2::new([1000.0, 1000.0]))
}
