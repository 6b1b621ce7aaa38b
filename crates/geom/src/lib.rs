//! # mar-geom — geometric primitives for motion-aware retrieval
//!
//! This crate provides the geometric substrate shared by every other crate in
//! the workspace:
//!
//! * [`Point`] / [`Vector`] — const-generic fixed-dimension points and
//!   vectors with the small amount of arithmetic the simulation needs.
//! * [`Rect`] — axis-aligned hyper-rectangles with the *rectangle algebra*
//!   that Algorithm 1 of the paper relies on: intersection, union,
//!   containment, and most importantly [`Rect::difference`], which
//!   decomposes `A − B` into at most `2·N` **disjoint** rectangles (the
//!   paper's Figure 3 split of the new query frame into sub-queries).
//! * [`grid`] — the block grid that the buffer manager of §V uses: the data
//!   space is divided into grid-like blocks, and prefetching operates on
//!   block ids.
//! * [`sector`] — partitioning of the plane around the client into `k`
//!   equally sized sectors (directions), including the paper's tie-breaking
//!   rule for blocks that straddle a partition line (§V-B, Figure 4(b)).
//!
//! Everything here is deterministic and allocation-light; `Rect` and `Point`
//! are `Copy` so they can flow through the query pipeline freely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Fixed-size numeric kernels below index two arrays in lockstep
// (`out[i] = a[i] op b[i]`); the indexed form is the clearest statement of
// that, so the pedantic range-loop lint is disabled crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod grid;
pub mod point;
pub mod rect;
pub mod sector;

pub use grid::{BlockId, GridSpec};
pub use point::{Point, Vector};
pub use rect::Rect;
pub use sector::SectorPartition;

/// A 2-dimensional point (the ground plane of the city data space).
pub type Point2 = Point<2>;
/// A 3-dimensional point (object geometry).
pub type Point3 = Point<3>;
/// A 2-dimensional vector.
pub type Vec2 = Vector<2>;
/// A 3-dimensional vector.
pub type Vec3 = Vector<3>;
/// A 2-dimensional axis-aligned rectangle (query frames, block extents).
pub type Rect2 = Rect<2>;
/// A 3-dimensional axis-aligned box (object MBBs, or the paper's
/// experimental `x-y-w` index space).
pub type Rect3 = Rect<3>;
