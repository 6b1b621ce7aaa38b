//! Shard seams are exact by construction: a fleet over a translated
//! (offsets up to 1e7) or rescaled (blocks from 1e-2 to 1e4) space gives
//! the RAM index's answer, id for id, for windows and supports whose
//! edges sit on shard seams or a few ulps either side of them — the
//! places where a seam computed two ways, or an epsilon sized from the
//! block instead of the coordinate, drops or strands a sliver. The
//! client's block grid reads the same seams on spaces of side 10 to 10¹⁰.

use mar_core::{CoeffRecord, CoeffRef, FleetConfig, SceneIndexData, ServerCore, WaveletIndex};
use mar_geom::{BlockId, GridSpec, Point2, Rect2};
use mar_mesh::ResolutionBand;
use proptest::prelude::*;
use std::sync::Arc;

/// `splitmix64`: the case's own stream of draws.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `x` moved `k` ulps up (or down, for negative `k`).
fn ulps(mut x: f64, k: i64) -> f64 {
    for _ in 0..k.abs() {
        x = if k > 0 { x.next_up() } else { x.next_down() };
    }
    x
}

/// One coordinate along an axis spanning `lo + i·block` for `i` in
/// `0..=n`: half the time a seam a few ulps off (or on it), otherwise
/// anywhere in `[lo - spill, hi + spill]`.
fn coord(d: &mut Draws, lo: f64, block: f64, n: u32, spill: f64) -> f64 {
    if d.below(2) == 0 {
        let seam = lo + d.below(u64::from(n) + 1) as f64 * block;
        ulps(seam, d.below(7) as i64 - 3)
    } else {
        let hi = lo + f64::from(n) * block;
        (lo - spill) + d.unit() * (hi - lo + 2.0 * spill)
    }
}

fn rect(d: &mut Draws, space: &Rect2, block: f64, (nx, ny): (u32, u32), spill: f64) -> Rect2 {
    let mut c = || {
        let x = coord(d, space.lo[0], block, nx, spill);
        let y = coord(d, space.lo[1], block, ny, spill);
        Point2::new([x, y])
    };
    Rect2::new(c(), c())
}

/// Synthetic scene data: `objects × per_object` records whose supports
/// lie inside `space` (data outside the partitioned space belongs to no
/// shard), ordered by object then coefficient like `SceneIndexData::build`.
fn scene_data(d: &mut Draws, space: &Rect2, block: f64, grid: (u32, u32)) -> SceneIndexData {
    let (objects, per_object) = (3u32, 40u32);
    let mut records = Vec::new();
    for object in 0..objects {
        for coeff in 0..per_object {
            let r = rect(d, space, block, grid, 0.0);
            let inside =
                |p: Point2| Point2::new([0, 1].map(|a| p[a].clamp(space.lo[a], space.hi[a])));
            let support_xy = Rect2::new(inside(r.lo), inside(r.hi));
            records.push(CoeffRecord {
                id: CoeffRef { object, coeff },
                w: d.unit(),
                level: 1,
                support_xy,
                vertex_xy: support_xy.center(),
            });
        }
    }
    let mut sorted_w: Vec<f64> = records.iter().map(|r| r.w).collect();
    sorted_w.sort_by(f64::total_cmp);
    SceneIndexData {
        records,
        footprints: vec![*space; objects as usize],
        coeff_bytes: 1.0,
        base_bytes: vec![1.0; objects as usize],
        object_bytes: vec![1.0 + f64::from(per_object); objects as usize],
        coeff_counts: vec![per_object; objects as usize],
        sorted_w,
    }
}

fn answer(core: &ServerCore, window: &Rect2, band: ResolutionBand) -> Vec<CoeffRef> {
    let (mut ids, _) = core.index().query(window, band);
    ids.sort_unstable();
    ids.dedup();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fleet_equals_ram_index_on_translated_and_rescaled_spaces(
        offset in (-1e7f64..1e7, -1e7f64..1e7),
        log_block in -2.0f64..4.0,
        grid in (1u32..5, 1u32..5),
        seed in 0u64..u64::MAX,
    ) {
        let block = 10f64.powf(log_block);
        let lo = Point2::new([offset.0, offset.1]);
        let hi = Point2::new([
            offset.0 + f64::from(grid.0) * block,
            offset.1 + f64::from(grid.1) * block,
        ]);
        let space = Rect2::new(lo, hi);
        let mut d = Draws(seed);
        let data = Arc::new(scene_data(&mut d, &space, block, grid));
        let ram = ServerCore::from_parts(Arc::clone(&data), Arc::new(WaveletIndex::build(&data)));
        let cfg = FleetConfig::ram(grid.0, grid.1, false);
        let fleet = WaveletIndex::build_fleet(&data, space, &cfg).expect("at most 16 shards");
        let fleet = ServerCore::from_parts(Arc::clone(&data), Arc::new(fleet));
        let mut hits = 0;
        for i in 0..24 {
            let window = rect(&mut d, &space, block, grid, 0.25 * block);
            let band = if i % 3 == 0 {
                ResolutionBand::new(0.25, 0.75)
            } else {
                ResolutionBand::FULL
            };
            let want = answer(&ram, &window, band);
            hits += want.len();
            prop_assert_eq!(answer(&fleet, &window, band), want, "window {:?}", window);
        }
        prop_assert!(hits > 0, "vacuous case");
    }
}

/// Edge `(i, f)` of a frame along `axis`: `f` blocks past seam `i` of
/// `grid` (seams past the space continue at the block pitch).
fn edge(grid: &GridSpec, axis: usize, (i, f): (i64, f64)) -> f64 {
    let n = i64::from(if axis == 0 { grid.nx } else { grid.ny });
    let pitch = grid.space.extent(axis) / n as f64;
    let seam = if (0..=n).contains(&i) {
        grid.seam(axis, i)
    } else {
        grid.space.lo[axis] + i as f64 * pitch
    };
    seam + f * pitch
}

/// The blocks `[a, b]` (in block units, `a <= b`) spans on an axis of
/// `n` blocks, by exact arithmetic: closed at the space's edges, and an
/// edge on an interior seam pulls in no block beyond it.
fn span_model(a: f64, b: f64, n: i64) -> Option<(i64, i64)> {
    if b < 0.0 || a > n as f64 {
        return None;
    }
    let first = (a.max(0.0).floor() as i64).min(n - 1);
    let last = (b.min(n as f64).ceil() as i64 - 1).max(first).min(n - 1);
    Some((first, last))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The client's block grid (`GridSpec::blocks_overlapping`) reads the
    /// same seams: on a 10 × 10 grid over a space of side 10 to 10¹⁰,
    /// shifted by up to one side, a frame whose edges lie on a seam, 10⁻⁴
    /// of a block either side of one, or mid-block gives the blocks the
    /// exact model gives, whatever the side.
    #[test]
    fn block_grid_follows_the_seams_on_rescaled_spaces(
        log_side in 1i32..11,
        shift in (-1.0f64..1.0, -1.0f64..1.0),
        e0 in (-1i64..12, 0usize..5),
        e1 in (-1i64..12, 0usize..5),
        e2 in (-1i64..12, 0usize..5),
        e3 in (-1i64..12, 0usize..5),
    ) {
        const FRACTIONS: [f64; 5] = [-0.5, -1e-4, 0.0, 1e-4, 0.5];
        let side = 10f64.powi(log_side);
        let lo = Point2::new([shift.0 * side, shift.1 * side]);
        let grid = GridSpec::new(Rect2::new(lo, Point2::new([lo[0] + side, lo[1] + side])), 10, 10);
        let edges = [e0, e1, e2, e3].map(|(i, f)| (i, FRACTIONS[f]));
        let mut frame = Rect2::point(lo);
        let mut spans = Vec::new();
        for axis in 0..2 {
            let (e0, e1) = (edges[2 * axis], edges[2 * axis + 1]);
            let (a, b) = (edge(&grid, axis, e0), edge(&grid, axis, e1));
            frame.lo[axis] = a.min(b);
            frame.hi[axis] = a.max(b);
            let (u, v) = (e0.0 as f64 + e0.1, e1.0 as f64 + e1.1);
            spans.push(span_model(u.min(v), u.max(v), 10));
        }
        let want: Vec<BlockId> = match (spans[0], spans[1]) {
            (Some((x0, x1)), Some((y0, y1))) => (y0..=y1)
                .flat_map(|iy| (x0..=x1).map(move |ix| BlockId::new(ix, iy)))
                .collect(),
            _ => Vec::new(),
        };
        prop_assert_eq!(grid.blocks_overlapping(&frame), want, "frame {:?}", frame);
    }
}
