//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! The evaluation indexes up to a few million wavelet coefficients per
//! dataset; building that statically with one-at-a-time inserts would
//! dominate experiment time, so the scene loaders use STR: entries are
//! recursively sorted and tiled into slabs so each leaf gets `M`
//! consecutive entries, then parent levels are packed the same way.
//! The resulting tree satisfies exactly the same invariants as an
//! incrementally built one (uniform leaf depth, fill ≥ m except possibly
//! one node per level, correct MBRs). Nodes are allocated into the arena
//! level by level, so each level's pages end up contiguous in memory —
//! the layout a search touches most.

use crate::insert::HasRect;
use crate::node::{Arena, ChildEntry, Entry, SlabEntry};
use crate::{RTree, RTreeConfig};
use mar_geom::Rect;
// `std::sync` here serves the deterministic parallel loader only: slabs are
// handed to scoped workers through per-slot mutexes and an atomic work
// counter; none of it influences the produced tree shape.
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

impl<const N: usize, T> RTree<N, T> {
    /// Builds a tree from `(rect, item)` pairs using STR packing.
    pub fn bulk_load(config: RTreeConfig, items: Vec<(Rect<N>, T)>) -> Self {
        let mut entries = into_entries(items);
        let mut sizes = Vec::new();
        str_tile(&mut entries, config.max_entries, 0, &mut |n| sizes.push(n));
        Self::assemble(config, entries, &sizes)
    }

    /// Packs tiled `entries` — consecutive runs of `sizes` entries are the
    /// leaves, in order — into an arena and packs upper levels until a
    /// single root remains. The tree is fully determined by the order of
    /// `entries` and by `sizes`.
    fn assemble(config: RTreeConfig, entries: Vec<Entry<N, T>>, sizes: &[usize]) -> Self {
        let len = entries.len();
        if len == 0 {
            return Self::new(config);
        }
        let cap = config.max_entries;
        let mut arena: Arena<N, T> = Arena::new(cap);
        // Every level's node count follows from the one below, so the
        // slab is allocated once at its final size: never regrown, never
        // copied, and resident next to nothing but the entries it absorbs.
        let (mut nodes, mut level) = (sizes.len(), sizes.len());
        while level > 1 {
            level = tile_count::<N>(level, cap, 0);
            nodes += level;
        }
        arena.reserve(nodes);
        let mut level = pack_level(&mut arena, entries, sizes);
        let mut height = 1usize;
        let mut sizes = Vec::new();
        while level.len() > 1 {
            sizes.clear();
            str_tile(&mut level, cap, 0, &mut |n| sizes.push(n));
            level = pack_level(&mut arena, level, &sizes);
            height += 1;
        }
        Self {
            config,
            arena,
            root: level[0].child,
            height,
            len,
            io: crate::IoCounters::new(),
        }
    }
}

/// Allocates one node per run of `sizes` consecutive `entries`, in order,
/// and returns every node's `(mbr, slot)`.
fn pack_level<const N: usize, T, E: SlabEntry<N, T>>(
    arena: &mut Arena<N, T>,
    entries: Vec<E>,
    sizes: &[usize],
) -> Vec<ChildEntry<N>> {
    let mut entries = entries.into_iter();
    sizes
        .iter()
        .map(|&n| {
            let child = arena.alloc(entries.by_ref().take(n));
            // mar-lint: allow(D004) — tiling emits no empty run
            let rect = arena.mbr(child).expect("non-empty node");
            ChildEntry { rect, child }
        })
        .collect()
}

impl<const N: usize, T: Send> RTree<N, T> {
    /// Parallel STR bulk load: tiles the top-level slabs across up to
    /// `jobs` scoped threads, producing a tree **byte-identical in shape**
    /// to [`RTree::bulk_load`] (pinned by `crates/rtree/tests/arena.rs`).
    ///
    /// Determinism: the serial loader sorts all entries on dimension 0 and
    /// slices them into balanced slabs before recursing per slab — those
    /// per-slab recursions are independent, so this loader performs the
    /// identical dimension-0 sort + split up front and only farms out the
    /// recursions. Leaf runs are concatenated in slab order, so arena
    /// layout, node MBRs and heights all match the serial build exactly.
    ///
    /// `jobs <= 1` (and inputs too small to split) fall back to the serial
    /// path.
    pub fn bulk_load_jobs(config: RTreeConfig, items: Vec<(Rect<N>, T)>, jobs: usize) -> Self {
        let len = items.len();
        let cap = config.max_entries;
        if jobs <= 1 || len <= cap || N == 1 {
            return Self::bulk_load(config, items);
        }
        let mut entries = into_entries(items);
        // The dimension-0 step of `str_tile`, hoisted so the slab
        // recursions can run concurrently: same sort, same slab count,
        // same balanced split.
        sort_by_center(&mut entries, 0);
        let slots: Vec<Mutex<Option<&mut [Entry<N, T>]>>> =
            balanced_split(&mut entries, slab_count(len, cap, N))
                .into_iter()
                .map(|slab| Mutex::new(Some(slab)))
                .collect();
        let outs: Vec<Mutex<Vec<usize>>> =
            (0..slots.len()).map(|_| Mutex::new(Vec::new())).collect();
        let next = AtomicUsize::new(0);
        let workers = jobs.min(slots.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= slots.len() {
                        break;
                    }
                    let slab = slots[i]
                        .lock()
                        // mar-lint: allow(D004) — poisoning implies a sibling worker panicked; propagate
                        .expect("slab slot poisoned")
                        .take()
                        // mar-lint: allow(D004) — each index is claimed exactly once via fetch_add
                        .expect("slab claimed twice");
                    let mut local = Vec::new();
                    str_tile(slab, cap, 1, &mut |n| local.push(n));
                    // mar-lint: allow(D004) — poisoning implies a sibling worker panicked; propagate
                    *outs[i].lock().expect("output slot poisoned") = local;
                });
            }
        });
        drop(slots);
        let mut sizes: Vec<usize> = Vec::new();
        for m in outs {
            // mar-lint: allow(D004) — all workers joined by the scope; poisoning implies one panicked
            sizes.append(&mut m.into_inner().expect("output slot poisoned"));
        }
        Self::assemble(config, entries, &sizes)
    }
}

/// Wraps raw `(rect, item)` pairs as entries, rejecting non-finite rects.
fn into_entries<const N: usize, T>(items: Vec<(Rect<N>, T)>) -> Vec<Entry<N, T>> {
    items
        .into_iter()
        .map(|(rect, item)| {
            assert!(rect.is_finite(), "cannot index a non-finite rectangle");
            Entry { rect, item }
        })
        .collect()
}

/// Recursively tiles `items` **in place** into runs of at most `cap`,
/// sorting by the centre coordinate of dimension `dim` and slicing into
/// `ceil(P^(1/(N-dim)))` *balanced* slabs (sizes differing by at most one),
/// where `P` is the number of pages needed. `out` receives the length of
/// every run, in order: the runs partition `items` front to back.
///
/// Balanced partitioning (instead of fixed-size runs with a ragged tail)
/// guarantees every emitted run holds at least `⌊n/groups⌋ ≥ cap/2 ≥ m`
/// entries whenever more than one is produced, so the loaded tree
/// satisfies the minimum-fill invariant without any repair pass.
fn str_tile<const N: usize, R: HasRect<N>>(
    items: &mut [R],
    cap: usize,
    dim: usize,
    out: &mut impl FnMut(usize),
) {
    let n = items.len();
    if n == 0 {
        return;
    }
    if n <= cap {
        out(n);
        return;
    }
    sort_by_center(items, dim);
    if dim + 1 == N {
        // Last dimension: emit balanced runs of at most `cap`.
        for run in balanced_split(items, n.div_ceil(cap)) {
            out(run.len());
        }
        return;
    }
    for slab in balanced_split(items, slab_count(n, cap, N - dim)) {
        str_tile(slab, cap, dim + 1, out);
    }
}

/// Number of runs [`str_tile`] emits for `n` items: its recursion, on
/// sizes alone.
fn tile_count<const N: usize>(n: usize, cap: usize, dim: usize) -> usize {
    if n <= cap {
        return usize::from(n > 0);
    }
    if dim + 1 == N {
        return n.div_ceil(cap);
    }
    let slabs = slab_count(n, cap, N - dim).min(n);
    let (base, extra) = (n / slabs, n % slabs);
    extra * tile_count::<N>(base + 1, cap, dim + 1)
        + (slabs - extra) * tile_count::<N>(base, cap, dim + 1)
}

/// Slabs to cut `n` items into along one of `dims` remaining dimensions:
/// `ceil(P^(1/dims))` for `P` pages of `cap`.
fn slab_count(n: usize, cap: usize, dims: usize) -> usize {
    ((n.div_ceil(cap) as f64).powf(1.0 / dims as f64).ceil() as usize).max(1)
}

/// Cuts `items` into exactly `k` runs whose sizes differ by at most one.
fn balanced_split<R>(mut items: &mut [R], k: usize) -> Vec<&mut [R]> {
    let n = items.len();
    let k = k.min(n).max(1);
    let (base, extra) = (n / k, n % k);
    (0..k)
        .map(|i| {
            let (run, rest) =
                std::mem::take(&mut items).split_at_mut(base + usize::from(i < extra));
            items = rest;
            run
        })
        .collect()
}

fn center_coord<const N: usize>(r: &Rect<N>, dim: usize) -> f64 {
    (r.lo[dim] + r.hi[dim]) * 0.5
}

/// Sorts `items` by the centre of their rects along `dim` into exactly the
/// order a stable `sort_by` on `f64::total_cmp` gives, without moving an
/// entry more than once: `(key, position)` pairs are sorted (unique, so an
/// unstable sort keeps ties in input order), then the entries are
/// permuted in place along the permutation's cycles. The pairs, 16 bytes
/// an entry, are the only scratch.
fn sort_by_center<const N: usize, R: HasRect<N>>(items: &mut [R], dim: usize) {
    let mut keys: Vec<(u64, usize)> = items
        .iter()
        .enumerate()
        .map(|(i, r)| (total_order_bits(center_coord(r.rect(), dim)), i))
        .collect();
    keys.sort_unstable();
    // Slot `at` takes the entry now at `keys[at].1`; a slot already filled
    // points at itself.
    for start in 0..keys.len() {
        let mut at = start;
        loop {
            let from = std::mem::replace(&mut keys[at].1, at);
            if from == start {
                break;
            }
            items.swap(at, from);
            at = from;
        }
    }
}

/// `x`'s bits mapped so that unsigned order is `f64::total_cmp` order:
/// negatives have every bit flipped, the rest only the sign bit.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use crate::{RTree, RTreeConfig, Variant};
    use mar_geom::{Point2, Point3, Rect2, Rect3};

    fn scatter(n: usize) -> Vec<(Rect2, usize)> {
        (0..n)
            .map(|i| {
                let x = ((i * 37) % 1000) as f64 * 0.1;
                let y = ((i * 61) % 1000) as f64 * 0.1;
                (Rect2::point(Point2::new([x, y])), i)
            })
            .collect()
    }

    #[test]
    fn the_keyed_sort_is_the_stable_total_cmp_sort() {
        // Few distinct centres, so most are tied, with both zeros, which
        // `total_cmp` orders -0.0 < +0.0.
        let values = [
            -0.0,
            0.0,
            -1.5,
            1.5,
            3.0,
            -3.0,
            f64::MIN_POSITIVE,
            -f64::MAX,
        ];
        let pick = |i: usize, k: usize| values[(i * (7 + 3 * k) + k) % values.len()];
        let items: Vec<(Rect3, usize)> = (0..500)
            .map(|i| {
                let p = Point3::new([pick(i, 0), pick(i, 1), pick(i, 2)]);
                (Rect3::point(p), i)
            })
            .collect();
        for dim in 0..3 {
            let mut expect = super::into_entries(items.clone());
            expect.sort_by(|a, b| {
                super::center_coord(&a.rect, dim).total_cmp(&super::center_coord(&b.rect, dim))
            });
            let mut got = super::into_entries(items.clone());
            super::sort_by_center(&mut got, dim);
            let ids =
                |v: &[crate::node::Entry<3, usize>]| v.iter().map(|e| e.item).collect::<Vec<_>>();
            assert_eq!(ids(&got), ids(&expect), "dimension {dim}");
        }
    }

    #[test]
    fn tile_count_predicts_the_tiling() {
        for cap in [4usize, 5, 20, 150] {
            for n in [0usize, 1, 4, 5, 21, 160, 701, 2500, 10_007] {
                let mut runs = 0;
                super::str_tile::<2, _>(&mut super::into_entries(scatter(n)), cap, 0, &mut |len| {
                    assert!((1..=cap).contains(&len));
                    runs += 1;
                });
                assert_eq!(super::tile_count::<2>(n, cap, 0), runs, "n={n} cap={cap}");
            }
        }
    }

    #[test]
    fn bulk_load_empty() {
        let t: RTree<2, usize> = RTree::bulk_load(RTreeConfig::paper(), vec![]);
        assert!(t.is_empty());
        assert!(t.validate().is_ok());
    }

    #[test]
    fn bulk_load_single_leaf() {
        let t = RTree::bulk_load(RTreeConfig::paper(), scatter(15));
        assert_eq!(t.height(), 1);
        assert_eq!(t.len(), 15);
        t.validate().expect("valid");
    }

    #[test]
    fn bulk_load_large_is_valid_and_complete() {
        let t = RTree::bulk_load(RTreeConfig::paper(), scatter(10_000));
        assert_eq!(t.len(), 10_000);
        t.validate().expect("valid");
        let mut seen: Vec<usize> = t.iter().map(|(_, &i)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen.len(), 10_000);
        assert_eq!(seen[0], 0);
        assert_eq!(seen[9999], 9999);
    }

    #[test]
    fn bulk_load_queries_match_incremental() {
        let items = scatter(2_000);
        let bulk = RTree::bulk_load(RTreeConfig::paper(), items.clone());
        let mut inc: RTree<2, usize> = RTree::new(RTreeConfig::paper());
        for (r, i) in items {
            inc.insert(r, i);
        }
        for (wx, wy, ww) in [(0.0, 0.0, 20.0), (30.0, 40.0, 15.0), (80.0, 80.0, 40.0)] {
            let w = Rect2::new(Point2::new([wx, wy]), Point2::new([wx + ww, wy + ww]));
            let (mut a, _) = bulk.query(&w);
            let (mut b, _) = inc.query(&w);
            let mut av: Vec<usize> = a.drain(..).copied().collect();
            let mut bv: Vec<usize> = b.drain(..).copied().collect();
            av.sort_unstable();
            bv.sort_unstable();
            assert_eq!(av, bv);
        }
    }

    #[test]
    fn bulk_load_is_better_packed_than_incremental() {
        let items = scatter(5_000);
        let bulk = RTree::bulk_load(RTreeConfig::paper(), items.clone());
        let mut inc: RTree<2, usize> = RTree::new(RTreeConfig::paper());
        for (r, i) in items {
            inc.insert(r, i);
        }
        assert!(bulk.node_count() <= inc.node_count());
    }

    #[test]
    fn bulk_load_3d() {
        let items: Vec<(Rect3, usize)> = (0..3_000)
            .map(|i| {
                let x = ((i * 37) % 100) as f64;
                let y = ((i * 61) % 100) as f64;
                let w = ((i * 17) % 100) as f64 / 100.0;
                (
                    Rect3::new(Point3::new([x, y, w]), Point3::new([x + 1.0, y + 1.0, w])),
                    i,
                )
            })
            .collect();
        let t = RTree::bulk_load(RTreeConfig::new(20, Variant::RStar), items);
        assert_eq!(t.len(), 3_000);
        t.validate().expect("valid");
    }
}
