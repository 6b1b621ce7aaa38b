//! Fixed-stride page images of an arena tree (the out-of-core format).
//!
//! [`RTree::stream_pages`] serializes every node into a self-contained
//! little-endian page payload, one page at a time, numbering nodes
//! breadth-first from the root (**page 0**), so internal entries
//! reference children by page id rather than arena slot. The images
//! slot directly into `mar-store`'s fixed-size page file. Everything
//! that knows the layout lives here: the writer, the zero-copy decoder
//! [`NodePage`], its window test (it is a [`NodeView`]), and
//! [`PageSource`] — the [`NodeSource`] that lets the one window walk of
//! [`crate::search`] run over page images. A backend supplies only how
//! a page is fetched (a buffer pool, a slice of images in a test) and
//! how a leaf item's bytes decode.
//!
//! Page payload layout (all integers little-endian):
//!
//! ```text
//! [0]       node kind: 1 = leaf, 2 = internal
//! [1]       zero padding
//! [2..4)    entry count `len` (u16)
//! [4..8)    reserved, zero
//! [8..)     len × 2N f64: entry i's lo[0..N] then hi[0..N]
//! then      internal: len × u32 child page ids
//!           leaf:     len × item_size bytes (caller-encoded items)
//! ```
//!
//! The paper's page geometry (4 KB pages, capacity 20, `N = 3`) needs
//! `8 + 20·48 + 20·8 = 1128` bytes — comfortably inside one page.

use crate::node::Kind;
use crate::query::{NodeSource, NodeView};
use crate::{IoCounters, RTree};
use mar_geom::{Point, Rect};
use std::ops::Deref;

/// Byte offset where the rectangle lanes start.
const HEADER: usize = 8;
const KIND_LEAF: u8 = 1;
const KIND_INTERNAL: u8 = 2;

/// Result of [`RTree::export_pages`]: one payload and one MBR per page,
/// indexed by page id (root = page 0, breadth-first).
#[derive(Debug, Clone)]
pub struct PageExport<const N: usize> {
    /// Serialized page payloads.
    pub pages: Vec<Vec<u8>>,
    /// MBR of each page's subtree — the geometry the motion-aware cache
    /// maps to heat. An empty root exports a degenerate rect at the
    /// origin.
    pub regions: Vec<Rect<N>>,
}

impl<const N: usize, T> RTree<N, T> {
    /// Serializes the tree into fixed-stride page images, breadth-first
    /// from the root (page 0), handing each to `sink` in page-id order as
    /// soon as it is written. `encode_item` appends exactly `item_size`
    /// bytes per leaf item (checked per entry). Every page is written into
    /// one reused buffer, so the working memory is one page plus the
    /// breadth-first order (4 B per node). Returns each page's region (as
    /// in [`PageExport::regions`]), or the first error `sink` returns.
    pub fn stream_pages<E>(
        &self,
        item_size: usize,
        mut encode_item: impl FnMut(&T, &mut Vec<u8>),
        mut sink: impl FnMut(&[u8]) -> Result<(), E>,
    ) -> Result<Vec<Rect<N>>, E> {
        // `order[page]` is the arena slot exported as `page`: a child's
        // page id is its position in the queue, taken when its parent is
        // written — which is the breadth-first numbering.
        let mut order: Vec<u32> = vec![self.root];
        let mut regions = Vec::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut page = 0;
        while let Some(&slot) = order.get(page) {
            page += 1;
            buf.clear();
            let node = self.arena.node(slot);
            let kind = if node.kind() == Kind::Leaf {
                KIND_LEAF
            } else {
                KIND_INTERNAL
            };
            write_header(&mut buf, kind, node.len());
            for i in 0..node.len() {
                write_rect(&mut buf, &node.rect(i));
            }
            for i in 0..node.len() {
                if kind == KIND_LEAF {
                    let before = buf.len();
                    encode_item(node.item(i), &mut buf);
                    assert_eq!(
                        buf.len() - before,
                        item_size,
                        "encode_item must append exactly item_size bytes"
                    );
                } else {
                    buf.extend_from_slice(&(order.len() as u32).to_le_bytes());
                    order.push(node.child(i));
                }
            }
            regions.push(
                node.mbr()
                    .unwrap_or_else(|| Rect::point(Point::new([0.0; N]))),
            );
            sink(&buf)?;
        }
        Ok(regions)
    }

    /// [`RTree::stream_pages`] collected in memory: every page image at
    /// once, for tests and small trees.
    pub fn export_pages(
        &self,
        item_size: usize,
        encode_item: impl FnMut(&T, &mut Vec<u8>),
    ) -> PageExport<N> {
        let mut pages = Vec::new();
        let regions = self.stream_pages(item_size, encode_item, |page| {
            pages.push(page.to_vec());
            Ok::<(), std::convert::Infallible>(())
        });
        match regions {
            Ok(regions) => PageExport { pages, regions },
            Err(never) => match never {},
        }
    }
}

fn write_header(buf: &mut Vec<u8>, kind: u8, len: usize) {
    buf.push(kind);
    buf.push(0);
    buf.extend_from_slice(&(len as u16).to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]);
}

fn write_rect<const N: usize>(buf: &mut Vec<u8>, r: &Rect<N>) {
    for d in 0..N {
        buf.extend_from_slice(&r.lo[d].to_le_bytes());
    }
    for d in 0..N {
        buf.extend_from_slice(&r.hi[d].to_le_bytes());
    }
}

/// Zero-copy view of one exported node page over any pointer to bytes
/// (`&[u8]`, or the `Arc<Vec<u8>>` a buffer pool hands out).
#[derive(Debug, Clone, Copy)]
pub struct NodePage<B, const N: usize> {
    bytes: B,
    leaf: bool,
    len: usize,
    item_size: usize,
}

#[inline(always)]
fn read_f64(b: &[u8], o: usize) -> f64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[o..o + 8]);
    f64::from_le_bytes(a)
}

fn read_u32(b: &[u8], o: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[o..o + 4]);
    u32::from_le_bytes(a)
}

impl<B, const N: usize> NodePage<B, N>
where
    B: Deref,
    B::Target: AsRef<[u8]>,
{
    /// Parses a page payload, validating the header and that every
    /// entry's rect and payload lie inside `bytes`. `item_size` is the
    /// per-item byte width leaf pages were exported with (ignored for
    /// internal pages). Returns `None` on any structural mismatch.
    pub fn parse(bytes: B, item_size: usize) -> Option<Self> {
        let b: &[u8] = (*bytes).as_ref();
        if b.len() < HEADER {
            return None;
        }
        let leaf = match b[0] {
            KIND_LEAF => true,
            KIND_INTERNAL => false,
            _ => return None,
        };
        let len = u16::from_le_bytes([b[2], b[3]]) as usize;
        let entry_size = if leaf { item_size } else { 4 };
        let need = HEADER + len * (16 * N) + len * entry_size;
        if b.len() < need {
            return None;
        }
        Some(Self {
            bytes,
            leaf,
            len,
            item_size,
        })
    }

    fn bytes(&self) -> &[u8] {
        (*self.bytes).as_ref()
    }

    /// The `16·N` corner bytes of each of `n` entries from `start` on:
    /// entry `i`'s `lo[0..N]`, then its `hi[0..N]`.
    fn lanes(&self, start: usize, n: usize) -> &[u8] {
        &self.bytes()[HEADER + start * 16 * N..][..n * 16 * N]
    }

    /// Entry `i`'s rectangle.
    pub fn rect(&self, i: usize) -> Rect<N> {
        debug_assert!(i < self.len);
        let entry = self.lanes(i, 1);
        Rect::from_corners(
            Point::new(std::array::from_fn(|d| read_f64(entry, 8 * d))),
            Point::new(std::array::from_fn(|d| read_f64(entry, 8 * (N + d)))),
        )
    }

    /// Entry `i`'s encoded item bytes (leaf pages only).
    pub fn item_bytes(&self, i: usize) -> &[u8] {
        debug_assert!(self.leaf && i < self.len);
        let o = HEADER + self.len * 16 * N + i * self.item_size;
        &self.bytes()[o..o + self.item_size]
    }
}

impl<B, const N: usize> NodeView<N> for NodePage<B, N>
where
    B: Deref,
    B::Target: AsRef<[u8]>,
{
    fn is_leaf(&self) -> bool {
        self.leaf
    }

    fn entry_count(&self) -> usize {
        self.len
    }

    /// The page-image window test: [`Rect::intersects`] per entry,
    /// straight off the stored corner bytes — the entries' bytes sliced
    /// once, each entry a fixed-size chunk of it, so no corner read is
    /// bounds-checked and no `Rect` is built.
    fn match_bits(&self, window: &Rect<N>, start: usize) -> (u64, usize) {
        let n = (self.len - start).min(64);
        let mut mask = 0u64;
        for (j, entry) in self.lanes(start, n).chunks_exact(16 * N).enumerate() {
            // Every dimension is tested (no early exit), as in the arena's
            // kernel: the fold is a handful of compares and `and`s.
            let hit = (0..N).fold(true, |hit, d| {
                hit & (read_f64(entry, 8 * d) <= window.hi[d])
                    & (window.lo[d] <= read_f64(entry, 8 * (N + d)))
            });
            mask |= u64::from(hit) << j;
        }
        (mask, n)
    }

    fn child(&self, i: usize) -> u32 {
        debug_assert!(!self.leaf && i < self.len);
        read_u32(self.bytes(), HEADER + self.len * 16 * N + i * 4)
    }
}

/// A tree read back from its page images (the root is page 0).
pub struct PageSource<'a, F> {
    /// Maps a page id to its parsed [`NodePage`].
    pub fetch: F,
    /// Where logical and unique accesses tally, exactly as the arena's do.
    pub io: &'a IoCounters,
}

impl<const N: usize, B, F> NodeSource<N> for &PageSource<'_, F>
where
    B: Deref,
    B::Target: AsRef<[u8]>,
    F: Fn(u32) -> NodePage<B, N>,
{
    type Node = NodePage<B, N>;

    fn root(&self) -> u32 {
        0
    }

    fn node(&self, id: u32) -> Self::Node {
        (self.fetch)(id)
    }

    fn io(&self) -> &IoCounters {
        self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RTreeConfig, Variant};
    use mar_geom::{Point2, Rect2};

    fn pt(x: f64, y: f64) -> Rect2 {
        Rect2::point(Point2::new([x, y]))
    }

    fn build(n: usize) -> RTree<2, u32> {
        let mut t = RTree::new(RTreeConfig::new(8, Variant::RStar));
        for i in 0..n {
            let x = (i % 23) as f64;
            let y = (i * 7 % 19) as f64;
            t.insert(pt(x, y), i as u32);
        }
        t
    }

    fn export(t: &RTree<2, u32>) -> PageExport<2> {
        t.export_pages(4, |item, buf| buf.extend_from_slice(&item.to_le_bytes()))
    }

    #[test]
    fn root_is_page_zero_and_count_matches() {
        let t = build(300);
        let ex = export(&t);
        assert_eq!(ex.pages.len(), t.node_count());
        assert_eq!(ex.regions.len(), ex.pages.len());
        let root = NodePage::<_, 2>::parse(ex.pages[0].as_slice(), 4).expect("root page");
        assert_eq!(root.is_leaf(), t.height() == 1);
    }

    #[test]
    fn regions_cover_their_subtrees() {
        let t = build(200);
        let ex = export(&t);
        // Page 0's region is the tree's bounding rect.
        let root_mbr = t.bounding_rect().expect("non-empty");
        assert_eq!(ex.regions[0].lo, root_mbr.lo);
        assert_eq!(ex.regions[0].hi, root_mbr.hi);
    }

    #[test]
    fn empty_tree_exports_one_empty_leaf() {
        let t: RTree<2, u32> = RTree::new(RTreeConfig::paper());
        let ex = export(&t);
        assert_eq!(ex.pages.len(), 1);
        let page = NodePage::<_, 2>::parse(ex.pages[0].as_slice(), 4).expect("page");
        assert!(page.is_leaf());
        assert_eq!(page.entry_count(), 0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(NodePage::<&[u8], 2>::parse(&[], 4).is_none());
        assert!(NodePage::<&[u8], 2>::parse(&[9, 0, 0, 0, 0, 0, 0, 0], 4).is_none());
        // Truncated: claims 3 entries but has no lane bytes.
        assert!(NodePage::<&[u8], 2>::parse(&[1, 0, 3, 0, 0, 0, 0, 0], 4).is_none());
    }
}
