//! On-disk image of the server's index data (DESIGN.md §15).
//!
//! One `mar-store` page file holds everything the out-of-core query path
//! needs: the R*-tree node pages (the fixed-stride images of
//! [`mar_rtree::RTree::stream_pages`], breadth-first, root = page 0),
//! the coefficient records themselves (the payload a hit transmits),
//! and enough metadata to reconstruct the mapping from [`CoeffRef`] to
//! record page — all little-endian, all checksummed by the page layer.
//!
//! File layout (page ids):
//!
//! ```text
//! [0 .. node_pages)             tree node pages, BFS order, root = 0
//! [.. + coeff_pages)            coefficient records, 56 B each
//! [.. + meta_pages)             metadata stream (see below)
//! [last]                        superblock, magic "MARMETA1"
//! ```
//!
//! The metadata stream is `n_objects` × u32 object record offsets
//! followed by one ground-plane MBR (4 × f64) per *data* page (node and
//! coefficient pages alike) — the geometry the motion-aware cache maps
//! to Eq. 2 heat. The superblock sits in the **last** page so
//! [`open_store`] can bootstrap from the page count alone; everything
//! else is recomputed from the file, never from the scene.
//!
//! A coefficient record is 56 bytes: object id (u32), coefficient index
//! (u32), magnitude `w` (f64), subdivision level (u8 + 7 pad bytes) and
//! the support-region MBR (4 × f64). [`PAGE_PAYLOAD`]/56 = 73 records
//! fit one page. Because [`SceneIndexData::build`] orders records by
//! object then coefficient index, `CoeffRef → record index` is just
//! `obj_offsets[object] + coeff` — no per-record directory needed.
//!
//! [`write_store_with`] streams the image: each page goes to one
//! [`PageWriter`] as soon as it is encoded, in page-id order, so writing
//! a store of any size takes one page of buffer plus the metadata it
//! returns — 32 B of region per data page and 4 B per object — instead
//! of the whole image. A write that fails part-way leaves a file
//! [`open_store`] refuses (the page header is written last).

use crate::coeff::{CoeffRecord, CoeffRef, SceneIndexData};
use crate::index::WaveletIndex;
use mar_geom::{Point2, Rect2};
use mar_store::{PageFile, PageWriter, StoreError, PAGE_PAYLOAD, PAGE_SIZE};
use std::path::Path;

/// Superblock magic (last page of the file).
pub const SUPERBLOCK_MAGIC: [u8; 8] = *b"MARMETA1";

/// Encoded size of one coefficient record.
pub const RECORD_SIZE: usize = 56;

/// Records per coefficient page.
pub const RECORDS_PER_PAGE: usize = PAGE_PAYLOAD / RECORD_SIZE;

/// Encoded size of one leaf item (a [`CoeffRef`]: object + coeff, u32 LE).
pub const REF_SIZE: usize = 8;

/// Everything [`open_store`] reconstructs from the file besides the raw
/// pages: the section layout, the `CoeffRef → record` mapping and the
/// per-page ground-plane regions the heat function ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreMeta {
    /// Tree node pages (ids `[0, node_pages)`).
    pub node_pages: u32,
    /// Coefficient record pages (ids `[node_pages, node_pages + coeff_pages)`).
    pub coeff_pages: u32,
    /// Records per coefficient page the file was written with.
    pub records_per_page: u32,
    /// Total coefficient records.
    pub n_records: u32,
    /// First record index of each object (records are grouped by object).
    pub obj_offsets: Vec<u32>,
    /// Ground-plane MBR of each data page (node pages then coefficient
    /// pages) — what the motion-aware cache maps to Eq. 2 heat.
    pub regions: Vec<Rect2>,
}

impl StoreMeta {
    /// Node plus coefficient pages — the pages queries ever fault.
    pub fn data_pages(&self) -> u32 {
        self.node_pages + self.coeff_pages
    }

    /// Dense record index of `id`, or `None` for an unknown object or a
    /// coefficient past its object's records.
    pub fn record_index(&self, id: CoeffRef) -> Option<u32> {
        let object = id.object as usize;
        let first = *self.obj_offsets.get(object)?;
        let end = self.obj_offsets.get(object + 1).copied();
        let rec = first.checked_add(id.coeff)?;
        (rec < end.unwrap_or(self.n_records)).then_some(rec)
    }

    /// Page id and byte offset of record `rec`.
    pub fn record_page(&self, rec: u32) -> (u32, usize) {
        let per = self.records_per_page.max(1);
        (
            self.node_pages + rec / per,
            (rec % per) as usize * RECORD_SIZE,
        )
    }
}

/// One coefficient record decoded back out of the page file — the subset
/// of [`CoeffRecord`] the store persists (what a transmission needs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredRecord {
    /// Which coefficient this is.
    pub id: CoeffRef,
    /// Normalised magnitude.
    pub w: f64,
    /// Subdivision level.
    pub level: u8,
    /// Ground-plane MBR of the support region.
    pub support_xy: Rect2,
}

fn invalid(msg: &str) -> StoreError {
    StoreError::from(std::io::Error::new(std::io::ErrorKind::InvalidData, msg))
}

fn encode_record(r: &CoeffRecord, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&r.id.object.to_le_bytes());
    buf.extend_from_slice(&r.id.coeff.to_le_bytes());
    buf.extend_from_slice(&r.w.to_le_bytes());
    buf.push(r.level);
    buf.extend_from_slice(&[0u8; 7]);
    for d in 0..2 {
        buf.extend_from_slice(&r.support_xy.lo[d].to_le_bytes());
    }
    for d in 0..2 {
        buf.extend_from_slice(&r.support_xy.hi[d].to_le_bytes());
    }
}

fn read_u32(b: &[u8], o: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[o..o + 4]);
    u32::from_le_bytes(a)
}

fn read_f64(b: &[u8], o: usize) -> f64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[o..o + 8]);
    f64::from_le_bytes(a)
}

/// Decodes one 56-byte record image.
pub fn decode_record(b: &[u8]) -> StoredRecord {
    StoredRecord {
        id: CoeffRef {
            object: read_u32(b, 0),
            coeff: read_u32(b, 4),
        },
        w: read_f64(b, 8),
        level: b[16],
        support_xy: Rect2::from_corners(
            Point2::new([read_f64(b, 24), read_f64(b, 32)]),
            Point2::new([read_f64(b, 40), read_f64(b, 48)]),
        ),
    }
}

/// Builds the paper-geometry index over `data` and writes the complete
/// store image to `path`. Returns the metadata the file encodes.
pub fn write_store(path: &Path, data: &SceneIndexData) -> Result<StoreMeta, StoreError> {
    write_store_with(path, data, &WaveletIndex::build(data))
}

/// Writes the store image for an already-built (in-RAM) `index` — the
/// tree shape on disk is exactly the shape in memory, which is what makes
/// the paged descent byte-identical to the RAM one. Streams every page
/// through one [`PageWriter`]: besides a page of buffer it holds only the
/// returned metadata (the per-page regions and the object offsets).
pub fn write_store_with(
    path: &Path,
    data: &SceneIndexData,
    index: &WaveletIndex,
) -> Result<StoreMeta, StoreError> {
    let tree = index
        .ram_tree()
        .ok_or_else(|| invalid("cannot export a paged index"))?;
    let mut writer = PageWriter::create(path)?;
    // Data-page regions: node subtree MBRs projected to the ground plane,
    // then one MBR per coefficient page.
    let mut regions: Vec<Rect2> = tree
        .stream_pages(
            REF_SIZE,
            |id: &CoeffRef, buf| {
                buf.extend_from_slice(&id.object.to_le_bytes());
                buf.extend_from_slice(&id.coeff.to_le_bytes());
            },
            |page| writer.push(page),
        )?
        .iter()
        .map(|r| {
            Rect2::from_corners(
                Point2::new([r.lo[0], r.lo[1]]),
                Point2::new([r.hi[0], r.hi[1]]),
            )
        })
        .collect();
    let node_pages = regions.len() as u32;
    let mut buf = Vec::with_capacity(RECORDS_PER_PAGE * RECORD_SIZE);
    for chunk in data.records.chunks(RECORDS_PER_PAGE) {
        buf.clear();
        let mut lo = [f64::INFINITY; 2];
        let mut hi = [f64::NEG_INFINITY; 2];
        for r in chunk {
            encode_record(r, &mut buf);
            for d in 0..2 {
                lo[d] = lo[d].min(r.support_xy.lo[d]);
                hi[d] = hi[d].max(r.support_xy.hi[d]);
            }
        }
        regions.push(Rect2::from_corners(Point2::new(lo), Point2::new(hi)));
        writer.push(&buf)?;
    }
    let coeff_pages = regions.len() as u32 - node_pages;
    // Object record offsets: records are grouped by object in id order,
    // so each object's offset is the count of the records before it.
    let n_objects = data.footprints.len();
    let mut obj_offsets = vec![0u32; n_objects];
    for r in &data.records {
        if let Some(c) = obj_offsets.get_mut(r.id.object as usize) {
            *c += 1;
        }
    }
    let mut acc = 0u32;
    for o in &mut obj_offsets {
        let count = *o;
        *o = acc;
        acc += count;
    }
    // Metadata stream → pages.
    let mut stream = MetaStream {
        writer: &mut writer,
        page: Vec::with_capacity(PAGE_PAYLOAD),
    };
    for &o in &obj_offsets {
        stream.put(&o.to_le_bytes())?;
    }
    for r in &regions {
        for v in [r.lo[0], r.lo[1], r.hi[0], r.hi[1]] {
            stream.put(&v.to_le_bytes())?;
        }
    }
    stream.finish()?;
    let meta_pages = writer.page_count() - node_pages - coeff_pages;
    // Superblock, last page.
    let meta = StoreMeta {
        node_pages,
        coeff_pages,
        records_per_page: RECORDS_PER_PAGE as u32,
        n_records: data.records.len() as u32,
        obj_offsets,
        regions,
    };
    let mut sb = Vec::with_capacity(32);
    sb.extend_from_slice(&SUPERBLOCK_MAGIC);
    sb.extend_from_slice(&meta.node_pages.to_le_bytes());
    sb.extend_from_slice(&meta.coeff_pages.to_le_bytes());
    sb.extend_from_slice(&meta_pages.to_le_bytes());
    sb.extend_from_slice(&meta.records_per_page.to_le_bytes());
    sb.extend_from_slice(&(n_objects as u32).to_le_bytes());
    sb.extend_from_slice(&meta.n_records.to_le_bytes());
    writer.push(&sb)?;
    writer.finish()?;
    Ok(meta)
}

/// The metadata stream, cut into [`PAGE_PAYLOAD`]-byte pages as it is
/// written (a value may straddle two pages).
struct MetaStream<'w> {
    writer: &'w mut PageWriter,
    /// The page being filled.
    page: Vec<u8>,
}

impl MetaStream<'_> {
    fn put(&mut self, mut bytes: &[u8]) -> Result<(), StoreError> {
        while !bytes.is_empty() {
            let take = bytes.len().min(PAGE_PAYLOAD - self.page.len());
            self.page.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.page.len() == PAGE_PAYLOAD {
                self.writer.push(&self.page)?;
                self.page.clear();
            }
        }
        Ok(())
    }

    /// Writes the last, partly filled page, if any.
    fn finish(self) -> Result<(), StoreError> {
        if !self.page.is_empty() {
            self.writer.push(&self.page)?;
        }
        Ok(())
    }
}

/// Opens a store image, validating the superblock and reconstructing the
/// metadata from the file alone.
pub fn open_store(path: &Path) -> Result<(PageFile, StoreMeta), StoreError> {
    let mut file = PageFile::open(path)?;
    let n = file.page_count();
    if n == 0 {
        return Err(invalid("store has no superblock page"));
    }
    let sb = file.read_page_vec(n - 1)?;
    if sb[..8] != SUPERBLOCK_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let node_pages = read_u32(&sb, 8);
    let coeff_pages = read_u32(&sb, 12);
    let meta_pages = read_u32(&sb, 16);
    let records_per_page = read_u32(&sb, 20);
    let n_objects = read_u32(&sb, 24) as usize;
    let n_records = read_u32(&sb, 28);
    let data_pages = node_pages as u64 + coeff_pages as u64;
    if data_pages + meta_pages as u64 + 1 != n as u64 {
        return Err(invalid("superblock page layout disagrees with file size"));
    }
    if records_per_page == 0 && n_records > 0 {
        return Err(invalid("superblock claims records but zero per page"));
    }
    let mut stream = Vec::with_capacity(meta_pages as usize * PAGE_PAYLOAD);
    for p in 0..meta_pages {
        stream.extend_from_slice(&file.read_page_vec(data_pages as u32 + p)?);
    }
    let need = n_objects * 4 + data_pages as usize * 32;
    if stream.len() < need {
        return Err(invalid(
            "metadata stream shorter than the superblock claims",
        ));
    }
    let mut obj_offsets = Vec::with_capacity(n_objects);
    for o in 0..n_objects {
        obj_offsets.push(read_u32(&stream, o * 4));
    }
    let mut regions = Vec::with_capacity(data_pages as usize);
    let base = n_objects * 4;
    for p in 0..data_pages as usize {
        let o = base + p * 32;
        let lo = Point2::new([read_f64(&stream, o), read_f64(&stream, o + 8)]);
        let hi = Point2::new([read_f64(&stream, o + 16), read_f64(&stream, o + 24)]);
        // NaN coordinates are malformed too, so demand an explicit
        // `lo <= hi` ordering rather than rejecting only `lo > hi`.
        let ordered = |d: usize| {
            matches!(
                lo[d].partial_cmp(&hi[d]),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            )
        };
        if !(0..2).all(ordered) {
            return Err(invalid("malformed page region in metadata stream"));
        }
        regions.push(Rect2::from_corners(lo, hi));
    }
    Ok((
        file,
        StoreMeta {
            node_pages,
            coeff_pages,
            records_per_page,
            n_records,
            obj_offsets,
            regions,
        },
    ))
}

/// Size of a store file in bytes given its page count (every page,
/// superblock included, is [`PAGE_SIZE`] plus its share of the header).
pub fn store_file_bytes(page_count: u32) -> u64 {
    // Header page + data pages, as laid out by `PageFile`.
    (page_count as u64 + 1) * PAGE_SIZE as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_store::ScratchPath;
    use mar_workload::{Scene, SceneConfig};

    fn tmp(name: &str) -> ScratchPath {
        ScratchPath::new("core-store-tests", name).expect("create tmp dir")
    }

    fn data() -> SceneIndexData {
        let mut cfg = SceneConfig::paper(6, 3);
        cfg.levels = 3;
        cfg.target_bytes = 1_000_000.0;
        SceneIndexData::build(&Scene::generate(cfg))
    }

    #[test]
    fn store_round_trips_meta_and_records() {
        let d = data();
        let path = tmp("roundtrip.pages");
        let written = write_store(&path, &d).expect("write");
        let (mut file, meta) = open_store(&path).expect("open");
        assert_eq!(written, meta);
        assert_eq!(meta.n_records as usize, d.records.len());
        assert_eq!(
            meta.regions.len(),
            meta.node_pages as usize + meta.coeff_pages as usize
        );
        // Every record decodes back to what the scene data holds.
        for r in &d.records {
            let rec = meta.record_index(r.id).expect("known object");
            let (page, off) = meta.record_page(rec);
            let bytes = file.read_page_vec(page).expect("record page");
            let got = decode_record(&bytes[off..off + RECORD_SIZE]);
            assert_eq!(got.id, r.id);
            assert_eq!(got.w, r.w);
            assert_eq!(got.level, r.level);
            assert_eq!(got.support_xy, r.support_xy);
        }
    }

    #[test]
    fn record_mapping_is_dense_and_in_file_order() {
        let d = data();
        let path = tmp("mapping.pages");
        let meta = write_store(&path, &d).expect("write");
        for (i, r) in d.records.iter().enumerate() {
            assert_eq!(meta.record_index(r.id), Some(i as u32));
        }
        assert_eq!(
            meta.record_index(CoeffRef {
                object: meta.obj_offsets.len() as u32,
                coeff: 0
            }),
            None
        );
    }

    #[test]
    fn open_rejects_a_wrong_superblock() {
        let d = data();
        let path = tmp("badmagic.pages");
        write_store(&path, &d).expect("write");
        // Rebuild the file with the superblock magic flipped: keep every
        // page image but corrupt the last payload, checksums recomputed.
        let (mut file, meta) = open_store(&path).expect("open");
        let n = file.page_count();
        let mut pages: Vec<Vec<u8>> = (0..n)
            .map(|p| file.read_page_vec(p).expect("page"))
            .collect();
        pages[n as usize - 1][0] ^= 0xff;
        let path2 = tmp("badmagic2.pages");
        PageFile::create(&path2, &pages).expect("rewrite");
        assert!(matches!(open_store(&path2), Err(StoreError::BadMagic)));
        drop(meta);
    }

    /// A store image whose write stopped part-way — a push refused at
    /// page `k`, or the writer dropped before `finish` — is refused by
    /// `open_store` with a typed error, never opened with fewer pages.
    #[test]
    fn open_refuses_a_partly_written_image() {
        let d = data();
        let path = tmp("whole.pages");
        write_store(&path, &d).expect("write");
        let (file, _) = open_store(&path).expect("open");
        let n = file.page_count();
        for k in [0, 1, n / 2, n - 1] {
            for oversize in [false, true] {
                let path2 = tmp("partial.pages");
                let mut writer = PageWriter::create(&path2).expect("create");
                for p in 0..k {
                    writer.push(&file.read_at(p).expect("page")).expect("push");
                }
                if oversize {
                    let refused = writer.push(&[0u8; PAGE_PAYLOAD + 1]);
                    assert!(matches!(refused, Err(StoreError::Oversize)));
                }
                drop(writer);
                assert!(
                    matches!(
                        open_store(&path2),
                        Err(StoreError::BadMagic | StoreError::ShortFile { .. })
                    ),
                    "k = {k}, oversize = {oversize}"
                );
            }
        }
    }

    #[test]
    fn open_rejects_a_truncated_layout() {
        let d = data();
        let path = tmp("layout.pages");
        write_store(&path, &d).expect("write");
        let (mut file, _) = open_store(&path).expect("open");
        let n = file.page_count();
        // Drop one data page but keep the superblock: layout mismatch.
        let mut pages: Vec<Vec<u8>> = (0..n)
            .map(|p| file.read_page_vec(p).expect("page"))
            .collect();
        pages.remove(0);
        let path2 = tmp("layout2.pages");
        PageFile::create(&path2, &pages).expect("rewrite");
        assert!(open_store(&path2).is_err());
    }
}
