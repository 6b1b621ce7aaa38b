//! The fixed-size page file: deterministic little-endian layout with a
//! checksummed header and per-page trailer checksums.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset 0                : header block (PAGE_SIZE bytes)
//!   [0..8)   magic  "MARSTOR1"
//!   [8..12)  format version (u32, currently 2)
//!   [12..16) page size (u32, PAGE_SIZE)
//!   [16..20) page count (u32)
//!   [20..28) page_checksum of bytes [0..20)
//!   rest zero
//! offset PAGE_SIZE*(1+id) : page `id`
//!   [0..PAGE_PAYLOAD)          payload
//!   [PAGE_PAYLOAD..PAGE_SIZE)  page_checksum of the payload
//! ```
//!
//! Version 1 differed only in the checksum (byte-serial FNV-1a 64); a
//! version-1 file is refused as [`StoreError::BadVersion`], not misread
//! as a file full of bad pages.
//!
//! Pages are written once at build time and read-only afterwards; there
//! is no free list or in-place update path, which keeps the format (and
//! its failure modes) trivial.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Size of one page on disk, matching the paper's §VII-D page geometry
/// (4 KB pages, node capacity 20).
pub const PAGE_SIZE: usize = 4096;

/// Usable payload bytes per page (the trailing 8 bytes hold the page
/// checksum).
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - 8;

const MAGIC: &[u8; 8] = b"MARSTOR1";
const VERSION: u32 = 2;

/// The checksum of the header and of every page: FNV-1a's step, `h = (h ^
/// x) * prime`, taken over little-endian 64-bit words instead of bytes,
/// in `CHECKSUM_LANES` = 4 independent lanes (word `i` feeds lane `i % 4`)
/// that are folded together, in lane order, with the length at the end. The byte-serial
/// hash is one dependent multiply per byte — 4 088 in a row for a page;
/// this is 128 per lane, the four lanes in flight together.
///
/// What it detects for certain: the prime is odd, so a step is a
/// bijection of the word for a fixed `h` and of `h` for a fixed word.
/// Two inputs of equal length that differ in exactly one word therefore
/// differ in that lane's value after the word, still differ after the
/// lane's remaining (equal) words, and — the other lanes being equal —
/// differ in the fold, which is the same chain of steps over the lane
/// values. So any corruption confined to one aligned 8-byte word, every
/// single-bit flip included, changes the sum; anything wider does with
/// the probability of any 64-bit sum. A tail shorter than a word is
/// zero-padded and the length is folded in last, so cutting an input
/// short or extending it with zeros changes the sum as well (for
/// certain while the word count stays the same).
pub fn page_checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(PRIME);
    let mut lanes = [OFFSET; CHECKSUM_LANES];
    let mut groups = bytes.chunks_exact(8 * CHECKSUM_LANES);
    for group in &mut groups {
        for (lane, word) in lanes.iter_mut().zip(group.chunks_exact(8)) {
            *lane = step(*lane, le_word(word));
        }
    }
    for (lane, word) in lanes.iter_mut().zip(groups.remainder().chunks(8)) {
        *lane = step(*lane, le_word(word));
    }
    let folded = lanes.iter().fold(OFFSET, |h, &lane| step(h, lane));
    step(folded, bytes.len() as u64)
}

/// Independent multiply chains [`page_checksum`] keeps in flight.
const CHECKSUM_LANES: usize = 4;

/// Up to 8 bytes as a little-endian word, zero-extended.
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// Typed failure of the page store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the `MARSTOR1` magic.
    BadMagic,
    /// The file's format version is not one this build reads.
    BadVersion(u32),
    /// The header's recorded page size differs from [`PAGE_SIZE`].
    BadPageSize(u32),
    /// The header checksum does not match its contents.
    BadHeaderChecksum,
    /// The file is shorter than its header claims.
    ShortFile {
        /// Bytes the header implies.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// A page's trailer checksum does not match its payload.
    BadPageChecksum(u32),
    /// A read named a page id at or past the page count.
    PageOutOfBounds {
        /// The requested page.
        page: u32,
        /// Pages in the file.
        count: u32,
    },
    /// A build handed the writer more payload than one page holds, or
    /// more pages than `u32` ids can address.
    Oversize,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "page store I/O error: {e}"),
            Self::BadMagic => write!(f, "not a mar-store page file (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported page-file version {v}"),
            Self::BadPageSize(s) => write!(f, "page size {s} != {PAGE_SIZE}"),
            Self::BadHeaderChecksum => write!(f, "page-file header checksum mismatch"),
            Self::ShortFile { expected, found } => {
                write!(
                    f,
                    "page file truncated: {found} bytes < expected {expected}"
                )
            }
            Self::BadPageChecksum(p) => write!(f, "checksum mismatch on page {p}"),
            Self::PageOutOfBounds { page, count } => {
                write!(f, "page {page} out of bounds (file holds {count})")
            }
            Self::Oversize => write!(f, "page payload or page count exceeds the format limits"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// A read handle on a page file. Reads verify the per-page checksum, so
/// every byte handed upward is the byte that was written. Page reads are
/// positioned — they move no file cursor — so one handle serves any
/// number of threads through [`PageFile::read_at`].
#[derive(Debug)]
pub struct PageFile {
    file: File,
    page_count: u32,
}

impl PageFile {
    /// Writes a new page file at `path` from in-memory page payloads.
    /// Each payload may be up to [`PAGE_PAYLOAD`] bytes; shorter payloads
    /// are zero-padded. Overwrites any existing file at `path`. A loop
    /// over [`PageWriter`], after checking every payload up front so an
    /// oversize one fails before the file is touched.
    pub fn create(path: &Path, pages: &[Vec<u8>]) -> Result<(), StoreError> {
        if pages.len() > u32::MAX as usize || pages.iter().any(|p| p.len() > PAGE_PAYLOAD) {
            return Err(StoreError::Oversize);
        }
        let mut writer = PageWriter::create(path)?;
        for payload in pages {
            writer.push(payload)?;
        }
        writer.finish()
    }

    /// Opens an existing page file, validating its header.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let mut file = File::open(path)?;
        let mut header = [0u8; PAGE_SIZE];
        file.read_exact(&mut header).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::ShortFile {
                    expected: PAGE_SIZE as u64,
                    found: 0,
                }
            } else {
                StoreError::Io(e)
            }
        })?;
        if &header[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if version != VERSION {
            return Err(StoreError::BadVersion(version));
        }
        let page_size = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        if page_size as usize != PAGE_SIZE {
            return Err(StoreError::BadPageSize(page_size));
        }
        let page_count = u32::from_le_bytes([header[16], header[17], header[18], header[19]]);
        let sum = u64::from_le_bytes(
            header[20..28]
                .try_into()
                .map_err(|_| StoreError::BadHeaderChecksum)?,
        );
        if sum != page_checksum(&header[..20]) {
            return Err(StoreError::BadHeaderChecksum);
        }
        let expected = (PAGE_SIZE as u64) * (1 + page_count as u64);
        let found = file.metadata()?.len();
        if found < expected {
            return Err(StoreError::ShortFile { expected, found });
        }
        Ok(Self { file, page_count })
    }

    /// Pages stored in the file.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Reads page `id` into a fresh heap buffer of [`PAGE_PAYLOAD`] bytes,
    /// verifying its checksum: one positioned read of the whole
    /// [`PAGE_SIZE`] block (payload and trailer), no cursor, no lock — the
    /// read every other page read here delegates to.
    pub fn read_at(&self, id: u32) -> Result<Vec<u8>, StoreError> {
        if id >= self.page_count {
            return Err(StoreError::PageOutOfBounds {
                page: id,
                count: self.page_count,
            });
        }
        let offset = (PAGE_SIZE as u64) * (1 + id as u64);
        let mut block = vec![0u8; PAGE_SIZE];
        read_exact_at(&self.file, &mut block, offset)?;
        let (payload, trailer) = block.split_at(PAGE_PAYLOAD);
        if trailer != page_checksum(payload).to_le_bytes() {
            return Err(StoreError::BadPageChecksum(id));
        }
        block.truncate(PAGE_PAYLOAD);
        Ok(block)
    }

    /// Reads page `id`'s payload into `buf`, verifying its checksum.
    pub fn read_page(&mut self, id: u32, buf: &mut [u8; PAGE_PAYLOAD]) -> Result<(), StoreError> {
        buf.copy_from_slice(&self.read_at(id)?);
        Ok(())
    }

    /// Reads page `id` into a fresh heap buffer.
    pub fn read_page_vec(&mut self, id: u32) -> Result<Vec<u8>, StoreError> {
        self.read_at(id)
    }
}

/// Bytes [`PageWriter`] gathers before it writes: 16 pages.
const WRITE_BUFFER: usize = 16 * PAGE_SIZE;

/// Writes a page file one page at a time, in page-id order, through one
/// fixed 64 KiB buffer (`WRITE_BUFFER`): a store of any size is written
/// in the same few pages of memory.
///
/// The header goes in last. Until [`PageWriter::finish`] the file starts
/// with a zeroed header block (or is shorter than one), so a writer that
/// failed or was dropped part-way leaves a file that [`PageFile::open`]
/// refuses as [`StoreError::BadMagic`] or [`StoreError::ShortFile`] —
/// never one that opens with fewer pages. A failed
/// [`push`](PageWriter::push) poisons the writer: every later call fails.
#[derive(Debug)]
pub struct PageWriter {
    file: File,
    /// Whole pages not yet written (the zeroed header block first).
    buf: Vec<u8>,
    pages: u32,
    poisoned: bool,
}

impl PageWriter {
    /// Creates (or truncates) the file at `path` for writing.
    pub fn create(path: &Path) -> Result<Self, StoreError> {
        let file = File::create(path)?;
        let mut buf = Vec::with_capacity(WRITE_BUFFER);
        buf.resize(PAGE_SIZE, 0);
        Ok(Self {
            file,
            buf,
            pages: 0,
            poisoned: false,
        })
    }

    /// Appends the next page: `payload` zero-padded to [`PAGE_PAYLOAD`]
    /// bytes, then its checksum.
    pub fn push(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        self.check()?;
        if payload.len() > PAGE_PAYLOAD || self.pages == u32::MAX {
            self.poisoned = true;
            return Err(StoreError::Oversize);
        }
        let start = self.buf.len();
        self.buf.extend_from_slice(payload);
        self.buf.resize(start + PAGE_PAYLOAD, 0);
        let sum = page_checksum(&self.buf[start..]);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        if self.buf.len() >= WRITE_BUFFER {
            self.flush()?;
        }
        self.pages += 1;
        Ok(())
    }

    /// Pages pushed so far.
    pub fn page_count(&self) -> u32 {
        self.pages
    }

    /// Writes the buffered pages, then the header with the final page
    /// count, and syncs the file to disk.
    pub fn finish(mut self) -> Result<(), StoreError> {
        self.flush()?;
        let mut header = [0u8; PAGE_SIZE];
        header[..8].copy_from_slice(MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        header[16..20].copy_from_slice(&self.pages.to_le_bytes());
        let sum = page_checksum(&header[..20]);
        header[20..28].copy_from_slice(&sum.to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Fails if an earlier call did.
    fn check(&self) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::Io(std::io::Error::other(
                "page writer failed earlier; its file is incomplete",
            )));
        }
        Ok(())
    }

    /// Writes out the buffer; a failure poisons the writer, since part
    /// of the buffer may have reached the file.
    fn flush(&mut self) -> Result<(), StoreError> {
        self.check()?;
        if let Err(e) = self.file.write_all(&self.buf) {
            self.poisoned = true;
            return Err(e.into());
        }
        self.buf.clear();
        Ok(())
    }
}

/// Fills `buf` from `file` at byte `offset` without touching the cursor.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Fills `buf` from `file` at byte `offset`. `seek_read` may return
/// short, so it is retried until the block is whole.
#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchPath;

    fn tmp(name: &str) -> ScratchPath {
        ScratchPath::new("store-tests", name).expect("create tmp dir")
    }

    fn page(fill: u8, len: usize) -> Vec<u8> {
        vec![fill; len]
    }

    #[test]
    fn round_trip_preserves_bytes() {
        let path = tmp("round_trip.pages");
        let pages = vec![page(1, 100), page(2, PAGE_PAYLOAD), page(3, 0)];
        PageFile::create(&path, &pages).expect("create");
        let mut f = PageFile::open(&path).expect("open");
        assert_eq!(f.page_count(), 3);
        for (i, p) in pages.iter().enumerate() {
            let got = f.read_page_vec(i as u32).expect("read");
            assert_eq!(&got[..p.len()], p.as_slice(), "page {i} payload");
            assert!(got[p.len()..].iter().all(|&b| b == 0), "page {i} padding");
        }
    }

    #[test]
    fn out_of_bounds_is_typed() {
        let path = tmp("oob.pages");
        PageFile::create(&path, &[page(9, 8)]).expect("create");
        let mut f = PageFile::open(&path).expect("open");
        assert!(matches!(
            f.read_page_vec(1),
            Err(StoreError::PageOutOfBounds { page: 1, count: 1 })
        ));
    }

    #[test]
    fn corruption_is_detected() {
        let path = tmp("corrupt.pages");
        PageFile::create(&path, &[page(7, 64), page(8, 64)]).expect("create");
        // Flip one payload byte of page 1.
        let mut bytes = std::fs::read(&path).expect("read file");
        let off = PAGE_SIZE * 2 + 10;
        bytes[off] ^= 0xff;
        std::fs::write(&path, &bytes).expect("rewrite");
        let mut f = PageFile::open(&path).expect("open");
        assert!(f.read_page_vec(0).is_ok(), "untouched page still reads");
        assert!(matches!(
            f.read_page_vec(1),
            Err(StoreError::BadPageChecksum(1))
        ));
    }

    /// A page whose words are all different, so that moving one is a
    /// change.
    fn varied_page() -> Vec<u8> {
        (0..PAGE_PAYLOAD)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[3])
            .collect()
    }

    /// The word-wise checksum's certain case, exhaustively: each of the
    /// 4088 × 8 single-bit flips of a full page fails the read of that
    /// page, and of that page only.
    #[test]
    fn every_single_bit_flip_of_a_page_is_detected() {
        use std::io::{Seek, SeekFrom};
        let path = tmp("bitflips.pages");
        let payload = varied_page();
        PageFile::create(&path, &[page(5, 64), payload.clone()]).expect("create");
        let f = PageFile::open(&path).expect("open");
        let mut raw = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open for writing");
        let mut put = |at: usize, byte: u8| {
            raw.seek(SeekFrom::Start((PAGE_SIZE * 2 + at) as u64))
                .expect("seek");
            raw.write_all(&[byte]).expect("write");
        };
        for (at, &byte) in payload.iter().enumerate() {
            for bit in 0..8 {
                put(at, byte ^ (1 << bit));
                assert!(
                    matches!(f.read_at(1), Err(StoreError::BadPageChecksum(1))),
                    "byte {at} bit {bit} went unnoticed"
                );
            }
            put(at, byte);
        }
        assert_eq!(f.read_at(1).expect("restored"), payload);
        assert!(f.read_at(0).is_ok(), "the other page never failed");
    }

    /// Beyond one word the sum is probabilistic; these are the changes a
    /// lane structure could plausibly be blind to, and is not: two words
    /// trading places inside a lane and across lanes, and an input that
    /// loses its last (zero) byte or gains one.
    #[test]
    fn moved_words_and_changed_lengths_change_the_checksum() {
        let payload = varied_page();
        let sum = page_checksum(&payload);
        let stride = 8 * CHECKSUM_LANES;
        for (a, b) in [
            (0, stride),
            (3 * 8, 3 * 8 + 5 * stride),
            (0, 8),
            (2 * 8, stride + 8),
        ] {
            let mut moved = payload.clone();
            for i in 0..8 {
                moved.swap(a + i, b + i);
            }
            assert_ne!(moved, payload);
            assert_ne!(page_checksum(&moved), sum, "words at {a} and {b} swapped");
        }
        for len in [0usize, 1, 7, 8, 9, 20, 31, 32, 33, 4080] {
            let mut bytes = payload[..len].to_vec();
            let short = page_checksum(&bytes);
            bytes.push(0);
            let long = page_checksum(&bytes);
            assert_ne!(short, long, "a zero byte after {len} bytes went unnoticed");
            bytes.extend([0; 8]);
            assert_ne!(page_checksum(&bytes), long, "a zero word went unnoticed");
        }
    }

    /// A file of the previous format — same layout, FNV-1a checksums —
    /// must be refused by version, not reported page by page as corrupt.
    #[test]
    fn a_version_1_file_is_a_typed_bad_version() {
        fn fnv1a64(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let mut bytes = vec![0u8; 2 * PAGE_SIZE];
        bytes[..8].copy_from_slice(MAGIC);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        bytes[12..16].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        bytes[16..20].copy_from_slice(&1u32.to_le_bytes());
        let sum = fnv1a64(&bytes[..20]);
        bytes[20..28].copy_from_slice(&sum.to_le_bytes());
        bytes[PAGE_SIZE..PAGE_SIZE + 64].fill(9);
        let sum = fnv1a64(&bytes[PAGE_SIZE..PAGE_SIZE + PAGE_PAYLOAD]);
        bytes[PAGE_SIZE + PAGE_PAYLOAD..].copy_from_slice(&sum.to_le_bytes());
        let path = tmp("version1.pages");
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            PageFile::open(&path),
            Err(StoreError::BadVersion(1))
        ));
    }

    #[test]
    fn header_corruption_fails_open() {
        let path = tmp("badheader.pages");
        PageFile::create(&path, &[page(1, 4)]).expect("create");
        let mut bytes = std::fs::read(&path).expect("read file");
        bytes[17] ^= 0x01; // page count byte
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(
            PageFile::open(&path),
            Err(StoreError::BadHeaderChecksum)
        ));
    }

    #[test]
    fn truncation_fails_open() {
        let path = tmp("short.pages");
        PageFile::create(&path, &[page(1, 4), page(2, 4)]).expect("create");
        let bytes = std::fs::read(&path).expect("read file");
        std::fs::write(&path, &bytes[..bytes.len() - 100]).expect("truncate");
        assert!(matches!(
            PageFile::open(&path),
            Err(StoreError::ShortFile { .. })
        ));
    }

    #[test]
    fn not_a_store_fails_open() {
        let path = tmp("notastore.pages");
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).expect("write");
        assert!(matches!(PageFile::open(&path), Err(StoreError::BadMagic)));
    }

    /// Pages of every length from empty to full, across several write
    /// buffers, read back as pushed.
    #[test]
    fn the_writer_round_trips_across_buffer_flushes() {
        let path = tmp("writer.pages");
        let pages: Vec<Vec<u8>> = (0..3 * WRITE_BUFFER / PAGE_SIZE + 5)
            .map(|i| page(i as u8, i * 97 % (PAGE_PAYLOAD + 1)))
            .collect();
        let mut writer = PageWriter::create(&path).expect("create");
        for p in &pages {
            writer.push(p).expect("push");
        }
        assert_eq!(writer.page_count(), pages.len() as u32);
        writer.finish().expect("finish");
        let f = PageFile::open(&path).expect("open");
        assert_eq!(f.page_count(), pages.len() as u32);
        for (i, p) in pages.iter().enumerate() {
            let got = f.read_at(i as u32).expect("read");
            assert_eq!(&got[..p.len()], p.as_slice(), "page {i} payload");
            assert!(got[p.len()..].iter().all(|&b| b == 0), "page {i} padding");
        }
    }

    /// What a partial write leaves behind: refused with a typed error.
    fn assert_refused(path: &Path, case: &str) {
        assert!(
            matches!(
                PageFile::open(path),
                Err(StoreError::BadMagic | StoreError::ShortFile { .. })
            ),
            "{case}: a partial file must not open"
        );
    }

    /// A payload too large for a page at page `k` fails the push and
    /// poisons the writer; the file it leaves never opens — before the
    /// first flush (nothing on disk) or after some (a zeroed header).
    #[test]
    fn a_writer_failing_mid_stream_leaves_a_file_open_refuses() {
        for k in [
            0,
            1,
            WRITE_BUFFER / PAGE_SIZE,
            2 * WRITE_BUFFER / PAGE_SIZE + 3,
        ] {
            let path = tmp(&format!("failed-{k}.pages"));
            let mut writer = PageWriter::create(&path).expect("create");
            for i in 0..k {
                writer.push(&page(i as u8, 64)).expect("push");
            }
            assert!(matches!(
                writer.push(&[0u8; PAGE_PAYLOAD + 1]),
                Err(StoreError::Oversize)
            ));
            assert!(writer.push(&page(1, 64)).is_err(), "k = {k}: poisoned");
            assert_refused(&path, &format!("k = {k}, abandoned"));
            assert!(writer.finish().is_err(), "k = {k}: finish after a failure");
            assert_refused(&path, &format!("k = {k}, finished"));
        }
    }

    /// A writer dropped before `finish` writes no header, whatever it
    /// had flushed.
    #[test]
    fn a_writer_dropped_before_finish_leaves_a_file_open_refuses() {
        for k in [
            0,
            3,
            WRITE_BUFFER / PAGE_SIZE,
            3 * WRITE_BUFFER / PAGE_SIZE + 1,
        ] {
            let path = tmp(&format!("dropped-{k}.pages"));
            let mut writer = PageWriter::create(&path).expect("create");
            for i in 0..k {
                writer.push(&page(i as u8, PAGE_PAYLOAD)).expect("push");
            }
            drop(writer);
            assert_refused(&path, &format!("k = {k}"));
        }
    }

    #[test]
    fn oversize_payload_is_rejected() {
        let path = tmp("oversize.pages");
        assert!(matches!(
            PageFile::create(&path, &[vec![0u8; PAGE_PAYLOAD + 1]]),
            Err(StoreError::Oversize)
        ));
    }
}
