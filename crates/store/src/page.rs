//! The fixed-size page file: deterministic little-endian layout with a
//! checksummed header and per-page trailer checksums.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset 0                : header block (PAGE_SIZE bytes)
//!   [0..8)   magic  "MARSTOR1"
//!   [8..12)  format version (u32, currently 1)
//!   [12..16) page size (u32, PAGE_SIZE)
//!   [16..20) page count (u32)
//!   [20..28) FNV-1a 64 checksum of bytes [0..20)
//!   rest zero
//! offset PAGE_SIZE*(1+id) : page `id`
//!   [0..PAGE_PAYLOAD)          payload
//!   [PAGE_PAYLOAD..PAGE_SIZE)  FNV-1a 64 checksum of the payload
//! ```
//!
//! Pages are written once at build time and read-only afterwards; there
//! is no free list or in-place update path, which keeps the format (and
//! its failure modes) trivial.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// Size of one page on disk, matching the paper's §VII-D page geometry
/// (4 KB pages, node capacity 20).
pub const PAGE_SIZE: usize = 4096;

/// Usable payload bytes per page (the trailing 8 bytes hold the page
/// checksum).
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - 8;

const MAGIC: &[u8; 8] = b"MARSTOR1";
const VERSION: u32 = 1;

/// FNV-1a 64-bit over a byte slice — the same hash discipline the serve
/// transcript fingerprints use, applied to page payloads.
pub fn fnv1a64_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    /// are zero-padded. Overwrites any existing file at `path`.
    pub fn create(path: &Path, pages: &[Vec<u8>]) -> Result<(), StoreError> {
        if pages.len() > u32::MAX as usize || pages.iter().any(|p| p.len() > PAGE_PAYLOAD) {
            return Err(StoreError::Oversize);
        }
        let mut header = [0u8; PAGE_SIZE];
        header[..8].copy_from_slice(MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        header[16..20].copy_from_slice(&(pages.len() as u32).to_le_bytes());
        let sum = fnv1a64_bytes(&header[..20]);
        header[20..28].copy_from_slice(&sum.to_le_bytes());
        let mut file = File::create(path)?;
        file.write_all(&header)?;
        let mut block = [0u8; PAGE_SIZE];
        for payload in pages {
            block[..PAGE_PAYLOAD].fill(0);
            block[..payload.len()].copy_from_slice(payload);
            let sum = fnv1a64_bytes(&block[..PAGE_PAYLOAD]);
            block[PAGE_PAYLOAD..].copy_from_slice(&sum.to_le_bytes());
            file.write_all(&block)?;
        }
        file.sync_all()?;
        Ok(())
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
        if sum != fnv1a64_bytes(&header[..20]) {
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
        if trailer != fnv1a64_bytes(payload).to_le_bytes() {
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
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mar-store-tests");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir.join(name)
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

    #[test]
    fn oversize_payload_is_rejected() {
        let path = tmp("oversize.pages");
        assert!(matches!(
            PageFile::create(&path, &[vec![0u8; PAGE_PAYLOAD + 1]]),
            Err(StoreError::Oversize)
        ));
    }
}
