//! # mar-store — file-backed page store and unified page cache
//!
//! The paper's §VI "node access" counter models disk pages; this crate
//! makes them real. It provides the out-of-core substrate the server's
//! wavelet index and coefficient blocks are paged through:
//!
//! * [`PageFile`] — a fixed-size page file (4 KB pages, `u32` page ids,
//!   deterministic little-endian layout). The file header and every page
//!   carry a checksum ([`page_checksum`]), so torn writes and bit rot surface as a
//!   typed [`StoreError`] instead of silently corrupt query answers.
//!   [`PageWriter`] writes one, a page at a time, in bounded memory.
//! * [`RecencyIndex`] — the deterministic recency structure the client
//!   caches share (`mar_buffer::LruCache`, `mar_buffer::BlockCache`): a
//!   monotone logical clock plus a `BTreeMap` from unique recency stamps
//!   to keys, so "least recently used" is a total order and a pure
//!   function of the operation sequence.
//! * [`ScratchPath`] — a page-file path in a directory under the system
//!   temp dir that removes itself, and every file in it, when dropped.
//! * [`PageCache`] — the server-side buffer pool: a hard byte budget over
//!   [`PageFile`] reads with two eviction policies — [`CachePolicy::Lru`],
//!   which serves, and [`CachePolicy::MotionAware`], which ranks pages by
//!   an externally supplied *heat* (the Eq. 2 k-direction allocation
//!   aggregated over connected sessions, see `mar_buffer::MotionHeat`)
//!   and admits/evicts coldest-first.
//!
//! Everything is deterministic: ordered maps and an intrusive recency
//! list, no wall clocks, no hashing — two runs replaying the same read
//! sequence produce identical hit/miss/eviction traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod page;
mod recency;
mod scratch;

pub use cache::{
    CachePolicy, HitPath, Lookup, PageCache, PageCacheStats, TraceEvent, VictimPlan,
    HIT_SHARD_CAPACITY,
};
pub use page::{page_checksum, PageFile, PageWriter, StoreError, PAGE_PAYLOAD, PAGE_SIZE};
pub use recency::RecencyIndex;
pub use scratch::ScratchPath;
