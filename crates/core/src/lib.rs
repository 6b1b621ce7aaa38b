//! # mar-core — motion-aware continuous retrieval of 3D objects
//!
//! The paper's system, assembled from the workspace substrates:
//!
//! * [`coeff`] — scene-wide coefficient records: every wavelet coefficient
//!   of every object, with its support-region MBR, magnitude and wire size.
//! * [`speedmap`] — `MapSpeedToResolution` (Algorithm 1 line 1.3): the
//!   paper's linear map from client speed to the resolution band to
//!   retrieve.
//! * [`index`] — the **efficient wavelet index** of §VI-B: a 3-D
//!   (`x-y-w`) R*-tree over support-region MBRs, answering
//!   `Q(R, w_max, w_min)` in a single pass.
//! * [`naive_index`] — the §VI straw man: a point R-tree over coefficient
//!   positions that must compute the neighbours' bounding region and
//!   re-query the extension.
//! * [`store`] / [`paged`] — the out-of-core backend: the index's node
//!   pages and coefficient records serialized into one checksummed page
//!   file, read back through `mar-store`'s buffer pool with
//!   byte-identical query answers (DESIGN.md §15).
//! * [`fleet`] — the third index backend: the scene partitioned over a
//!   grid of shard indexes, a stateless scatter-gather router, and shard
//!   failover (replica promotion / degraded neighbour service) under a
//!   health bitmask (DESIGN.md §10, "The fleet backend").
//! * [`session`] — the one session layer: per-client sent-filters that
//!   drop already-transmitted data (§IV's server-side filter), resume
//!   tokens, and the striped table the server holds.
//! * [`server`] — the data server: scene + index (RAM, paged or fleet)
//!   behind that table.
//! * [`retrieval`] — Algorithm 1, the incremental motion-aware client
//!   (Figs. 8–9).
//! * [`resilient`] — Algorithm 1 hardened for a faulty link: retry with
//!   capped backoff, session resumption, graceful resolution degradation
//!   (DESIGN.md §11).
//! * [`system`] — §V's buffered client, written once: the full
//!   motion-aware stack under either prefetcher (hit rate / utilization,
//!   Figs. 10–11) vs. the naive full-resolution + LRU + object-R*-tree
//!   baseline (response time, Figs. 14–15).
//! * [`metrics`] — the measured quantities every experiment reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coeff;
pub mod fleet;
pub mod index;
pub mod metrics;
pub mod naive_index;
pub mod paged;
pub mod resilient;
pub mod retrieval;
pub mod server;
pub mod session;
pub mod speedmap;
pub mod store;
pub mod system;

pub use coeff::{CoeffRecord, CoeffRef, SceneIndexData};
pub use fleet::{
    Fleet, FleetConfig, FleetError, FleetHealth, RoutePlan, Router, ShardMap, ShardRole, ShardTask,
};
pub use index::WaveletIndex;
pub use mar_rtree::{BatchAccesses, IoSnapshot};
pub use mar_store::{
    page_checksum, CachePolicy, PageCache, PageCacheStats, PageFile, ScratchPath, StoreError,
    VictimPlan, PAGE_SIZE,
};
pub use metrics::{RetrievalMetrics, SystemMetrics};
pub use naive_index::NaivePointIndex;
pub use paged::PagedIndex;
pub use resilient::{ProtocolError, ResilienceMetrics, ResilientClient, ResilientTick};
pub use retrieval::{FramePlanner, IncrementalClient};
pub use server::{QueryRegion, QueryResult, Residence, Server, ServerCore, POOL_POLICY};
pub use session::{Delivery, ResumeInfo, SentFilter, SessionError, Sessions, SESSION_STRIPES};
pub use speedmap::{LinearSpeedMap, SmoothedSpeed, SpeedResolutionMap};
pub use store::{open_store, write_store, write_store_with, StoreMeta, StoredRecord};
