//! The pinned public API: every item of `crates/*` the benchmark calls is
//! named here and nowhere else, so a refactor of the repository knows
//! exactly which signatures this benchmark holds still. Other modules
//! import from `crate::adapter` only.

pub use mar_core::store::write_store;
pub use mar_core::{
    CachePolicy, FramePlanner, LinearSpeedMap, PageCacheStats, QueryRegion, QueryResult,
    SceneIndexData, Server, ServerCore, SmoothedSpeed, SpeedResolutionMap, WaveletIndex,
};
pub use mar_geom::{Point2, Rect2};
pub use mar_mesh::ResolutionBand;
pub use mar_served::codec::{decode, encode, Frame};
pub use mar_served::{
    spawn_daemon, DaemonConfig, DaemonHandle, DaemonStats, QueryReply, WireClient,
};
pub use mar_store::{PageCache, PageFile, PAGE_SIZE};
pub use mar_workload::{
    frame_at, pedestrian_tour, tram_tour, Scene, SceneConfig, Tour, TourConfig,
};

// The methods called on those types, for the same reason:
//
// Scene::generate                SceneConfig::paper          TourConfig::new
// SceneIndexData::build          ServerCore::from_parts      Server::from_core_seeded
// Server::{connect, query, disconnect, index}
// WaveletIndex::{build_jobs, open_paged, for_each_batch, io_snapshot,
//                cache_stats, validate, node_count}
// FramePlanner::{new, plan, commit}   SmoothedSpeed::{default, update}
// LinearSpeedMap::band_for            ResolutionBand::FULL
// WireClient::{connect, send_query, recv_result, bye}
// DaemonHandle::{addr, join}          DaemonConfig { outbox_cap, max_conns }
// PageFile::{open, page_count, read_page_vec}   PageCache::{new, read}   PAGE_SIZE
