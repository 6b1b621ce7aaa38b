//! # mar-buffer — motion-aware buffer management (§V)
//!
//! The client holds a limited buffer of grid *blocks*. Latency is paid on
//! every cache miss (Eq. 1), so the buffer manager's job is to pre-fetch
//! the blocks the client is most likely to visit — maximising the *average
//! residence time* inside the buffered region — while not wasting the
//! wireless link on blocks that will never be used (the *data utilization*
//! metric of Fig. 10(b)).
//!
//! Components, mapping one-to-one onto the paper:
//! * [`residence`] — the 1-D pre-fetching model of de Nitto Personè et al.
//!   \[15\]: gambler's-ruin expected residence time and the closed-form
//!   optimal split point `n_opt` (Eq. 2).
//! * [`alloc`] — the recursive extension of Eq. 2 to `k` directions
//!   (§V-A): probabilities are halved group-wise, Eq. 2 splits the buffer
//!   between the halves, and the recursion bottoms out at single
//!   directions. The optional ordering search (the paper's `k!` step,
//!   which it found unnecessary) is provided for the ablation bench.
//! * [`block`] — the block cache with hit/miss/utilization accounting.
//! * [`prefetch`] — the motion-aware prefetcher: Kalman/RLS block
//!   probabilities → direction probabilities → per-direction allocation →
//!   concrete block pick; plus the paper's naive equal-probability
//!   baseline.
//! * [`lru`] — the plain LRU cache used by the end-to-end naive system of
//!   §VII-E.
//! * [`multires`] — the speed-scaled resolution policy: "a client moving
//!   at higher speeds buffers more objects with lower resolutions".
//! * [`heat`] — Eq. 2 promoted to the server: per-session direction
//!   allocations aggregated into a scalar page *heat* that the
//!   out-of-core `PageCache` (mar-store) ranks eviction by.
//!
//! The recency bookkeeping of both caches here shares one structure,
//! `mar_store::RecencyIndex`, re-exported below.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod block;
pub mod heat;
pub mod lru;
pub mod multires;
pub mod prefetch;
pub mod residence;

pub use alloc::{allocate_directions, allocate_directions_into, best_ordering_allocation};
pub use block::{BlockCache, CacheStats};
pub use heat::{MotionHeat, MotionStep, SlotHeats};
pub use lru::LruCache;
pub use mar_store::RecencyIndex;
pub use multires::MultiresPolicy;
pub use prefetch::{
    AllocationStrategy, MotionAwarePrefetcher, NaivePrefetcher, PrefetchContext, Prefetcher,
};
pub use residence::{expected_residence, n_opt, optimal_split};
