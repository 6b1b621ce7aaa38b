//! # mar-link — the simulated wireless link and its cost model
//!
//! The paper's bottleneck is the wireless hop between client and server:
//! 256 Kbps of bandwidth and 200 ms of latency in the experiments (§VII-A),
//! with the additional twist — motivating the whole motion-aware design —
//! that "the usable bandwidth of a connection … drops to a fraction of the
//! bandwidth that is available for clients at rest" when the client moves
//! (§I, citing Ofcom \[2\]).
//!
//! This crate models exactly that: a deterministic [`LinkConfig`] whose
//! [`LinkConfig::request_time`] is `latency + connection setup + bytes /
//! effective bandwidth`, with effective bandwidth degraded linearly in the
//! client's normalised speed; a [`SimClock`] (the only notion of time
//! anywhere in the simulation); and the buffer-management transfer cost
//! model of §V-A Eq. (1), `C = Σⱼ (C_c + C_t·B·N(j))`.
//!
//! On top of the perfect channel sits the [`fault`] module: a seeded
//! [`FaultPlan`] that injects per-request packet loss and scheduled
//! session drops from a deterministic `(seed, stream, request-index)`
//! hash — same seed, byte-identical fault schedule — and the
//! [`FaultyLink`] channel that applies it. A lost request costs a fixed
//! 2 s timeout. A [`FaultConfig`] picks one of two profiles: `none`, or
//! `hostile`, which adds up to 150 ms of jitter and, on 10 % of requests,
//! a dip to 40 % bandwidth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod cost;
pub mod fault;
pub mod link;

pub use clock::SimClock;
pub use cost::TransferCostModel;
pub use fault::{
    splitmix64, u01, FaultConfig, FaultConfigError, FaultDecision, FaultPlan, FaultyLink, Grant,
    LinkError, ShardOutageError, ShardOutagePlan,
};
pub use link::{LinkConfig, LinkConfigError};
