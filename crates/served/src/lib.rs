//! # mar-served — the retrieval server on a real wire
//!
//! Everything below `crates/core` treats the client/server boundary as a
//! function call. This crate puts the paper's §III serving setting on an
//! actual TCP socket (DESIGN.md §12):
//!
//! * [`codec`] — the compact little-endian, length-prefixed binary frame
//!   grammar (HELLO/QUERY/RESULT/RESUME/ACK/OVERLOAD/…) and a decoder
//!   that maps every malformed input to a typed error, never a panic;
//!   `encode_into` + [`codec::FrameReader`] frame without allocating, so
//!   both connection ends can batch a burst into one socket call.
//! * [`daemon`] — `mar-served`: a std-only thread-per-connection TCP
//!   daemon over the lock-free shared [`mar_core::Server`], with
//!   credit-based per-session backpressure (a saturated outbox returns a
//!   typed `OVERLOAD` frame instead of queueing unboundedly), replies
//!   written once per burst just before the read that can block, and
//!   session resumption via the unguessable resume tokens of
//!   [`mar_core::Sessions::session_token`].
//! * [`client`] — `mar-load`: a wire client replaying the exact
//!   `mar-bench serve` workload tours against a live daemon. Its loopback
//!   transcript is byte-identical to the in-process harness for the same
//!   seed, so wire-layer correctness reduces to a fingerprint comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod daemon;

pub use client::{run_wire_replay, ClientError, QueryReply, ReplayReport, WireClient, WireResult};
pub use codec::{
    decode, encode, encode_into, encode_query_into, read_frame, read_frame_len, DecodeError,
    ErrCode, Frame, FrameReader, WireError, MAX_PAYLOAD, PROTOCOL_VERSION,
};
pub use daemon::{spawn_daemon, DaemonConfig, DaemonHandle, DaemonStats, DEFAULT_OUTBOX_CAP};
