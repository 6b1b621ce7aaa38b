//! Deterministic fault injection for the wireless link.
//!
//! The paper's client lives on a high-latency, low-bandwidth wireless hop
//! (§I, Eq. 1) — a link on which loss, jitter, and disconnection are the
//! common case, not the exception. This module makes those failures
//! *first-class and reproducible*: a [`FaultPlan`] derives every fault
//! decision from a pure hash of `(seed, stream, request index)`, so the
//! same seed yields a byte-identical fault schedule on any machine, any
//! thread count, any replay — wall-clock time and `RandomState` never
//! enter the picture (DESIGN.md §5 determinism invariants).
//!
//! # Fault taxonomy (DESIGN.md §11)
//!
//! * **Request loss** — the request vanishes before the server sees it;
//!   the client waits out a 2 s timeout and may retry. Because the loss is
//!   modelled *before* server processing, a retry is exactly-once safe:
//!   the server-side sent-filter is never updated for a lost request.
//! * **Latency jitter** (hostile profile) — a uniform extra delay in
//!   `[0, 150 ms)` added to a successful request's round trip.
//! * **Bandwidth dip** (hostile profile) — with probability 10 % the
//!   request's effective bandwidth drops to 40 % (a fade / handover
//!   moment).
//! * **Session drop** — every `drop_every`-th request the transport
//!   session dies before the request is sent; the client must reconnect
//!   (and should [`resume`](../../mar_core/struct.Server.html) to keep its
//!   server-side filter).

use crate::link::{LinkConfig, LinkConfigError};
use std::fmt;

/// How long a client waits before classifying a request as lost.
const TIMEOUT_S: f64 = 2.0;
/// The hostile profile's jitter ceiling: each successful request draws a
/// uniform extra round-trip latency in `[0, HOSTILE_JITTER_S)`.
const HOSTILE_JITTER_S: f64 = 0.15;
/// The hostile profile's per-request probability of a bandwidth dip.
const HOSTILE_DIP_PROB: f64 = 0.1;
/// The hostile profile's effective-bandwidth multiplier during a dip.
const HOSTILE_DIP_FACTOR: f64 = 0.4;

/// Why a [`FaultConfig`] was rejected at construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultConfigError {
    /// `loss_prob` outside `[0, 1)` or non-finite. A loss probability of
    /// exactly 1 would livelock every retry loop, so it is rejected.
    InvalidLossProb(f64),
    /// `drop_every` of 1 drops the session before every request after the
    /// first, which livelocks every client just as a loss of 1 would.
    InvalidDropEvery(u64),
}

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidLossProb(v) => write!(f, "loss_prob must be in [0, 1), got {v}"),
            Self::InvalidDropEvery(v) => write!(f, "drop_every must be 0 or >= 2, got {v}"),
        }
    }
}

impl std::error::Error for FaultConfigError {}

/// The typed failure a faulty link can report for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkError {
    /// The request was lost before reaching the server. `waited_s` is the
    /// time the client spent discovering that (the request timeout).
    Lost {
        /// Simulated seconds the client waited before classifying the
        /// request as timed out.
        waited_s: f64,
    },
    /// The transport session dropped; the client must reconnect before it
    /// can issue further requests.
    SessionDropped,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Lost { waited_s } => write!(f, "request lost (timed out after {waited_s} s)"),
            Self::SessionDropped => write!(f, "transport session dropped"),
        }
    }
}

impl std::error::Error for LinkError {}

/// Fault-injection parameters, layered on top of a [`LinkConfig`]: one of
/// two profiles, plus the seed, loss rate and drop period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Per-request probability the request is lost, in `[0, 1)`.
    pub loss_prob: f64,
    /// Every `drop_every`-th request (index `k·drop_every`, `k ≥ 1`) the
    /// session drops before the request is sent. `0` disables drops.
    pub drop_every: u64,
    /// Whether successful requests see the hostile profile's jitter and
    /// bandwidth dips.
    hostile: bool,
}

impl FaultConfig {
    /// A fault-free plan: the identity wrapper over the perfect link.
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            loss_prob: 0.0,
            drop_every: 0,
            hostile: false,
        }
    }

    /// A hostile-but-livable profile: `loss` request loss, 150 ms max
    /// jitter, 10 % dips to 40 % bandwidth, a session drop every
    /// `drop_every` requests.
    pub fn hostile(seed: u64, loss: f64, drop_every: u64) -> Self {
        Self {
            seed,
            loss_prob: loss,
            drop_every,
            hostile: true,
        }
    }

    /// Checks the parameters, returning the first violated constraint.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        if !(self.loss_prob.is_finite() && (0.0..1.0).contains(&self.loss_prob)) {
            return Err(FaultConfigError::InvalidLossProb(self.loss_prob));
        }
        if self.drop_every == 1 {
            return Err(FaultConfigError::InvalidDropEvery(self.drop_every));
        }
        Ok(())
    }
}

/// What the fault stream decided for one `(stream, request index)` slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDecision {
    /// The session drops before this request is sent.
    pub dropped: bool,
    /// The request is lost in transit (never reaches the server).
    pub lost: bool,
    /// Extra round-trip latency for a successful request, in seconds.
    pub jitter_s: f64,
    /// Effective-bandwidth multiplier for a successful request, `(0, 1]`.
    pub bandwidth_factor: f64,
}

impl FaultDecision {
    /// A decision that delivers the request perfectly.
    pub fn clean() -> Self {
        Self {
            dropped: false,
            lost: false,
            jitter_s: 0.0,
            bandwidth_factor: 1.0,
        }
    }
}

/// `splitmix64` — the finalizing mix used to derive every fault decision.
/// Pure, order-independent, and identical on every platform. Public so
/// other deterministic schedules (retry jitter, shard outages) can key off
/// the same discipline instead of growing their own PRNG.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from 53 high bits of a [`splitmix64`] output.
pub fn u01(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A deterministic fault schedule: a pure function from
/// `(seed, stream, request index)` to a [`FaultDecision`]. Two plans with
/// the same [`FaultConfig`] produce byte-identical schedules, regardless
/// of how many threads consult them or in what order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Builds a plan after validating the configuration.
    pub fn new(cfg: FaultConfig) -> Result<Self, FaultConfigError> {
        cfg.validate()?;
        Ok(Self { cfg })
    }

    /// One uniform draw for `(stream, index, salt)`.
    fn draw(&self, stream: u64, index: u64, salt: u64) -> f64 {
        let mut h = self.cfg.seed;
        h = splitmix64(h ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h = splitmix64(h ^ index.wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
        u01(splitmix64(h ^ salt))
    }

    /// The fate of request `index` on fault stream `stream`.
    ///
    /// Streams are an arbitrary caller-chosen partition of the schedule —
    /// one per client, typically — so concurrent clients draw from
    /// independent substreams without sharing any mutable state.
    pub fn decide(&self, stream: u64, index: u64) -> FaultDecision {
        let dropped =
            self.cfg.drop_every > 0 && index > 0 && index.is_multiple_of(self.cfg.drop_every);
        let lost = self.cfg.loss_prob > 0.0 && self.draw(stream, index, 1) < self.cfg.loss_prob;
        let (jitter_s, bandwidth_factor) = if self.cfg.hostile {
            let dipped = self.draw(stream, index, 3) < HOSTILE_DIP_PROB;
            (
                self.draw(stream, index, 2) * HOSTILE_JITTER_S,
                if dipped { HOSTILE_DIP_FACTOR } else { 1.0 },
            )
        } else {
            (0.0, 1.0)
        };
        FaultDecision {
            dropped,
            lost,
            jitter_s,
            bandwidth_factor,
        }
    }
}

/// Why a [`ShardOutagePlan`] was rejected at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutageError {
    /// `outage_ticks` must be strictly shorter than `period`, so every
    /// event window ends with the victim back up (recovery is part of the
    /// schedule, not an afterthought).
    OutageOutlivesPeriod {
        /// The offending outage length.
        outage_ticks: u64,
        /// The event period it must fit strictly inside.
        period: u64,
    },
}

impl fmt::Display for ShardOutageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OutageOutlivesPeriod {
                outage_ticks,
                period,
            } => write!(
                f,
                "outage_ticks ({outage_ticks}) must be < period ({period}) so shards recover"
            ),
        }
    }
}

impl std::error::Error for ShardOutageError {}

/// A deterministic whole-shard outage schedule: the fleet-level analogue
/// of [`FaultPlan`]'s per-request drops. Time is divided into events of
/// `period` ticks; in every event after the first, one victim shard —
/// chosen by a pure [`splitmix64`] hash of `(seed, event)` — is down for
/// the event's first `outage_ticks` ticks and back up for the rest, so
/// recovery (re-admission) is exercised inside every event window.
///
/// The schedule is a pure function of `(seed, tick)`: no mutable state,
/// no wall clock, identical on every thread count — a router can evaluate
/// it as a value per tick and stay stateless (DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOutagePlan {
    seed: u64,
    period: u64,
    outage_ticks: u64,
}

impl ShardOutagePlan {
    /// Builds a plan: every `period` ticks, one shard is down for the
    /// first `outage_ticks` ticks of the window. `period == 0` disables
    /// outages entirely (the fault-free reference plan).
    pub fn new(seed: u64, period: u64, outage_ticks: u64) -> Result<Self, ShardOutageError> {
        if period > 0 && outage_ticks >= period {
            return Err(ShardOutageError::OutageOutlivesPeriod {
                outage_ticks,
                period,
            });
        }
        Ok(Self {
            seed,
            period,
            outage_ticks,
        })
    }

    /// True when this plan never takes a shard down.
    fn is_none(&self) -> bool {
        self.period == 0 || self.outage_ticks == 0
    }

    /// The victim shard of event `event` (pure hash; the same event always
    /// kills the same shard on every machine and thread count).
    fn victim(&self, event: u64, nshards: u32) -> u32 {
        let h = splitmix64(self.seed ^ event.wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
        (h % u64::from(nshards.max(1))) as u32
    }

    /// The down-shard bitmask at `tick`: bit `s` set iff shard `s` is
    /// down. `nshards` must be ≤ 64 (the fleet enforces this bound).
    /// Event 0 (the first `period` ticks) is always outage-free, so every
    /// run starts from a healthy fleet — the warm-up the availability
    /// accounting baselines against.
    pub fn down_mask(&self, tick: u64, nshards: u32) -> u64 {
        debug_assert!(nshards <= 64, "down_mask is a 64-bit health word");
        if self.is_none() || nshards == 0 {
            return 0;
        }
        let event = tick / self.period;
        if event > 0 && tick % self.period < self.outage_ticks {
            1u64 << self.victim(event, nshards)
        } else {
            0
        }
    }
}

/// Permission to transmit one request: the fault stream's timing terms for
/// a request that will *not* be lost or dropped. The payload size is only
/// known after the server answers, so the grant is taken first and priced
/// afterwards via [`Grant::transfer_time`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grant {
    /// Extra round-trip latency, seconds.
    pub jitter_s: f64,
    /// Effective-bandwidth multiplier, `(0, 1]`.
    pub bandwidth_factor: f64,
}

impl Grant {
    /// Time for the granted request to transfer `bytes` at normalised
    /// `speed`: the fault-free [`LinkConfig::request_time`] plus jitter,
    /// with the payload term stretched by the dip factor.
    pub fn transfer_time(&self, cfg: &LinkConfig, bytes: f64, speed: f64) -> f64 {
        cfg.latency_s
            + cfg.connection_s
            + self.jitter_s
            + bytes * 8.0 / (cfg.effective_bandwidth(speed) * self.bandwidth_factor)
    }
}

/// A simulated wireless channel that injects the faults a [`FaultPlan`]
/// schedules for its stream. One `FaultyLink` is one client's transport:
/// it owns a monotone request counter (each attempt — successful or not —
/// consumes one schedule slot, so retries draw fresh fates).
#[derive(Debug, Clone)]
pub struct FaultyLink {
    config: LinkConfig,
    plan: FaultPlan,
    stream: u64,
    next_index: u64,
}

impl FaultyLink {
    /// Creates the faulty channel for `stream`, validating both configs.
    pub fn new(config: LinkConfig, plan: FaultPlan, stream: u64) -> Result<Self, LinkConfigError> {
        config.validate()?;
        Ok(Self {
            config,
            plan,
            stream,
            next_index: 0,
        })
    }

    /// The underlying (fault-free) link parameters.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// The fault-stream key this channel draws from — the value retry
    /// jitter must be seeded with so two clients' backoff sequences are
    /// decorrelated but each is byte-identical across runs.
    pub fn stream(&self) -> u64 {
        self.stream
    }

    /// Attempts to open the next request slot. On success the returned
    /// [`Grant`] carries the slot's timing terms; the caller executes the
    /// request and charges [`Grant::transfer_time`]. On failure the
    /// request never reached the server: the caller pays the reported
    /// wait and retries (a fresh slot) or reconnects.
    pub fn begin(&mut self) -> Result<Grant, LinkError> {
        let d = self.plan.decide(self.stream, self.next_index);
        self.next_index += 1;
        if d.dropped {
            return Err(LinkError::SessionDropped);
        }
        if d.lost {
            return Err(LinkError::Lost {
                waited_s: TIMEOUT_S,
            });
        }
        Ok(Grant {
            jitter_s: d.jitter_s,
            bandwidth_factor: d.bandwidth_factor,
        })
    }

    /// The cost of re-establishing the transport after a drop: one
    /// round-trip latency plus the connection charge (Eq. 1's `C_c`).
    pub fn reconnect_time(&self) -> f64 {
        self.config.latency_s + self.config.connection_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(loss: f64, drop_every: u64) -> FaultPlan {
        FaultPlan::new(FaultConfig::hostile(42, loss, drop_every)).unwrap()
    }

    /// The first 200 decisions of `stream`.
    fn schedule(p: &FaultPlan, stream: u64) -> Vec<FaultDecision> {
        (0..200).map(|i| p.decide(stream, i)).collect()
    }

    #[test]
    fn identical_configs_yield_byte_identical_schedules() {
        let a = plan(0.2, 7);
        let b = plan(0.2, 7);
        for stream in [0u64, 1, 99] {
            assert_eq!(schedule(&a, stream), schedule(&b, stream));
        }
        // A different seed changes the schedule.
        let c = FaultPlan::new(FaultConfig::hostile(43, 0.2, 7)).unwrap();
        assert_ne!(schedule(&a, 0), schedule(&c, 0));
        // Different streams of one plan are independent substreams.
        assert_ne!(schedule(&a, 0), schedule(&a, 1));
    }

    #[test]
    fn decide_is_order_independent() {
        let p = plan(0.2, 5);
        let forward: Vec<FaultDecision> = (0..50).map(|i| p.decide(3, i)).collect();
        let backward: Vec<FaultDecision> = (0..50).rev().map(|i| p.decide(3, i)).collect();
        assert_eq!(
            forward,
            backward.into_iter().rev().collect::<Vec<_>>(),
            "a decision must depend only on its index, never on query order"
        );
    }

    #[test]
    fn drops_land_exactly_on_schedule() {
        let p = plan(0.0, 5);
        for i in 0..40u64 {
            let d = p.decide(0, i);
            assert_eq!(d.dropped, i > 0 && i % 5 == 0, "index {i}");
            assert!(!d.lost, "loss_prob 0 must never lose");
        }
        // drop_every = 0 disables drops entirely.
        let p0 = plan(0.0, 0);
        assert!((0..200).all(|i| !p0.decide(0, i).dropped));
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let p = plan(0.2, 0);
        let n = 4000;
        let lost = (0..n).filter(|&i| p.decide(0, i).lost).count();
        let rate = lost as f64 / n as f64;
        assert!(
            (rate - 0.2).abs() < 0.03,
            "empirical loss rate {rate} far from 0.2"
        );
    }

    #[test]
    fn fault_free_plan_is_the_identity_channel() {
        let p = FaultPlan::new(FaultConfig::none(7)).unwrap();
        let clean = LinkConfig::paper();
        let mut link = FaultyLink::new(clean, p, 0).unwrap();
        for i in 0..20 {
            let bytes = 1000.0 * i as f64;
            let grant = link.begin().expect("fault-free");
            assert!(
                (grant.transfer_time(&clean, bytes, 0.3) - clean.request_time(bytes, 0.3)).abs()
                    < 1e-12,
                "fault-free transfer must cost exactly the clean link time"
            );
        }
    }

    #[test]
    fn faulty_link_reports_typed_errors() {
        let p = plan(0.3, 4);
        let mut link = FaultyLink::new(LinkConfig::paper(), p, 5).unwrap();
        let (mut lost, mut drops, mut completed) = (0, 0, 0);
        // Each attempt is the plan's decision for the next slot, in order.
        for d in schedule(&p, 5) {
            match link.begin() {
                Ok(grant) => {
                    assert!(!d.dropped && !d.lost);
                    assert_eq!(
                        (grant.jitter_s, grant.bandwidth_factor),
                        (d.jitter_s, d.bandwidth_factor)
                    );
                    let t = grant.transfer_time(link.config(), 512.0, 0.5);
                    assert!(t.is_finite() && t > 0.0);
                    completed += 1;
                }
                Err(LinkError::Lost { waited_s }) => {
                    assert!(!d.dropped && d.lost);
                    assert_eq!(waited_s, 2.0);
                    lost += 1;
                }
                Err(LinkError::SessionDropped) => {
                    assert!(d.dropped);
                    drops += 1;
                }
            }
        }
        assert!(lost > 0 && drops > 0 && completed > 0);
    }

    #[test]
    fn dips_and_jitter_only_slow_requests_down() {
        let p = plan(0.0, 0);
        let clean = LinkConfig::paper();
        let mut link = FaultyLink::new(clean, p, 2).unwrap();
        let (mut saw_slower, mut dipped) = (false, false);
        for _ in 0..100 {
            let grant = link.begin().expect("no loss configured");
            dipped |= grant.bandwidth_factor < 1.0;
            let t = grant.transfer_time(&clean, 4096.0, 0.2);
            let ideal = clean.request_time(4096.0, 0.2);
            assert!(t >= ideal - 1e-12, "faults must never speed the link up");
            if t > ideal + 1e-9 {
                saw_slower = true;
            }
        }
        assert!(saw_slower, "jitter/dips must actually bite");
        assert!(dipped);
    }

    #[test]
    fn shard_outage_schedule_is_deterministic_and_recovers() {
        let masks = |p: &ShardOutagePlan| (0..100).map(|t| p.down_mask(t, 8)).collect::<Vec<_>>();
        let a = ShardOutagePlan::new(99, 10, 4).unwrap();
        let b = ShardOutagePlan::new(99, 10, 4).unwrap();
        assert_eq!(masks(&a), masks(&b));
        assert_ne!(
            masks(&a),
            masks(&ShardOutagePlan::new(100, 10, 4).unwrap()),
            "a different seed must pick different victims"
        );
        // Event 0 is always healthy.
        for t in 0..10 {
            assert_eq!(a.down_mask(t, 8), 0, "tick {t} must be outage-free");
        }
        // Every later event: one victim down for exactly outage_ticks,
        // then the whole fleet is back up before the window ends.
        let mut victims = std::collections::BTreeSet::new();
        for event in 1..50u64 {
            let victim = a.down_mask(event * 10, 8);
            assert_eq!(victim.count_ones(), 1, "exactly one shard down");
            victims.insert(victim);
            for off in 0..10u64 {
                let t = event * 10 + off;
                let want = if off < 4 { victim } else { 0 };
                assert_eq!(a.down_mask(t, 8), want, "tick {t}");
            }
        }
        // Victims spread over the fleet rather than pinning one shard.
        assert!(victims.len() > 3, "victim choice must vary: {victims:?}");
    }

    #[test]
    fn shard_outage_none_and_validation() {
        // No period, or zero-length outages: no shard ever goes down.
        for none in [
            ShardOutagePlan::new(7, 0, 0).unwrap(),
            ShardOutagePlan::new(7, 10, 0).unwrap(),
        ] {
            assert!((0..1000).all(|t| none.down_mask(t, 64) == 0));
        }
        assert_eq!(
            ShardOutagePlan::new(7, 10, 10),
            Err(ShardOutageError::OutageOutlivesPeriod {
                outage_ticks: 10,
                period: 10
            }),
            "an outage must end before its event window does"
        );
        assert!(ShardOutagePlan::new(7, 10, 9).is_ok());
    }

    #[test]
    fn config_validation_rejects_livelock_and_nonsense() {
        let ok = FaultConfig::hostile(1, 0.2, 10);
        assert!(ok.validate().is_ok());
        let bad = |f: fn(&mut FaultConfig)| {
            let mut c = ok;
            f(&mut c);
            c.validate()
        };
        assert_eq!(
            bad(|c| c.loss_prob = 1.0),
            Err(FaultConfigError::InvalidLossProb(1.0))
        );
        assert!(bad(|c| c.loss_prob = f64::NAN).is_err());
        // A drop before every request after the first livelocks a client
        // as surely as certain loss; no drops, or every other one, is fine.
        assert_eq!(
            FaultPlan::new(FaultConfig::hostile(0, 0.0, 1)),
            Err(FaultConfigError::InvalidDropEvery(1))
        );
        assert!(FaultPlan::new(FaultConfig::hostile(0, 0.0, 0)).is_ok());
        assert!(FaultPlan::new(FaultConfig::hostile(0, 0.0, 2)).is_ok());
        // An invalid link config is rejected at FaultyLink construction.
        let p = FaultPlan::new(ok).unwrap();
        assert!(FaultyLink::new(
            LinkConfig {
                bandwidth_bps: -5.0,
                ..LinkConfig::paper()
            },
            p,
            0
        )
        .is_err());
    }
}
