//! The load generator: session scripts, the closed-loop drivers (in-process
//! and over TCP), the traced request, and the correctness gate.
//!
//! All loops are closed: Algorithm 1 plans frame `t+1` as a difference
//! against frame `t`, so a client has nothing to send until its reply is
//! in. The program under test receives only inputs generated from `--seed`.

use crate::adapter::*;
use crate::stats::{fnv64, mix64, Histogram, FNV_OFFSET};
use crate::trace::{Name, Tracer, NO_PARENT};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::Instant;

/// Workload names are fixed: later issues cite them.
pub const WORKLOADS: [&str; 4] = ["ram_tour", "paged_tour", "wire_tour", "ram_cold"];

/// Session ordinal `n` tours at `TOUR_SPEEDS[n % 5]`.
const TOUR_SPEEDS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];
/// The first ordinals' transcripts are fingerprinted and must equal the
/// in-RAM reference on every backend (the RAM ≡ paged ≡ wire invariant).
pub const GATE_ORDINALS: usize = 8;
/// Ordinals of unmeasured warm-up sessions, disjoint from measured ones.
pub const WARM_ORDINAL: u64 = 1 << 40;

/// What a session does each tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Script {
    /// Follows a tram or pedestrian tour; Algorithm 1 plans sliver
    /// windows at the band `LinearSpeedMap` gives the smoothed speed.
    Tour,
    /// Hops to seed-derived uniform positions and fetches the whole frame
    /// at full resolution every time.
    Hops,
}

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub objects: usize,
    pub script: Script,
    pub paged: bool,
    pub wire: bool,
    /// Concurrently live sessions; slot `s` of generation `g` is session
    /// ordinal `g * slots + s`.
    pub slots: usize,
    /// Ticks a session lives before it disconnects and its slot reconnects
    /// under the next ordinal.
    pub ticks: usize,
    /// Ticks of each gate ordinal that enter the fingerprint.
    pub check_ticks: usize,
    /// Unmeasured warm-up: ticks per driver thread in-process, one session
    /// per connection on the wire.
    pub warm_ticks: u64,
    pub frame_frac: f64,
    /// Driver threads (in-process) or TCP connections (wire); at most
    /// `nproc` = 2 on the reference box.
    pub threads: usize,
    /// QUERYs kept in flight per connection.
    pub depth: usize,
}

impl Config {
    pub fn new(workload: &str, seed: u64, smoke: bool) -> Option<Self> {
        let ticks = if smoke { 200 } else { 2000 };
        let tour = Self {
            seed,
            objects: if smoke { 30 } else { 300 },
            script: Script::Tour,
            paged: false,
            wire: false,
            slots: 32,
            ticks,
            check_ticks: ticks / 10,
            warm_ticks: ticks as u64 / 20,
            frame_frac: 0.05,
            threads: 1,
            depth: 1,
        };
        Some(match workload {
            "ram_tour" => tour,
            // Two threads because the pager mutex is the shared resource:
            // one thread cannot show waiting for it.
            "paged_tour" => Self {
                paged: true,
                threads: 2,
                ..tour
            },
            // Depth 8 stands in for 16 concurrently active clients under
            // the two-connection limit, and keeps the daemon threads busy:
            // at depth 1 idle vCPU wake-ups decide the number.
            "wire_tour" => Self {
                wire: true,
                slots: 2,
                threads: 2,
                depth: 8,
                ..tour
            },
            "ram_cold" => Self {
                script: Script::Hops,
                slots: 1,
                ticks: 4,
                check_ticks: 4,
                warm_ticks: ticks as u64 / 10,
                frame_frac: 0.1,
                ..tour
            },
            _ => return None,
        })
    }

    /// Whether driver `thread` runs gate ordinal `ordinal`.
    fn owns(&self, thread: usize, ordinal: usize) -> bool {
        (ordinal % self.slots) % self.threads == thread
    }
}

/// One client: the session script for ordinal `n`.
struct Client {
    ordinal: u64,
    tick: usize,
    planner: FramePlanner,
    smooth: SmoothedSpeed,
    tour: Option<Tour>,
}

impl Client {
    fn new(cfg: &Config, space: &Rect2, ordinal: u64) -> Self {
        let tour = (cfg.script == Script::Tour).then(|| {
            let tc = TourConfig::new(
                *space,
                cfg.ticks,
                cfg.seed.wrapping_add(ordinal),
                TOUR_SPEEDS[(ordinal % 5) as usize],
            );
            if ordinal.is_multiple_of(2) {
                tram_tour(&tc)
            } else {
                pedestrian_tour(&tc)
            }
        });
        Self {
            ordinal,
            tick: 0,
            planner: FramePlanner::new(),
            smooth: SmoothedSpeed::default(),
            tour,
        }
    }

    /// Plans the next tick's sub-queries. A tour commits the frame at once:
    /// in a closed loop over a live session the query cannot fail, and on
    /// the wire the next plan must not wait for the reply in flight.
    fn step(&mut self, cfg: &Config, space: &Rect2) -> Vec<QueryRegion> {
        let regions = match &self.tour {
            Some(tour) => {
                let s = tour.samples[self.tick];
                let frame = frame_at(space, &s.pos, cfg.frame_frac);
                let band = LinearSpeedMap.band_for(self.smooth.update(s.speed));
                let regions = self.planner.plan(&frame, band);
                self.planner.commit(frame, band);
                regions
            }
            None => {
                let u = mix64(cfg.seed ^ mix64(self.ordinal * 4 + self.tick as u64));
                let unit = |bits: u64| (bits >> 11) as f64 / (1u64 << 53) as f64;
                let pos = Point2::new([
                    space.lo[0] + unit(u) * space.extent(0),
                    space.lo[1] + unit(mix64(u)) * space.extent(1),
                ]);
                let frame = frame_at(space, &pos, cfg.frame_frac);
                self.planner.plan(&frame, ResolutionBand::FULL)
            }
        };
        self.tick += 1;
        regions
    }
}

/// One transcript row: what a query served, as the wire carries it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub coeffs: u64,
    pub new_objects: u64,
    pub bytes: f64,
    pub io: u64,
}

impl From<QueryResult> for Row {
    fn from(r: QueryResult) -> Self {
        Self {
            coeffs: r.coeffs as u64,
            new_objects: r.new_objects as u64,
            bytes: r.bytes,
            io: r.io,
        }
    }
}

/// FNV-1a 64 chains over the `(tick, coeffs, new_objects, bytes, io)` rows
/// of the gate ordinals: one chain per ordinal, so the fingerprint does not
/// depend on how driver threads interleave.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    chains: [u64; GATE_ORDINALS],
    rows: [usize; GATE_ORDINALS],
}

impl Default for Gate {
    fn default() -> Self {
        Self {
            chains: [FNV_OFFSET; GATE_ORDINALS],
            rows: [0; GATE_ORDINALS],
        }
    }
}

impl Gate {
    fn row(&mut self, cfg: &Config, ordinal: u64, tick: usize, row: &Row) {
        if ordinal >= GATE_ORDINALS as u64 || tick >= cfg.check_ticks {
            return;
        }
        let o = ordinal as usize;
        let mut h = fnv64(self.chains[o], &(tick as u64).to_le_bytes());
        for word in [row.coeffs, row.new_objects, row.bytes.to_bits(), row.io] {
            h = fnv64(h, &word.to_le_bytes());
        }
        self.chains[o] = h;
        self.rows[o] += 1;
    }

    /// Whether every gate ordinal `thread` drives has all its rows.
    fn complete(&self, cfg: &Config, thread: usize) -> bool {
        (0..GATE_ORDINALS).all(|o| !cfg.owns(thread, o) || self.rows[o] == cfg.check_ticks)
    }

    fn merge(&mut self, other: &Gate) {
        for o in 0..GATE_ORDINALS {
            if other.rows[o] > 0 {
                self.chains[o] = other.chains[o];
                self.rows[o] = other.rows[o];
            }
        }
    }

    /// The fingerprint, or `None` when some gate row was never produced.
    pub fn fingerprint(&self, cfg: &Config) -> Option<u64> {
        self.rows.iter().all(|&n| n == cfg.check_ticks).then(|| {
            self.chains
                .iter()
                .fold(FNV_OFFSET, |h, c| fnv64(h, &c.to_le_bytes()))
        })
    }
}

/// Counts taken at the layer boundaries of a traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    pub regions: u64,
    pub query_frame_bytes: u64,
    pub coeffs: u64,
    pub payload_bytes: f64,
    pub index_hits: u64,
    pub io_logical: u64,
    pub io_unique: u64,
    pub cache: PageCacheStats,
}

/// What one driver thread did.
#[derive(Default)]
pub struct Outcome {
    pub queries: u64,
    /// Operations that failed, were refused (`OVERLOAD`) or whose answer
    /// did not match the shadow server's.
    pub failed: u64,
    pub sessions: u64,
    pub acks: u64,
    pub wire_bytes: u64,
    pub handshake_ns: u64,
    pub latency: Histogram,
    pub gate: Gate,
    pub counts: LayerCounts,
}

impl Outcome {
    pub fn merge(&mut self, other: &Outcome) {
        self.queries += other.queries;
        self.failed += other.failed;
        self.sessions += other.sessions;
        self.acks += other.acks;
        self.wire_bytes += other.wire_bytes;
        self.handshake_ns += other.handshake_ns;
        self.latency.merge(&other.latency);
        self.gate.merge(&other.gate);
    }

    fn account(&mut self, cfg: &Config, ordinal: u64, tick: usize, row: Option<Row>) {
        self.queries += 1;
        match row {
            Some(row) => self.gate.row(cfg, ordinal, tick, &row),
            None => self.failed += 1,
        }
    }
}

/// When a driver stops: `seconds` after it started (measured runs) or after
/// a fixed number of units (warm-up and traced passes, whose counts must
/// repeat exactly). A unit is one tick of every slot a thread drives, or one
/// wire session. Measured ordinals never stop before their gate rows exist.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: Option<f64>,
    pub units: u64,
}

impl Budget {
    pub fn units(units: u64) -> Self {
        Self {
            seconds: None,
            units,
        }
    }

    fn spent(&self, start: Instant, units_done: u64) -> bool {
        units_done >= self.units
            || self
                .seconds
                .is_some_and(|s| start.elapsed().as_secs_f64() >= s)
    }
}

/// Drives the slots `thread` owns against `server`, tick-major, generation
/// after generation, calling `Server::query` — the call the daemon makes.
pub fn drive_inproc<const TRACED: bool>(
    server: &Server,
    space: &Rect2,
    cfg: &Config,
    thread: usize,
    first_ordinal: u64,
    budget: Budget,
    tracer: &mut Tracer,
) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let slots: Vec<u64> = (thread..cfg.slots)
        .step_by(cfg.threads)
        .map(|s| s as u64)
        .collect();
    let mut units = 0u64;
    for generation in 0u64.. {
        let mut live: Vec<(u64, Client)> = slots
            .iter()
            .map(|slot| {
                let ordinal = first_ordinal + generation * cfg.slots as u64 + slot;
                let t0 = tracer.now();
                let session = server.connect();
                if TRACED {
                    tracer.span(Name::Connect, t0, tracer.now(), NO_PARENT, ordinal);
                }
                (session, Client::new(cfg, space, ordinal))
            })
            .collect();
        let mut stop = false;
        for tick in 0..cfg.ticks {
            for (session, client) in &mut live {
                let row = if TRACED {
                    let request = out.queries;
                    let root = tracer.reserve();
                    let t0 = tracer.now();
                    let regions = client.step(cfg, space);
                    let t1 = tracer.now();
                    tracer.span(Name::Plan, t0, t1, root, request);
                    let (row, end) = probed_query(
                        tracer,
                        root,
                        request,
                        t1,
                        server,
                        *session,
                        regions,
                        &mut out.counts,
                    );
                    tracer.fill(root, Name::Request, t0, end, NO_PARENT, request);
                    out.latency.record(end - t0);
                    row
                } else {
                    let regions = client.step(cfg, space);
                    let t0 = Instant::now();
                    let result = server.query(*session, &regions);
                    out.latency.record(t0.elapsed().as_nanos() as u64);
                    result.ok().map(Row::from)
                };
                out.account(cfg, client.ordinal, tick, row);
            }
            units += 1;
            stop = budget.spent(start, units)
                && (first_ordinal != 0 || out.gate.complete(cfg, thread));
            if stop {
                break;
            }
        }
        for (session, client) in live {
            let t0 = tracer.now();
            if server.disconnect(session).is_err() {
                out.failed += 1;
            }
            if TRACED {
                tracer.span(
                    Name::Disconnect,
                    t0,
                    tracer.now(),
                    NO_PARENT,
                    client.ordinal,
                );
            }
            out.sessions += 1;
        }
        if stop {
            break;
        }
    }
    out
}

/// Sends one request through every in-process layer the wire path crosses —
/// codec, session filter and index, codec — with a span around each call
/// into a layer, then replays its windows through the index alone. The
/// replay is recorded as `core.index.descent`, child of the query span
/// though it runs after it: the filter's self time is query − descent.
/// Returns the row served and the time the reply was decoded.
#[allow(clippy::too_many_arguments)]
fn probed_query(
    tracer: &mut Tracer,
    parent: u32,
    request: u64,
    start: u64,
    server: &Server,
    session: u64,
    regions: Vec<QueryRegion>,
    counts: &mut LayerCounts,
) -> (Option<Row>, u64) {
    let index = server.index();
    counts.regions += regions.len() as u64;
    let Ok(query_wire) = encode(&Frame::Query { regions }) else {
        return (None, tracer.now());
    };
    let t1 = tracer.now();
    tracer.span(Name::EncodeQuery, start, t1, parent, request);
    counts.query_frame_bytes += query_wire.len() as u64;
    let Ok(Frame::Query { regions }) = decode(&query_wire[4..]) else {
        return (None, tracer.now());
    };
    let t2 = tracer.now();
    tracer.span(Name::DecodeQuery, t1, t2, parent, request);

    let io0 = index.io_snapshot();
    let cache0 = index.cache_stats().unwrap_or_default();
    let t3 = tracer.now();
    let result = server.query(session, &regions);
    let t4 = tracer.now();
    let query_span = tracer.span(Name::ServerQuery, t3, t4, parent, request);
    let io1 = index.io_snapshot();
    let cache1 = index.cache_stats().unwrap_or_default();
    counts.io_logical += io1.logical - io0.logical;
    counts.io_unique += io1.unique - io0.unique;
    counts.cache.lookups += cache1.lookups - cache0.lookups;
    counts.cache.hits += cache1.hits - cache0.hits;
    counts.cache.faults += cache1.faults - cache0.faults;
    counts.cache.evictions += cache1.evictions - cache0.evictions;
    counts.cache.bypasses += cache1.bypasses - cache0.bypasses;
    let Ok(result) = result else {
        return (None, t4);
    };
    counts.coeffs += result.coeffs as u64;
    counts.payload_bytes += result.bytes;

    let row = Row::from(result);
    let t5 = tracer.now();
    let Ok(result_wire) = encode(&Frame::Result {
        coeffs: row.coeffs,
        new_objects: row.new_objects,
        bytes: row.bytes,
        io: row.io,
    }) else {
        return (None, t5);
    };
    let t6 = tracer.now();
    tracer.span(Name::EncodeResult, t5, t6, parent, request);
    let decoded = decode(&result_wire[4..]);
    let end = tracer.now();
    tracer.span(Name::DecodeResult, t6, end, parent, request);
    let intact = matches!(decoded, Ok(Frame::Result { coeffs, bytes, .. })
        if coeffs == row.coeffs && bytes.to_bits() == row.bytes.to_bits());

    let t7 = tracer.now();
    counts.index_hits += descent_hits(server, &regions);
    tracer.span(Name::Descent, t7, tracer.now(), query_span, request);
    (intact.then_some(row), end)
}

/// Descends the index for `regions` as `Server::query` does, without a
/// session filter; returns how many coefficients the windows hit.
fn descent_hits(server: &Server, regions: &[QueryRegion]) -> u64 {
    let windows: Vec<(Rect2, ResolutionBand)> =
        regions.iter().map(|q| (q.region, q.band)).collect();
    let mut hits = 0;
    server.index().for_each_batch(&windows, |_, _| hits += 1);
    hits
}

/// Drives connection `conn`: sessions one after another (HELLO, `ticks`
/// QUERYs with `depth` in flight, BYE), over TCP on host loopback.
///
/// A traced pass runs at depth 1: the real round trip is the root span,
/// and the same regions then go through `shadow` — a `Server` sharing the
/// daemon's data and index under filters of its own — which yields the
/// in-process layer times and checks the wire's answer.
#[allow(clippy::too_many_arguments)]
pub fn drive_wire<const TRACED: bool>(
    addr: SocketAddr,
    shadow: &Server,
    space: &Rect2,
    cfg: &Config,
    conn: usize,
    first_ordinal: u64,
    budget: Budget,
    tracer: &mut Tracer,
) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::with_capacity(cfg.depth);
    for k in 0u64.. {
        let ordinal = first_ordinal + conn as u64 + cfg.threads as u64 * k;
        let t0 = tracer.now();
        let Ok(mut wire) = WireClient::connect(addr) else {
            out.failed += 1;
            break;
        };
        let t1 = tracer.now();
        out.handshake_ns += t1 - t0;
        if TRACED {
            tracer.span(Name::Handshake, t0, t1, NO_PARENT, ordinal);
        }
        let mut client = Client::new(cfg, space, ordinal);
        let shadow_session = if TRACED {
            let t0 = tracer.now();
            let session = shadow.connect();
            tracer.span(Name::Connect, t0, tracer.now(), NO_PARENT, ordinal);
            session
        } else {
            0
        };

        let drain =
            |wire: &mut WireClient, pending: &mut VecDeque<(usize, Instant)>, out: &mut Outcome| {
                let (tick, sent) = pending.pop_front()?;
                let row = match wire.recv_result() {
                    Ok(QueryReply::Served(r)) => {
                        out.acks += u64::from(r.bytes > 0.0);
                        Some(Row {
                            coeffs: r.coeffs,
                            new_objects: r.new_objects,
                            bytes: r.bytes,
                            io: r.io,
                        })
                    }
                    // A refusal or a transport error: counted, never retried.
                    Ok(QueryReply::Overloaded { .. }) | Err(_) => None,
                };
                out.latency.record(sent.elapsed().as_nanos() as u64);
                out.account(cfg, ordinal, tick, row);
                Some(row)
            };

        for tick in 0..cfg.ticks {
            if !TRACED {
                if pending.len() == cfg.depth {
                    drain(&mut wire, &mut pending, &mut out);
                }
                let regions = client.step(cfg, space);
                pending.push_back((tick, Instant::now()));
                if wire.send_query(&regions).is_err() {
                    out.failed += 1;
                }
                continue;
            }
            let request = out.queries;
            let root = tracer.reserve();
            let t0 = tracer.now();
            let regions = client.step(cfg, space);
            let t1 = tracer.now();
            tracer.span(Name::Plan, t0, t1, root, request);
            pending.push_back((tick, Instant::now()));
            if wire.send_query(&regions).is_err() {
                out.failed += 1;
            }
            let served = drain(&mut wire, &mut pending, &mut out).flatten();
            let t2 = tracer.now();
            tracer.fill(root, Name::Request, t1, t2, NO_PARENT, request);
            let (expected, _) = probed_query(
                tracer,
                root,
                request,
                t2,
                shadow,
                shadow_session,
                regions,
                &mut out.counts,
            );
            if served != expected {
                out.failed += 1;
            }
        }
        while drain(&mut wire, &mut pending, &mut out).is_some() {}
        match wire.bye() {
            Ok(bytes) => out.wire_bytes += bytes,
            Err(_) => out.failed += 1,
        }
        if TRACED {
            let t0 = tracer.now();
            if shadow.disconnect(shadow_session).is_err() {
                out.failed += 1;
            }
            tracer.span(Name::Disconnect, t0, tracer.now(), NO_PARENT, ordinal);
        }
        out.sessions += 1;
        if budget.spent(start, k + 1) && (first_ordinal != 0 || out.gate.complete(cfg, conn)) {
            break;
        }
    }
    out
}

/// The gate fingerprint a fresh in-RAM `Server` gives, plus the number of
/// first-tick answers that disagree with the index: a new session's first
/// query must serve exactly what a bare descent of its window hits.
pub fn reference_gate(server: &Server, space: &Rect2, cfg: &Config) -> (Gate, u64) {
    let mut gate = Gate::default();
    let mut mismatches = 0;
    for ordinal in 0..GATE_ORDINALS as u64 {
        let session = server.connect();
        let mut client = Client::new(cfg, space, ordinal);
        for tick in 0..cfg.check_ticks {
            let regions = client.step(cfg, space);
            let Ok(result) = server.query(session, &regions) else {
                mismatches += 1;
                continue;
            };
            if tick == 0 {
                let hits = descent_hits(server, &regions);
                mismatches += u64::from(hits != result.coeffs as u64);
            }
            gate.row(cfg, ordinal, tick, &Row::from(result));
        }
        if server.disconnect(session).is_err() {
            mismatches += 1;
        }
    }
    (gate, mismatches)
}
