//! One run of one workload: set-up, warm-up, the measured phase or the
//! traced passes, the checks, and the metrics.

use crate::adapter::*;
use crate::proc::{count_allocs, usage, Usage};
use crate::stats::{median, mix64};
use crate::trace::{Name, Tracer, KEEP};
use crate::workload::{
    drive_inproc, drive_wire, reference_gate, Budget, Config, Outcome, Script, GATE_ORDINALS,
    WARM_ORDINAL,
};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// `(name, unit, better)` of every end-to-end metric, as `/BENCHMARK.json`
/// lists them. The issue's `error_rate` is the result line's
/// `failed / attempted` (the contract wants metrics that are never 0); its
/// `latency_p50_us` and `latency_p99_us` are the per-layer `latency.p50_us`
/// and `tail.latency_p99_us`: on this box they did not repeat within, or
/// with any margin inside, the widest bound the contract allows (README.md).
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("throughput_qps", "1/s", "higher"),
    ("latency_p90_us", "us", "lower"),
    ("cpu_us_per_query", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric. A layer a workload
/// does not cross reports 0.
pub const PER_LAYER: [(&str, &str, &str); 54] = [
    ("workload.scene_s", "s", "lower"),
    ("core.coeff.build_s", "s", "lower"),
    ("core.index.build_s", "s", "lower"),
    ("core.index.nodes", "count", "lower"),
    ("core.store.write_s", "s", "lower"),
    ("core.store.file_bytes", "B", "lower"),
    ("core.store.bytes_per_coeff", "B", "lower"),
    ("core.paged.open_s", "s", "lower"),
    ("core.retrieval.plan_ns", "ns", "lower"),
    ("core.retrieval.regions_per_query", "count", "lower"),
    ("served.codec.encode_query_ns", "ns", "lower"),
    ("served.codec.decode_query_ns", "ns", "lower"),
    ("served.codec.encode_result_ns", "ns", "lower"),
    ("served.codec.decode_result_ns", "ns", "lower"),
    ("served.codec.query_frame_bytes", "B", "lower"),
    ("core.server.query_ns", "ns", "lower"),
    ("core.server.filter_ns", "ns", "lower"),
    ("core.server.coeffs_per_query", "count", "lower"),
    ("core.server.bytes_per_query", "B", "lower"),
    ("core.server.new_ratio", "ratio", "higher"),
    ("core.server.connect_ns", "ns", "lower"),
    ("core.server.disconnect_ns", "ns", "lower"),
    ("core.index.descent_ns", "ns", "lower"),
    ("core.index.hits_per_query", "count", "lower"),
    ("core.index.io_logical_per_query", "count", "lower"),
    ("core.index.io_unique_per_query", "count", "lower"),
    ("store.cache.lookups_per_query", "count", "lower"),
    ("store.cache.hit_ratio", "ratio", "higher"),
    ("store.cache.faults_per_query", "count", "lower"),
    ("store.cache.evictions_per_query", "count", "lower"),
    ("store.cache.bypasses", "count", "lower"),
    ("store.cache.hit_ns", "ns", "lower"),
    ("store.cache.fault_ns", "ns", "lower"),
    ("store.page.read_ns", "ns", "lower"),
    ("core.paged.scaling_2t", "ratio", "higher"),
    ("served.wire.rtt_p50_ns", "ns", "lower"),
    ("served.wire.transport_ns", "ns", "lower"),
    ("served.wire.bytes_per_query", "B", "lower"),
    ("served.client.handshake_us", "us", "lower"),
    ("served.client.acks_per_query", "count", "lower"),
    ("served.daemon.frames_in", "count", "lower"),
    ("served.daemon.frames_out", "count", "lower"),
    ("served.daemon.overloads", "count", "lower"),
    ("served.daemon.errors", "count", "lower"),
    ("proc.cpu_user_us_per_query", "us", "lower"),
    ("proc.cpu_sys_us_per_query", "us", "lower"),
    ("proc.ctx_switches_per_query", "count", "lower"),
    ("proc.allocs_per_query", "count", "lower"),
    ("proc.alloc_bytes_per_query", "B", "lower"),
    ("latency.p50_us", "us", "lower"),
    ("tail.latency_p99_us", "us", "lower"),
    ("tail.latency_p999_us", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
];

/// Where the page store and the span files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What the info line and the result line carry.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Facts about the run as `(key, JSON value)`, printed as one object
    /// on the line before the result.
    pub info: Vec<(&'static str, String)>,
}

/// Seconds each stage of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    scene: f64,
    coeff: f64,
    index: f64,
    write: f64,
    open: f64,
    total: f64,
}

/// What set-up leaves behind and every pass shares.
struct Stack {
    seed: u64,
    space: Rect2,
    data: Arc<SceneIndexData>,
    ram: Arc<WaveletIndex>,
    /// The page store of the paged workload: its path and size.
    store: Option<(PathBuf, u64)>,
}

/// A server ready to take one pass: fresh session filters, a fresh buffer
/// pool (paged) and a fresh daemon accepting `max_conns` connections (wire).
struct Served {
    server: Arc<Server>,
    daemon: Option<(DaemonHandle, u64)>,
}

impl Stack {
    /// The session layer over `index`. The resume-token key is pinned to
    /// the seed: an entropy key would order the token map differently every
    /// run, and `proc.allocs_per_query` would not repeat exactly.
    fn server(&self, index: Arc<WaveletIndex>) -> Server {
        let core = ServerCore::from_parts(Arc::clone(&self.data), index);
        Server::from_core_seeded(core, self.seed)
    }

    /// A `Server` over the in-RAM index with filters of its own: the gate's
    /// reference and the wire workload's shadow.
    fn ram_server(&self) -> Server {
        self.server(Arc::clone(&self.ram))
    }

    /// Pool = store file / 16, so the working set is 16x the pool.
    fn pool_bytes(file_bytes: u64) -> usize {
        (file_bytes / 16) as usize
    }

    /// The index a pass serves from: the shared in-RAM tree, or the page
    /// store behind a pool of its own.
    fn open_index(&self) -> Arc<WaveletIndex> {
        match &self.store {
            Some((path, bytes)) => Arc::new(
                WaveletIndex::open_paged(path, Self::pool_bytes(*bytes), CachePolicy::MotionAware)
                    .expect("the store set-up just wrote must open"),
            ),
            None => Arc::clone(&self.ram),
        }
    }

    fn serve(&self, cfg: &Config, max_conns: u64) -> Served {
        let server = Arc::new(self.server(self.open_index()));
        let daemon = cfg.wire.then(|| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("loopback must bind");
            // The pipelined generator holds up to `depth` unacked RESULTs, so
            // the default 64 KB outbox would refuse it; refusals are counted
            // and must stay 0.
            let config = DaemonConfig {
                outbox_cap: f64::INFINITY,
                max_conns: Some(max_conns as usize),
            };
            let handle = spawn_daemon(Arc::clone(&server), listener, config)
                .expect("the acceptor thread must start");
            (handle, max_conns)
        });
        Served { server, daemon }
    }
}

/// Scene, coefficient records and index; plus page store and pool for the
/// paged workload; plus the daemon for the wire workload — everything
/// before the first query.
fn setup(cfg: &Config, max_conns: u64, store_path: &Path) -> (Stack, Served, SetupTimes) {
    let mut times = SetupTimes::default();
    let start = Instant::now();
    let mut lap = start;
    let mut stage = |slot: &mut f64| {
        *slot = lap.elapsed().as_secs_f64();
        lap = Instant::now();
    };
    let scene = Scene::generate(SceneConfig::paper(cfg.objects, cfg.seed));
    stage(&mut times.scene);
    let data = Arc::new(SceneIndexData::build(&scene));
    stage(&mut times.coeff);
    let ram = Arc::new(WaveletIndex::build_jobs(&data, 1));
    stage(&mut times.index);
    let store = cfg.paged.then(|| {
        write_store(store_path, &data).expect("benchmark/out must be writable");
        let bytes = std::fs::metadata(store_path).map_or(0, |m| m.len());
        (store_path.to_path_buf(), bytes)
    });
    stage(&mut times.write);
    let stack = Stack {
        seed: cfg.seed,
        space: scene.config.space,
        data,
        ram,
        store,
    };
    let served = stack.serve(cfg, max_conns);
    stage(&mut times.open);
    times.total = start.elapsed().as_secs_f64();
    (stack, served, times)
}

/// One run: what every pass shares, and what the passes add up to.
struct Run {
    cfg: Config,
    seconds: f64,
    stack: Stack,
    /// A `Server` with filters of its own that traced wire requests are
    /// replayed through.
    shadow: Server,
    setups: Vec<SetupTimes>,
    /// Operations attempted and failed, failed checks included.
    attempted: u64,
    failed: u64,
    /// Daemons whose stats disagreed with what their clients did.
    daemon_faults: u64,
    /// The fingerprint of every pass (each runs the gate ordinals).
    gates: Vec<Option<u64>>,
    /// Facts for the info line, as `(key, JSON value)`.
    info: Vec<(&'static str, String)>,
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// One pass: what the drivers did, and what the process spent on it.
struct Pass {
    out: Outcome,
    elapsed_s: f64,
    spent: Usage,
    allocs: u64,
    alloc_bytes: u64,
    daemon: Option<DaemonStats>,
}

impl Pass {
    fn qps(&self) -> f64 {
        self.out.queries as f64 / self.elapsed_s
    }
}

/// Runs `drive` on every driver thread (inline when there is one) and
/// merges what they did.
fn on_threads<const TRACED: bool>(
    stack: &Stack,
    served: &Served,
    shadow: &Server,
    cfg: &Config,
    first_ordinal: u64,
    budget: Budget,
    tracer: &mut Tracer,
) -> Outcome {
    let drive = |thread: usize, tracer: &mut Tracer| match &served.daemon {
        Some((handle, _)) => drive_wire::<TRACED>(
            handle.addr,
            shadow,
            &stack.space,
            cfg,
            thread,
            first_ordinal,
            budget,
            tracer,
        ),
        None => drive_inproc::<TRACED>(
            &served.server,
            &stack.space,
            cfg,
            thread,
            first_ordinal,
            budget,
            tracer,
        ),
    };
    if cfg.threads == 1 {
        return drive(0, tracer);
    }
    assert!(
        !TRACED,
        "traced passes use one driver so that counts repeat"
    );
    let mut total = Outcome::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.threads)
            .map(|thread| scope.spawn(move || drive(thread, &mut Tracer::new(0))))
            .collect();
        for worker in workers {
            total.merge(&worker.join().expect("a driver thread panicked"));
        }
    });
    total
}

/// Units of a traced run's fixed-work passes: sized so that the passes
/// together take about as long as `--seconds` on the reference box, and
/// fixed so that counts repeat exactly for a seed. A unit is a tick of
/// every slot, or a wire session per connection.
fn trace_units(cfg: &Config, seconds: f64) -> u64 {
    let (per_second, least) = match (cfg.wire, cfg.paged, cfg.script) {
        (true, _, _) => (8.0, 8 * GATE_ORDINALS as u64),
        (_, true, _) => (25.0, 1),
        (_, _, Script::Tour) => (1000.0, 1),
        (_, _, Script::Hops) => (600.0, 1),
    };
    ((per_second * seconds).ceil() as u64).max(least)
}

/// Sessions per connection a measured wire run may start: ten times what
/// the reference box serves in `seconds` (45 000 queries/s a connection),
/// and never fewer than the gate needs. The daemon is told to accept that
/// many (and the warm-up's), and says so when it is done.
fn wire_session_cap(cfg: &Config, seconds: f64) -> u64 {
    (450_000.0 / cfg.ticks as f64 * seconds).ceil() as u64 + GATE_ORDINALS as u64
}

impl Run {
    /// The median over this run's set-ups of one stage's time.
    fn stage(&self, f: fn(&SetupTimes) -> f64) -> f64 {
        median(&self.setups.iter().map(f).collect::<Vec<_>>())
    }

    fn note(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// An unmeasured warm-up (so that lazy set-up and cache fill are not
    /// timed), then one pass on `served`, then the daemon's retirement: it
    /// returns its stats only once `max_conns` connections were accepted,
    /// so the ones left over are used up by empty sessions (HELLO, BYE).
    fn pass<const TRACED: bool>(
        &mut self,
        served: Served,
        cfg: &Config,
        budget: Budget,
        count_allocations: bool,
        tracer: &mut Tracer,
    ) -> Pass {
        let (stack, shadow) = (&self.stack, &self.shadow);
        let warm_units = if cfg.wire { 1 } else { cfg.warm_ticks };
        let warm = on_threads::<false>(
            stack,
            &served,
            shadow,
            cfg,
            WARM_ORDINAL,
            Budget::units(warm_units),
            &mut Tracer::new(0),
        );
        let before = usage();
        let start = Instant::now();
        let (out, allocs, alloc_bytes) = count_allocs(count_allocations, || {
            on_threads::<TRACED>(stack, &served, shadow, cfg, 0, budget, tracer)
        });
        let elapsed_s = start.elapsed().as_secs_f64();
        let spent = usage().since(&before);

        let queries = warm.queries + out.queries;
        let acks = warm.acks + out.acks;
        let mut sessions = warm.sessions + out.sessions;
        self.failed += warm.failed + out.failed;
        let daemon = served.daemon.map(|(handle, max_conns)| {
            let fill = max_conns.saturating_sub(sessions);
            for _ in 0..fill {
                let empty = WireClient::connect(handle.addr).and_then(WireClient::bye);
                self.failed += u64::from(empty.is_err());
            }
            sessions += fill;
            let stats = handle.join();
            let consistent = stats.errors == 0
                && stats.overloads == 0
                && stats.connections == sessions
                && stats.frames_in == queries + acks + 2 * sessions
                && stats.frames_out == queries + 2 * sessions;
            self.daemon_faults += u64::from(!consistent);
            stats
        });
        // Opening and closing a session is an operation of its own.
        self.attempted += queries + sessions;
        self.gates.push(out.gate.fingerprint(&self.cfg));
        Pass {
            out,
            elapsed_s,
            spent,
            allocs,
            alloc_bytes,
            daemon,
        }
    }

    /// The measured phase: `--seconds` of the workload as configured.
    fn measured(&mut self, served: Served) -> Metrics {
        let cfg = self.cfg;
        let budget = Budget {
            seconds: Some(self.seconds),
            units: if cfg.wire {
                wire_session_cap(&cfg, self.seconds)
            } else {
                u64::MAX
            },
        };
        let run = self.pass::<false>(served, &cfg, budget, false, &mut Tracer::new(0));
        let values = [
            self.stage(|t| t.total),
            run.qps(),
            run.out.latency.quantile(0.90) / 1e3,
            run.spent.cpu_us() as f64 / run.out.queries as f64,
            usage().peak_rss_kb as f64 / 1024.0,
        ];
        self.note("queries", run.out.queries);
        self.note("sessions", run.out.sessions);
        self.note("latency_samples", run.out.latency.len());
        self.note("measured_s", run.elapsed_s);
        self.note("latency_p50_us", run.out.latency.quantile(0.50) / 1e3);
        self.note("latency_p99_us", run.out.latency.quantile(0.99) / 1e3);
        if let Some(stats) = run.daemon {
            self.note("daemon", daemon_json(&stats));
        }
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit, _), value)| (*name, value, *unit))
            .collect()
    }

    /// The traced run: fixed-work passes, each on a fresh server.
    fn traced(&mut self, served: Served, span_file: &Path) -> Metrics {
        let cfg = self.cfg;
        let units = trace_units(&cfg, self.seconds);
        let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        layer.insert("workload.scene_s", self.stage(|t| t.scene));
        layer.insert("core.coeff.build_s", self.stage(|t| t.coeff));
        layer.insert("core.index.build_s", self.stage(|t| t.index));
        layer.insert("core.index.nodes", self.stack.ram.node_count() as f64);
        if let Some((path, bytes)) = &self.stack.store {
            let coeffs = self.stack.data.records.len() as f64;
            layer.insert("core.store.write_s", self.stage(|t| t.write));
            layer.insert("core.store.file_bytes", *bytes as f64);
            layer.insert("core.store.bytes_per_coeff", *bytes as f64 / coeffs);
            layer.insert("core.paged.open_s", self.stage(|t| t.open));
            page_timings(path, *bytes, cfg.seed, &mut layer);
        }

        // Pass U — untraced, allocator counting: the process counters, and
        // on the wire the saturated service interval. One driver in-process
        // so that counts repeat exactly; the measured two connections at
        // depth 8 on the wire, where sys time and switches are the point.
        let solo = Config { threads: 1, ..cfg };
        let untraced = if cfg.wire { cfg } else { solo };
        let u = self.pass::<false>(
            served,
            &untraced,
            Budget::units(units),
            true,
            &mut Tracer::new(0),
        );
        let q_u = u.out.queries as f64;
        layer.insert("proc.cpu_user_us_per_query", u.spent.user_us as f64 / q_u);
        layer.insert("proc.cpu_sys_us_per_query", u.spent.sys_us as f64 / q_u);
        layer.insert(
            "proc.ctx_switches_per_query",
            u.spent.voluntary_switches as f64 / q_u,
        );
        layer.insert("proc.allocs_per_query", u.allocs as f64 / q_u);
        layer.insert("proc.alloc_bytes_per_query", u.alloc_bytes as f64 / q_u);
        layer.insert("latency.p50_us", u.out.latency.quantile(0.50) / 1e3);
        layer.insert("tail.latency_p99_us", u.out.latency.quantile(0.99) / 1e3);
        layer.insert("tail.latency_p999_us", u.out.latency.quantile(0.999) / 1e3);
        if let Some(stats) = u.daemon {
            self.note("daemon", daemon_json(&stats));
            layer.insert("served.daemon.frames_in", stats.frames_in as f64);
            layer.insert("served.daemon.frames_out", stats.frames_out as f64);
            layer.insert("served.daemon.overloads", stats.overloads as f64);
            layer.insert("served.daemon.errors", stats.errors as f64);
            layer.insert("served.wire.bytes_per_query", u.out.wire_bytes as f64 / q_u);
            layer.insert(
                "served.client.handshake_us",
                u.out.handshake_ns as f64 / u.out.sessions as f64 / 1e3,
            );
            layer.insert("served.client.acks_per_query", u.out.acks as f64 / q_u);
        }

        // The wire's depth-1 passes: one connection, one QUERY in flight,
        // an eighth of the sessions.
        let (solo, units_solo) = if cfg.wire {
            let solo = Config {
                slots: 1,
                depth: 1,
                ..solo
            };
            (solo, units / 8)
        } else {
            (solo, units)
        };
        let fresh = |run: &Run, cfg: &Config, units: u64| {
            run.stack.serve(cfg, cfg.threads as u64 * (units + 1))
        };
        // What the traced pass's throughput is compared against.
        let mut baseline_qps = u.qps();
        if cfg.wire {
            let served = fresh(self, &solo, units_solo);
            let budget = Budget::units(units_solo);
            let idle = self.pass::<false>(served, &solo, budget, false, &mut Tracer::new(0));
            baseline_qps = idle.qps();
            layer.insert("served.wire.rtt_p50_ns", idle.out.latency.quantile(0.5));
        }
        if cfg.paged {
            // Two drivers over the same work: below 1, threads wait on the
            // pager mutex.
            let served = fresh(self, &cfg, units);
            let budget = Budget::units(units);
            let two = self.pass::<false>(served, &cfg, budget, false, &mut Tracer::new(0));
            layer.insert("core.paged.scaling_2t", two.qps() / u.qps());
        }

        // Pass T — traced, one driver.
        let mut tracer = Tracer::new(KEEP);
        let served = fresh(self, &solo, units_solo);
        let budget = Budget::units(units_solo);
        let t = self.pass::<true>(served, &solo, budget, false, &mut tracer);
        tracer
            .write_jsonl(span_file)
            .expect("benchmark/out must be writable");

        let q = t.out.queries as f64;
        let c = &t.out.counts;
        let mean = |name| tracer.mean_ns(name);
        layer.insert("core.retrieval.plan_ns", mean(Name::Plan));
        layer.insert("core.retrieval.regions_per_query", c.regions as f64 / q);
        layer.insert("served.codec.encode_query_ns", mean(Name::EncodeQuery));
        layer.insert("served.codec.decode_query_ns", mean(Name::DecodeQuery));
        layer.insert("served.codec.encode_result_ns", mean(Name::EncodeResult));
        layer.insert("served.codec.decode_result_ns", mean(Name::DecodeResult));
        layer.insert(
            "served.codec.query_frame_bytes",
            c.query_frame_bytes as f64 / q,
        );
        layer.insert("core.server.query_ns", mean(Name::ServerQuery));
        layer.insert(
            "core.server.filter_ns",
            mean(Name::ServerQuery) - mean(Name::Descent),
        );
        layer.insert("core.server.coeffs_per_query", c.coeffs as f64 / q);
        layer.insert("core.server.bytes_per_query", c.payload_bytes / q);
        layer.insert(
            "core.server.new_ratio",
            c.coeffs as f64 / (c.index_hits as f64).max(1.0),
        );
        layer.insert("core.server.connect_ns", mean(Name::Connect));
        layer.insert("core.server.disconnect_ns", mean(Name::Disconnect));
        layer.insert("core.index.descent_ns", mean(Name::Descent));
        layer.insert("core.index.hits_per_query", c.index_hits as f64 / q);
        layer.insert("core.index.io_logical_per_query", c.io_logical as f64 / q);
        layer.insert("core.index.io_unique_per_query", c.io_unique as f64 / q);
        if cfg.paged {
            let lookups = c.cache.lookups as f64;
            layer.insert("store.cache.lookups_per_query", lookups / q);
            layer.insert(
                "store.cache.hit_ratio",
                c.cache.hits as f64 / lookups.max(1.0),
            );
            layer.insert("store.cache.faults_per_query", c.cache.faults as f64 / q);
            layer.insert(
                "store.cache.evictions_per_query",
                c.cache.evictions as f64 / q,
            );
            layer.insert("store.cache.bypasses", c.cache.bypasses as f64);
        }
        // What the layers between the two sockets cost per request.
        let in_process: f64 = [
            Name::EncodeQuery,
            Name::DecodeQuery,
            Name::ServerQuery,
            Name::EncodeResult,
            Name::DecodeResult,
        ]
        .into_iter()
        .map(mean)
        .sum();
        let attributed = if cfg.wire {
            // One connection's service interval at saturation, less what
            // the client's planning and the in-process layers account for:
            // sockets, thread hand-off, ledger and ACK.
            let interval_ns = u.elapsed_s * 1e9 * cfg.threads as f64 / q_u;
            layer.insert(
                "served.wire.transport_ns",
                interval_ns - in_process - mean(Name::Plan),
            );
            in_process
        } else {
            in_process + mean(Name::Plan)
        };
        let root = mean(Name::Request);
        layer.insert("trace.unattributed_pct", 100.0 * (root - attributed) / root);
        layer.insert("trace.overhead_pct", 100.0 * (1.0 - t.qps() / baseline_qps));

        self.note("trace_units", units);
        self.note("untraced_queries", u.out.queries);
        self.note("traced_queries", t.out.queries);
        self.note("spans", tracer.spans());
        self.note("span_file", format!("\"{}\"", span_file.display()));
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, layer.get(name).copied().unwrap_or(0.0), *unit))
            .collect()
    }
}

pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    pinned: Option<u64>,
) -> Report {
    let cfg = Config::new(workload, seed, smoke).expect("main checked the workload name");
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("benchmark/out must be creatable");
    let store_path = dir.join(format!("store-{workload}.pages"));
    let sessions_per_conn = if trace {
        trace_units(&cfg, seconds)
    } else {
        wire_session_cap(&cfg, seconds)
    };
    let max_conns = cfg.threads as u64 * (1 + sessions_per_conn);

    // Several set-ups per run, reporting the median, so that setup_s is
    // steady; the run uses the last. A discarded daemon is told to accept
    // one connection only, which retiring it then makes.
    let reps = match (smoke, trace) {
        (true, _) => 1,
        (false, true) => 3,
        (false, false) => 5,
    };
    let mut setups = Vec::with_capacity(reps);
    for _ in 1..reps {
        let (_, served, times) = setup(&cfg, 1, &store_path);
        if let Some((handle, _)) = served.daemon {
            let _ = WireClient::connect(handle.addr).and_then(WireClient::bye);
            handle.join();
        }
        setups.push(times);
    }
    let (stack, served, times) = setup(&cfg, max_conns, &store_path);
    setups.push(times);

    let (reference, mismatches) = reference_gate(&stack.ram_server(), &stack.space, &cfg);
    let mut run = Run {
        cfg,
        seconds,
        shadow: stack.ram_server(),
        stack,
        setups,
        attempted: 0,
        failed: mismatches,
        daemon_faults: 0,
        gates: Vec::new(),
        info: Vec::new(),
    };
    let metrics = if trace {
        run.traced(served, &dir.join(format!("trace-{workload}.jsonl")))
    } else {
        run.measured(served)
    };

    let stack = &run.stack;
    let valid = stack.ram.validate().is_ok()
        && (stack.store.is_none() || stack.open_index().validate().is_ok());
    if let Some((path, _)) = &stack.store {
        // 78 MB a run would fill the disk; the seed rebuilds the store.
        let _ = std::fs::remove_file(path);
    }
    let expected = reference.fingerprint(&cfg);
    let fingerprint = run.gates[0].filter(|_| run.gates.iter().all(|g| *g == run.gates[0]));
    let gate_ok = fingerprint.is_some()
        && fingerprint == expected
        && pinned.is_none_or(|p| Some(p) == fingerprint);
    run.failed += u64::from(!gate_ok) + u64::from(!valid) + run.daemon_faults;
    let hex = |f: Option<u64>| f.map_or("null".to_string(), |f| format!("\"{f:016x}\""));
    let transport = if cfg.wire {
        "tcp over host loopback 127.0.0.1"
    } else {
        "in-process calls"
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let coefficients = run.stack.data.records.len();
    run.note("workload", format!("\"{workload}\""));
    run.note("seed", seed);
    run.note("seconds", seconds);
    run.note("smoke", smoke);
    run.note("nproc", nproc);
    run.note("driver_threads", cfg.threads);
    run.note("pipeline_depth", cfg.depth);
    run.note("loop", "\"closed\"");
    run.note("transport", format!("\"{transport}\""));
    run.note("objects", cfg.objects);
    run.note("coefficients", coefficients);
    run.note("live_sessions", cfg.slots);
    run.note("ticks_per_session", cfg.ticks);
    run.note("setups", reps);
    run.note("fingerprint", hex(fingerprint));
    run.note("reference_fingerprint", hex(expected));
    run.note("gate_ok", gate_ok);
    run.note("index_valid", valid);
    run.note("daemon_ok", run.daemon_faults == 0);
    Report {
        correct: run.failed == 0,
        attempted: run.attempted.max(1),
        failed: run.failed,
        metrics,
        info: run.info,
    }
}

fn daemon_json(stats: &DaemonStats) -> String {
    format!(
        "{{\"connections\":{},\"frames_in\":{},\"frames_out\":{},\"overloads\":{},\"errors\":{}}}",
        stats.connections, stats.frames_in, stats.frames_out, stats.overloads, stats.errors
    )
}

/// Times the page file and the pool on their own, over the store the run
/// wrote: a raw checksummed page read, a pool fault and a pool hit.
fn page_timings(path: &Path, file_bytes: u64, seed: u64, layer: &mut BTreeMap<&'static str, f64>) {
    let open = || PageFile::open(path).expect("the store set-up just wrote must open");
    let mut file = open();
    let pages = u64::from(file.page_count());
    let pool = Stack::pool_bytes(file_bytes);
    let mut cache = PageCache::new(open(), pool, CachePolicy::MotionAware);
    // Distinct seed-derived pages, fewer than the pool holds, so that the
    // first pass over them faults every time and the second hits.
    let n = (pool / PAGE_SIZE * 3 / 4).max(1) as u64;
    let stride = (pages / n).max(1);
    let offset = mix64(seed) % stride;
    let ids: Vec<u32> = (0..n)
        .map(|i| ((offset + i * stride) % pages) as u32)
        .collect();
    let mut time = |name, read: &mut dyn FnMut(u32)| {
        let start = Instant::now();
        for &id in &ids {
            read(id);
        }
        layer.insert(name, start.elapsed().as_nanos() as f64 / ids.len() as f64);
    };
    time("store.page.read_ns", &mut |id| {
        std::hint::black_box(file.read_page_vec(id).expect("page in range"));
    });
    time("store.cache.fault_ns", &mut |id| {
        std::hint::black_box(cache.read(id).expect("page in range"));
    });
    time("store.cache.hit_ns", &mut |id| {
        std::hint::black_box(cache.read(id).expect("page in range"));
    });
}
