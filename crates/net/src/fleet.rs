//! The simulated client fleet: N concurrent subscribers, one report.
//!
//! Every fleet member runs the full client pipeline (subscribe → record
//! the air → measure analytically) on its own thread with its own seed,
//! then the fleet joins them in id order and folds the results into a
//! schema-versioned [`FleetReport`]. Because each client's measurement
//! depends only on its seed and the recorded frames — never on thread
//! interleaving — the same seed over the same program yields a
//! bit-identical report.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::AtomicBool;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::client::{
    generate_requests, measure, AirLog, CacheKind, ClientConfig, RequestOutcome,
    WorkloadPattern,
};
use crate::egress::{run_egress, EgressConfig, EgressReport, ProgramSource};
use crate::frame::{TelemetryFrame, TELEMETRY_FLAG_SLICE};
use crate::server::{BroadcastServer, NetConfig};
use crate::uplink::UplinkClient;
use crate::world::WorldView;

/// Where (and how) a fleet pushes its telemetry digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UplinkConfig {
    /// Uplink server address, e.g. `127.0.0.1:9902`.
    pub addr: String,
    /// Milliseconds client 0 sleeps before sending each generation
    /// acknowledgement — the straggler drill: a paced-slow client whose
    /// acked generation trails the published one must trip the
    /// `fleet.stragglers` gauge.
    pub straggle_ms: u64,
}

/// Report schema version; bump on any incompatible layout change.
pub const FLEET_SCHEMA: u32 = 1;

/// Fleet-level workload knobs; per-client configs are derived from this.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Base seed; client `i` runs with `seed + i`.
    pub seed: u64,
    /// Requests per client.
    pub requests: usize,
    /// Mean request rate per client, in requests per virtual second.
    pub rate: f64,
    /// Client cache policy.
    pub cache: CacheKind,
    /// Client cache budget in size units.
    pub cache_budget: f64,
    /// Workload shape.
    pub pattern: WorkloadPattern,
    /// Frequent-pattern pool size.
    pub patterns: usize,
    /// Maximum items per request.
    pub max_size: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            clients: 8,
            seed: 1,
            requests: 100,
            rate: 1.0,
            cache: CacheKind::None,
            cache_budget: 0.0,
            pattern: WorkloadPattern::Single,
            patterns: 8,
            max_size: 4,
        }
    }
}

impl FleetConfig {
    /// The derived per-client configuration.
    pub fn client(&self, id: usize) -> ClientConfig {
        ClientConfig {
            id,
            seed: self.seed.wrapping_add(id as u64),
            requests: self.requests,
            rate: self.rate,
            cache: self.cache,
            cache_budget: self.cache_budget,
            pattern: self.pattern,
            patterns: self.patterns,
            max_size: self.max_size,
        }
    }
}

/// Order statistics of one measured series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StatSummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl StatSummary {
    /// Summarises `values` (order-independent; empty series are zero).
    pub fn from_values(values: &[f64]) -> Self {
        if values.is_empty() {
            return StatSummary {
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p95: 0.0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let n = sorted.len();
        let pick = |q: f64| sorted[((q * (n - 1) as f64).round() as usize).min(n - 1)];
        StatSummary {
            count: n as u64,
            mean: sorted.iter().sum::<f64>() / n as f64,
            min: sorted[0],
            max: sorted[n - 1],
            p50: pick(0.50),
            p95: pick(0.95),
        }
    }

    fn finite(&self) -> bool {
        self.mean.is_finite()
            && self.min.is_finite()
            && self.max.is_finite()
            && self.p50.is_finite()
            && self.p95.is_finite()
    }
}

/// One generation as experienced by one client.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerationSlice {
    /// Generation counter from the directory.
    pub generation: u64,
    /// Virtual origin of the generation's phase 0.
    pub origin: f64,
    /// Requests served entirely inside this generation.
    pub requests: u64,
    /// Mean measured access time of those requests (0 when none).
    pub mean_access: f64,
    /// Mean measured tuning time of those requests (0 when none).
    pub mean_tuning: f64,
    /// The Eq. 2 expectation for the requests counted in this slice:
    /// the mean per-request expectation conditioned on the items the
    /// client actually drew, so sampling the workload does not show up
    /// as prediction error. Falls back to the population
    /// frequency-weighted expectation when the slice has no
    /// single-item samples.
    pub predicted_access: f64,
}

/// One fleet member's results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientReport {
    /// Client id within the fleet.
    pub id: usize,
    /// The client's RNG seed.
    pub seed: u64,
    /// Requests issued.
    pub requests: u64,
    /// Requests fully answered before the stream horizon.
    pub completed: u64,
    /// Cache hits across all requests.
    pub cache_hits: u64,
    /// Multi-item retrieval conflicts (occurrences missed while busy).
    pub conflicts: u64,
    /// Swap-boundary retunes.
    pub retunes: u64,
    /// Planned downloads the recorded air could not corroborate.
    pub torn_frames: u64,
    /// Wire decode errors while draining the subscription.
    pub decode_errors: u64,
    /// Access times of completed requests (virtual seconds).
    pub access: StatSummary,
    /// Tuning times of completed requests (virtual seconds).
    pub tuning: StatSummary,
    /// Per-generation breakdown, in announcement order.
    pub generations: Vec<GenerationSlice>,
}

/// Fleet-wide sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetTotals {
    /// Requests across all clients.
    pub requests: u64,
    /// Completed requests across all clients.
    pub completed: u64,
    /// Cache hits across all clients.
    pub cache_hits: u64,
    /// Retrieval conflicts across all clients.
    pub conflicts: u64,
    /// Retunes across all clients.
    pub retunes: u64,
    /// Torn frames across all clients.
    pub torn_frames: u64,
    /// Decode errors across all clients.
    pub decode_errors: u64,
    /// Frames dropped by the server's slow-client policy, when the
    /// server ran in-process (absent for `--connect` fleets).
    pub dropped_frames: Option<u64>,
}

/// The schema-versioned fleet run artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Schema version, [`FLEET_SCHEMA`].
    pub schema: u32,
    /// The configuration the fleet ran with.
    pub config: FleetConfig,
    /// Whether the stream carried (1,m) index frames.
    pub indexed: bool,
    /// Per-client results, in client id order.
    pub clients: Vec<ClientReport>,
    /// Fleet-wide sums.
    pub totals: FleetTotals,
}

impl FleetReport {
    /// Structural validation: schema, finite stats, tuning never above
    /// access, zero torn frames / decode errors, and generation
    /// consistency (every client saw the same generation sequence).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a message.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != FLEET_SCHEMA {
            return Err(format!(
                "schema {} does not match supported {FLEET_SCHEMA}",
                self.schema
            ));
        }
        if self.clients.len() != self.config.clients {
            return Err(format!(
                "{} client reports for {} configured clients",
                self.clients.len(),
                self.config.clients
            ));
        }
        let reference: Vec<(u64, u64)> = self
            .clients
            .first()
            .map(|c| {
                c.generations.iter().map(|g| (g.generation, g.origin.to_bits())).collect()
            })
            .unwrap_or_default();
        for (i, client) in self.clients.iter().enumerate() {
            if client.id != i {
                return Err(format!("client {i} reported id {}", client.id));
            }
            if !client.access.finite() || !client.tuning.finite() {
                return Err(format!("client {i} has non-finite access/tuning stats"));
            }
            if client.tuning.mean > client.access.mean + 1e-9 {
                return Err(format!(
                    "client {i} mean tuning {} exceeds mean access {}",
                    client.tuning.mean, client.access.mean
                ));
            }
            if client.torn_frames != 0 {
                return Err(format!("client {i} saw {} torn frames", client.torn_frames));
            }
            if client.decode_errors != 0 {
                return Err(format!(
                    "client {i} saw {} decode errors",
                    client.decode_errors
                ));
            }
            let seen: Vec<(u64, u64)> = client
                .generations
                .iter()
                .map(|g| (g.generation, g.origin.to_bits()))
                .collect();
            if seen != reference {
                return Err(format!(
                    "client {i} saw generation sequence {:?}, client 0 saw {:?}",
                    client.generations.iter().map(|g| g.generation).collect::<Vec<_>>(),
                    reference.iter().map(|(g, _)| *g).collect::<Vec<_>>()
                ));
            }
            for g in &client.generations {
                if !g.predicted_access.is_finite()
                    || !g.mean_access.is_finite()
                    || !g.mean_tuning.is_finite()
                {
                    return Err(format!(
                        "client {i} generation {} has non-finite stats",
                        g.generation
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The paper's Eq. 2 expectation for the world's program: the
/// frequency-weighted mean access time over a request instant uniform
/// in phase. Replicated items use the independent-phase earliest-probe
/// approximation; indexed single-carrier items use the exact (1,m)
/// grid expectation.
pub fn predicted_access(world: &WorldView) -> f64 {
    let dir = &world.directory;
    let mut weighted = 0.0;
    let mut mass = 0.0;
    for (idx, &f) in dir.frequencies.iter().enumerate() {
        let item = dbcast_model::ItemId::new(idx);
        let Some(access) = world.expected_access(item) else {
            continue;
        };
        weighted += f * access;
        mass += f;
    }
    if mass > 0.0 {
        weighted / mass
    } else {
        f64::NAN
    }
}

/// Resolved `fleet.*` metric handles.
struct FleetMetrics {
    requests: &'static dbcast_obs::metrics::Counter,
    cache_hits: &'static dbcast_obs::metrics::Counter,
    conflicts: &'static dbcast_obs::metrics::Counter,
    retunes: &'static dbcast_obs::metrics::Counter,
    torn: &'static dbcast_obs::metrics::Counter,
    access: &'static dbcast_obs::metrics::Histogram,
    tuning: &'static dbcast_obs::metrics::Histogram,
}

impl FleetMetrics {
    fn resolve() -> Self {
        let r = dbcast_obs::registry();
        FleetMetrics {
            requests: r.counter("fleet.requests"),
            cache_hits: r.counter("fleet.cache_hits"),
            conflicts: r.counter("fleet.conflicts"),
            retunes: r.counter("fleet.retunes"),
            torn: r.counter("fleet.torn_frames"),
            access: r.histogram("fleet.access"),
            tuning: r.histogram("fleet.tuning"),
        }
    }
}

fn summarize(
    config: &ClientConfig,
    log: &AirLog,
    outcomes: &[RequestOutcome],
) -> ClientReport {
    let metrics = FleetMetrics::resolve();
    let mut access = Vec::new();
    let mut tuning = Vec::new();
    let mut cache_hits = 0;
    let mut conflicts = 0;
    let mut retunes = 0;
    let mut torn = 0;
    let mut completed = 0;
    for o in outcomes {
        cache_hits += o.cache_hits;
        conflicts += o.conflicts;
        retunes += o.retunes;
        torn += o.torn;
        metrics.requests.inc();
        if !o.incomplete {
            completed += 1;
            access.push(o.access);
            tuning.push(o.tuning);
            metrics.access.record((o.access * 1e6) as u64);
            metrics.tuning.record((o.tuning * 1e6) as u64);
        }
    }
    metrics.cache_hits.add(cache_hits);
    metrics.conflicts.add(conflicts);
    metrics.retunes.add(retunes);
    metrics.torn.add(torn);
    let generations = log
        .worlds
        .iter()
        .map(|world| {
            let generation = world.directory.generation;
            // Only requests that arrived early enough that they could
            // not possibly straddle the generation's end contribute to
            // the per-generation means: straddlers are retuned and
            // excluding them any other way would censor the longest
            // waits and bias the mean below the Eq. 2 expectation.
            let end = world.valid_until.min(log.horizon);
            let unbiased_until = end - world.worst_case_access();
            let mut a = Vec::new();
            let mut t = Vec::new();
            let mut p = Vec::new();
            for o in outcomes {
                if o.generation == Some(generation)
                    && !o.incomplete
                    && o.torn == 0
                    && o.arrival <= unbiased_until
                {
                    a.push(o.access);
                    t.push(o.tuning);
                    if let Some(expected) = o.expected_access {
                        p.push(expected);
                    }
                }
            }
            let mean = |v: &[f64]| {
                if v.is_empty() {
                    0.0
                } else {
                    v.iter().sum::<f64>() / v.len() as f64
                }
            };
            GenerationSlice {
                generation,
                origin: world.directory.origin,
                requests: a.len() as u64,
                mean_access: mean(&a),
                mean_tuning: mean(&t),
                // Conditioned on the realized workload when possible:
                // the sampled request mix differs from the population
                // frequencies, and access is heavy-tailed across items,
                // so the unconditioned mean is a noisy yardstick.
                predicted_access: if p.is_empty() {
                    predicted_access(world)
                } else {
                    mean(&p)
                },
            }
        })
        .collect();
    ClientReport {
        id: config.id,
        seed: config.seed,
        requests: outcomes.len() as u64,
        completed,
        cache_hits,
        conflicts,
        retunes,
        torn_frames: torn,
        decode_errors: log.decode_errors,
        access: StatSummary::from_values(&access),
        tuning: StatSummary::from_values(&tuning),
        generations,
    }
}

/// Builds the per-generation telemetry slice digests one client sends
/// after measuring: the exact [`GenerationSlice`] values (bit-exact, so
/// the serve-side aggregates reconcile with the post-hoc report), plus
/// delta counters attributed to the generation on the air at each
/// request's arrival (a total-preserving attribution: every outcome
/// lands in exactly one slice), microsecond log2 histogram cells of the
/// completed outcomes, and the recorded per-channel frame coverage.
fn build_slices(
    config: &ClientConfig,
    log: &AirLog,
    outcomes: &[RequestOutcome],
    report: &ClientReport,
) -> Vec<TelemetryFrame> {
    let last_generation =
        log.worlds.last().map(|w| w.directory.generation).unwrap_or_default();
    let spans: Vec<(f64, f64)> = log
        .worlds
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let end = log
                .worlds
                .get(i + 1)
                .map(|next| next.directory.origin)
                .unwrap_or(f64::INFINITY);
            (w.directory.origin, end)
        })
        .collect();
    log.worlds
        .iter()
        .zip(&report.generations)
        .zip(&spans)
        .map(|((world, slice), &(start, end))| {
            let mut t = TelemetryFrame::empty();
            t.client = config.id as u32;
            t.flags = TELEMETRY_FLAG_SLICE;
            t.last_generation = last_generation;
            t.generation = slice.generation;
            t.origin = slice.origin;
            t.samples = slice.requests;
            t.mean_access = slice.mean_access;
            t.mean_tuning = slice.mean_tuning;
            t.predicted_access = slice.predicted_access;
            for o in outcomes {
                // Same arrival-epsilon as `AirLog::world_at`, so the
                // attribution agrees with the measurement loop.
                if o.arrival + 1e-12 < start || o.arrival + 1e-12 >= end {
                    continue;
                }
                t.requests += 1;
                t.cache_hits += o.cache_hits;
                t.conflicts += o.conflicts;
                t.retunes += o.retunes;
                t.torn += o.torn;
                if !o.incomplete {
                    t.completed += 1;
                    t.access.record((o.access * 1e6) as u64);
                    t.tuning.record((o.tuning * 1e6) as u64);
                }
            }
            let generation = world.directory.generation;
            let mut coverage: std::collections::BTreeMap<u32, u64> =
                std::collections::BTreeMap::new();
            for (g, channel) in log
                .frames
                .iter()
                .map(|f| (f.generation, f.channel))
                .chain(log.index_frames.iter().map(|f| (f.generation, f.channel)))
            {
                if g == generation {
                    *coverage.entry(channel).or_insert(0) += 1;
                }
            }
            t.coverage = coverage.into_iter().collect();
            t
        })
        .collect()
}

/// Runs one client end to end over an established TCP stream,
/// optionally pushing telemetry over `uplink`: a live acknowledgement
/// per directory while recording, then one measurement slice per
/// generation.
fn run_client_with(
    config: ClientConfig,
    stream: TcpStream,
    uplink: Option<(SocketAddr, Duration)>,
) -> Result<ClientReport, String> {
    let id = config.id as u32;
    let mut up = match uplink {
        Some((addr, straggle)) => {
            let client = UplinkClient::connect(addr)
                .map_err(|e| format!("client {id} uplink connect failed: {e}"))?;
            Some((client, straggle))
        }
        None => None,
    };
    let log = match &mut up {
        Some((client, straggle)) => AirLog::record_with(stream, |dir| {
            if !straggle.is_zero() {
                std::thread::sleep(*straggle);
            }
            let _ = client.send_ack(id, dir.generation);
        })?,
        None => AirLog::record(stream)?,
    };
    let first = &log.worlds[0].directory;
    let requests = generate_requests(&config, first, log.coverage_start());
    let outcomes = measure(&config, &log, &requests)?;
    let report = summarize(&config, &log, &outcomes);
    if let Some((client, _)) = &mut up {
        for mut frame in build_slices(&config, &log, &outcomes, &report) {
            client
                .send(&mut frame)
                .map_err(|e| format!("client {id} uplink send failed: {e}"))?;
        }
    }
    Ok(report)
}

/// Resolves the uplink target and the per-client straggle pacing.
fn resolve_uplink(
    uplink: Option<&UplinkConfig>,
    id: usize,
) -> Result<Option<(SocketAddr, Duration)>, String> {
    let Some(config) = uplink else {
        return Ok(None);
    };
    let addr: SocketAddr = config
        .addr
        .to_socket_addrs()
        .map_err(|e| format!("bad uplink address: {e}"))?
        .next()
        .ok_or("uplink address resolved to nothing")?;
    let straggle =
        if id == 0 { Duration::from_millis(config.straggle_ms) } else { Duration::ZERO };
    Ok(Some((addr, straggle)))
}

/// Connects every fleet member to `addr` and runs each on its own
/// thread.
fn spawn_clients(
    addr: SocketAddr,
    config: &FleetConfig,
    uplink: Option<&UplinkConfig>,
) -> Result<Vec<JoinHandle<Result<ClientReport, String>>>, String> {
    let mut handles = Vec::with_capacity(config.clients);
    for id in 0..config.clients {
        let client = config.client(id);
        let up = resolve_uplink(uplink, id)?;
        let stream = TcpStream::connect(addr)
            .map_err(|e| format!("client {id} connect failed: {e}"))?;
        handles.push(
            std::thread::Builder::new()
                .name(format!("dbcast-fleet-{id}"))
                .spawn(move || run_client_with(client, stream, up))
                .map_err(|e| format!("spawn failed: {e}"))?,
        );
    }
    Ok(handles)
}

/// Joins the fleet's threads in id order.
fn join_clients(
    handles: Vec<JoinHandle<Result<ClientReport, String>>>,
) -> Result<Vec<ClientReport>, String> {
    let mut clients = Vec::with_capacity(handles.len());
    for handle in handles {
        clients.push(handle.join().map_err(|_| "client thread panicked")??);
    }
    Ok(clients)
}

fn fold_report(
    config: &FleetConfig,
    indexed: bool,
    clients: Vec<ClientReport>,
    dropped_frames: Option<u64>,
) -> FleetReport {
    let mut totals = FleetTotals { dropped_frames, ..FleetTotals::default() };
    for c in &clients {
        totals.requests += c.requests;
        totals.completed += c.completed;
        totals.cache_hits += c.cache_hits;
        totals.conflicts += c.conflicts;
        totals.retunes += c.retunes;
        totals.torn_frames += c.torn_frames;
        totals.decode_errors += c.decode_errors;
    }
    FleetReport { schema: FLEET_SCHEMA, config: *config, indexed, clients, totals }
}

/// Connects a fleet to an already-running broadcast server and runs
/// every client to completion (the server must eventually send the
/// end-of-stream frame, e.g. `dbcast serve --listen-bcast` finishing
/// its request trace).
///
/// # Errors
///
/// Propagates connection failures and client pipeline errors.
pub fn run_fleet(
    addr: impl ToSocketAddrs,
    config: &FleetConfig,
) -> Result<FleetReport, String> {
    run_fleet_with(addr, config, None)
}

/// [`run_fleet`] with an optional telemetry uplink: every client pushes
/// live generation acks and post-measurement slices to
/// `uplink.addr` (see [`UplinkConfig`]).
///
/// # Errors
///
/// Propagates connection failures and client pipeline errors.
pub fn run_fleet_with(
    addr: impl ToSocketAddrs,
    config: &FleetConfig,
    uplink: Option<&UplinkConfig>,
) -> Result<FleetReport, String> {
    let addr: SocketAddr = addr
        .to_socket_addrs()
        .map_err(|e| format!("bad address: {e}"))?
        .next()
        .ok_or("address resolved to nothing")?;
    let handles = spawn_clients(addr, config, uplink)?;
    let clients = join_clients(handles)?;
    // A connecting fleet does not see the server's egress config, so
    // infer index frames from tuning strictly below access.
    let indexed =
        clients.iter().any(|c| c.completed > 0 && c.tuning.mean < c.access.mean - 1e-9);
    Ok(fold_report(config, indexed, clients, None))
}

/// Runs a complete in-process scenario: bind a loopback server, connect
/// the fleet, then drive `source` through the egress until
/// `max_windows` windows have aired. Deterministic for scripted
/// sources; used by the e2e test, the perf benchmark, and the CLI's
/// inline mode.
///
/// # Errors
///
/// Propagates bind, egress, and client pipeline errors.
pub fn run_fleet_inline(
    source: &dyn ProgramSource,
    egress: &EgressConfig,
    net: NetConfig,
    config: &FleetConfig,
) -> Result<(FleetReport, EgressReport), String> {
    run_fleet_inline_with(source, egress, net, config, None)
}

/// [`run_fleet_inline`] with an optional telemetry uplink (see
/// [`UplinkConfig`]); an [`crate::uplink::UplinkServer`] must already
/// be listening at `uplink.addr`.
///
/// # Errors
///
/// Propagates bind, egress, and client pipeline errors.
pub fn run_fleet_inline_with(
    source: &dyn ProgramSource,
    egress: &EgressConfig,
    net: NetConfig,
    config: &FleetConfig,
    uplink: Option<&UplinkConfig>,
) -> Result<(FleetReport, EgressReport), String> {
    let server = BroadcastServer::bind("127.0.0.1:0", net)
        .map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.addr();
    let handles = spawn_clients(addr, config, uplink)?;
    // Every subscriber must be registered before the first frame airs,
    // otherwise late joiners would miss the head of the stream.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.subscriber_count() < config.clients {
        if Instant::now() > deadline {
            server.shutdown();
            return Err("fleet clients did not all subscribe in time".into());
        }
        std::thread::yield_now();
    }
    let stop = AtomicBool::new(false);
    let egress_report = run_egress(&server, source, egress, &stop)?;
    let clients = join_clients(handles)?;
    let dropped = server.dropped_frames();
    server.shutdown();
    let indexed = egress.index.is_some();
    Ok((fold_report(config, indexed, clients, Some(dropped)), egress_report))
}
