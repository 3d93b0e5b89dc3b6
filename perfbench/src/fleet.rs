//! `fleet_swap`: the wire. An in-process loopback broadcast of a
//! scripted source with a mid-run hot swap and (1,m) index frames,
//! measured by two record-then-measure clients, followed by the uplink
//! path that folds their per-generation digests into the `/fleet`
//! document. Both programs are built during set-up, so the allocator
//! does no work here. `OverflowPolicy::Block` makes delivery lossless,
//! so the virtual results repeat exactly for a seed.

use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use dbcast_alloc::DrpCds;
use dbcast_model::{BroadcastProgram, ChannelAllocator, Database};
use dbcast_net::{
    digest_from_frame, encode_data_frame_into, encode_telemetry_frame_into,
    generate_requests, measure, run_egress, run_fleet_inline, AirLog, BroadcastServer,
    CacheKind, ClientReport, DataFrame, EgressConfig, EgressReport, FleetConfig,
    FleetReport, Frame, FrameDecoder, IndexParams, NetConfig, OverflowPolicy,
    RequestOutcome, ScriptedSource, SourceGeneration, StatSummary, TelemetryFrame,
    WorkloadPattern, TELEMETRY_FLAG_SLICE,
};
use dbcast_serve::{shifted_workload, validate_fleet, FleetAggregator, FleetDoc};
use dbcast_workload::{SizeDistribution, WorkloadBuilder};

use crate::report::{Metric, Outcome};
use crate::spans::{SpanId, Tracer, WAIT};
use crate::{median, repeat, timed_setup, traced, Options, Scale, CATALOGUE_SEED};

/// Channel bandwidth of both programs.
const BANDWIDTH: f64 = 10.0;

/// Client requests per virtual second.
const RATE: f64 = 2.0;

/// Uplink rounds per traced repetition: the digests of one session are
/// few, so the ingest path is timed over this many fresh aggregators.
const UPLINK_ROUNDS: usize = 64;

/// Frames encoded and decoded per traced repetition to cost the codec.
const CODEC_FRAMES: usize = 20_000;

/// The scripted session.
#[derive(Debug)]
pub struct FleetInput {
    /// `(activate_at_window, generation)`: generation 1 is DRP-CDS on
    /// the hot set rotated by half the catalogue.
    pub stages: Vec<(u64, SourceGeneration)>,
    /// Egress limits and index parameters.
    pub egress: EgressConfig,
    /// Lossless loopback transport.
    pub net: NetConfig,
    /// Two clients, single-item requests, no cache.
    pub config: FleetConfig,
}

/// Builds the session from `seed`.
pub fn setup(seed: u64, scale: Scale) -> Result<FleetInput, String> {
    let (items, channels) = if scale.tiny { (100, 4) } else { (1000, 16) };
    let db = WorkloadBuilder::new(items)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(CATALOGUE_SEED)
        .build()
        .map_err(|e| format!("workload: {e}"))?;
    let shifted = shifted_workload(&db, 0.8, items / 2).map_err(|e| e.to_string())?;
    let mut programs = Vec::new();
    for (generation, profile) in [(0u64, &db), (1, &shifted)] {
        programs.push(SourceGeneration {
            generation,
            program: program(profile, channels)?,
            frequencies: profile.iter().map(|d| d.frequency()).collect(),
        });
    }
    let config = FleetConfig {
        clients: 2,
        seed,
        requests: scale.pick(3_000, 300),
        rate: RATE,
        cache: CacheKind::None,
        cache_budget: 0.0,
        pattern: WorkloadPattern::Single,
        patterns: 8,
        max_size: 4,
    };
    // Swap at 45% of the arrival span and air long enough that the last
    // request plus four of the slowest cycles fit before the horizon.
    let gen0_window = cycles(&programs[0]).fold(f64::INFINITY, f64::min);
    let min_window = programs.iter().flat_map(cycles).fold(f64::INFINITY, f64::min);
    let max_cycle = programs.iter().flat_map(cycles).fold(0.0, f64::max);
    let span = config.requests as f64 / config.rate;
    let swap_at = ((span * 0.45) / gen0_window).ceil().max(1.0) as u64;
    let max_windows =
        swap_at + ((span * 1.6 + 4.0 * max_cycle) / min_window).ceil() as u64 + 4;
    let mut stages = Vec::new();
    for (i, g) in programs.into_iter().enumerate() {
        stages.push((if i == 0 { 0 } else { swap_at }, g));
    }
    Ok(FleetInput {
        stages,
        egress: EgressConfig {
            index: Some(IndexParams { index_size: 0.5, header_size: 0.05 }),
            max_windows: Some(max_windows),
            pace: None,
        },
        net: NetConfig {
            queue_capacity: 1 << 15,
            overflow: OverflowPolicy::Block,
            write_timeout: Some(Duration::from_secs(30)),
        },
        config,
    })
}

/// Cycle lengths in virtual seconds of `g`'s non-empty channels.
fn cycles(g: &SourceGeneration) -> impl Iterator<Item = f64> + '_ {
    g.program
        .channels()
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| c.cycle_size() / BANDWIDTH)
}

fn program(db: &Database, channels: usize) -> Result<BroadcastProgram, String> {
    let alloc = DrpCds::new().allocate(db, channels).map_err(|e| e.to_string())?;
    BroadcastProgram::new(db, &alloc, BANDWIDTH).map_err(|e| e.to_string())
}

/// One timed session through `run_fleet_inline`.
struct Session {
    report: FleetReport,
    egress: EgressReport,
    wall_s: f64,
}

fn session(input: &FleetInput) -> Result<Session, String> {
    let source = ScriptedSource::new(input.stages.clone());
    let start = Instant::now();
    let (report, egress) =
        run_fleet_inline(&source, &input.egress, input.net, &input.config)?;
    Ok(Session { report, egress, wall_s: start.elapsed().as_secs_f64() })
}

/// Frames each client received: every aired frame, as the transport
/// blocks instead of dropping.
fn frames_delivered(s: &Session) -> u64 {
    s.egress.frames * s.report.clients.len() as u64
}

/// Correctness gate of one session; returns (attempted, failed).
fn gate(input: &FleetInput, s: &Session, outcome: &mut Outcome) -> (u64, u64) {
    let r = &s.report;
    let t = &r.totals;
    outcome.check(r.validate().is_ok(), || {
        format!("fleet report invalid: {}", r.validate().err().unwrap_or_default())
    });
    outcome.check(t.torn_frames == 0, || format!("{} torn frames", t.torn_frames));
    outcome.check(t.decode_errors == 0, || format!("{} decode errors", t.decode_errors));
    outcome.check(t.dropped_frames == Some(0), || {
        format!("{:?} dropped frames", t.dropped_frames)
    });
    outcome.check(s.egress.generations == input.stages.len() as u64, || {
        format!("{} of {} generations aired", s.egress.generations, input.stages.len())
    });
    for c in &r.clients {
        outcome.check(c.generations.len() == input.stages.len(), || {
            format!("client {} saw {} generations", c.id, c.generations.len())
        });
    }
    let failed = (t.requests - t.completed)
        + t.torn_frames
        + t.decode_errors
        + t.dropped_frames.unwrap_or(0);
    (t.requests + frames_delivered(s), failed)
}

/// The per-generation digests the clients would push over the uplink:
/// one acknowledgement each, then one slice per generation.
fn digests(report: &FleetReport) -> Vec<TelemetryFrame> {
    let mut out = Vec::new();
    for c in &report.clients {
        let last = c.generations.last().map_or(0, |g| g.generation);
        let mut ack = TelemetryFrame::empty();
        ack.client = c.id as u32;
        ack.last_generation = last;
        out.push(ack);
        for (i, g) in c.generations.iter().enumerate() {
            let mut t = TelemetryFrame::empty();
            t.client = c.id as u32;
            t.seq = i as u32 + 1;
            t.flags = TELEMETRY_FLAG_SLICE;
            t.last_generation = last;
            t.generation = g.generation;
            t.origin = g.origin;
            t.samples = g.requests;
            t.requests = g.requests;
            t.completed = g.requests;
            t.mean_access = g.mean_access;
            t.mean_tuning = g.mean_tuning;
            t.predicted_access = g.predicted_access;
            out.push(t);
        }
    }
    out
}

/// Encode → `FrameDecoder` → `digest_from_frame` →
/// `FleetAggregator::ingest`: the serve-side uplink path, in process.
/// Returns the aggregator and the number of digests it folded.
fn ingest(
    frames: &[TelemetryFrame],
    published: u64,
) -> Result<(FleetAggregator, usize), String> {
    let mut wire = Vec::new();
    for f in frames {
        encode_telemetry_frame_into(&mut wire, f);
    }
    let aggregator = FleetAggregator::new();
    aggregator.set_published(published);
    let mut decoder = FrameDecoder::new();
    decoder.push(&wire);
    let mut ingested = 0;
    while let Some(frame) =
        decoder.next_frame().map_err(|e| format!("uplink decode: {e}"))?
    {
        if let Frame::Telemetry(t) = frame {
            aggregator.ingest(&digest_from_frame(&t));
            ingested += 1;
        }
    }
    Ok((aggregator, ingested))
}

/// Checks the `/fleet` document against the report it folds.
fn gate_uplink(
    input: &FleetInput,
    report: &FleetReport,
    outcome: &mut Outcome,
) -> Option<FleetDoc> {
    let frames = digests(report);
    let published = input.stages.len() as u64 - 1;
    let rendered = ingest(&frames, published)
        .and_then(|(agg, n)| Ok((validate_fleet(&agg.fleet_json())?, n)));
    match rendered {
        Ok((doc, ingested)) => {
            outcome.check(ingested == frames.len(), || {
                format!("{ingested} of {} digests ingested", frames.len())
            });
            outcome.check(
                doc.clients == report.clients.len() as u64 && doc.stragglers == 0,
                || {
                    format!(
                        "/fleet has {} clients, {} stragglers",
                        doc.clients, doc.stragglers
                    )
                },
            );
            outcome.check(doc.generations.len() == input.stages.len(), || {
                format!("/fleet has {} generations", doc.generations.len())
            });
            Some(doc)
        }
        Err(e) => {
            outcome.check(false, || format!("/fleet document invalid: {e}"));
            None
        }
    }
}

/// Sample-weighted |observed − Eq. 2| / Eq. 2 over the document's
/// generations.
fn eq2_gap(doc: &FleetDoc) -> f64 {
    let samples: u64 = doc.generations.iter().map(|g| g.samples).sum();
    doc.generations.iter().map(|g| g.gap * g.samples as f64).sum::<f64>()
        / samples.max(1) as f64
}

/// The mean over all clients' completed requests of one per-client
/// summary (access or tuning), weighted by each client's sample count.
fn fleet_mean(report: &FleetReport, pick: impl Fn(&ClientReport) -> &StatSummary) -> f64 {
    let (sum, n) = report
        .clients
        .iter()
        .map(pick)
        .fold((0.0, 0), |(sum, n), s| (sum + s.mean * s.count as f64, n + s.count));
    sum / n.max(1) as f64
}

/// Runs `fleet_swap`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (input, setup_s) = timed_setup(11, || setup(opts.seed, opts.scale))?;
    let mut outcome = Outcome::default();
    if opts.trace {
        run_traced(opts, &input, &mut outcome)?;
        return Ok(outcome);
    }
    let (sessions, rss) = repeat(opts.seconds, 3, || session(&input))?;
    let first = &sessions[0];
    let doc = gate_uplink(&input, &first.report, &mut outcome);
    for s in &sessions {
        let (attempted, failed) = gate(&input, s, &mut outcome);
        outcome.attempted += attempted;
        outcome.failed += failed;
        outcome.check(s.report == first.report, || {
            "sessions of one seed disagree on the fleet report".into()
        });
    }
    let rates: Vec<f64> =
        sessions.iter().map(|s| frames_delivered(s) as f64 / s.wall_s).collect();
    let walls: Vec<f64> = sessions.iter().map(|s| s.wall_s * 1e3).collect();
    let access = fleet_mean(&first.report, |c| &c.access);
    let tuning = fleet_mean(&first.report, |c| &c.tuning);
    let gap = doc.as_ref().map_or(f64::NAN, eq2_gap);
    outcome.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("throughput_per_s", median(&rates), "1/s"),
        Metric::new("latency_ms_p50", median(&walls), "ms"),
        Metric::new("wait_s", access, "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    outcome.detail = vec![
        Metric::new("fleet_frames_per_s", median(&rates), "1/s"),
        Metric::new("fleet_session_ms_p50", median(&walls), "ms"),
        Metric::new("sessions", sessions.len() as f64, "count"),
        Metric::new("frames_per_client", first.egress.frames as f64, "count"),
        Metric::new("fleet_access_mean_s", access, "s"),
        Metric::new("fleet_tuning_mean_s", tuning, "s"),
        Metric::new("fleet_eq2_gap", gap, "ratio"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::new(
            "error_rate",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    Ok(outcome)
}

/// One client's part of a traced session.
struct ClientRun {
    outcomes: Vec<RequestOutcome>,
    decode_errors: u64,
    record_s: f64,
    measure_s: f64,
}

/// What one traced session measured beyond its spans.
struct TracedSession {
    clients: Vec<ClientRun>,
    egress: EgressReport,
    egress_s: f64,
    bytes_sent: u64,
    queue_peak: u64,
    dropped: u64,
    encode_ns: f64,
    decode_ns: f64,
    ingest_ns: f64,
}

/// The session of [`session`] composed from its public parts, so each
/// layer call gets its own span: bind, connect, the subscription
/// barrier, egress, the clients' record and measure, the join,
/// shutdown; then the frame codec and the uplink path on their own.
fn traced_session(
    input: &FleetInput,
    digests: &[TelemetryFrame],
    tracer: &Tracer,
    root: Option<SpanId>,
) -> Result<TracedSession, String> {
    let server = tracer
        .span("net.server.bind", "net.server", root, |_| {
            BroadcastServer::bind("127.0.0.1:0", input.net)
        })
        .map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.addr();
    let source = ScriptedSource::new(input.stages.clone());
    let stop = AtomicBool::new(false);
    let (clients, egress, egress_s) = std::thread::scope(|scope| {
        let handles = tracer.span("net.client.connect", "net.client", root, |_| {
            (0..input.config.clients)
                .map(|id| {
                    let config = input.config.client(id);
                    let stream = TcpStream::connect(addr)
                        .map_err(|e| format!("client {id} connect failed: {e}"))?;
                    Ok(scope.spawn(move || -> Result<ClientRun, String> {
                        let t = Instant::now();
                        let log =
                            tracer.span("net.client.record", "net.client", root, |_| {
                                AirLog::record(stream)
                            })?;
                        let record_s = t.elapsed().as_secs_f64();
                        let t = Instant::now();
                        let outcomes = tracer.span(
                            "net.client.measure",
                            "net.client",
                            root,
                            |_| {
                                let first = &log.worlds[0].directory;
                                let requests =
                                    generate_requests(&config, first, log.coverage_start());
                                measure(&config, &log, &requests)
                            },
                        )?;
                        Ok(ClientRun {
                            outcomes,
                            decode_errors: log.decode_errors,
                            record_s,
                            measure_s: t.elapsed().as_secs_f64(),
                        })
                    }))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        tracer.span("fleet.await_subscribers", WAIT, root, |_| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while server.subscriber_count() < input.config.clients {
                if Instant::now() > deadline {
                    return Err("clients did not all subscribe in time".to_string());
                }
                std::thread::yield_now();
            }
            Ok(())
        })?;
        let t = Instant::now();
        let egress = tracer.span("net.egress.run", "net.egress", root, |_| {
            run_egress(&server, &source, &input.egress, &stop)
        })?;
        let egress_s = t.elapsed().as_secs_f64();
        let clients = tracer.span("fleet.join_clients", WAIT, root, |_| {
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
                .collect::<Result<Vec<_>, String>>()
        })?;
        Ok::<_, String>((clients, egress, egress_s))
    })?;
    let (bytes_sent, queue_peak, dropped) =
        tracer.span("net.server.shutdown", "net.server", root, |_| {
            let stats = (server.bytes_sent(), server.queue_peak(), server.dropped_frames());
            server.shutdown();
            stats
        });
    let (encode_ns, decode_ns) = tracer
        .span("net.frame.codec", "net.frame", root, |_| codec_cost(&input.stages[0].1));
    let ingest_ns = tracer.span("net.uplink.ingest", "net.uplink", root, |_| {
        let published = input.stages.len() as u64 - 1;
        let t = Instant::now();
        for _ in 0..UPLINK_ROUNDS {
            std::hint::black_box(ingest(digests, published))?;
        }
        Ok::<_, String>(
            t.elapsed().as_nanos() as f64 / (UPLINK_ROUNDS * digests.len()) as f64,
        )
    })?;
    Ok(TracedSession {
        clients,
        egress,
        egress_s,
        bytes_sent,
        queue_peak,
        dropped,
        encode_ns,
        decode_ns,
        ingest_ns,
    })
}

/// Nanoseconds per frame to encode, then decode, the data frames of
/// `generation`'s program, cycled to [`CODEC_FRAMES`] frames.
fn codec_cost(generation: &SourceGeneration) -> (f64, f64) {
    let frames: Vec<DataFrame> = generation
        .program
        .channels()
        .iter()
        .enumerate()
        .flat_map(|(c, ch)| {
            ch.slots().iter().map(move |s| DataFrame {
                channel: c as u32,
                item: s.item.index() as u32,
                generation: generation.generation,
                start: s.offset / BANDWIDTH,
                duration: s.size / BANDWIDTH,
            })
        })
        .cycle()
        .take(CODEC_FRAMES)
        .collect();
    let mut wire = Vec::with_capacity(frames.len() * 64);
    let t = Instant::now();
    for f in &frames {
        encode_data_frame_into(&mut wire, std::hint::black_box(f));
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / frames.len() as f64;
    let mut decoder = FrameDecoder::new();
    let t = Instant::now();
    decoder.push(&wire);
    let mut decoded = 0usize;
    while let Ok(Some(frame)) = decoder.next_frame() {
        decoded += usize::from(matches!(std::hint::black_box(frame), Frame::Data(_)));
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / frames.len() as f64;
    assert_eq!(decoded, frames.len(), "every encoded frame decodes");
    (encode_ns, decode_ns)
}

fn run_traced(
    opts: &Options,
    input: &FleetInput,
    outcome: &mut Outcome,
) -> Result<(), String> {
    // The library's own session is the reference the composed traced
    // sessions must reproduce, and the source of the uplink digests.
    let reference = session(input)?;
    let (attempted, failed) = gate(input, &reference, outcome);
    outcome.attempted += attempted;
    outcome.failed += failed;
    let doc = gate_uplink(input, &reference.report, outcome);
    let frames = digests(&reference.report);
    let result = traced(opts.seconds, 2, |tracer, root| {
        traced_session(input, &frames, tracer, root)
    })?;
    for t in &result.outputs {
        outcome.check(t.dropped == 0, || format!("{} dropped frames", t.dropped));
        for (run, client) in t.clients.iter().zip(&reference.report.clients) {
            let access: Vec<f64> =
                run.outcomes.iter().filter(|o| !o.incomplete).map(|o| o.access).collect();
            let torn: u64 = run.outcomes.iter().map(|o| o.torn).sum();
            outcome.check(
                StatSummary::from_values(&access) == client.access
                    && torn == client.torn_frames
                    && run.decode_errors == client.decode_errors,
                || {
                    format!(
                        "traced client {} measured differently from the library",
                        client.id
                    )
                },
            );
        }
    }
    let n = result.outputs.len() as f64;
    let mean =
        |f: &dyn Fn(&TracedSession) -> f64| result.outputs.iter().map(f).sum::<f64>() / n;
    let per_client = |f: &dyn Fn(&ClientRun) -> f64| {
        mean(&|t| t.clients.iter().map(f).sum::<f64>() / t.clients.len() as f64)
    };
    let p50 = |f: &dyn Fn(&TracedSession) -> f64| {
        median(&result.outputs.iter().map(f).collect::<Vec<_>>())
    };
    let first = &result.outputs[0];
    let r = &reference.report;
    let mut metrics = result.layer_metrics();
    metrics.extend([
        Metric::new("net.frame.encode_ns", p50(&|t| t.encode_ns), "ns"),
        Metric::new("net.frame.decode_ns", p50(&|t| t.decode_ns), "ns"),
        Metric::new("net.egress.busy_s", mean(&|t| t.egress_s), "s"),
        Metric::new("net.egress.frames", first.egress.frames as f64, "count"),
        Metric::new("net.egress.truncated", first.egress.truncated as f64, "count"),
        Metric::new("net.server.bytes_sent", first.bytes_sent as f64, "B"),
        Metric::new("net.server.queue_peak", mean(&|t| t.queue_peak as f64), "count"),
        Metric::new("net.server.dropped_frames", mean(&|t| t.dropped as f64), "count"),
        Metric::new("net.client.record_s", per_client(&|c| c.record_s), "s"),
        Metric::new("net.client.measure_s", per_client(&|c| c.measure_s), "s"),
        Metric::new(
            "net.client.completed_ratio",
            r.totals.completed as f64 / r.totals.requests.max(1) as f64,
            "ratio",
        ),
        Metric::new("net.client.tuning_mean_s", fleet_mean(r, |c| &c.tuning), "s"),
        Metric::new("net.fleet.eq2_gap", doc.as_ref().map_or(f64::NAN, eq2_gap), "ratio"),
        Metric::new("net.uplink.ingest_ns", p50(&|t| t.ingest_ns), "ns"),
    ]);
    outcome.metrics = metrics;
    outcome.complete_per_layer();
    outcome.detail = vec![
        Metric::new("traced_reps", n, "count"),
        Metric::new("untraced_wall_ms_p50", median(&result.untraced_walls) * 1e3, "ms"),
        Metric::new("library_session_ms", reference.wall_s * 1e3, "ms"),
    ];
    crate::write_spans(opts, &result.spans);
    Ok(())
}
