//! `serve_steady` and `serve_drift`: a request trace replayed through
//! `ServeRuntime::run` with the deterministic worker, as fast as the
//! runtime takes it.
//!
//! `serve_steady` is a stationary Zipf(0.8) stream: the estimator,
//! drift check, wait accounting and audit do nearly all the work, and
//! only a few warm-up re-allocations happen. `serve_drift` rotates the
//! hot set between trace segments, which forces many full DRP-CDS
//! re-allocations and hot swaps, so re-allocation dominates.

use std::sync::Arc;
use std::time::Instant;

use dbcast_audit::AuditTracer;
use dbcast_model::Database;
use dbcast_serve::{
    poisson_trace, shifted_workload, DriftDetector, FrequencyEstimator, ProgramGeneration,
    ServeConfig, ServeReport, ServeRuntime, Versioned,
};
use dbcast_workload::{Request, RequestTrace, SizeDistribution, WorkloadBuilder};

use crate::report::{Metric, Outcome};
use crate::spans::{SpanId, Tracer};
use crate::{
    median, repeat, timed_setup, traced, Options, Scale, Workload, CATALOGUE_SEED,
};

/// One serve workload's inputs.
#[derive(Debug)]
pub struct ServeInput {
    /// The assumed workload generation 0 is built for.
    pub db: Database,
    /// The request trace.
    pub trace: RequestTrace,
    /// Runtime configuration (deterministic worker, full re-allocation).
    pub config: ServeConfig,
    /// Hot-set rotations in the trace (0 for a stationary trace).
    pub rotations: usize,
}

/// Builds the inputs of `workload` from `seed`.
pub fn setup(workload: Workload, seed: u64, scale: Scale) -> Result<ServeInput, String> {
    // Poisson rates (requests per virtual second) set how many requests
    // the estimator averages over: at 200/s the stationary stream settles
    // after a few warm-up re-allocations; at 300/s each rotation of the
    // drifting stream triggers several.
    let (items, channels, segments, per_segment, rate) = match workload {
        Workload::ServeSteady => (1000, 16, 1, scale.pick(2_000_000, 20_000), 200.0),
        _ => (2000, 32, 5, scale.pick(100_000, 4_000), 300.0),
    };
    // Tiny keeps the channel count, so ticks (one cycle of the fastest
    // channel) stay short enough for drift checks within a short trace.
    let items = if scale.tiny { items / 4 } else { items };
    let db = WorkloadBuilder::new(items)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(CATALOGUE_SEED)
        .build()
        .map_err(|e| format!("workload: {e}"))?;
    // Segment s serves the Zipf profile rotated by s/segments of the
    // catalogue: each rotation moves the hot set to cold items.
    let mut requests: Vec<Request> = Vec::with_capacity(segments * per_segment);
    let mut offset = 0.0;
    for s in 0..segments {
        let profile = if s == 0 {
            db.clone()
        } else {
            shifted_workload(&db, 0.8, s * items / segments).map_err(|e| e.to_string())?
        };
        let part = poisson_trace(&profile, rate, per_segment, seed.wrapping_add(s as u64))
            .map_err(|e| format!("trace: {e}"))?;
        let last = part.requests().last().map_or(0.0, |r| r.time);
        requests
            .extend(part.iter().map(|r| Request { time: r.time + offset, item: r.item }));
        offset += last;
    }
    let config = ServeConfig { channels, ..ServeConfig::default() };
    Ok(ServeInput {
        db,
        trace: RequestTrace::from_requests(requests),
        config,
        rotations: segments - 1,
    })
}

/// The virtual outcome of a replay: identical on every repetition of a
/// seed, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Virtual {
    wait_mean_bits: u64,
    swaps: u64,
    ticks: u64,
    requests: u64,
}

/// One replay: a fresh runtime over the trace.
struct Replay {
    report: ServeReport,
    /// Wall seconds of `ServeRuntime::new`: start-up to the first program.
    start_s: f64,
    /// Wall seconds of `ServeRuntime::run`.
    run_s: f64,
    /// The generation the runtime started from.
    gen0: Arc<Versioned<ProgramGeneration>>,
}

impl Replay {
    fn virtual_outcome(&self) -> Virtual {
        Virtual {
            wait_mean_bits: self.report.waiting.mean().to_bits(),
            swaps: self.report.swaps,
            ticks: self.report.ticks,
            requests: self.report.requests,
        }
    }

    /// Wall nanoseconds of every re-allocation the run made.
    fn realloc_ns(&self) -> Vec<u64> {
        self.report
            .generations
            .iter()
            .filter_map(|g| g.repair.as_ref().map(|r| r.wall_ns))
            .collect()
    }
}

/// Builds a runtime (its initial DRP-CDS is alloc-layer work) and
/// replays the trace through it.
fn replay(
    input: &ServeInput,
    tracer: &Tracer,
    root: Option<SpanId>,
) -> Result<Replay, String> {
    let start = Instant::now();
    let runtime = tracer
        .span("serve.runtime.new", "alloc", root, |_| {
            ServeRuntime::new(&input.db, input.config)
        })
        .map_err(|e| e.to_string())?;
    let start_s = start.elapsed().as_secs_f64();
    let gen0 = runtime.cell().current();
    let start = Instant::now();
    let report = tracer
        .span("serve.runtime.run", "serve", root, |_| runtime.run(&input.trace))
        .map_err(|e| e.to_string())?;
    Ok(Replay { report, start_s, run_s: start.elapsed().as_secs_f64(), gen0 })
}

/// Correctness gate of one replay; returns (attempted, failed).
fn gate(input: &ServeInput, replay: &Replay, outcome: &mut Outcome) -> (u64, u64) {
    let r = &replay.report;
    outcome.check(r.dropped == 0, || format!("{} requests dropped", r.dropped));
    outcome.check(r.unserved == 0, || format!("{} requests unserved", r.unserved));
    outcome.check(r.requests + r.dropped + r.unserved == input.trace.len() as u64, || {
        format!("{} of {} requests accounted", r.requests, input.trace.len())
    });
    outcome.check(r.swaps >= input.rotations as u64, || {
        format!("{} swaps for {} hot-set rotations", r.swaps, input.rotations)
    });
    outcome.check(r.waiting.mean().is_finite() && r.waiting.mean() > 0.0, || {
        format!("mean wait {} is not a positive number", r.waiting.mean())
    });
    (input.trace.len() as u64, r.dropped + r.unserved)
}

/// Runs a serve workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (input, setup_s) = timed_setup(7, || setup(opts.workload, opts.seed, opts.scale))?;
    let mut outcome = Outcome::default();
    if opts.trace {
        run_traced(opts, &input, &mut outcome)?;
        return Ok(outcome);
    }
    // Reports are checked and reduced as they come: a report keeps every
    // request's wait, so holding them all would grow the footprint with
    // the number of replays.
    let mut first = None;
    let mut realloc_ms = Vec::new();
    let mut start_ms = Vec::new();
    let (rates, rss) = repeat(opts.seconds, 3, || {
        let r = replay(&input, &Tracer::off(), None)?;
        let (attempted, failed) = gate(&input, &r, &mut outcome);
        outcome.attempted += attempted;
        outcome.failed += failed;
        let v = *first.get_or_insert(r.virtual_outcome());
        outcome.check(r.virtual_outcome() == v, || {
            "replays of one seed disagree on the virtual outcome".into()
        });
        realloc_ms.extend(r.realloc_ns().into_iter().map(|ns| ns as f64 / 1e6));
        start_ms.push(r.start_s * 1e3);
        Ok(r.report.requests as f64 / r.run_s)
    })?;
    let first = first.expect("at least one replay ran");
    outcome.check(!realloc_ms.is_empty(), || "no re-allocation was measured".into());
    let wait = f64::from_bits(first.wait_mean_bits);
    // The drifting stream's latency is re-allocation. The stationary one
    // makes only a few warm-up re-allocations, whose inputs vary with the
    // seed, so its latency is start-up to the first program instead.
    let latency_ms = match opts.workload {
        Workload::ServeDrift => median(&realloc_ms),
        _ => median(&start_ms),
    };
    outcome.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("throughput_per_s", median(&rates), "1/s"),
        Metric::new("latency_ms_p50", latency_ms, "ms"),
        Metric::new("wait_s", wait, "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    outcome.detail = vec![
        Metric::new("serve_req_per_s", median(&rates), "1/s"),
        Metric::new("serve_wait_mean_s", wait, "s"),
        Metric::new("realloc_ms_p50", median(&realloc_ms), "ms"),
        Metric::new("realloc_samples", realloc_ms.len() as f64, "count"),
        Metric::new("startup_ms_p50", median(&start_ms), "ms"),
        Metric::new("replays", rates.len() as f64, "count"),
        Metric::new("requests_per_replay", input.trace.len() as f64, "count"),
        Metric::new("swaps_per_replay", first.swaps as f64, "count"),
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

/// Per-layer costs of the replayed serving path, measured by replaying
/// the same trace through the estimator, drift detector, wait
/// accounting and audit tracer on their own after the runtime's run.
#[derive(Debug, Default, Clone, Copy)]
struct LayerReplay {
    observe_s: f64,
    tick_s: f64,
    drift_s: f64,
    audit_s: f64,
    ticks: u64,
}

fn layer_replay(
    input: &ServeInput,
    replay: &Replay,
    tracer: &Tracer,
    root: Option<SpanId>,
) -> LayerReplay {
    let gen0 = &replay.gen0;
    let program = &gen0.value.program;
    let bandwidth = input.config.bandwidth;
    let requests = input.trace.requests();
    let mut out =
        LayerReplay { ticks: replay.report.ticks.max(1), ..LayerReplay::default() };

    // Wait accounting: each request's wait against generation 0.
    let waits: Vec<(f64, usize, f64)> =
        tracer.span("model.response_time", "model", root, |_| {
            requests
                .iter()
                .map(|r| {
                    let wait = program.response_time(r.item, r.time).unwrap_or(0.0);
                    let channel = gen0.value.assignment[r.item.index()];
                    let cycle = program.channels()[channel].cycle_size();
                    let size = input.db.items()[r.item.index()].size();
                    (wait, channel, cycle / (2.0 * bandwidth) + size / bandwidth)
                })
                .collect()
        });

    let mut estimator = FrequencyEstimator::new(input.db.len(), input.config.estimator);
    let t = Instant::now();
    tracer.span("serve.estimator.observe", "serve.estimator", root, |_| {
        for r in requests {
            estimator.observe(std::hint::black_box(r.item));
        }
    });
    out.observe_s = t.elapsed().as_secs_f64();

    // Ticks of the mean virtual length the runtime's run advanced by.
    let tick_len = requests.last().map_or(1.0, |r| r.time) / out.ticks as f64;
    let t = Instant::now();
    tracer.span("serve.estimator.tick", "serve.estimator", root, |_| {
        for _ in 0..out.ticks {
            estimator.tick(std::hint::black_box(tick_len));
        }
    });
    out.tick_s = t.elapsed().as_secs_f64();

    let detector: DriftDetector = input.config.detector;
    let mut estimated = Vec::with_capacity(input.db.len());
    let t = Instant::now();
    let drifted = tracer.span("serve.drift.check", "serve.drift", root, |_| {
        let mut drifted = 0u64;
        for _ in 0..out.ticks {
            estimator.frequency_vector_into(&mut estimated);
            let d =
                detector.check(&estimated, &gen0.value.frequencies, estimator.observed());
            drifted += u64::from(d.drifted);
        }
        drifted
    });
    std::hint::black_box(drifted);
    out.drift_s = t.elapsed().as_secs_f64();

    let audit = AuditTracer::new(input.config.audit, input.config.channels);
    let t = Instant::now();
    tracer.span("audit.observe", "audit", root, |_| {
        let mut kept = 0u64;
        for (id, &(wait, channel, predicted)) in waits.iter().enumerate() {
            std::hint::black_box(audit.observe_wait(channel, wait, predicted));
            let seeded = audit.should_sample(id as u64);
            let slow = audit.tail_slow(wait, gen0.value.expected_wait);
            kept += u64::from(seeded || slow);
        }
        std::hint::black_box(kept);
    });
    out.audit_s = t.elapsed().as_secs_f64();
    out
}

fn run_traced(
    opts: &Options,
    input: &ServeInput,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mut result = traced(opts.seconds, 2, |tracer, root| {
        let replay = replay(input, tracer, root)?;
        let layers = layer_replay(input, &replay, tracer, root);
        Ok((replay, layers))
    })?;
    let mut realloc_ns_total = 0u64;
    let mut run_s_total = 0.0;
    for (replay, _) in &result.outputs {
        let (attempted, failed) = gate(input, replay, outcome);
        outcome.attempted += attempted;
        outcome.failed += failed;
        realloc_ns_total += replay.realloc_ns().iter().sum::<u64>();
        run_s_total += replay.run_s;
    }
    // Re-allocation runs inside `ServeRuntime::run`; the runtime times
    // each one (`RepairReport.wall_ns`), so that share of the run's
    // span moves from the serve layer to the alloc layer.
    let table = &mut result.table;
    let moved = realloc_ns_total.min(table.ns("serve"));
    *table.layers.entry("serve").or_insert(0) -= moved;
    *table.layers.entry("alloc").or_insert(0) += moved;

    let n = result.outputs.len() as f64;
    let reqs = input.trace.len() as f64;
    let sum = |f: &dyn Fn(&LayerReplay) -> f64| {
        result.outputs.iter().map(|(_, l)| f(l)).sum::<f64>() / n
    };
    let ticks = result.outputs[0].1.ticks as f64;
    let report = &result.outputs[0].0.report;
    let mut metrics = result.layer_metrics();
    metrics.extend([
        Metric::new("serve.estimator.ns_per_req", sum(&|l| l.observe_s) / reqs * 1e9, "ns"),
        Metric::new("serve.estimator.tick_us", sum(&|l| l.tick_s) / ticks * 1e6, "us"),
        Metric::new("serve.drift.check_us", sum(&|l| l.drift_s) / ticks * 1e6, "us"),
        Metric::new("audit.ns_per_req", sum(&|l| l.audit_s) / reqs * 1e9, "ns"),
        Metric::new("serve.ticks", report.ticks as f64, "count"),
        Metric::new(
            "serve.realloc.count",
            result.outputs[0].0.realloc_ns().len() as f64,
            "count",
        ),
        Metric::new(
            "serve.realloc.share",
            realloc_ns_total as f64 / 1e9 / run_s_total,
            "ratio",
        ),
    ]);
    outcome.metrics = metrics;
    outcome.complete_per_layer();
    outcome.detail = vec![
        Metric::new("traced_reps", n, "count"),
        Metric::new("untraced_wall_ms_p50", median(&result.untraced_walls) * 1e3, "ms"),
    ];
    crate::write_spans(opts, &result.spans);
    Ok(())
}
