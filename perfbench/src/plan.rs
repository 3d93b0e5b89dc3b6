//! `plan_large`: batch planning at production scale. DRP-CDS at
//! N = 100 000 and K = 256, with the CDS descent capped at a fixed move
//! count, followed by `BroadcastProgram::new`. `ServeRuntime::new`
//! cannot start at this N (its initial CDS runs to convergence), so the
//! allocator and program builder are driven directly.

use std::time::Instant;

use dbcast_alloc::{BestMoveEngine, Cds, Drp, DrpCds};
use dbcast_model::{
    average_waiting_time, Allocation, BroadcastProgram, ChannelAllocator, Database,
};
use dbcast_workload::{SizeDistribution, WorkloadBuilder};

use crate::report::{Metric, Outcome};
use crate::spans::{SpanId, Tracer};
use crate::{count_allocations, median, repeat, timed_setup, traced, Options, Scale};

/// CDS moves allowed per plan.
pub const CDS_MOVES: usize = 16;

/// Channel bandwidth of the planned programs.
const BANDWIDTH: f64 = 10.0;

/// The catalogue to plan and the channel count.
#[derive(Debug)]
pub struct PlanInput {
    /// Items with Zipf(0.8) frequencies and Φ = 2 sizes.
    pub db: Database,
    /// Channels.
    pub channels: usize,
}

/// Builds the catalogue from `seed`.
pub fn setup(seed: u64, scale: Scale) -> Result<PlanInput, String> {
    let db = WorkloadBuilder::new(scale.pick(100_000, 2_000))
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(seed)
        .build()
        .map_err(|e| format!("workload: {e}"))?;
    Ok(PlanInput { db, channels: if scale.tiny { 32 } else { 256 } })
}

/// One plan's result.
struct Planned {
    alloc: Allocation,
    program: BroadcastProgram,
    /// Eq. 2 expected wait `W_b` of the planned program.
    wb: f64,
}

fn cds() -> Cds {
    Cds::new().max_iterations(CDS_MOVES)
}

/// The timed operation: DRP-CDS, then the broadcast program.
fn plan(input: &PlanInput) -> Result<(Planned, f64), String> {
    let start = Instant::now();
    let alloc = DrpCds::new()
        .with_cds(cds())
        .allocate(&input.db, input.channels)
        .map_err(|e| format!("allocation failed: {e}"))?;
    let program = BroadcastProgram::new(&input.db, &alloc, BANDWIDTH)
        .map_err(|e| format!("program build failed: {e}"))?;
    let plan_s = start.elapsed().as_secs_f64();
    let wb = average_waiting_time(&input.db, &alloc, BANDWIDTH)
        .map_err(|e| e.to_string())?
        .total();
    Ok((Planned { alloc, program, wb }, plan_s))
}

/// Correctness gate: a valid K-partition with a finite `W_b`.
fn gate(input: &PlanInput, planned: &Planned, outcome: &mut Outcome) {
    let alloc = &planned.alloc;
    outcome
        .check(alloc.validate(&input.db).is_ok(), || "allocation does not validate".into());
    outcome.check(
        alloc.channels() == input.channels && alloc.empty_channels() == 0,
        || {
            format!(
                "{} channels, {} empty, for K = {}",
                alloc.channels(),
                alloc.empty_channels(),
                input.channels
            )
        },
    );
    outcome.check(planned.program.channels().len() == input.channels, || {
        "program does not broadcast every channel".into()
    });
    outcome.check(planned.wb.is_finite() && planned.wb > 0.0, || {
        format!("W_b = {} is not a positive number", planned.wb)
    });
}

/// Runs `plan_large`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (input, setup_s) = timed_setup(15, || setup(opts.seed, opts.scale))?;
    let mut outcome = Outcome::default();
    if opts.trace {
        run_traced(opts, &input, &mut outcome)?;
        return Ok(outcome);
    }
    // Each plan is checked, then dropped, so the footprint stays that of
    // one plan.
    let mut first_wb = None;
    let (plan_s, rss) = repeat(opts.seconds, 3, || {
        let (planned, plan_s) = plan(&input)?;
        gate(&input, &planned, &mut outcome);
        let wb = *first_wb.get_or_insert(planned.wb);
        outcome.check(planned.wb.to_bits() == wb.to_bits(), || {
            "plans of one seed disagree on W_b".into()
        });
        Ok(plan_s)
    })?;
    let wb = first_wb.expect("at least one plan ran");
    outcome.attempted = plan_s.len() as u64;
    let p50 = median(&plan_s);
    outcome.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("throughput_per_s", input.db.len() as f64 / p50, "1/s"),
        Metric::new("latency_ms_p50", p50 * 1e3, "ms"),
        Metric::new("wait_s", wb, "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    outcome.detail = vec![
        Metric::new("plan_s", p50, "s"),
        Metric::new("plan_samples", plan_s.len() as f64, "count"),
        Metric::new("plan_wb_s", wb, "s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::new("error_rate", 0.0, "ratio"),
    ];
    Ok(outcome)
}

/// What one traced plan measured beyond its spans.
struct TracedPlan {
    planned: Planned,
    drp_s: f64,
    engine_init_s: f64,
    cds_s: f64,
    moves: usize,
    program_s: f64,
    allocs: u64,
    bytes: u64,
}

/// The plan split into its layer calls: DRP, the CDS engine's set-up on
/// the DRP result (built once on its own to size it), the capped CDS
/// descent, and the program build.
fn traced_plan(
    input: &PlanInput,
    tracer: &Tracer,
    root: Option<SpanId>,
) -> Result<TracedPlan, String> {
    let db = &input.db;
    let t = Instant::now();
    let (drp, drp_allocs, drp_bytes) = count_allocations(|| {
        tracer.span("alloc.drp", "alloc", root, |_| {
            Drp::new().allocate_traced(db, input.channels)
        })
    });
    let drp = drp.map_err(|e| format!("DRP failed: {e}"))?;
    let drp_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let engine = tracer
        .span("alloc.engine_init", "alloc", root, |_| engine_for(db, &drp.allocation));
    std::hint::black_box(engine.best());
    drop(engine);
    let engine_init_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (cds, cds_allocs, cds_bytes) = count_allocations(|| {
        tracer.span("alloc.cds", "alloc", root, |_| cds().refine(db, drp.allocation))
    });
    let cds = cds.map_err(|e| format!("CDS failed: {e}"))?;
    let cds_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let program = tracer
        .span("model.program_build", "model", root, |_| {
            BroadcastProgram::new(db, &cds.allocation, BANDWIDTH)
        })
        .map_err(|e| format!("program build failed: {e}"))?;
    let program_s = t.elapsed().as_secs_f64();
    let wb = tracer
        .span("model.eq2", "model", root, |_| {
            average_waiting_time(db, &cds.allocation, BANDWIDTH)
        })
        .map_err(|e| e.to_string())?
        .total();
    Ok(TracedPlan {
        moves: cds.steps.len(),
        planned: Planned { alloc: cds.allocation, program, wb },
        drp_s,
        engine_init_s,
        cds_s,
        program_s,
        allocs: drp_allocs + cds_allocs,
        bytes: drp_bytes + cds_bytes,
    })
}

/// The incremental CDS engine over `alloc`, built from the same columns
/// `Cds::refine` hands it.
fn engine_for(db: &Database, alloc: &Allocation) -> BestMoveEngine {
    let stats = alloc.all_channel_stats();
    BestMoveEngine::new(
        alloc.channels(),
        1e-9,
        db.iter().map(|d| d.frequency()).collect(),
        db.iter().map(|d| d.size()).collect(),
        alloc.assignment().iter().map(|&c| c as u32).collect(),
        stats.iter().map(|s| s.frequency).collect(),
        stats.iter().map(|s| s.size).collect(),
    )
}

fn run_traced(
    opts: &Options,
    input: &PlanInput,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let result = traced(opts.seconds, 2, |tracer, root| traced_plan(input, tracer, root))?;
    // The traced split must plan exactly what the timed DRP-CDS plans.
    let (reference, _) = plan(input)?;
    for t in &result.outputs {
        gate(input, &t.planned, outcome);
        outcome.check(t.planned.alloc.assignment() == reference.alloc.assignment(), || {
            "the traced DRP + CDS split planned a different assignment".into()
        });
        outcome.check(t.planned.wb.to_bits() == reference.wb.to_bits(), || {
            "the traced DRP + CDS split planned a different W_b".into()
        });
    }
    outcome.attempted = result.outputs.len() as u64 + 1;
    let ms = |f: &dyn Fn(&TracedPlan) -> f64| {
        median(&result.outputs.iter().map(f).collect::<Vec<_>>()) * 1e3
    };
    let first = &result.outputs[0];
    let moves = first.moves.max(1) as f64;
    let mut metrics = result.layer_metrics();
    metrics.extend([
        Metric::new("alloc.drp.ms", ms(&|t| t.drp_s), "ms"),
        Metric::new("alloc.engine_init.ms", ms(&|t| t.engine_init_s), "ms"),
        Metric::new("alloc.cds.moves", first.moves as f64, "count"),
        Metric::new(
            "alloc.cds.ms_per_move",
            (ms(&|t| t.cds_s) - ms(&|t| t.engine_init_s)).max(0.0) / moves,
            "ms",
        ),
        Metric::new("alloc.bytes", first.bytes as f64, "B"),
        Metric::new("alloc.allocs", first.allocs as f64, "count"),
        Metric::new("model.program_build.ms", ms(&|t| t.program_s), "ms"),
    ]);
    outcome.metrics = metrics;
    outcome.complete_per_layer();
    outcome.detail = vec![
        Metric::new("traced_reps", result.outputs.len() as f64, "count"),
        Metric::new("untraced_wall_ms_p50", median(&result.untraced_walls) * 1e3, "ms"),
    ];
    crate::write_spans(opts, &result.spans);
    Ok(())
}
