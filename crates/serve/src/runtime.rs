//! The serving runtime: the closed control loop
//! `estimator → drift detector → re-allocator → hot swap`.
//!
//! The runtime streams the current broadcast program in *virtual time*:
//! requests are consumed in arrival order and each is served
//! analytically against the program generation active at its arrival
//! (`BroadcastProgram::response_time`), so the loop is exact,
//! deterministic and runs millions of requests per second — the
//! serving-side dual of the discrete-event simulator.
//!
//! Time is chopped into **ticks** of one full cycle of the slowest
//! channel of the active generation. All control actions happen at tick
//! boundaries, which is what makes the swap safe-by-construction:
//!
//! 1. a finished re-allocation is **installed** (published as the next
//!    generation through [`EpochCell`]),
//! 2. the estimator **decays** one EWMA step,
//! 3. the drift detector compares the estimated frequency vector
//!    against the active generation's build profile and may **dispatch**
//!    a re-allocation.
//!
//! Requests in flight across a swap keep the `Arc` of the generation
//! that admitted them, so their waits are accounted to that generation
//! — nothing is dropped, re-routed or double-counted.
//!
//! Re-allocation runs either inline ([`WorkerMode::Deterministic`], the
//! seed-replayable mode the tests pin) or on a background worker thread
//! over `std::sync::mpsc` channels ([`WorkerMode::Threaded`], the
//! production mode — the serving loop never blocks on DRP-CDS).

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbcast_alloc::{DrpCds, DynamicBroadcast, RepairOutcome};
use dbcast_audit::{
    AuditConfig, AuditSummary, AuditTracer, TraceRecord, FLAG_SEEDED, FLAG_TAIL,
};
use dbcast_flight::{EventKind, FlightEvent};
use dbcast_model::{
    average_waiting_time, AllocError, Allocation, BroadcastProgram, ChannelAllocator,
    Database, ItemId, ItemSpec, ModelError,
};
use dbcast_obs::metrics::{Counter, Gauge, Histogram};
use dbcast_sim::SummaryStats;
use dbcast_workload::RequestTrace;
use serde::{Deserialize, Serialize};

use crate::drift::{Drift, DriftDetector};
use crate::estimator::{EstimatorConfig, FrequencyEstimator};
use crate::slo::{SloConfig, SloReport, SloTracker};
use crate::swap::EpochCell;

/// How a drift-triggered re-allocation recomputes the program.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RepairMode {
    /// Full DRP-CDS from scratch on the estimated workload.
    Full,
    /// Budgeted incremental repair: seed a [`DynamicBroadcast`] with the
    /// serving assignment re-weighted to the estimated frequencies and
    /// apply at most `budget` steepest-descent moves.
    Budgeted {
        /// Maximum CDS moves per repair.
        budget: usize,
    },
}

impl RepairMode {
    /// Stable name for reports and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            RepairMode::Full => "full",
            RepairMode::Budgeted { .. } => "budgeted",
        }
    }
}

/// Where the re-allocation work runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerMode {
    /// Recompute inline at the detection boundary; the result installs
    /// at the *next* boundary (mirroring the threaded handoff), making
    /// the whole closed loop bit-for-bit seed-replayable.
    Deterministic,
    /// Recompute on a background thread; the serving loop polls for the
    /// result at each boundary and installs the first one it finds.
    Threaded,
}

/// Configuration of a [`ServeRuntime`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Broadcast channels.
    pub channels: usize,
    /// Channel bandwidth in size units per second.
    pub bandwidth: f64,
    /// Workload estimator (count-min + EWMA) parameters.
    pub estimator: EstimatorConfig,
    /// Drift detector parameters.
    pub detector: DriftDetector,
    /// Re-allocation strategy on drift.
    pub repair: RepairMode,
    /// Inline (deterministic) or background-thread re-allocation.
    pub worker: WorkerMode,
    /// Stop serving after this many ticks (`None` = run the whole
    /// trace). Requests past the cap are left unserved, not dropped.
    pub max_ticks: Option<u64>,
    /// Eq. 2–anchored SLO tracking (`None` = off).
    pub slo: Option<SloConfig>,
    /// Wall-clock milliseconds to sleep per virtual tick (0 = run at
    /// full speed). Replays finish in well under a second at full
    /// speed; pacing stretches a run so live endpoints can be scraped
    /// mid-flight.
    pub pace_ms: u64,
    /// Fail point: panic at this tick (after recording a `Fault`
    /// flight event), for postmortem-dump drills. `None` in production.
    pub inject_panic_at_tick: Option<u64>,
    /// Per-request audit tracer (always on; the sampling shift keeps
    /// its steady-state cost to a hash and compare per request).
    pub audit: AuditConfig,
    /// Fail point: multiply observed waits on this channel by
    /// [`ServeConfig::inject_slow_factor`], for residual-attribution
    /// drills. `None` in production.
    pub inject_slow_channel: Option<usize>,
    /// Wait multiplier applied on [`ServeConfig::inject_slow_channel`]
    /// (ignored when that is `None`).
    pub inject_slow_factor: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            channels: 6,
            bandwidth: 10.0,
            estimator: EstimatorConfig::default(),
            detector: DriftDetector::default(),
            repair: RepairMode::Full,
            worker: WorkerMode::Deterministic,
            max_ticks: None,
            slo: None,
            pace_ms: 0,
            inject_panic_at_tick: None,
            audit: AuditConfig::default(),
            inject_slow_channel: None,
            inject_slow_factor: 1.0,
        }
    }
}

/// Errors from the serving runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The initial (or a re-run) allocation failed.
    Alloc(AllocError),
    /// Building a broadcast program failed.
    Model(ModelError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Alloc(e) => write!(f, "allocation failed: {e}"),
            ServeError::Model(e) => write!(f, "program construction failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<AllocError> for ServeError {
    fn from(e: AllocError) -> Self {
        ServeError::Alloc(e)
    }
}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> Self {
        ServeError::Model(e)
    }
}

/// One published program generation: the schedule plus the frequency
/// profile and assignment it was optimized for.
#[derive(Debug)]
pub struct ProgramGeneration {
    /// The concrete cyclic schedules being broadcast.
    pub program: BroadcastProgram,
    /// The (normalized) frequency profile the allocation was built from.
    pub frequencies: Vec<f64>,
    /// The item → channel assignment.
    pub assignment: Vec<usize>,
    /// Eq. 3 cost of the assignment under `frequencies`.
    pub cost: f64,
    /// Eq. 2 expected wait `W_b` under `frequencies` (seconds) — the
    /// analytical SLO target this generation is held to.
    pub expected_wait: f64,
}

/// What one re-allocation did — surfaced from
/// [`RepairOutcome`](dbcast_alloc::RepairOutcome) through the runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairReport {
    /// `"full"` or `"budgeted"`.
    pub mode: String,
    /// CDS moves applied (budgeted mode; 0 for full recompute).
    pub moves: usize,
    /// Whether the budgeted repair ran out of moves with gain left.
    pub budget_exhausted: bool,
    /// Lower bound on the unrealized gain when the budget was exhausted.
    pub remaining_gain_bound: f64,
    /// Wall-clock nanoseconds the re-allocation took.
    pub wall_ns: u64,
}

/// Per-generation serving statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// Generation number (0 = the initial program).
    pub generation: u64,
    /// Virtual time at which the generation went live.
    pub installed_at: f64,
    /// Tick index at which the generation went live.
    pub installed_tick: u64,
    /// Requests whose arrival this generation admitted (their waits are
    /// accounted here even if they completed after a later swap).
    pub requests: u64,
    /// Waiting times of those requests (seconds).
    pub waiting: SummaryStats,
    /// Eq. 3 cost of the generation under its build profile.
    pub cost: f64,
    /// L1 drift distance measured when the replacing re-allocation was
    /// dispatched (`None` for generation 0).
    pub drift_at_dispatch: Option<f64>,
    /// What the re-allocation producing this generation did (`None` for
    /// generation 0).
    pub repair: Option<RepairReport>,
    /// Virtual seconds from drift detection to installation (`None` for
    /// generation 0).
    pub swap_latency: Option<f64>,
    /// SLO outcome of the generation (`None` when tracking is off).
    pub slo: Option<SloReport>,
}

/// The outcome of one serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Requests served (admitted and accounted).
    pub requests: u64,
    /// Requests for items no channel broadcasts (should be 0 — the
    /// catalogue is closed).
    pub dropped: u64,
    /// Requests left unserved because `max_ticks` cut the run short.
    pub unserved: u64,
    /// Drift detections that dispatched a re-allocation.
    pub drift_events: u64,
    /// Requests that exceeded the per-request SLO slow threshold
    /// (0 when tracking is off).
    pub slo_breaches: u64,
    /// Re-allocations dispatched by the SLO tracker rather than L1
    /// drift (0 when tracking is off or `trigger` is unset).
    pub slo_trigger_events: u64,
    /// Hot swaps performed.
    pub swaps: u64,
    /// Ticks the runtime advanced through.
    pub ticks: u64,
    /// Waiting-time statistics across all served requests.
    pub waiting: SummaryStats,
    /// Per-generation breakdown, in installation order.
    pub generations: Vec<GenerationStats>,
    /// The assignment being served when the run ended.
    pub final_assignment: Vec<usize>,
    /// The estimator's frequency vector when the run ended.
    pub estimated_frequencies: Vec<f64>,
    /// Audit-tracer totals and the final generation's residual table.
    pub audit: AuditSummary,
}

impl ServeReport {
    /// The stats entry of the generation serving at the end of the run.
    pub fn final_generation(&self) -> &GenerationStats {
        self.generations.last().expect("at least generation 0 exists")
    }
}

/// A re-allocation job handed to the worker.
struct RepairJob {
    /// Generation the job was computed against (stale results whose
    /// base generation was already replaced are discarded).
    base_generation: u64,
    /// The estimated workload to optimize for.
    db: Database,
    /// The serving assignment (seed for budgeted repair).
    assignment: Vec<usize>,
    /// L1 distance at dispatch (for the report).
    drift: f64,
    /// Virtual dispatch time (for swap-latency accounting).
    dispatched_at: f64,
    /// Tick at dispatch (flight-event coordinates).
    dispatched_tick: u64,
}

/// The worker's answer.
struct RepairResult {
    base_generation: u64,
    db: Database,
    assignment: Vec<usize>,
    repair: RepairReport,
    drift: f64,
    dispatched_at: f64,
}

/// Runs one re-allocation job (shared by both worker modes).
fn recompute(job: &RepairJob, mode: RepairMode, channels: usize) -> Option<RepairResult> {
    let _span = dbcast_obs::span!("serve.repair");
    let start = Instant::now();
    let (assignment, moves, exhausted, bound) = match mode {
        RepairMode::Full => {
            let alloc = DrpCds::new().allocate(&job.db, channels).ok()?;
            (alloc.assignment().to_vec(), 0, false, 0.0)
        }
        RepairMode::Budgeted { budget } => {
            let seed_alloc =
                Allocation::from_assignment(&job.db, channels, job.assignment.clone())
                    .ok()?;
            let (live, handles) =
                DynamicBroadcast::from_allocation(&job.db, &seed_alloc).ok()?;
            let mut live = live.with_repair_budget(budget);
            let outcome = live.repair();
            let assignment: Vec<usize> = handles
                .iter()
                .map(|&h| live.channel_of(h).expect("handles stay live during repair"))
                .collect();
            let (exhausted, bound) = match outcome {
                RepairOutcome::Converged(_) => (false, 0.0),
                RepairOutcome::BudgetExhausted { remaining_gain_bound, .. } => {
                    (true, remaining_gain_bound)
                }
            };
            (assignment, outcome.stats().moves, exhausted, bound)
        }
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    dbcast_flight::record(
        FlightEvent::new(
            EventKind::RepairOutcome,
            job.dispatched_tick,
            job.base_generation,
            job.dispatched_at,
        )
        .value(wall_ns as f64 / 1e6)
        .extra(moves as u64),
    );
    Some(RepairResult {
        base_generation: job.base_generation,
        db: job.db.clone(),
        assignment,
        repair: RepairReport {
            mode: mode.name().to_string(),
            moves,
            budget_exhausted: exhausted,
            remaining_gain_bound: bound,
            wall_ns,
        },
        drift: job.drift,
        dispatched_at: job.dispatched_at,
    })
}

/// The request's position in the channel's cyclic "queue" at `now`:
/// how many of the channel's slots start strictly between the current
/// broadcast phase and the requested item's next start. Deterministic
/// and allocation-free (a scan over the channel's slot table).
fn queue_position(
    program: &BroadcastProgram,
    channel: usize,
    item: ItemId,
    now: f64,
    bandwidth: f64,
) -> u64 {
    let Some(schedule) = program.channels().get(channel) else { return 0 };
    let cycle = schedule.cycle_size();
    if cycle <= 0.0 {
        return 0;
    }
    let Some(slot) = schedule.slot_of(item) else { return 0 };
    let phase = (now * bandwidth).rem_euclid(cycle);
    let target = (slot.offset - phase).rem_euclid(cycle);
    schedule
        .slots()
        .iter()
        .filter(|s| {
            let delta = (s.offset - phase).rem_euclid(cycle);
            delta < target
        })
        .count() as u64
}

/// The long-running serving runtime.
///
/// # Example
///
/// ```
/// use dbcast_serve::{poisson_trace, ServeConfig, ServeRuntime};
/// use dbcast_workload::WorkloadBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let db = WorkloadBuilder::new(40).skewness(0.8).seed(1).build()?;
/// let trace = poisson_trace(&db, 50.0, 2_000, 2)?;
/// let runtime = ServeRuntime::new(&db, ServeConfig::default())?;
/// let report = runtime.run(&trace)?;
/// assert_eq!(report.requests, 2_000);
/// assert_eq!(report.dropped, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ServeRuntime {
    config: ServeConfig,
    /// Item sizes (server-side ground truth; frequencies are estimated).
    sizes: Vec<f64>,
    /// The program cell readers share.
    cell: Arc<EpochCell<ProgramGeneration>>,
    /// Registry handles resolved once at construction — the serving
    /// loop records through these without ever touching the registry's
    /// name tables (no lock, no lookup, no allocation per tick).
    metrics: ServeMetrics,
    /// Per-request audit tracer; shared with exposition readers.
    audit: Arc<AuditTracer>,
}

/// The serving runtime's metric handles, interned at construction.
#[derive(Debug)]
struct ServeMetrics {
    requests: &'static Counter,
    dropped: &'static Counter,
    drift_events: &'static Counter,
    swaps: &'static Counter,
    budget_exhausted: &'static Counter,
    ticks: &'static Counter,
    slo_breaches: &'static Counter,
    slo_trigger_events: &'static Counter,
    drift_distance: &'static Gauge,
    generation: &'static Gauge,
    generation_cost: &'static Gauge,
    slo_burn_rate: &'static Gauge,
    slo_target_wait: &'static Gauge,
    swap_latency: &'static Histogram,
    wait: &'static Histogram,
    audit_sampled: &'static Counter,
    audit_tail: &'static Counter,
    audit_straddled: &'static Counter,
    /// `serve.audit.residual.<i>`, one handle per channel.
    audit_residual: Vec<&'static Gauge>,
}

impl ServeMetrics {
    fn resolve(channels: usize) -> Self {
        let r = dbcast_obs::registry();
        ServeMetrics {
            requests: r.counter("serve.requests"),
            dropped: r.counter("serve.dropped"),
            drift_events: r.counter("serve.drift_events"),
            swaps: r.counter("serve.swaps"),
            budget_exhausted: r.counter("serve.repair_budget_exhausted"),
            ticks: r.counter("serve.ticks"),
            slo_breaches: r.counter("serve.slo.breaches"),
            slo_trigger_events: r.counter("serve.slo.trigger_events"),
            drift_distance: r.gauge("serve.drift_distance"),
            generation: r.gauge("serve.generation"),
            generation_cost: r.gauge("serve.generation_cost"),
            slo_burn_rate: r.gauge("serve.slo.burn_rate"),
            slo_target_wait: r.gauge("serve.slo.target_wait"),
            swap_latency: r.histogram("serve.swap_latency"),
            wait: r.histogram("serve.wait"),
            audit_sampled: r.counter("serve.audit.sampled"),
            audit_tail: r.counter("serve.audit.tail_sampled"),
            audit_straddled: r.counter("serve.audit.straddled"),
            audit_residual: (0..channels)
                .map(|i| r.gauge(&format!("serve.audit.residual.{i}")))
                .collect(),
        }
    }
}

impl ServeRuntime {
    /// Builds the runtime: allocates generation 0 with DRP-CDS on the
    /// *assumed* workload `db` and publishes it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Alloc`] if the initial allocation is infeasible
    /// (`K > N` or `K = 0`), [`ServeError::Model`] for a bad bandwidth.
    pub fn new(db: &Database, config: ServeConfig) -> Result<Self, ServeError> {
        let alloc = DrpCds::new().allocate(db, config.channels)?;
        let program = BroadcastProgram::new(db, &alloc, config.bandwidth)?;
        let expected_wait = average_waiting_time(db, &alloc, config.bandwidth)?.total();
        let generation = ProgramGeneration {
            program,
            frequencies: db.iter().map(|d| d.frequency()).collect(),
            assignment: alloc.assignment().to_vec(),
            cost: alloc.total_cost(),
            expected_wait,
        };
        let runtime = ServeRuntime {
            config,
            sizes: db.iter().map(|d| d.size()).collect(),
            cell: Arc::new(EpochCell::new(generation)),
            metrics: ServeMetrics::resolve(config.channels),
            audit: Arc::new(AuditTracer::new(config.audit, config.channels)),
        };
        runtime.publish_channel_gauges(&runtime.cell.current().value);
        Ok(runtime)
    }

    /// Publishes the per-channel Eq. 2 gauges for the serving
    /// generation: `serve.channel.load.<i>` is channel i's share of the
    /// access probability (F_i over the generation's build profile) and
    /// `serve.channel.expected_wait.<i>` its contribution to the
    /// analytical wait, F_i·Z_i/(2b) seconds.
    fn publish_channel_gauges(&self, gen: &ProgramGeneration) {
        let r = dbcast_obs::registry();
        let mut load = vec![0.0f64; self.config.channels];
        for (item, &ch) in gen.assignment.iter().enumerate() {
            if ch < load.len() {
                load[ch] += gen.frequencies[item];
            }
        }
        let channels = gen.program.channels();
        for (i, &f_i) in load.iter().enumerate() {
            let cycle = channels.get(i).map(|c| c.cycle_size()).unwrap_or(0.0);
            let w_i = f_i * cycle / (2.0 * self.config.bandwidth);
            r.gauge(&format!("serve.channel.load.{i}")).set(f_i);
            r.gauge(&format!("serve.channel.expected_wait.{i}")).set(w_i);
        }
    }

    /// The shared program cell — clone it into reader threads to follow
    /// swaps without blocking.
    pub fn cell(&self) -> Arc<EpochCell<ProgramGeneration>> {
        Arc::clone(&self.cell)
    }

    /// The per-request audit tracer — clone it into exposition readers
    /// (`/exemplars`, the OpenMetrics exemplar provider) to snapshot
    /// traces and residuals without blocking the serving loop.
    pub fn audit(&self) -> Arc<AuditTracer> {
        Arc::clone(&self.audit)
    }

    /// The per-item Eq. 2 prediction for `item` on `channel` of `gen`:
    /// the expected probe wait of a cycle, `cycle_c/(2b)`, plus the
    /// item's own download time `z_i/b`.
    fn predicted_wait(&self, gen: &ProgramGeneration, channel: usize, item: ItemId) -> f64 {
        let cycle =
            gen.program.channels().get(channel).map(|c| c.cycle_size()).unwrap_or(0.0);
        let size = self.sizes.get(item.index()).copied().unwrap_or(0.0);
        cycle / (2.0 * self.config.bandwidth) + size / self.config.bandwidth
    }

    /// One tick = one full cycle of the *fastest* non-empty channel of
    /// `gen`: the finest cycle boundary the program offers. All control
    /// actions (estimator aging, drift checks, swap installs) land on
    /// these boundaries, so a swap never interrupts the fastest cycle
    /// mid-flight and slower channels only ever change programs at one
    /// of their own item boundaries.
    fn tick_len(&self, gen: &ProgramGeneration) -> f64 {
        let min_cycle = gen
            .program
            .channels()
            .iter()
            .map(|c| c.cycle_size())
            .filter(|&s| s > 0.0)
            .fold(f64::INFINITY, f64::min);
        if min_cycle.is_finite() {
            min_cycle / self.config.bandwidth
        } else {
            // Unreachable for a validated database (some channel holds
            // an item), but keep the loop well-founded regardless.
            1.0
        }
    }

    /// Materializes the estimator's current view as a `Database`
    /// (estimated frequencies × ground-truth sizes).
    fn estimated_db(&self, estimator: &FrequencyEstimator) -> Database {
        let freqs = estimator.frequency_vector();
        Database::try_from_specs(
            freqs
                .iter()
                .zip(&self.sizes)
                .map(|(&f, &z)| ItemSpec::new(f, z))
                .collect::<Vec<_>>(),
        )
        .expect("estimator frequencies are positive and sizes come from a valid db")
    }

    /// Serves `trace` to completion (or `max_ticks`), returning the
    /// full closed-loop report.
    ///
    /// # Errors
    ///
    /// [`ServeError::Model`] if installing a recomputed program fails
    /// (cannot happen for a catalogue-covering assignment).
    pub fn run(&self, trace: &RequestTrace) -> Result<ServeReport, ServeError> {
        let _span = dbcast_obs::span!("serve.runtime.run");
        let mut estimator =
            FrequencyEstimator::new(self.sizes.len(), self.config.estimator);

        // Threaded worker: jobs flow out, results flow back; dropping
        // the sender shuts the thread down.
        let worker = match self.config.worker {
            WorkerMode::Deterministic => None,
            WorkerMode::Threaded => {
                let (job_tx, job_rx) = std::sync::mpsc::channel::<RepairJob>();
                let (res_tx, res_rx) = std::sync::mpsc::channel::<RepairResult>();
                let mode = self.config.repair;
                let channels = self.config.channels;
                let handle = std::thread::spawn(move || {
                    while let Ok(job) = job_rx.recv() {
                        if let Some(result) = recompute(&job, mode, channels) {
                            if res_tx.send(result).is_err() {
                                break;
                            }
                        }
                    }
                });
                Some((job_tx, res_rx, handle))
            }
        };

        let mut report = ServeReport {
            requests: 0,
            dropped: 0,
            unserved: 0,
            drift_events: 0,
            slo_breaches: 0,
            slo_trigger_events: 0,
            swaps: 0,
            ticks: 0,
            waiting: SummaryStats::new(),
            generations: Vec::new(),
            final_assignment: Vec::new(),
            estimated_frequencies: Vec::new(),
            audit: AuditSummary::default(),
        };
        let mut slo_tracker = {
            let gen0 = self.cell.current();
            report.generations.push(GenerationStats {
                generation: gen0.generation,
                installed_at: 0.0,
                installed_tick: 0,
                requests: 0,
                waiting: SummaryStats::new(),
                cost: gen0.value.cost,
                drift_at_dispatch: None,
                repair: None,
                swap_latency: None,
                slo: None,
            });
            let tracker =
                self.config.slo.map(|c| SloTracker::new(c, gen0.value.expected_wait));
            if tracker.is_some() {
                self.metrics.slo_target_wait.set(gen0.value.expected_wait);
            }
            tracker
        };
        let mut slo_trigger_pending = false;

        let mut tick_len = self.tick_len(&self.cell.current().value);
        let mut tick_end = tick_len;
        let mut observations_since_swap: u64 = 0;
        let mut job_in_flight = false;
        let mut pending: Option<RepairResult> = None;
        let mut capped = false;
        // Reused per tick — filled in place so the steady-state loop
        // performs no heap allocation.
        let mut estimated = Vec::with_capacity(self.sizes.len());

        let mut requests = trace.iter().peekable();
        // Advance through every tick boundary at or before the next
        // arrival, then serve it; stop when the trace is exhausted.
        while let Some(next_time) = requests.peek().map(|r| r.time) {
            while next_time >= tick_end {
                report.ticks += 1;
                self.metrics.ticks.inc();
                dbcast_flight::record(
                    FlightEvent::new(
                        EventKind::Tick,
                        report.ticks,
                        self.cell.generation(),
                        tick_end,
                    )
                    .value(tick_len),
                );
                if self.config.inject_panic_at_tick == Some(report.ticks) {
                    dbcast_flight::record(
                        FlightEvent::new(
                            EventKind::Fault,
                            report.ticks,
                            self.cell.generation(),
                            tick_end,
                        )
                        .extra(1),
                    );
                    panic!("injected fault at tick {}", report.ticks);
                }
                if self.config.pace_ms > 0 {
                    std::thread::sleep(Duration::from_millis(self.config.pace_ms));
                }
                if let Some(cap) = self.config.max_ticks {
                    if report.ticks >= cap {
                        capped = true;
                        break;
                    }
                }
                let boundary = tick_end;

                // (1) Collect a finished re-allocation, if any.
                if let Some((_, res_rx, _)) = &worker {
                    if pending.is_none() {
                        if let Ok(result) = res_rx.try_recv() {
                            pending = Some(result);
                        }
                    }
                }
                // (2) Install it at this cycle boundary.
                if let Some(result) = pending.take() {
                    job_in_flight = false;
                    if result.base_generation == self.cell.generation() {
                        // Freeze the replaced generation's SLO ledger
                        // and restart tracking against the incoming
                        // generation's Eq. 2 target.
                        if let Some(tracker) = &slo_tracker {
                            if let Some(stats) = report.generations.last_mut() {
                                stats.slo = Some(tracker.report());
                            }
                        }
                        self.install(result, boundary, report.ticks, &mut report)?;
                        observations_since_swap = 0;
                        tick_len = self.tick_len(&self.cell.current().value);
                        if let Some(config) = self.config.slo {
                            let target = self.cell.current().value.expected_wait;
                            slo_tracker = Some(SloTracker::new(config, target));
                            slo_trigger_pending = false;
                            self.metrics.slo_target_wait.set(target);
                        }
                    }
                    // A stale result (its base was already replaced) is
                    // simply discarded; the drift check below may
                    // re-dispatch against the live generation.
                }
                // (3) Age the estimate by the tick's virtual duration.
                estimator.tick(tick_len);
                // (4) Check for drift; dispatch at most one job. The
                // SLO tracker's trigger rides the same dispatch path:
                // it forces a re-allocation even below the L1
                // threshold (the workload can degrade the observed
                // wait without moving far in L1).
                if !job_in_flight {
                    let serving = self.cell.current();
                    estimator.frequency_vector_into(&mut estimated);
                    let drift: Drift = self.config.detector.check(
                        &estimated,
                        &serving.value.frequencies,
                        observations_since_swap,
                    );
                    self.metrics.drift_distance.set(drift.distance);
                    dbcast_flight::record(
                        FlightEvent::new(
                            EventKind::DriftScore,
                            report.ticks,
                            serving.generation,
                            boundary,
                        )
                        .value(drift.distance)
                        .extra(drift.drifted as u64),
                    );
                    let slo_fire = std::mem::take(&mut slo_trigger_pending);
                    if drift.drifted || slo_fire {
                        if drift.drifted {
                            report.drift_events += 1;
                            self.metrics.drift_events.inc();
                        }
                        if slo_fire {
                            report.slo_trigger_events += 1;
                            self.metrics.slo_trigger_events.inc();
                            let burn =
                                slo_tracker.as_ref().map(|t| t.burn_rate()).unwrap_or(0.0);
                            dbcast_flight::record(
                                FlightEvent::new(
                                    EventKind::SloTrigger,
                                    report.ticks,
                                    serving.generation,
                                    boundary,
                                )
                                .value(burn)
                                .extra(serving.generation),
                            );
                        }
                        dbcast_flight::record(
                            FlightEvent::new(
                                EventKind::RepairStart,
                                report.ticks,
                                serving.generation,
                                boundary,
                            )
                            .value(drift.distance)
                            .extra(serving.generation),
                        );
                        let job = RepairJob {
                            base_generation: serving.generation,
                            db: self.estimated_db(&estimator),
                            assignment: serving.value.assignment.clone(),
                            drift: drift.distance,
                            dispatched_at: boundary,
                            dispatched_tick: report.ticks,
                        };
                        match &worker {
                            Some((job_tx, _, _)) => {
                                if job_tx.send(job).is_ok() {
                                    job_in_flight = true;
                                }
                            }
                            None => {
                                // Deterministic mode: compute now,
                                // install at the next boundary (the same
                                // one-boundary handoff the thread has).
                                pending = recompute(
                                    &job,
                                    self.config.repair,
                                    self.config.channels,
                                );
                                job_in_flight = pending.is_some();
                            }
                        }
                    }
                }
                tick_end += tick_len;
            }
            if capped {
                break;
            }

            // Serve the arrival against the generation active *now*.
            let r = *requests.next().expect("peeked above");
            let serving = self.cell.current();
            match serving.value.program.response_time(r.item, r.time) {
                Some(base_wait) => {
                    let request_id = report.requests;
                    let channel =
                        serving.value.assignment.get(r.item.index()).copied().unwrap_or(0);
                    // Fail point: a drill can degrade one channel's
                    // observed waits to drive its residual gauge
                    // positive ahead of any SLO reaction.
                    let wait = if self.config.inject_slow_channel == Some(channel) {
                        base_wait * self.config.inject_slow_factor
                    } else {
                        base_wait
                    };
                    report.requests += 1;
                    report.waiting.record(wait);
                    let stats = report
                        .generations
                        .iter_mut()
                        .rfind(|g| g.generation == serving.generation)
                        .expect("serving generation is recorded at install");
                    stats.requests += 1;
                    stats.waiting.record(wait);
                    estimator.observe(r.item);
                    observations_since_swap += 1;
                    self.metrics.requests.inc();
                    self.metrics.wait.record((wait * 1e6) as u64);
                    dbcast_flight::record(
                        FlightEvent::new(
                            EventKind::RequestServed,
                            report.ticks,
                            serving.generation,
                            r.time,
                        )
                        .value(wait)
                        .extra(r.item.index() as u64),
                    );
                    let mut verdict = None;
                    if let Some(tracker) = slo_tracker.as_mut() {
                        let v = tracker.observe(wait);
                        if v.slow {
                            report.slo_breaches += 1;
                            self.metrics.slo_breaches.inc();
                        }
                        self.metrics.slo_burn_rate.set(v.burn_rate);
                        if v.breached {
                            dbcast_flight::record(
                                FlightEvent::new(
                                    EventKind::SloBreach,
                                    report.ticks,
                                    serving.generation,
                                    r.time,
                                )
                                .value(v.burn_rate)
                                .extra(tracker.report().slow),
                            );
                        }
                        if v.trigger {
                            slo_trigger_pending = true;
                        }
                        verdict = Some(v);
                    }
                    // Audit: residual accounting on every request, a
                    // full lifecycle record for the seeded sample plus
                    // every SLO-slow (tail) request.
                    let predicted = self.predicted_wait(&serving.value, channel, r.item);
                    let residual = self.audit.observe_wait(channel, wait, predicted);
                    if let Some(g) = self.metrics.audit_residual.get(channel) {
                        g.set(residual);
                    }
                    let seeded = self.audit.should_sample(request_id);
                    let slow = match verdict {
                        Some(v) => v.slow,
                        None => self.audit.tail_slow(wait, serving.value.expected_wait),
                    };
                    if seeded || slow {
                        if seeded {
                            self.metrics.audit_sampled.inc();
                        }
                        if slow {
                            self.metrics.audit_tail.inc();
                        }
                        let completion = r.time + wait;
                        let satisfied_tick = report.ticks
                            + if completion > tick_end {
                                ((completion - tick_end) / tick_len).ceil() as u64
                            } else {
                                0
                            };
                        self.audit.record(&TraceRecord {
                            request_id,
                            item: r.item.index() as u64,
                            arrival_tick: report.ticks,
                            satisfied_tick,
                            generation: serving.generation,
                            channel: channel as u64,
                            queue_position: queue_position(
                                &serving.value.program,
                                channel,
                                r.item,
                                r.time,
                                self.config.bandwidth,
                            ),
                            arrival: r.time,
                            wait,
                            predicted,
                            straddle_penalty: 0.0,
                            flags: if seeded { FLAG_SEEDED } else { 0 }
                                | if slow { FLAG_TAIL } else { 0 },
                        });
                    }
                }
                None => {
                    report.dropped += 1;
                    self.metrics.dropped.inc();
                }
            }
        }

        report.unserved = requests.count() as u64;
        if let Some((job_tx, _, handle)) = worker {
            drop(job_tx);
            let _ = handle.join();
        }
        let final_gen = self.cell.current();
        report.final_assignment = final_gen.value.assignment.clone();
        report.estimated_frequencies = estimator.frequency_vector();
        if let Some(tracker) = &slo_tracker {
            if let Some(stats) = report.generations.last_mut() {
                stats.slo = Some(tracker.report());
            }
        }
        self.metrics.generation.set(final_gen.generation as f64);
        self.metrics.generation_cost.set(final_gen.value.cost);
        report.audit = self.audit.summary();
        Ok(report)
    }

    /// Publishes a finished re-allocation as the next generation.
    fn install(
        &self,
        result: RepairResult,
        boundary: f64,
        tick: u64,
        report: &mut ServeReport,
    ) -> Result<(), ServeError> {
        let alloc = Allocation::from_assignment(
            &result.db,
            self.config.channels,
            result.assignment.clone(),
        )?;
        let program = BroadcastProgram::new(&result.db, &alloc, self.config.bandwidth)?;
        let cost = alloc.total_cost();
        let expected_wait =
            average_waiting_time(&result.db, &alloc, self.config.bandwidth)?.total();
        let generation = ProgramGeneration {
            program,
            frequencies: result.db.iter().map(|d| d.frequency()).collect(),
            assignment: result.assignment,
            cost,
            expected_wait,
        };
        let gen = self.cell.publish(generation);
        self.publish_channel_gauges(&self.cell.current().value);
        // Stamp swap-straddle penalties into in-flight sampled records
        // and roll the residual ledger onto the new generation.
        let straddled = self.audit.on_swap(boundary, gen);
        self.metrics.audit_straddled.add(straddled);
        report.swaps += 1;
        self.metrics.swaps.inc();
        self.metrics.swap_latency.record(result.repair.wall_ns);
        dbcast_flight::record(
            FlightEvent::new(EventKind::SwapPublish, tick, gen, boundary)
                .value(cost)
                .extra(gen),
        );
        if result.repair.budget_exhausted {
            self.metrics.budget_exhausted.inc();
            dbcast_flight::record(
                FlightEvent::new(EventKind::BudgetExhausted, tick, gen, boundary)
                    .value(result.repair.remaining_gain_bound)
                    .extra(result.repair.moves as u64),
            );
        }
        report.generations.push(GenerationStats {
            generation: gen,
            installed_at: boundary,
            installed_tick: tick,
            requests: 0,
            waiting: SummaryStats::new(),
            cost,
            drift_at_dispatch: Some(result.drift),
            repair: Some(result.repair),
            swap_latency: Some(boundary - result.dispatched_at),
            slo: None,
        });
        Ok(())
    }
}
