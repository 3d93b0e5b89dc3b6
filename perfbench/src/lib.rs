//! End-to-end benchmark of the dbcast system: serving, re-allocation,
//! batch planning and the framed broadcast, driven through the public
//! APIs of `dbcast-serve`, `dbcast-alloc`/`dbcast-model` and
//! `dbcast-net`.
//!
//! A run takes its workload seed on the command line, builds every input
//! from it, repeats the workload for a fixed number of wall seconds and
//! prints its metrics as one JSON object on the last line of standard
//! output. A traced run (`--trace 1`) alternates untraced and traced
//! repetitions of the same work, attributes the traced wall time to
//! layers from the recorded spans and reports the tracing overhead.
//! See `README.md` next to this crate for the workloads and metrics.

mod alloc_count;
mod fleet;
mod plan;
pub mod report;
mod serve;
mod spans;

use std::time::{Duration, Instant};

pub use report::{Metric, Outcome};
use spans::{LayerTable, SpanId, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Stationary request stream through the serving runtime.
    ServeSteady,
    /// Rotating hot set: many full re-allocations and hot swaps.
    ServeDrift,
    /// Batch planning at N = 100 000, K = 256.
    PlanLarge,
    /// Loopback broadcast with a mid-run swap and two clients.
    FleetSwap,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ServeSteady,
        Workload::ServeDrift,
        Workload::PlanLarge,
        Workload::FleetSwap,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSteady => "serve_steady",
            Workload::ServeDrift => "serve_drift",
            Workload::PlanLarge => "plan_large",
            Workload::FleetSwap => "fleet_swap",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seed of the item catalogues of the serve and fleet workloads. The
/// catalogue decides how much work a request costs and what Eq. 2
/// predicts, so it is part of the workload's definition; the run's seed
/// draws the request streams over it. `plan_large` plans 100 000 items,
/// whose aggregate cost barely moves with the seed, so its catalogue is
/// drawn from the run's seed.
pub(crate) const CATALOGUE_SEED: u64 = 2005;

/// Input sizes: [`Scale::FULL`] is what the benchmark measures; `tiny`
/// keeps the same code paths small enough for tests, and `factor`
/// scales a workload's main size parameter so tests can check that
/// measured time follows it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Whether to use the tiny test sizes.
    pub tiny: bool,
    /// Multiplier on the workload's main size parameter.
    pub factor: usize,
}

impl Scale {
    /// The sizes the benchmark measures.
    pub const FULL: Scale = Scale { tiny: false, factor: 1 };

    /// `full` at benchmark scale, `tiny` at test scale, times `factor`.
    pub fn pick(self, full: usize, tiny: usize) -> usize {
        (if self.tiny { tiny } else { full }) * self.factor
    }
}

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Wall time to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Runs one invocation. Errors are set-up failures; failed correctness
/// checks are reported inside the [`Outcome`].
pub fn run(opts: &Options) -> Result<Outcome, String> {
    spans::mark_root_thread();
    match opts.workload {
        Workload::ServeSteady | Workload::ServeDrift => serve::run(opts),
        Workload::PlanLarge => plan::run(opts),
        Workload::FleetSwap => fleet::run(opts),
    }
}

/// Runs `setup` `times` times, returning the last result and the median
/// wall time of one set-up in seconds.
pub(crate) fn timed_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let start = Instant::now();
        let value = std::hint::black_box(setup()?);
        walls.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one set-up ran"), median(&walls)))
}

/// Whether another repetition as long as the longest so far still ends
/// within the budget, once `min_reps` repetitions have run.
fn another_fits(
    start: Instant,
    longest: Duration,
    budget: Duration,
    done: usize,
    min: usize,
) -> bool {
    done < min || start.elapsed() + longest <= budget
}

/// Repeats `rep` for `seconds` of wall time, and at least `min_reps`
/// times; a repetition that would overrun the budget is not started.
/// Also returns the peak resident set in MiB right after the first
/// repetition: set-up plus one repetition, read before the allocator's
/// fragmentation over later repetitions can raise it.
pub(crate) fn repeat<T>(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<T>, f64), String> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut out = Vec::new();
    let mut rss = 0.0;
    while another_fits(start, longest, budget, out.len(), min_reps) {
        let t = Instant::now();
        out.push(rep()?);
        longest = longest.max(t.elapsed());
        if out.len() == 1 {
            rss = report::peak_rss_mb();
        }
    }
    Ok((out, rss))
}

/// Result of a traced run: per-repetition walls of both modes, the
/// layer attribution of the traced repetitions and their spans.
#[derive(Debug)]
pub(crate) struct Traced<T> {
    /// Outputs of the traced repetitions.
    pub outputs: Vec<T>,
    /// Wall seconds of each untraced repetition.
    pub untraced_walls: Vec<f64>,
    /// Wall seconds of each traced repetition.
    pub traced_walls: Vec<f64>,
    /// Layer attribution summed over the traced repetitions.
    pub table: LayerTable,
    /// Every span recorded.
    pub spans: Vec<spans::Span>,
}

impl<T> Traced<T> {
    /// Mean milliseconds per traced repetition attributed to `layer`.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.table.ns(layer) as f64 / 1e6 / self.outputs.len() as f64
    }

    /// The per-layer metrics every traced run reports: each layer's
    /// self time and `unattributed`, which sum to the traced wall time
    /// (all means per traced repetition), and the tracing overhead: mean
    /// traced minus mean untraced wall time of the same work.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let mut out: Vec<Metric> = report::LAYERS
            .iter()
            .map(|(layer, metric)| Metric::new(metric, self.layer_ms(layer), "ms"))
            .collect();
        let reps = self.outputs.len() as f64;
        out.push(Metric::new(
            "trace.wall_ms",
            self.table.wall_ns as f64 / 1e6 / reps,
            "ms",
        ));
        out.push(Metric::new(
            "trace.overhead_ms",
            (mean(&self.traced_walls) - mean(&self.untraced_walls)) * 1e3,
            "ms",
        ));
        out
    }
}

/// Alternates untraced and traced repetitions of `rep` for `seconds`
/// (at least `min_pairs` pairs). `rep` gets the tracer and the root
/// span to hang its spans under; the untraced tracer records nothing.
pub(crate) fn traced<T>(
    seconds: f64,
    min_pairs: usize,
    mut rep: impl FnMut(&Tracer, Option<SpanId>) -> Result<T, String>,
) -> Result<Traced<T>, String> {
    let off = Tracer::off();
    let on = Tracer::on();
    let mut result = Traced {
        outputs: Vec::new(),
        untraced_walls: Vec::new(),
        traced_walls: Vec::new(),
        table: LayerTable::default(),
        spans: Vec::new(),
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut run = 0u32;
    while another_fits(start, longest, budget, run as usize, min_pairs) {
        let pair = Instant::now();
        // Alternate which mode goes first so drift in machine state
        // does not land on one side.
        let even = run.is_multiple_of(2);
        for traced_first in [!even, even] {
            if traced_first {
                on.set_run(run);
                let t0 = Instant::now();
                let root = on.open("run", spans::UNATTRIBUTED, None);
                let out = rep(&on, Some(root))?;
                on.close(root);
                result.traced_walls.push(t0.elapsed().as_secs_f64());
                result.outputs.push(std::hint::black_box(out));
            } else {
                let t0 = Instant::now();
                std::hint::black_box(rep(&off, None)?);
                result.untraced_walls.push(t0.elapsed().as_secs_f64());
            }
        }
        longest = longest.max(pair.elapsed());
        run += 1;
    }
    result.spans = on.take();
    let roots: Vec<SpanId> = result
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && s.name == "run")
        .map(|(i, _)| i as SpanId)
        .collect();
    for root in roots {
        result.table.merge(&spans::attribute(&result.spans, root));
    }
    Ok(result)
}

/// Writes a traced run's spans to `out/<workload>.spans.json` in the
/// benchmark's directory; a failed write is reported, not fatal.
pub(crate) fn write_spans(opts: &Options, spans: &[spans::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}.spans.json", opts.workload.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::spans_json(spans)));
    match written {
        Ok(()) => eprintln!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

/// Median of `values` (0 for an empty slice).
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `values` (0 for an empty slice).
pub(crate) fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Heap allocations and bytes made while `f` runs (all threads).
pub(crate) fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = alloc_count::counts();
    let out = f();
    let (a1, b1) = alloc_count::counts();
    (out, a1 - a0, b1 - b0)
}
