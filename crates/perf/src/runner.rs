//! Executes a benchmark suite: warmup, timed iterations, allocation
//! deltas and span-depth watermarks, folded into a [`BenchReport`].

use std::time::Instant;

use dbcast_sim::SummaryStats;

use crate::alloc_count::allocation_counts;
use crate::report::{BenchRecord, BenchReport, SCHEMA_VERSION};
use crate::suite::Benchmark;

/// How a suite run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Recorded iterations per benchmark.
    pub iterations: usize,
    /// Discarded warmup iterations per benchmark (absorbs cold caches,
    /// metric-registry interning, allocator warm-up).
    pub warmup: usize,
    /// Collect span trees during the run (needs recording switched on
    /// to record anything; harmless without it).
    pub profile: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { iterations: 10, warmup: 2, profile: true }
    }
}

/// Runs every benchmark and assembles the report.
///
/// Per iteration, the wall clock and allocation counters are read
/// immediately around the benchmark closure — the harness's own
/// bookkeeping (stats vectors, span flushing) stays outside the
/// window. Span trees accumulate in the global `dbcast_obs::tree`
/// collector for the caller to export; only the per-benchmark peak
/// depth is folded into the report here.
///
/// # Panics
///
/// Panics if `options.iterations` is zero.
pub fn run_suite(suite: &mut [Benchmark], options: &RunOptions) -> BenchReport {
    assert!(options.iterations > 0, "need at least one recorded iteration");
    if options.profile {
        dbcast_obs::tree::set_profiling(true);
    }
    let mut benchmarks = Vec::with_capacity(suite.len());
    for bench in suite.iter_mut() {
        for _ in 0..options.warmup {
            bench.run_once();
        }
        dbcast_obs::tree::reset_peak_depth();
        let mut wall = SummaryStats::new();
        let mut alloc_deltas: Vec<(u64, u64)> = Vec::with_capacity(options.iterations);
        for _ in 0..options.iterations {
            let (a0, b0) = allocation_counts();
            let start = Instant::now();
            bench.run_once();
            let elapsed = start.elapsed();
            let (a1, b1) = allocation_counts();
            alloc_deltas.push((a1 - a0, b1 - b0));
            wall.record(elapsed.as_nanos() as f64);
        }
        let allocs_available = crate::alloc_count::counting_active();
        let (allocs, alloc_bytes) = *alloc_deltas.last().expect("iterations > 0");
        let alloc_stable =
            allocs_available && alloc_deltas.iter().all(|&(a, _)| a == allocs);
        benchmarks.push(BenchRecord {
            name: bench.name().to_string(),
            iterations: options.iterations,
            mean_ns: wall.mean(),
            median_ns: wall.percentile(50.0).expect("iterations > 0"),
            p95_ns: wall.percentile(95.0).expect("iterations > 0"),
            min_ns: wall.min().expect("iterations > 0"),
            max_ns: wall.max().expect("iterations > 0"),
            allocs,
            alloc_bytes,
            alloc_stable,
            allocs_available,
            peak_span_depth: dbcast_obs::tree::peak_depth(),
        });
    }
    BenchReport {
        schema_version: SCHEMA_VERSION,
        git_sha: crate::report::git_short_sha().unwrap_or_else(|| "unknown".to_string()),
        obs_enabled: dbcast_obs::enabled(),
        warmup: options.warmup,
        benchmarks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Benchmark;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn warmup_iterations_run_but_are_not_recorded() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let mut suite = vec![Benchmark::new("count_calls", move || {
            counter.fetch_add(1, Ordering::Relaxed);
        })];
        let report =
            run_suite(&mut suite, &RunOptions { iterations: 4, warmup: 3, profile: false });
        assert_eq!(calls.load(Ordering::Relaxed), 7);
        let rec = report.benchmark("count_calls").unwrap();
        assert_eq!(rec.iterations, 4);
        assert!(rec.median_ns >= 0.0 && rec.p95_ns >= rec.median_ns - 1e-9);
        assert_eq!(report.schema_version, SCHEMA_VERSION);
    }

    #[test]
    fn measured_sleep_dominates_the_median() {
        let mut suite = vec![Benchmark::new("sleepy", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        })];
        let report =
            run_suite(&mut suite, &RunOptions { iterations: 3, warmup: 0, profile: false });
        let rec = report.benchmark("sleepy").unwrap();
        assert!(rec.median_ns >= 2e6, "sleep under-measured: {} ns", rec.median_ns);
    }

    #[test]
    #[should_panic(expected = "at least one recorded iteration")]
    fn zero_iterations_panics() {
        let mut suite = vec![Benchmark::new("noop", || {})];
        run_suite(&mut suite, &RunOptions { iterations: 0, warmup: 0, profile: false });
    }
}
