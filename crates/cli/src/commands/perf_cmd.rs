//! `dbcast perf` — run the pinned macro-benchmark suite, emit a
//! `BENCH_<gitsha>.json` report, and optionally gate against the
//! committed `BENCH_baseline.json`.

use std::path::Path;

use dbcast_perf::{
    compare, run_suite, standard_suite, BenchReport, RunOptions, Tolerances,
};

use crate::args::Args;
use crate::commands::CliError;

/// Runs the perf suite.
///
/// * default: run, print a table, write `BENCH_<gitsha>.json` (or
///   `--out PATH`);
/// * `--check`: additionally diff against `--baseline PATH` (default
///   `BENCH_baseline.json`) and fail on regression;
/// * `--update-baseline`: additionally (re)write the baseline file —
///   the only way the contract moves;
/// * `--iterations N` / `--warmup W` / `--filter SUBSTR` shape the
///   run; `--tolerance PCT` / `--alloc-tolerance PCT` relax the gate
///   (supplying an allocation tolerance also lifts the exact-count
///   requirement, for CI across toolchains).
///
/// # Errors
///
/// Argument errors, I/O failures, a missing baseline with `--check`,
/// or [`CliError::PerfRegression`] when the gate fails.
pub fn run_perf(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let iterations = args.opt_or("iterations", 10usize)?;
    let warmup = args.opt_or("warmup", 2usize)?;
    if iterations == 0 {
        return Err(CliError::InvalidOption("--iterations must be at least 1".into()));
    }
    let filter = args.opt::<String>("filter")?;
    let baseline_path: String =
        args.opt_or("baseline", "BENCH_baseline.json".to_string())?;
    let wall_pct = args.opt::<f64>("tolerance")?;
    let alloc_pct = args.opt::<f64>("alloc-tolerance")?;

    let mut suite = standard_suite();
    if let Some(f) = &filter {
        suite.retain(|b| b.name().contains(f.as_str()));
        if suite.is_empty() {
            return Err(CliError::InvalidOption(format!(
                "--filter {f:?} matches no benchmark"
            )));
        }
    }

    writeln!(
        out,
        "running {} benchmark(s), {} iteration(s) after {} warmup (obs {})",
        suite.len(),
        iterations,
        warmup,
        if dbcast_obs::enabled() { "on" } else { "off" },
    )?;
    let report = run_suite(&mut suite, &RunOptions { iterations, warmup, profile: true });

    writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>12} {:>10} {:>7}",
        "benchmark", "median (ms)", "mean (ms)", "p95 (ms)", "allocs", "depth"
    )?;
    for b in &report.benchmarks {
        writeln!(
            out,
            "{:<16} {:>12.3} {:>12.3} {:>12.3} {:>9}{} {:>7}",
            b.name,
            b.median_ns / 1e6,
            b.mean_ns / 1e6,
            b.p95_ns / 1e6,
            b.allocs,
            if b.alloc_stable { "=" } else { "~" },
            b.peak_span_depth,
        )?;
    }

    // Where the time went, from the span trees (top self-time paths).
    let spans = dbcast_obs::tree::spans_snapshot();
    if !spans.is_empty() {
        writeln!(out, "top self-time paths:")?;
        for stat in dbcast_obs::tree::aggregate_paths(&spans).into_iter().take(8) {
            writeln!(
                out,
                "  {:>10.3} ms self ({:>6} spans)  {}",
                stat.self_ns as f64 / 1e6,
                stat.count,
                stat.path
            )?;
        }
    }

    let out_path: String = args.opt_or("out", report.file_name())?;
    report.write(Path::new(&out_path))?;
    writeln!(out, "wrote {out_path}")?;

    if args.switch("update-baseline") {
        report.write(Path::new(&baseline_path))?;
        writeln!(out, "updated baseline {baseline_path}")?;
    }

    if args.switch("check") {
        let baseline = BenchReport::load(Path::new(&baseline_path)).map_err(|e| {
            CliError::InvalidOption(format!(
                "cannot load baseline {baseline_path}: {e}; record one with \
                 `dbcast perf --update-baseline`"
            ))
        })?;
        let mut tol = Tolerances::default();
        if let Some(pct) = wall_pct {
            tol.wall_pct = pct;
        }
        if let Some(pct) = alloc_pct {
            tol.alloc_pct = pct;
            // An explicit allocation tolerance means the caller knows
            // counts may shift (a different std or platform) —
            // drop the exact-match requirement.
            tol.exact_when_stable = false;
        }
        let verdict = compare(&report, &baseline, &tol);
        write!(out, "{}", verdict.render())?;
        if !verdict.passed() {
            return Err(CliError::PerfRegression { regressions: verdict.regressions });
        }
    }
    Ok(())
}
