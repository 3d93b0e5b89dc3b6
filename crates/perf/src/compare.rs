//! The regression gate: diffs a fresh [`BenchReport`] against the
//! committed baseline with per-metric tolerances.

use std::fmt;

use crate::report::BenchReport;

/// Gate tolerances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Allowed wall-time growth over baseline, percent of the baseline
    /// median (default ±20%; CI uses a relaxed 35%).
    pub wall_pct: f64,
    /// Allowed allocation-count growth when counts are not exactly
    /// comparable (default 10%).
    pub alloc_pct: f64,
    /// Require exact allocation counts when both reports observed
    /// per-iteration-stable counts. CI disables this across toolchain
    /// differences by supplying an explicit allocation tolerance.
    pub exact_when_stable: bool,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances { wall_pct: 20.0, alloc_pct: 10.0, exact_when_stable: true }
    }
}

/// What a single comparison line is about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// Median wall time grew beyond tolerance.
    WallTime,
    /// Allocation count grew beyond tolerance (or differs where exact
    /// equality is required).
    Allocations,
    /// The baseline has a benchmark the current run lacks.
    MissingBenchmark,
    /// The current run has a benchmark the baseline lacks.
    NewBenchmark,
    /// Reports are not comparable (schema version or telemetry switch
    /// mismatch).
    Incomparable,
    /// A change worth noting that does not fail the gate (e.g. a big
    /// improvement suggesting a baseline refresh).
    Note,
}

/// One comparison outcome for one benchmark (or the report pair).
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The benchmark name, or `"*"` for report-level findings.
    pub bench: String,
    /// What kind of finding this is.
    pub kind: FindingKind,
    /// Whether it fails the gate.
    pub regression: bool,
    /// Human-readable explanation with the numbers.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.regression { "REGRESSION" } else { "ok" };
        write!(f, "[{tag:>10}] {:<16} {}", self.bench, self.message)
    }
}

/// The full gate verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Every per-benchmark outcome, suite order, regressions first
    /// within a benchmark.
    pub findings: Vec<Finding>,
    /// Number of findings that fail the gate.
    pub regressions: usize,
}

impl Comparison {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions == 0
    }

    /// Renders every finding, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "gate: {} finding(s), {} regression(s) — {}\n",
            self.findings.len(),
            self.regressions,
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

fn pct_change(current: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        if current == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (current - baseline) / baseline * 100.0
    }
}

/// Diffs `current` against `baseline`.
///
/// Per baseline benchmark: the median wall time must not exceed the
/// baseline median by more than `wall_pct`; allocation counts must
/// match exactly when both runs observed stable counts (and
/// `exact_when_stable` is set), else must not grow by more than
/// `alloc_pct`. A benchmark missing from `current` is a regression
/// (coverage loss); a new benchmark is a note. A schema-version
/// mismatch makes the whole pair incomparable, which fails the gate
/// rather than passing vacuously; a telemetry-switch mismatch is a note
/// that skips the allocation checks.
pub fn compare(
    current: &BenchReport,
    baseline: &BenchReport,
    tol: &Tolerances,
) -> Comparison {
    let mut findings = Vec::new();

    if current.schema_version != baseline.schema_version {
        findings.push(Finding {
            bench: "*".into(),
            kind: FindingKind::Incomparable,
            regression: true,
            message: format!(
                "schema version mismatch: current {} vs baseline {} — refresh the baseline",
                current.schema_version, baseline.schema_version
            ),
        });
        let regressions = findings.len();
        return Comparison { findings, regressions };
    }
    let obs_mismatch = current.obs_enabled != baseline.obs_enabled;
    if obs_mismatch {
        findings.push(Finding {
            bench: "*".into(),
            kind: FindingKind::Note,
            regression: false,
            message: format!(
                "telemetry switch mismatch (current {}, baseline {}): wall times compare \
                 loosely, allocation checks skipped",
                current.obs_enabled, baseline.obs_enabled
            ),
        });
    }

    for base in &baseline.benchmarks {
        let Some(cur) = current.benchmark(&base.name) else {
            findings.push(Finding {
                bench: base.name.clone(),
                kind: FindingKind::MissingBenchmark,
                regression: true,
                message: "benchmark present in baseline but not in this run".into(),
            });
            continue;
        };

        let change = pct_change(cur.median_ns, base.median_ns);
        if change > tol.wall_pct {
            findings.push(Finding {
                bench: base.name.clone(),
                kind: FindingKind::WallTime,
                regression: true,
                message: format!(
                    "median {:.3} ms vs baseline {:.3} ms ({:+.1}% > +{:.0}% tolerance)",
                    cur.median_ns / 1e6,
                    base.median_ns / 1e6,
                    change,
                    tol.wall_pct
                ),
            });
        } else if change < -tol.wall_pct {
            findings.push(Finding {
                bench: base.name.clone(),
                kind: FindingKind::Note,
                regression: false,
                message: format!(
                    "median {:.3} ms vs baseline {:.3} ms ({:+.1}%) — consider \
                     refreshing the baseline to lock in the improvement",
                    cur.median_ns / 1e6,
                    base.median_ns / 1e6,
                    change
                ),
            });
        } else {
            findings.push(Finding {
                bench: base.name.clone(),
                kind: FindingKind::WallTime,
                regression: false,
                message: format!(
                    "median {:.3} ms vs baseline {:.3} ms ({:+.1}%)",
                    cur.median_ns / 1e6,
                    base.median_ns / 1e6,
                    change
                ),
            });
        }

        let counts_comparable =
            !obs_mismatch && cur.allocs_available && base.allocs_available;
        if counts_comparable {
            let exact = tol.exact_when_stable && cur.alloc_stable && base.alloc_stable;
            if exact && cur.allocs != base.allocs {
                let regression = cur.allocs > base.allocs;
                findings.push(Finding {
                    bench: base.name.clone(),
                    kind: if regression {
                        FindingKind::Allocations
                    } else {
                        FindingKind::Note
                    },
                    regression,
                    message: format!(
                        "allocations {} vs baseline {} (exact match required: both \
                         runs were per-iteration stable){}",
                        cur.allocs,
                        base.allocs,
                        if regression { "" } else { " — improvement; refresh baseline" }
                    ),
                });
            } else if !exact {
                let change = pct_change(cur.allocs as f64, base.allocs as f64);
                if change > tol.alloc_pct {
                    findings.push(Finding {
                        bench: base.name.clone(),
                        kind: FindingKind::Allocations,
                        regression: true,
                        message: format!(
                            "allocations {} vs baseline {} ({:+.1}% > +{:.0}% tolerance)",
                            cur.allocs, base.allocs, change, tol.alloc_pct
                        ),
                    });
                }
            }
        }
    }

    for cur in &current.benchmarks {
        if baseline.benchmark(&cur.name).is_none() {
            findings.push(Finding {
                bench: cur.name.clone(),
                kind: FindingKind::NewBenchmark,
                regression: false,
                message: "new benchmark (not in baseline) — refresh the baseline to \
                          gate it"
                    .into(),
            });
        }
    }

    let regressions = findings.iter().filter(|f| f.regression).count();
    Comparison { findings, regressions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BenchRecord, SCHEMA_VERSION};

    fn record(name: &str, median_ns: f64, allocs: u64, stable: bool) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            iterations: 5,
            mean_ns: median_ns,
            median_ns,
            p95_ns: median_ns * 1.1,
            min_ns: median_ns * 0.9,
            max_ns: median_ns * 1.2,
            allocs,
            alloc_bytes: allocs * 64,
            alloc_stable: stable,
            allocs_available: true,
            peak_span_depth: 2,
        }
    }

    fn report(benchmarks: Vec<BenchRecord>) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            git_sha: "test".into(),
            obs_enabled: true,
            warmup: 1,
            benchmarks,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let base = report(vec![record("drp", 1e6, 100, true)]);
        let cmp = compare(&base, &base, &Tolerances::default());
        assert!(cmp.passed(), "{}", cmp.render());
    }

    #[test]
    fn slowdown_beyond_tolerance_fails() {
        let base = report(vec![record("drp", 1e6, 100, true)]);
        let cur = report(vec![record("drp", 1.5e6, 100, true)]);
        let cmp = compare(&cur, &base, &Tolerances::default());
        assert_eq!(cmp.regressions, 1);
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::WallTime && f.regression));
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let base = report(vec![record("drp", 1e6, 100, true)]);
        let cur = report(vec![record("drp", 1.15e6, 100, true)]);
        assert!(compare(&cur, &base, &Tolerances::default()).passed());
    }

    #[test]
    fn big_improvement_is_a_note_not_a_failure() {
        let base = report(vec![record("drp", 2e6, 100, true)]);
        let cur = report(vec![record("drp", 1e6, 100, true)]);
        let cmp = compare(&cur, &base, &Tolerances::default());
        assert!(cmp.passed());
        assert!(cmp.findings.iter().any(|f| f.kind == FindingKind::Note));
    }

    #[test]
    fn stable_alloc_counts_must_match_exactly() {
        let base = report(vec![record("drp", 1e6, 100, true)]);
        let cur = report(vec![record("drp", 1e6, 101, true)]);
        let cmp = compare(&cur, &base, &Tolerances::default());
        assert_eq!(cmp.regressions, 1);
        // A *decrease* is an improvement note, not a regression.
        let fewer = report(vec![record("drp", 1e6, 99, true)]);
        assert!(compare(&fewer, &base, &Tolerances::default()).passed());
    }

    #[test]
    fn unstable_alloc_counts_use_the_tolerance() {
        let base = report(vec![record("drp", 1e6, 100, false)]);
        let within = report(vec![record("drp", 1e6, 105, false)]);
        assert!(compare(&within, &base, &Tolerances::default()).passed());
        let beyond = report(vec![record("drp", 1e6, 150, false)]);
        assert_eq!(compare(&beyond, &base, &Tolerances::default()).regressions, 1);
    }

    #[test]
    fn relaxed_tolerances_disable_exactness() {
        let base = report(vec![record("drp", 1e6, 100, true)]);
        let cur = report(vec![record("drp", 1e6, 101, true)]);
        let tol = Tolerances { exact_when_stable: false, ..Tolerances::default() };
        assert!(compare(&cur, &base, &tol).passed());
    }

    #[test]
    fn missing_benchmark_is_a_regression_new_one_is_not() {
        let base =
            report(vec![record("drp", 1e6, 100, true), record("vfk", 1e6, 50, true)]);
        let cur = report(vec![record("drp", 1e6, 100, true), record("cds", 1e6, 10, true)]);
        let cmp = compare(&cur, &base, &Tolerances::default());
        assert_eq!(cmp.regressions, 1);
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::MissingBenchmark && f.bench == "vfk"));
        assert!(cmp.findings.iter().any(|f| f.kind == FindingKind::NewBenchmark
            && f.bench == "cds"
            && !f.regression));
    }

    #[test]
    fn schema_mismatch_fails_closed() {
        let base = BenchReport { schema_version: 99, ..report(vec![]) };
        let cur = report(vec![]);
        let cmp = compare(&cur, &base, &Tolerances::default());
        assert!(!cmp.passed());
        assert!(cmp.findings.iter().any(|f| f.kind == FindingKind::Incomparable));
    }

    #[test]
    fn obs_mismatch_skips_alloc_checks() {
        let base = report(vec![record("drp", 1e6, 100, true)]);
        let mut cur = report(vec![record("drp", 1e6, 500, true)]);
        cur.obs_enabled = false;
        let cmp = compare(&cur, &base, &Tolerances::default());
        assert!(cmp.passed(), "{}", cmp.render());
    }
}
