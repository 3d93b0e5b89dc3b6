//! The parallel sweep runner behind Figures 2–5.

use dbcast_model::average_waiting_time;
use dbcast_sim::SummaryStats;
use dbcast_workload::{SizeDistribution, WorkloadBuilder};
use serde::{Deserialize, Serialize};

use crate::algos::AlgoSpec;
use crate::config::{ExperimentConfig, SweepAxis};

/// Aggregated result of one algorithm at one sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgoPoint {
    /// Algorithm name.
    pub algo: String,
    /// Mean average waiting time `W_b` (seconds) over the seeds.
    pub mean_waiting: f64,
    /// Mean allocation cost (Eq. 3) over the seeds.
    pub mean_cost: f64,
}

/// All algorithms' results at one sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The x-coordinate (K, N, Φ or θ).
    pub x: f64,
    /// Per-algorithm aggregates, in registry order.
    pub algos: Vec<AlgoPoint>,
}

/// A completed sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Axis label ("K", "N", "Phi", "theta").
    pub axis: String,
    /// One entry per sweep point, in axis order.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// The waiting-time series of one algorithm across the sweep.
    pub fn series(&self, algo: &str) -> Option<Vec<(f64, f64)>> {
        if !self.points.iter().all(|p| p.algos.iter().any(|a| a.algo == algo)) {
            return None;
        }
        Some(
            self.points
                .iter()
                .map(|p| {
                    let a = p.algos.iter().find(|a| a.algo == algo).expect("checked above");
                    (p.x, a.mean_waiting)
                })
                .collect(),
        )
    }
}

/// One work cell: evaluate every algorithm on one (point, seed)
/// workload.
fn run_cell(
    config: &ExperimentConfig,
    axis: &SweepAxis,
    algos: &[AlgoSpec],
    point: usize,
    seed: u64,
) -> Vec<(f64, f64)> {
    let (n, k, phi, theta) = config.at_point(axis, point);
    let db = WorkloadBuilder::new(n)
        .skewness(theta)
        .sizes(SizeDistribution::Diversity { phi_max: phi })
        .seed(seed)
        .build()
        .expect("paper parameter space is valid");
    algos
        .iter()
        .map(|spec| {
            let alloc =
                spec.allocate(&db, k, seed).expect("paper instances are feasible (K <= N)");
            let waiting = average_waiting_time(&db, &alloc, config.bandwidth)
                .expect("bandwidth validated by config")
                .total();
            (waiting, alloc.total_cost())
        })
        .collect()
}

/// Per-worker accumulator: `[point][algo] -> (waiting, cost)` stats.
type WorkerStats = Vec<Vec<(SummaryStats, SummaryStats)>>;

/// Runs a full sweep: every `(point, seed)` cell evaluates every
/// algorithm. Cells are partitioned statically (round-robin) across
/// worker threads; each worker accumulates its share into per-point
/// [`SummaryStats`] and the partials combine with
/// [`SummaryStats::merge`] (parallel Welford) in worker order, so the
/// output is deterministic for a given worker count.
///
/// # Panics
///
/// Panics if `axis` is empty, `algos` is empty, or the configuration
/// has no seeds.
pub fn run_sweep(
    config: &ExperimentConfig,
    axis: &SweepAxis,
    algos: &[AlgoSpec],
) -> SweepResult {
    assert!(!axis.is_empty(), "sweep axis must have points");
    assert!(!algos.is_empty(), "need at least one algorithm");
    assert!(!config.seeds.is_empty(), "need at least one seed");

    let points = axis.len();
    let seeds = &config.seeds;
    let cells: Vec<(usize, u64)> =
        (0..points).flat_map(|p| seeds.iter().map(move |&s| (p, s))).collect();
    dbcast_obs::counter!("bench.sweep.cells").add(cells.len() as u64);

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(cells.len().max(1));

    let empty_stats =
        || vec![vec![(SummaryStats::new(), SummaryStats::new()); algos.len()]; points];
    let per_worker: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let cells = &cells;
                scope.spawn(move || {
                    let _span = dbcast_obs::span!("bench.sweep.worker");
                    let mut acc = empty_stats();
                    // Static round-robin share: cells w, w+workers, ...
                    for i in (w..cells.len()).step_by(workers) {
                        let (point, seed) = cells[i];
                        let cell = run_cell(config, axis, algos, point, seed);
                        for (a, &(waiting, cost)) in cell.iter().enumerate() {
                            acc[point][a].0.record(waiting);
                            acc[point][a].1.record(cost);
                        }
                    }
                    acc
                })
            })
            .collect();
        // Joined in worker order, so the merge below is deterministic.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let mut merged = empty_stats();
    for acc in per_worker {
        for (p, row) in acc.into_iter().enumerate() {
            for (a, (waiting, cost)) in row.into_iter().enumerate() {
                merged[p][a].0.merge(&waiting);
                merged[p][a].1.merge(&cost);
            }
        }
    }

    let xs = axis.values();
    let out = xs
        .iter()
        .zip(&merged)
        .map(|(&x, row)| SweepPoint {
            x,
            algos: algos
                .iter()
                .zip(row)
                .map(|(spec, (waiting, cost))| AlgoPoint {
                    algo: spec.name().to_string(),
                    mean_waiting: waiting.mean(),
                    mean_cost: cost.mean(),
                })
                .collect(),
        })
        .collect();
    SweepResult { axis: axis.label().to_string(), points: out }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            items: 20,
            channels: 3,
            seeds: vec![0, 1],
            ..ExperimentConfig::default()
        }
    }

    fn fast_algos() -> Vec<AlgoSpec> {
        vec![AlgoSpec::Flat, AlgoSpec::Drp, AlgoSpec::DrpCds]
    }

    #[test]
    fn sweep_shape_matches_axis() {
        let cfg = tiny_config();
        let axis = SweepAxis::Channels(vec![2, 3, 4]);
        let result = run_sweep(&cfg, &axis, &fast_algos());
        assert_eq!(result.axis, "K");
        assert_eq!(result.points.len(), 3);
        for p in &result.points {
            assert_eq!(p.algos.len(), 3);
        }
        assert_eq!(result.points[0].x, 2.0);
    }

    #[test]
    fn sweep_is_deterministic_despite_parallelism() {
        let cfg = tiny_config();
        let axis = SweepAxis::Items(vec![10, 20]);
        let a = run_sweep(&cfg, &axis, &fast_algos());
        let b = run_sweep(&cfg, &axis, &fast_algos());
        assert_eq!(a, b);
    }

    #[test]
    fn drpcds_never_worse_than_drp_in_sweep() {
        let cfg = tiny_config();
        let axis = SweepAxis::Channels(vec![3, 4]);
        let result = run_sweep(&cfg, &axis, &fast_algos());
        for p in &result.points {
            let drp = p.algos.iter().find(|a| a.algo == "DRP").unwrap();
            let combined = p.algos.iter().find(|a| a.algo == "DRP-CDS").unwrap();
            assert!(combined.mean_cost <= drp.mean_cost + 1e-9);
        }
    }

    #[test]
    fn series_extraction() {
        let cfg = tiny_config();
        let axis = SweepAxis::Channels(vec![2, 4]);
        let result = run_sweep(&cfg, &axis, &fast_algos());
        let series = result.series("DRP").unwrap();
        assert_eq!(series.len(), 2);
        assert!(result.series("NOPE").is_none());
    }

    #[test]
    fn merged_means_match_serial_reference() {
        let cfg = tiny_config();
        let axis = SweepAxis::Channels(vec![3]);
        let algos = fast_algos();
        let result = run_sweep(&cfg, &axis, &algos);
        // Serial reference: plain sum over seeds.
        let mut sums = vec![(0.0f64, 0.0f64); algos.len()];
        for &seed in &cfg.seeds {
            for (a, (w, c)) in
                run_cell(&cfg, &axis, &algos, 0, seed).into_iter().enumerate()
            {
                sums[a].0 += w;
                sums[a].1 += c;
            }
        }
        let denom = cfg.seeds.len() as f64;
        for (a, point) in result.points[0].algos.iter().enumerate() {
            assert!((point.mean_waiting - sums[a].0 / denom).abs() < 1e-9);
            assert!((point.mean_cost - sums[a].1 / denom).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "sweep axis must have points")]
    fn empty_axis_panics() {
        run_sweep(&tiny_config(), &SweepAxis::Channels(vec![]), &fast_algos());
    }
}
