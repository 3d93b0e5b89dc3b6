//! End-to-end telemetry check: running the paper's algorithms
//! populates the global registry with DRP split timers, CDS iteration
//! counters and convergence traces, and GOPT generation counts.

use dbcast_alloc::DrpCds;
use dbcast_baselines::{Gopt, GoptConfig};
use dbcast_model::ChannelAllocator;
use dbcast_workload::{SizeDistribution, WorkloadBuilder};

#[test]
fn snapshot_captures_drp_cds_and_gopt_telemetry() {
    dbcast_obs::set_enabled(true);
    dbcast_obs::registry().reset();

    let db = WorkloadBuilder::new(30)
        .skewness(0.8)
        .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
        .seed(0)
        .build()
        .expect("valid workload parameters");

    DrpCds::new().allocate(&db, 4).expect("feasible instance");
    Gopt::new(GoptConfig {
        max_generations: 10,
        population: 12,
        seed: 7,
        ..GoptConfig::default()
    })
    .allocate(&db, 4)
    .expect("feasible instance");

    let snap = dbcast_obs::registry().snapshot();

    // DRP: splitting 1 group into 4 takes 3 splits, each under the
    // split-scan span timer.
    let split_scan =
        snap.histogram("alloc.drp.split_scan").expect("span histogram present");
    assert!(split_scan.count >= 3, "expected >= 3 split scans, got {}", split_scan.count);
    assert_eq!(snap.counter("alloc.drp.splits"), Some(3));
    let drp_trace = snap.trace("alloc.drp").expect("DRP trace present");
    assert_eq!(drp_trace.len(), 3);

    // CDS: the refine span always runs. Both DrpCds and GOPT's final
    // polish invoke CDS, so the iteration counter equals the total
    // events across every recorded "alloc.cds" trace, and each trace
    // individually is monotone non-increasing.
    assert!(snap.histogram("alloc.cds.refine").is_some());
    let cds_traces: Vec<_> = snap.traces.iter().filter(|t| t.name == "alloc.cds").collect();
    assert!(!cds_traces.is_empty(), "at least one CDS trace recorded");
    let cds_events: usize = cds_traces.iter().map(|t| t.len()).sum();
    assert_eq!(snap.counter("alloc.cds.iterations"), Some(cds_events as u64));
    for t in &cds_traces {
        assert!(t.is_monotone_non_increasing(1e-9), "CDS trace not monotone: {t:?}");
    }

    // GOPT: one run, its generations counted, best-cost history traced
    // and non-increasing (elitist selection).
    assert_eq!(snap.counter("baselines.gopt.runs"), Some(1));
    assert!(snap.counter("baselines.gopt.generations").unwrap_or(0) >= 1);
    let gopt_trace = snap.trace("baselines.gopt").expect("GOPT trace present");
    assert!(gopt_trace.len() >= 2);
    assert!(gopt_trace.is_monotone_non_increasing(1e-9));

    // The JSON export carries everything above.
    let json = snap.to_json();
    for needle in
        ["alloc.drp.split_scan", "alloc.cds.iterations", "baselines.gopt", "\"version\": 2"]
    {
        assert!(json.contains(needle), "snapshot JSON missing {needle}");
    }
}
