//! High-level entry points: one function per paper table/figure.

use std::io;
use std::path::Path;

use dbcast_alloc::DrpCds;
use dbcast_model::ChannelAllocator;
use dbcast_sim::validate_against_model;
use dbcast_workload::{paper, SizeDistribution, TraceBuilder, WorkloadBuilder};

use crate::algos::AlgoSpec;
use crate::config::{ExperimentConfig, SweepAxis};
use crate::report::{write_reports, ReportTable};
use crate::sweep::run_sweep;
use crate::timing::run_timing_sweep;

/// Writes the telemetry snapshot accumulated so far next to a figure's
/// report files (`<stem>.metrics.json`). A no-op when the `obs`
/// feature is off or recording is disabled at runtime.
fn write_metrics_snapshot(dir: &Path, stem: &str) -> io::Result<()> {
    if dbcast_obs::enabled() {
        dbcast_obs::snapshot::write_global(&dir.join(format!("{stem}.metrics.json")))?;
    }
    Ok(())
}

fn waiting_figure(
    config: &ExperimentConfig,
    axis: SweepAxis,
    dir: &Path,
    stem: &str,
    title: &str,
) -> io::Result<String> {
    let result = run_sweep(config, &axis, &AlgoSpec::paper_lineup());
    let table = ReportTable::from_sweep(title, &result);
    let md = write_reports(dir, stem, &table)?;
    write_metrics_snapshot(dir, stem)?;
    Ok(md)
}

/// Figure 2: number of channels `K` vs average waiting time.
///
/// # Errors
///
/// Propagates filesystem errors while writing reports.
pub fn run_fig2(config: &ExperimentConfig, dir: &Path) -> io::Result<String> {
    waiting_figure(
        config,
        SweepAxis::paper_channels(),
        dir,
        "fig2_channels",
        "Figure 2: channel number K vs average waiting time W_b (s)",
    )
}

/// Figure 3: number of broadcast items `N` vs average waiting time.
///
/// # Errors
///
/// Propagates filesystem errors while writing reports.
pub fn run_fig3(config: &ExperimentConfig, dir: &Path) -> io::Result<String> {
    waiting_figure(
        config,
        SweepAxis::paper_items(),
        dir,
        "fig3_items",
        "Figure 3: broadcast items N vs average waiting time W_b (s)",
    )
}

/// Figure 4: diversity parameter `Φ` vs average waiting time.
///
/// # Errors
///
/// Propagates filesystem errors while writing reports.
pub fn run_fig4(config: &ExperimentConfig, dir: &Path) -> io::Result<String> {
    waiting_figure(
        config,
        SweepAxis::paper_diversity(),
        dir,
        "fig4_diversity",
        "Figure 4: diversity Phi vs average waiting time W_b (s)",
    )
}

/// Figure 5: skewness parameter `θ` vs average waiting time.
///
/// # Errors
///
/// Propagates filesystem errors while writing reports.
pub fn run_fig5(config: &ExperimentConfig, dir: &Path) -> io::Result<String> {
    waiting_figure(
        config,
        SweepAxis::paper_skewness(),
        dir,
        "fig5_skewness",
        "Figure 5: skewness theta vs average waiting time W_b (s)",
    )
}

/// Figure 6: number of channels `K` vs execution time.
///
/// # Errors
///
/// Propagates filesystem errors while writing reports.
pub fn run_fig6(config: &ExperimentConfig, dir: &Path) -> io::Result<String> {
    let result =
        run_timing_sweep(config, &SweepAxis::paper_channels(), &AlgoSpec::timing_lineup());
    let table =
        ReportTable::from_timing("Figure 6: channel number K vs execution time", &result);
    let md = write_reports(dir, "fig6_exec_channels", &table)?;
    write_metrics_snapshot(dir, "fig6_exec_channels")?;
    Ok(md)
}

/// Figure 7: number of broadcast items `N` vs execution time.
///
/// # Errors
///
/// Propagates filesystem errors while writing reports.
pub fn run_fig7(config: &ExperimentConfig, dir: &Path) -> io::Result<String> {
    let result =
        run_timing_sweep(config, &SweepAxis::paper_items(), &AlgoSpec::timing_lineup());
    let table =
        ReportTable::from_timing("Figure 7: broadcast items N vs execution time", &result);
    let md = write_reports(dir, "fig7_exec_items", &table)?;
    write_metrics_snapshot(dir, "fig7_exec_items")?;
    Ok(md)
}

/// Tables 2–4: replays the paper's worked example (the Table 2 profile,
/// the DRP splitting trace of Table 3 and the CDS move trace of
/// Table 4) and renders it as Markdown.
///
/// # Errors
///
/// Propagates filesystem errors while writing the report.
pub fn run_tables(dir: &Path) -> io::Result<String> {
    let db = paper::table2_profile();
    let outcome = DrpCds::new().allocate_traced(&db, 5).expect("paper example is feasible");

    let mut md = String::from("## Tables 2-4: the paper's worked example\n\n");
    md.push_str("### Table 2 profile (15 items, 5 channels)\n\n");
    md.push_str("| item | freq | size |\n|---|---|---|\n");
    for d in db.iter() {
        md.push_str(&format!(
            "| d{} | {:.4} | {:.2} |\n",
            d.id().index() + 1,
            d.frequency(),
            d.size()
        ));
    }

    md.push_str("\n### Table 3: DRP iterations\n\n");
    for i in 0..=outcome.drp.splits.len() {
        let groups = outcome.drp.groups_after(i);
        let total: f64 = groups.iter().map(|g| g.1).sum();
        md.push_str(&format!("Iteration {i} (total cost {total:.2}):\n\n"));
        md.push_str("| group | members | cost |\n|---|---|---|\n");
        for (g, (members, cost)) in groups.iter().enumerate() {
            let members: Vec<String> =
                members.iter().map(|m| format!("d{}", m.index() + 1)).collect();
            md.push_str(&format!(
                "| {} | {{{}}} | {cost:.2} |\n",
                g + 1,
                members.join(" ")
            ));
        }
        md.push('\n');
    }

    md.push_str("### Table 4: CDS iterations\n\n");
    md.push_str(&format!("Initial cost: {:.2}\n\n", outcome.cds.initial_cost));
    md.push_str("| step | move | reduction | cost after |\n|---|---|---|---|\n");
    for (i, s) in outcome.cds.steps.iter().enumerate() {
        md.push_str(&format!(
            "| {} | d{}: c{} -> c{} | {:.2} | {:.2} |\n",
            i + 1,
            s.mv.item.index() + 1,
            s.mv.from.index() + 1,
            s.mv.to.index() + 1,
            s.reduction,
            s.cost_after
        ));
    }
    md.push_str(&format!(
        "\nLocal optimum cost: {:.2} (paper: 22.29)\n",
        outcome.cds.final_cost()
    ));

    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("tables_2_3_4.md"), &md)?;
    write_metrics_snapshot(dir, "tables_2_3_4")?;
    Ok(md)
}

/// Extra experiment: analytical Eq. 2 vs the discrete-event simulator
/// over several seeded workloads.
///
/// # Errors
///
/// Propagates filesystem errors while writing the report.
pub fn run_sim_validation(config: &ExperimentConfig, dir: &Path) -> io::Result<String> {
    let mut table = ReportTable {
        title: "Simulation validation: analytical W_b vs discrete-event mean".to_string(),
        header: vec![
            "seed".into(),
            "analytical (s)".into(),
            "empirical (s)".into(),
            "rel. error".into(),
            "CI95 (s)".into(),
        ],
        rows: Vec::new(),
    };
    for &seed in config.seeds.iter().take(5) {
        let db = WorkloadBuilder::new(config.items)
            .skewness(config.skewness)
            .sizes(SizeDistribution::Diversity { phi_max: config.diversity })
            .seed(seed)
            .build()
            .expect("valid parameters");
        let alloc =
            DrpCds::new().allocate(&db, config.channels).expect("feasible instance");
        let trace = TraceBuilder::new(&db)
            .requests(30_000)
            .seed(seed.wrapping_add(1000))
            .build()
            .expect("valid trace parameters");
        let report = validate_against_model(&db, &alloc, &trace, config.bandwidth)
            .expect("validation inputs are consistent");
        table.rows.push(vec![
            seed.to_string(),
            format!("{:.4}", report.analytical),
            format!("{:.4}", report.empirical),
            format!("{:.4}", report.relative_error()),
            format!("{:.4}", report.ci95),
        ]);
    }
    let md = write_reports(dir, "sim_validation", &table)?;
    write_metrics_snapshot(dir, "sim_validation")?;
    Ok(md)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dbcast-runner-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn tables_report_reproduces_paper_numbers() {
        let dir = tmpdir("tables");
        let md = run_tables(&dir).unwrap();
        assert!(md.contains("135.60"));
        assert!(md.contains("29.04"));
        // The paper prints 24.09 by summing rounded group costs; the
        // exact value is 24.0847 and renders as 24.08.
        assert!(md.contains("24.08"));
        assert!(md.contains("22.29"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tables_report_matches_committed_artifact() {
        let dir = tmpdir("tables-pinned");
        let md = run_tables(&dir).unwrap();
        let committed = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/tables_2_3_4.md"
        ));
        assert_eq!(md, committed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sim_validation_report_has_small_errors() {
        let cfg = ExperimentConfig {
            items: 30,
            channels: 3,
            seeds: vec![0, 1],
            ..ExperimentConfig::default()
        };
        let dir = tmpdir("simval");
        let md = run_sim_validation(&cfg, &dir).unwrap();
        assert!(md.contains("seed"));
        // Every data row's relative error column should be < 0.1.
        for line in md.lines().filter(|l| l.starts_with("|") && !l.contains("seed")) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if cells.len() >= 5 {
                if let Ok(err) = cells[4].parse::<f64>() {
                    assert!(err < 0.1, "relative error {err} too large: {line}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
