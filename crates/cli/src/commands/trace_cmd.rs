//! `dbcast trace` — inspect a serving process's per-request audit
//! trace (the `/exemplars` document of `dbcast serve --listen`):
//!
//! * `dbcast trace dump` — totals, the live residual table and the
//!   last `--last N` sampled records,
//! * `dbcast trace slowest` — the `--last N` sampled records with the
//!   largest observed waits,
//! * `dbcast trace residuals` — the per-(channel, generation) Eq. 2
//!   residual tables, frozen history included,
//! * `dbcast trace explain --request ID` — one record's exact wait
//!   decomposition `wait = predicted + residual + straddle penalty`.
//!
//! The document comes from `--input FILE` (a saved scrape) or a live
//! `--addr HOST:PORT` scrape of `/exemplars`; either way it passes the
//! strict schema-v1 validator before anything is rendered.

use dbcast_audit::{AuditSnapshot, GenerationResiduals, TraceRecord};

use crate::args::Args;
use crate::commands::{http_get, CliError};

/// Dispatches the `trace` subcommand by action.
///
/// # Errors
///
/// Unknown actions, missing sources, scrape failures, schema-invalid
/// `/exemplars` documents and unknown `--request` ids all fail the
/// command.
pub fn run_trace(args: &Args, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let snap = load_snapshot(args)?;
    match args.action() {
        Some("dump") => run_dump(args, &snap, out),
        Some("slowest") => run_slowest(args, &snap, out),
        Some("residuals") => run_residuals(&snap, out),
        Some("explain") => run_explain(args, &snap, out),
        other => Err(CliError::InvalidOption(format!(
            "trace action {:?}; expected dump, slowest, residuals or explain",
            other.unwrap_or("<none>")
        ))),
    }
}

/// Loads and validates the `/exemplars` document from `--input FILE`
/// or a live `--addr HOST:PORT` scrape.
fn load_snapshot(args: &Args) -> Result<AuditSnapshot, CliError> {
    let (origin, body) = match args.opt::<String>("input")? {
        Some(path) => {
            let body = std::fs::read_to_string(&path)?;
            (path, body)
        }
        None => match args.opt::<String>("addr")? {
            Some(addr) => {
                let body = http_get(&addr, "/exemplars")?;
                (format!("{addr}/exemplars"), body)
            }
            None => {
                return Err(CliError::InvalidOption(
                    "trace needs a source: --input FILE or --addr HOST:PORT".to_string(),
                ))
            }
        },
    };
    dbcast_audit::json::validate(&body)
        .map_err(|e| CliError::Scrape(format!("{origin}: {e}")))
}

fn write_header(
    snap: &AuditSnapshot,
    out: &mut impl std::io::Write,
) -> std::io::Result<()> {
    writeln!(
        out,
        "audit trace: {} record(s) live (ring capacity {}), {} recorded ever",
        snap.records.len(),
        snap.capacity,
        snap.recorded
    )?;
    writeln!(
        out,
        "stages: {} seeded, {} tail-sampled, {} swap-straddled",
        snap.sampled, snap.tail, snap.straddled
    )
}

/// One fixed-width record line shared by `dump` and `slowest`.
fn write_record(r: &TraceRecord, out: &mut impl std::io::Write) -> std::io::Result<()> {
    let mut stages = String::new();
    if r.seeded() {
        stages.push('S');
    }
    if r.tail() {
        stages.push('T');
    }
    if r.straddled() {
        stages.push('X');
    }
    writeln!(
        out,
        "  #{:<8} item {:<5} gen {:<3} ch {:<2} queue {:<3} arrival {:<10.4} \
         wait {:<8.4} predicted {:<8.4} residual {:<+9.4} straddle {:<8.4} [{stages}]",
        r.request_id,
        r.item,
        r.generation,
        r.channel,
        r.queue_position,
        r.arrival,
        r.wait,
        r.predicted,
        r.residual(),
        r.straddle_penalty,
    )
}

fn write_residual_table(
    g: &GenerationResiduals,
    label: &str,
    out: &mut impl std::io::Write,
) -> std::io::Result<()> {
    writeln!(out, "generation {} ({label}):", g.generation)?;
    for c in &g.channels {
        writeln!(
            out,
            "  channel {:<2} {:>6} request(s)  observed {:<8.4} predicted {:<8.4} \
             residual {:<+9.4}",
            c.channel, c.requests, c.observed_mean, c.predicted_mean, c.residual
        )?;
    }
    Ok(())
}

fn run_dump(
    args: &Args,
    snap: &AuditSnapshot,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    let last = args.opt_or("last", 16usize)?;
    write_header(snap, out)?;
    write_residual_table(&snap.residuals, "serving", out)?;
    let shown = snap.records.len().min(last);
    writeln!(out, "records: {} (showing last {shown})", snap.records.len())?;
    for r in &snap.records[snap.records.len() - shown..] {
        write_record(r, out)?;
    }
    Ok(())
}

fn run_slowest(
    args: &Args,
    snap: &AuditSnapshot,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    let last = args.opt_or("last", 10usize)?;
    write_header(snap, out)?;
    let mut records = snap.records.clone();
    // Slowest first; ties broken by request id so the order is stable.
    records.sort_by(|a, b| b.wait.total_cmp(&a.wait).then(a.request_id.cmp(&b.request_id)));
    records.truncate(last);
    writeln!(out, "slowest {} of {} record(s):", records.len(), snap.records.len())?;
    for r in &records {
        write_record(r, out)?;
    }
    Ok(())
}

fn run_residuals(
    snap: &AuditSnapshot,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    write_header(snap, out)?;
    for g in &snap.history {
        write_residual_table(g, "frozen", out)?;
    }
    write_residual_table(&snap.residuals, "serving", out)?;
    Ok(())
}

fn run_explain(
    args: &Args,
    snap: &AuditSnapshot,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    let id = args.require::<u64>("request")?;
    let r = snap.records.iter().find(|r| r.request_id == id).ok_or_else(|| {
        CliError::InvalidOption(format!(
            "--request {id}: not in the sampled trace set ({} record(s) live; \
             only seeded- or tail-sampled requests are retained)",
            snap.records.len()
        ))
    })?;
    writeln!(
        out,
        "request #{}: item {}, generation {}, channel {}",
        id, r.item, r.generation, r.channel
    )?;
    writeln!(
        out,
        "  arrived t={:.4} (tick {}), satisfied t={:.4} (tick {}), \
         queue position {}",
        r.arrival,
        r.arrival_tick,
        r.completion(),
        r.satisfied_tick,
        r.queue_position
    )?;
    writeln!(out, "  observed wait        {:>12.6} s", r.wait)?;
    writeln!(
        out,
        "  = Eq. 2 prediction   {:>12.6} s  (cycle/2b + z_i/b on channel {})",
        r.predicted, r.channel
    )?;
    writeln!(
        out,
        "  + scheduling residual{:>12.6} s  (phase alignment the model averages out)",
        r.residual()
    )?;
    writeln!(
        out,
        "  + swap straddle      {:>12.6} s  ({})",
        r.straddle_penalty,
        if r.straddled() {
            "service crossed a program-swap boundary"
        } else {
            "no swap crossed"
        }
    )?;
    let sum = r.predicted + r.residual() + r.straddle_penalty;
    let error = (sum - r.wait).abs();
    writeln!(out, "  reassembled          {sum:>12.6} s  (|error| {error:.3e})")?;
    if error > dbcast_audit::json::DECOMPOSITION_TOLERANCE * r.wait.abs().max(1.0) {
        return Err(CliError::Scrape(format!(
            "decomposition of request {id} does not reassemble: \
             {sum} vs observed {} (error {error:.3e})",
            r.wait
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_audit::{AuditConfig, AuditTracer, FLAG_SEEDED, FLAG_STRADDLED, FLAG_TAIL};

    /// A tracer with three hand-planted records on two channels.
    fn tracer() -> AuditTracer {
        let t =
            AuditTracer::new(AuditConfig { sample_shift: 0, ..AuditConfig::default() }, 2);
        for (id, channel, wait, predicted, flags) in [
            (0u64, 0u64, 0.50, 0.40, FLAG_SEEDED),
            (3, 1, 1.25, 0.60, FLAG_SEEDED | FLAG_TAIL),
            (7, 1, 0.90, 0.55, FLAG_SEEDED | FLAG_STRADDLED),
        ] {
            t.observe_wait(channel as usize, wait, predicted);
            let straddle = if flags & FLAG_STRADDLED != 0 { 0.10 } else { 0.0 };
            t.record(&TraceRecord {
                request_id: id,
                item: id * 2,
                arrival_tick: id,
                satisfied_tick: id + 1,
                generation: 0,
                channel,
                queue_position: 1,
                arrival: id as f64,
                wait,
                predicted,
                straddle_penalty: straddle,
                flags,
            });
        }
        t
    }

    fn write_doc(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("dbcast_trace_cmd_{name}.json"));
        std::fs::write(&path, tracer().render_json()).unwrap();
        path
    }

    #[test]
    fn dump_renders_totals_records_and_residuals() {
        let path = write_doc("dump");
        let args =
            Args::parse(["trace", "dump", "--input", path.to_str().unwrap()]).unwrap();
        let mut out = Vec::new();
        run_trace(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("3 record(s) live"), "{text}");
        assert!(text.contains("1 tail-sampled"), "{text}");
        assert!(text.contains("channel 1"), "{text}");
        assert!(text.contains("#7"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn slowest_sorts_by_wait_and_truncates() {
        let path = write_doc("slowest");
        let args = Args::parse([
            "trace",
            "slowest",
            "--input",
            path.to_str().unwrap(),
            "--last",
            "2",
        ])
        .unwrap();
        let mut out = Vec::new();
        run_trace(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("slowest 2 of 3"), "{text}");
        let pos_3 = text.find("#3").expect("slowest record shown");
        let pos_7 = text.find("#7").expect("second slowest shown");
        assert!(pos_3 < pos_7, "not sorted by wait:\n{text}");
        assert!(!text.contains("#0"), "truncation failed:\n{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn explain_reassembles_the_decomposition() {
        let path = write_doc("explain");
        let args = Args::parse([
            "trace",
            "explain",
            "--input",
            path.to_str().unwrap(),
            "--request",
            "7",
        ])
        .unwrap();
        let mut out = Vec::new();
        run_trace(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("request #7"), "{text}");
        assert!(text.contains("Eq. 2 prediction"), "{text}");
        assert!(text.contains("crossed a program-swap boundary"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn explain_unknown_request_and_unknown_action_fail() {
        let path = write_doc("unknown");
        let args = Args::parse([
            "trace",
            "explain",
            "--input",
            path.to_str().unwrap(),
            "--request",
            "99",
        ])
        .unwrap();
        let mut out = Vec::new();
        assert!(matches!(run_trace(&args, &mut out), Err(CliError::InvalidOption(_))));
        let args =
            Args::parse(["trace", "bogus", "--input", path.to_str().unwrap()]).unwrap();
        assert!(matches!(run_trace(&args, &mut out), Err(CliError::InvalidOption(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn live_scrape_against_an_exemplars_route_works() {
        let t = std::sync::Arc::new(tracer());
        let route_t = std::sync::Arc::clone(&t);
        let server = dbcast_flight::ExpositionServer::bind_with_routes(
            "127.0.0.1:0",
            Box::new(|| "{}".to_string()),
            vec![dbcast_flight::Route::json("/exemplars", move || route_t.render_json())],
        )
        .unwrap();
        let args = Args::parse([
            "trace",
            "slowest",
            "--addr",
            &server.addr().to_string(),
            "--once",
        ])
        .unwrap();
        let mut out = Vec::new();
        run_trace(&args, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("slowest 3 of 3"));
    }

    #[test]
    fn missing_source_is_an_error() {
        let args = Args::parse(["trace", "dump"]).unwrap();
        let mut out = Vec::new();
        assert!(matches!(run_trace(&args, &mut out), Err(CliError::InvalidOption(_))));
    }
}
