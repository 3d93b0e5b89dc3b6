//! Metrics, the result line and the repeatability stamp.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The end-to-end metrics every timed run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("wait_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Layers of the wall-time attribution and the per-layer metric that
/// reports each one's self time.
pub const LAYERS: [(&str, &str); 12] = [
    ("alloc", "layer.alloc.self_ms"),
    ("model", "layer.model.self_ms"),
    ("serve", "layer.serve.self_ms"),
    ("serve.estimator", "layer.serve.estimator.self_ms"),
    ("serve.drift", "layer.serve.drift.self_ms"),
    ("audit", "layer.audit.self_ms"),
    ("net.server", "layer.net.server.self_ms"),
    ("net.egress", "layer.net.egress.self_ms"),
    ("net.client", "layer.net.client.self_ms"),
    ("net.frame", "layer.net.frame.self_ms"),
    ("net.uplink", "layer.net.uplink.self_ms"),
    (crate::spans::UNATTRIBUTED, "layer.unattributed.self_ms"),
];

/// The per-layer metrics every traced run reports, with their units:
/// the layer table (see [`LAYERS`]), the traced wall time, the tracing
/// overhead and the per-layer counters. A layer a workload does not
/// call reports 0.
pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    let mut names: Vec<(&str, &str)> = LAYERS.iter().map(|&(_, m)| (m, "ms")).collect();
    names.extend([
        ("trace.wall_ms", "ms"),
        ("trace.overhead_ms", "ms"),
        ("alloc.drp.ms", "ms"),
        ("alloc.engine_init.ms", "ms"),
        ("alloc.cds.moves", "count"),
        ("alloc.cds.ms_per_move", "ms"),
        ("alloc.bytes", "B"),
        ("alloc.allocs", "count"),
        ("model.program_build.ms", "ms"),
        ("serve.estimator.ns_per_req", "ns"),
        ("serve.estimator.tick_us", "us"),
        ("serve.drift.check_us", "us"),
        ("audit.ns_per_req", "ns"),
        ("serve.ticks", "count"),
        ("serve.realloc.count", "count"),
        ("serve.realloc.share", "ratio"),
        ("net.frame.encode_ns", "ns"),
        ("net.frame.decode_ns", "ns"),
        ("net.egress.busy_s", "s"),
        ("net.egress.frames", "count"),
        ("net.egress.truncated", "count"),
        ("net.server.bytes_sent", "B"),
        ("net.server.queue_peak", "count"),
        ("net.server.dropped_frames", "count"),
        ("net.client.record_s", "s"),
        ("net.client.measure_s", "s"),
        ("net.client.completed_ratio", "ratio"),
        ("net.client.tuning_mean_s", "s"),
        ("net.fleet.eq2_gap", "ratio"),
        ("net.uplink.ingest_ns", "ns"),
    ]);
    names
}

/// Everything one invocation measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (requests, frames, plans).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Violated correctness checks; any entry fails the run.
    pub violations: Vec<String>,
    /// The contract metrics: end-to-end (timed run) or per-layer
    /// (traced run).
    pub metrics: Vec<Metric>,
    /// The workload's own named metrics and sample counts, printed on
    /// the line before the result.
    pub detail: Vec<Metric>,
}

impl Outcome {
    /// Records a violated check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Whether every check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// Fills in the metrics the contract requires but the workload did
    /// not produce with 0, in the contract's order. Only per-layer
    /// metrics may be absent: a layer the workload never calls.
    pub fn complete_per_layer(&mut self) {
        let mut ordered = Vec::new();
        for (name, unit) in per_layer_names() {
            let value =
                self.metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
            ordered.push(Metric::new(name, value, unit));
        }
        self.metrics = ordered;
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    /// A failed run reports no metrics.
    pub fn result_json(&self) -> String {
        let correct = self.correct();
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        if correct {
            push_metrics(&mut out, &self.metrics);
        }
        out.push_str("}}");
        out
    }

    /// The detail line: the workload's named metrics plus the stamp.
    pub fn detail_json(&self, stamp: &Stamp) -> String {
        let mut out = String::from("{\"detail\": {");
        push_metrics(&mut out, &self.detail);
        out.push_str("}, \"stamp\": ");
        out.push_str(&stamp.json());
        out.push('}');
        out
    }
}

fn push_metrics(out: &mut String, metrics: &[Metric]) {
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
}

/// A finite number in full precision (shortest round-trip form); a
/// non-finite one as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// What a result depends on besides the code: seed, cores, compiler,
/// features, profile and commit.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Traced run or timed run.
    pub trace: bool,
}

impl Stamp {
    /// The stamp as a JSON object.
    pub fn json(&self) -> String {
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"available_parallelism\": {cores}, \
             \"rustc\": \"{}\", \"features\": \"default\", \"profile\": \"{profile}\", \
             \"git_sha\": \"{}\"}}",
            self.workload,
            self.seed,
            self.trace,
            env!("PERFBENCH_RUSTC"),
            git_sha()
        )
    }
}

/// The checkout's commit, or `none` outside a git work tree.
fn git_sha() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
