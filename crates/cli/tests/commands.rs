//! Integration tests driving every CLI command through the library
//! surface (no process spawning).

use dbcast_cli::args::Args;
use dbcast_cli::commands;

fn run<F>(f: F) -> String
where
    F: FnOnce(&mut Vec<u8>) -> Result<(), commands::CliError>,
{
    let mut out = Vec::new();
    f(&mut out).expect("command succeeds");
    String::from_utf8(out).expect("valid utf-8 output")
}

#[test]
fn generate_to_stdout_emits_json() {
    let args = Args::parse(["generate", "--items", "10", "--seed", "3"]).unwrap();
    let out = run(|w| commands::run_generate(&args, w));
    assert!(out.contains("\"items\""));
    assert!(out.matches("frequency").count() == 10);
}

#[test]
fn generate_allocate_roundtrip_through_file() {
    let dir = std::env::temp_dir().join("dbcast-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wl.json");
    let path_str = path.to_str().unwrap().to_string();

    let gen_args = Args::parse(["generate", "--items", "20", "--out", &path_str]).unwrap();
    let msg = run(|w| commands::run_generate(&gen_args, w));
    assert!(msg.contains("wrote 20 items"));

    let alloc_args =
        Args::parse(["allocate", "--db", &path_str, "--channels", "4"]).unwrap();
    let out = run(|w| commands::run_allocate(&alloc_args, w));
    assert!(out.contains("algorithm: DRP-CDS"));
    assert!(out.contains("channel 3:"));
    assert!(out.contains("total cost"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn allocate_json_emits_parseable_allocation() {
    let args =
        Args::parse(["allocate", "--items", "12", "--channels", "3", "--json"]).unwrap();
    let out = run(|w| commands::run_allocate(&args, w));
    let alloc: serde_json::Value = serde_json::from_str(&out).expect("valid json");
    assert!(alloc.get("assignment").is_some());
}

#[test]
fn evaluate_lists_all_algorithms() {
    let args = Args::parse(["evaluate", "--items", "15", "--channels", "3"]).unwrap();
    let out = run(|w| commands::run_evaluate(&args, w));
    for name in ["FLAT", "VF^K", "GREEDY", "DRP", "DRP-CDS", "GOPT"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn simulate_reports_percentiles_and_loads() {
    let args =
        Args::parse(["simulate", "--items", "15", "--channels", "3", "--requests", "500"])
            .unwrap();
    let out = run(|w| commands::run_simulate(&args, w));
    assert!(out.contains("requests completed: 500"));
    assert!(out.contains("p50/p95/p99"));
    assert!(out.contains("channel 2:"));
}

#[test]
fn paper_example_prints_published_costs() {
    let args = Args::parse(["paper-example", "--trace"]).unwrap();
    let out = run(|w| commands::run_paper_example(&args, w));
    assert!(out.contains("22.29"));
    assert!(out.contains("CDS step 1: move d10 from group 4 to group 2"));
    // The whole `--trace` rendering of Tables 3 and 4, byte for byte.
    let expected = "\
paper worked example: 15 items, 5 channels
DRP iteration 0 (total cost 135.60):
  group 1: {d9 d2 d3 d6 d5 d15 d1 d12 d10 d13 d4 d8 d14 d7 d11} cost 135.60
DRP iteration 1 (total cost 57.66):
  group 1: {d9 d2 d3 d6 d5 d15 d1 d12} cost 29.04
  group 2: {d10 d13 d4 d8 d14 d7 d11} cost 28.61
DRP iteration 2 (total cost 42.46):
  group 1: {d9 d2 d3 d6 d5 d15} cost 7.02
  group 2: {d1 d12} cost 6.82
  group 3: {d10 d13 d4 d8 d14 d7 d11} cost 28.61
DRP iteration 3 (total cost 27.45):
  group 1: {d9 d2 d3 d6 d5 d15} cost 7.02
  group 2: {d1 d12} cost 6.82
  group 3: {d10 d13 d4 d8} cost 7.26
  group 4: {d14 d7 d11} cost 6.35
DRP iteration 4 (total cost 24.08):
  group 1: {d9 d2 d3} cost 2.59
  group 2: {d6 d5 d15} cost 1.07
  group 3: {d1 d12} cost 6.82
  group 4: {d10 d13 d4 d8} cost 7.26
  group 5: {d14 d7 d11} cost 6.35
CDS step 1: move d10 from group 4 to group 2 (dc = 0.95, cost -> 23.14)
CDS step 2: move d12 from group 3 to group 2 (dc = 0.45, cost -> 22.68)
CDS step 3: move d6 from group 2 to group 1 (dc = 0.05, cost -> 22.64)
CDS step 4: move d14 from group 5 to group 2 (dc = 0.34, cost -> 22.29)
DRP cost: 24.08 (paper Table 3: 24.09 from rounded groups)
DRP-CDS cost: 22.29 (paper Table 4: 22.29)
CDS moves applied: 4
";
    assert_eq!(out, expected);
}

#[test]
fn sweep_quick_produces_table() {
    let args =
        Args::parse(["sweep", "--axis", "k", "--quick", "--items", "25", "--seeds", "1"])
            .unwrap();
    let out = run(|w| commands::run_sweep_cmd(&args, w));
    assert!(out.contains("DRP-CDS"));
    assert!(out.lines().filter(|l| l.starts_with('|')).count() >= 9);
}

#[test]
fn index_reports_battery_stretch() {
    let args = Args::parse(["index", "--items", "20", "--channels", "3"]).unwrap();
    let out = run(|w| commands::run_index(&args, w));
    assert!(out.contains("expected tuning time"));
    assert!(out.contains("battery"));
}

#[test]
fn index_rejects_inverted_radio_powers() {
    let args = Args::parse([
        "index",
        "--items",
        "10",
        "--channels",
        "2",
        "--active-mw",
        "1",
        "--doze-mw",
        "5",
    ])
    .unwrap();
    let mut out = Vec::new();
    let err = commands::run_index(&args, &mut out).unwrap_err();
    assert!(err.to_string().contains("invalid option"));
}

#[test]
fn replicate_reports_accepted_replicas() {
    let args =
        Args::parse(["replicate", "--items", "30", "--channels", "3", "--algo", "flat"])
            .unwrap();
    let out = run(|w| commands::run_replicate(&args, w));
    assert!(out.contains("estimated W_b"));
}

#[test]
fn unknown_algorithm_is_a_clean_error() {
    let args = Args::parse(["allocate", "--items", "5", "--algo", "nope"]).unwrap();
    let mut out = Vec::new();
    let err = commands::run_allocate(&args, &mut out).unwrap_err();
    assert!(err.to_string().contains("unknown algorithm"));
}

#[test]
fn perf_runs_a_filtered_suite_and_checks_its_own_baseline() {
    let dir = std::env::temp_dir().join("dbcast-cli-perf-test");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("BENCH_current.json");
    let baseline = dir.join("BENCH_base.json");
    let report_str = report.to_str().unwrap().to_string();
    let baseline_str = baseline.to_str().unwrap().to_string();

    // First run records the baseline.
    let args = Args::parse([
        "perf",
        "--filter",
        "drp",
        "--iterations",
        "2",
        "--warmup",
        "0",
        "--out",
        &report_str,
        "--baseline",
        &baseline_str,
        "--update-baseline",
    ])
    .unwrap();
    let out = run(|w| commands::run_perf(&args, w));
    assert!(out.contains("benchmark"), "missing table header in:\n{out}");
    assert!(out.contains("drp"), "filtered bench absent in:\n{out}");
    assert!(baseline.exists(), "baseline was not written");
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
    assert_eq!(parsed.get("schema_version").and_then(|v| v.as_u64()), Some(1));

    // Second run gates against it; a generous tolerance keeps the tiny
    // two-iteration workload from flaking while still exercising the
    // whole compare path.
    let check = Args::parse([
        "perf",
        "--filter",
        "drp",
        "--iterations",
        "2",
        "--warmup",
        "0",
        "--out",
        &report_str,
        "--baseline",
        &baseline_str,
        "--tolerance",
        "10000",
        "--alloc-tolerance",
        "10000",
        "--check",
    ])
    .unwrap();
    let out = run(|w| commands::run_perf(&check, w));
    assert!(out.contains("gate:") && out.contains("PASS"), "missing verdict in:\n{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perf_check_without_a_baseline_is_a_clean_error() {
    let args = Args::parse([
        "perf",
        "--filter",
        "drp",
        "--iterations",
        "1",
        "--warmup",
        "0",
        "--out",
        "/dev/null",
        "--baseline",
        "/nonexistent/BENCH_baseline.json",
        "--check",
    ])
    .unwrap();
    let mut out = Vec::new();
    let err = commands::run_perf(&args, &mut out).unwrap_err();
    assert!(err.to_string().contains("cannot load baseline"));
}

#[test]
fn perf_rejects_a_filter_matching_nothing() {
    let args = Args::parse(["perf", "--filter", "no-such-bench"]).unwrap();
    let mut out = Vec::new();
    let err = commands::run_perf(&args, &mut out).unwrap_err();
    assert!(err.to_string().contains("matches no benchmark"));
}

#[test]
fn allocate_trace_out_writes_a_chrome_trace() {
    let dir = std::env::temp_dir().join("dbcast-cli-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_dbcast"))
        .args([
            "allocate",
            "--items",
            "30",
            "--channels",
            "4",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("dbcast binary runs");
    assert!(status.success());
    let body = std::fs::read_to_string(&trace).expect("trace file written");
    let parsed: serde_json::Value = serde_json::from_str(&body).expect("valid json");
    let events = parsed.get("traceEvents").and_then(|v| v.as_seq()).expect("traceEvents");
    // The DRP run span (and its split scans) must appear as complete
    // events.
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("alloc.drp.run")),
        "missing alloc.drp.run in:\n{body}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_defaults_finish_without_dropping_frames() {
    // The inline fleet streams unpaced into in-process clients; with its
    // default arguments it must neither hang nor shed frames. Each run
    // gets a deadline so a hang fails instead of stalling the suite.
    let dir = std::env::temp_dir().join(format!("dbcast-cli-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for run in 0..3 {
        let out_path = dir.join(format!("fleet-{run}.txt"));
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_dbcast"))
            .arg("fleet")
            .stdout(std::fs::File::create(&out_path).unwrap())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("dbcast binary runs");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll dbcast fleet") {
                break status;
            }
            if std::time::Instant::now() > deadline {
                child.kill().ok();
                child.wait().ok();
                panic!("run {run}: dbcast fleet still running after 60 s");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let stdout = std::fs::read_to_string(&out_path).unwrap();
        assert!(status.success(), "run {run}: dbcast fleet failed:\n{stdout}");
        assert!(
            stdout.contains("dropped frames: 0"),
            "run {run} dropped frames:\n{stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
