//! The benchmark's own checks: its metric names match `BENCHMARK.json`,
//! every workload passes its correctness gate at tiny sizes, traced
//! layer tables add up, and measured time grows with input size.

use dbcast_perfbench::report::{per_layer_names, Stamp, END_TO_END, LAYERS};
use dbcast_perfbench::{run, Options, Outcome, Scale, Workload};
use serde_json::Value;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_units(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_seq)
        .expect("list present")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).expect("name");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool, factor: usize) -> Outcome {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        scale: Scale { tiny: true, factor },
    };
    run(&opts).expect("tiny run sets up")
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome.metrics.iter().find(|m| m.name == name).expect("metric reported").value
}

#[test]
fn metric_names_and_units_match_the_manifest() {
    let m = manifest();
    let e2e: Vec<(String, String)> =
        END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(names_units(&m, "end_to_end"), e2e);
    let per_layer: Vec<(String, String)> =
        per_layer_names().iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(names_units(&m, "per_layer"), per_layer);
    let workloads: Vec<&str> = m
        .get("workloads")
        .and_then(Value::as_seq)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_workload_passes_at_tiny_size_and_reports_every_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = tiny(workload, trace, 1);
            assert!(
                outcome.correct(),
                "{} trace={trace}: {:?}",
                workload.name(),
                outcome.violations
            );
            assert!(outcome.attempted > 0);
            let expected: Vec<(&str, &str)> =
                if trace { per_layer_names() } else { END_TO_END.to_vec() };
            let got: Vec<(&str, &str)> =
                outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, expected, "{} trace={trace}", workload.name());
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                assert!(
                    outcome.metrics.iter().all(|m| m.value > 0.0),
                    "{}",
                    workload.name()
                );
            }
            // The result line is JSON with exactly the contract's keys.
            let line: Value =
                serde_json::from_str(&outcome.result_json()).expect("result parses");
            let keys: Vec<&str> =
                line.as_map().expect("object").iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let stamp = Stamp { workload: workload.name(), seed: 7, trace };
            let detail: Value =
                serde_json::from_str(&outcome.detail_json(&stamp)).expect("detail parses");
            assert!(detail.get("stamp").and_then(|s| s.get("rustc")).is_some());
        }
    }
}

#[test]
fn traced_layers_add_up_to_the_traced_wall_time() {
    for workload in Workload::ALL {
        let outcome = tiny(workload, true, 1);
        let layers: f64 = LAYERS.iter().map(|(_, name)| metric(&outcome, name)).sum();
        let traced_reps =
            outcome.detail.iter().find(|m| m.name == "traced_reps").unwrap().value;
        assert!(traced_reps >= 2.0);
        let wall = metric(&outcome, "trace.wall_ms");
        assert!(wall > 0.0);
        assert!(
            (layers - wall).abs() <= 1e-9 * wall,
            "{}: layers {layers} ms vs wall {wall} ms",
            workload.name()
        );
    }
}

#[test]
fn measured_time_grows_with_input_size() {
    // If the optimiser had dropped the measured work, time would not
    // follow the input size.
    for workload in [Workload::PlanLarge, Workload::FleetSwap] {
        let small = metric(&tiny(workload, false, 1), "latency_ms_p50");
        let large = metric(&tiny(workload, false, 8), "latency_ms_p50");
        assert!(
            large > 2.0 * small,
            "{}: {small} ms at 1x, {large} ms at 8x",
            workload.name()
        );
    }
    let small = metric(&tiny(Workload::ServeSteady, false, 1), "throughput_per_s");
    let large = metric(&tiny(Workload::ServeSteady, false, 8), "throughput_per_s");
    let (t_small, t_large) = (20_000.0 / small, 160_000.0 / large);
    assert!(t_large > 2.0 * t_small, "serve replay: {t_small} s at 1x, {t_large} s at 8x");
}
