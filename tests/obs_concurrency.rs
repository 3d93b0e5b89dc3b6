//! Telemetry robustness under concurrency: snapshots taken while
//! writer threads are mid-flight must be internally consistent and
//! JSON-parseable, and `Registry::reset` must leave a clean registry
//! even when racing recorders.
//!
//! Uses `force_add`/`force_record`, which bypass the runtime switch,
//! so the test does not depend on it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Both tests reset the global registry; hold this across each test
/// body so the harness's parallel threads cannot interleave them.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn snapshots_under_concurrent_recording_are_consistent_and_parse() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reg = dbcast_obs::registry();
    reg.reset();

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let ctr = dbcast_obs::registry().counter("concurrency.test.events");
                let hist = dbcast_obs::registry().histogram("concurrency.test.latency");
                let mut v = 1u64 + t;
                while !stop.load(Ordering::Relaxed) {
                    ctr.force_add(1);
                    hist.force_record(v);
                    v = v.wrapping_mul(6364136223846793005).wrapping_add(1) % 10_000 + 1;
                }
            })
        })
        .collect();

    // Consecutive snapshots observe a monotone counter, and every one
    // of them serializes to JSON that the (vendored) parser accepts.
    let mut last = 0u64;
    for _ in 0..20 {
        let snap = reg.snapshot();
        let count = snap.counter("concurrency.test.events").unwrap_or(0);
        assert!(count >= last, "counter went backwards: {count} < {last}");
        last = count;
        if let Some(h) = snap.histogram("concurrency.test.latency") {
            assert!(h.count >= 1);
            // The snapshot reads buckets before the total count (and
            // clamps count up to the bucket sum), so racing writers can
            // only make the count run ahead of the bucket sum — never
            // behind. The exporters rely on this: cumulative bucket
            // lines must never exceed the `+Inf`/`_count` value.
            let bucket_total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
            assert!(h.count >= bucket_total, "count {} < buckets {bucket_total}", h.count);
        }
        let json = snap.to_json();
        let parsed: serde_json::Value =
            serde_json::from_str(&json).expect("snapshot JSON parses");
        assert_eq!(parsed.get("version").and_then(|v| v.as_u64()), Some(2));
    }

    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer thread exits cleanly");
    }

    // JSON round-trip: the final quiescent snapshot re-parses with the
    // recorded values intact.
    let snap = reg.snapshot();
    let total = snap.counter("concurrency.test.events").expect("counter present");
    let parsed: serde_json::Value =
        serde_json::from_str(&snap.to_json()).expect("final snapshot parses");
    let counters = parsed.get("counters").expect("counters section");
    assert_eq!(
        counters.get("concurrency.test.events").and_then(|v| v.as_u64()),
        Some(total)
    );

    // Reset with no writers racing leaves everything zeroed...
    reg.reset();
    let snap = reg.snapshot();
    assert_eq!(snap.counter("concurrency.test.events"), Some(0));
    assert_eq!(snap.histogram("concurrency.test.latency").map(|h| h.count), Some(0));

    // ...and a reset racing live recorders never corrupts a snapshot:
    // whatever interleaving happens, the registry still snapshots and
    // serializes cleanly afterwards.
    let stop = Arc::new(AtomicBool::new(false));
    let racer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let ctr = dbcast_obs::registry().counter("concurrency.test.events");
            while !stop.load(Ordering::Relaxed) {
                ctr.force_add(1);
            }
        })
    };
    for _ in 0..10 {
        reg.reset();
        let snap = reg.snapshot();
        serde_json::from_str::<serde_json::Value>(&snap.to_json())
            .expect("snapshot during reset race parses");
    }
    stop.store(true, Ordering::Relaxed);
    racer.join().expect("racer exits cleanly");
    reg.reset();
}

#[test]
fn trace_recording_races_snapshots_and_resets() {
    use dbcast_obs::trace::{ConvergenceTrace, TraceEvent};

    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // record_trace honours the runtime switch; make sure it is on.
    dbcast_obs::set_enabled(true);
    let reg = dbcast_obs::registry();
    reg.reset();

    // Bounded writers, so the test ends.
    const PER_WRITER: u64 = 2_000;
    let writers: Vec<_> = (0..3u64)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    let mut trace =
                        ConvergenceTrace::new(format!("concurrency.test.trace{t}"));
                    trace.push(TraceEvent::GoptGeneration {
                        generation: i as usize,
                        best_cost: i as f64,
                    });
                    dbcast_obs::registry().record_trace(trace);
                }
            })
        })
        .collect();

    // Snapshots racing appends (and a couple of resets thrown in) must
    // always clone a consistent trace list and serialize to parseable
    // JSON.
    let mut resets = 0u64;
    for i in 0..30 {
        if i % 10 == 9 {
            reg.reset();
            resets += 1;
        }
        let snap = reg.snapshot();
        for t in &snap.traces {
            assert!(t.name.starts_with("concurrency.test.trace"), "{}", t.name);
            assert_eq!(t.len(), 1);
        }
        serde_json::from_str::<serde_json::Value>(&snap.to_json())
            .expect("snapshot with traces parses");
    }

    for w in writers {
        w.join().expect("writer exits cleanly");
    }
    let snap = reg.snapshot();
    // Every append either survived to the final snapshot or was
    // discarded by one of the interleaved resets — never corrupted.
    assert!(
        snap.traces.len() as u64 <= 3 * PER_WRITER,
        "{} traces from {} appends",
        snap.traces.len(),
        3 * PER_WRITER
    );
    assert!(resets > 0);
    reg.reset();
    assert!(reg.snapshot().traces.is_empty());
}
