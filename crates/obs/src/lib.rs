//! `dbcast-obs`: a zero-dependency telemetry layer for the dbcast
//! workspace — monotonic counters, gauges, log-scale histograms with
//! lock-free recording, RAII span timers, hierarchical span trees
//! with self-time attribution and Chrome trace-event export
//! ([`tree`]), structured convergence traces, a leveled logger and a
//! JSON snapshot exporter.
//!
//! # Enabling
//!
//! Recording is always compiled in and on by default. One runtime
//! switch ([`set_enabled`]) silences it: with it off every
//! `record`/`inc` body is skipped and [`span!`] never reads the clock.
//!
//! # Naming
//!
//! Metric names follow `<crate>.<algo>.<event>`, e.g.
//! `alloc.drp.split_scan` or `sim.engine.events`. Dots are separators
//! only by convention; names are opaque keys to the registry.
//!
//! # Hot path
//!
//! `counter!` / `gauge!` / `histogram!` resolve their registry entry
//! once per call site through a static [`std::sync::OnceLock`], after
//! which recording is a single atomic RMW — no locking, no allocation.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod log;
pub mod metrics;
pub mod openmetrics;
pub mod snapshot;
pub mod span;
pub mod trace;
pub mod tree;

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use metrics::{Counter, Gauge, Histogram};
use trace::ConvergenceTrace;

static RUNTIME_ENABLED: AtomicBool = AtomicBool::new(true);

/// How many convergence traces the registry keeps. Recording a trace
/// past this drops the oldest and counts it in `obs.traces.dropped`,
/// so a long-running process that re-allocates repeatedly holds a
/// fixed amount of trace memory.
pub const MAX_TRACES: usize = 8;

/// Whether recording is active: the runtime switch, on by default.
#[inline(always)]
pub fn enabled() -> bool {
    RUNTIME_ENABLED.load(Ordering::Relaxed)
}

/// Flips the runtime recording switch.
pub fn set_enabled(on: bool) {
    RUNTIME_ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide metric registry. Metrics are indexed by name in a
/// `BTreeMap`, so lookup is `O(log n)` instead of a linear scan and
/// snapshots enumerate in sorted-name order (deterministic output for
/// JSON and OpenMetrics exports alike).
pub struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
    traces: Mutex<VecDeque<ConvergenceTrace>>,
}

impl Registry {
    fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            traces: Mutex::new(VecDeque::new()),
        }
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use. The reference is `'static`: metrics live for the
    /// whole process so call sites can cache them.
    pub fn counter(&self, name: &str) -> &'static Counter {
        Self::intern(&self.counters, name, Counter::new)
    }

    /// Returns the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        Self::intern(&self.gauges, name, Gauge::new)
    }

    /// Returns the histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        Self::intern(&self.histograms, name, Histogram::new)
    }

    fn intern<T: 'static>(
        table: &Mutex<BTreeMap<String, &'static T>>,
        name: &str,
        make: fn() -> T,
    ) -> &'static T {
        let mut table = table.lock().expect("registry poisoned");
        if let Some(&m) = table.get(name) {
            return m;
        }
        let leaked: &'static T = Box::leak(Box::new(make()));
        table.insert(name.to_string(), leaked);
        leaked
    }

    /// Appends a completed convergence trace (honouring [`enabled()`]),
    /// dropping the oldest once [`MAX_TRACES`] are held.
    pub fn record_trace(&self, trace: ConvergenceTrace) {
        if !enabled() {
            return;
        }
        let mut traces = self.traces.lock().expect("registry poisoned");
        if traces.len() == MAX_TRACES {
            traces.pop_front();
            crate::counter!("obs.traces.dropped").inc();
        }
        traces.push_back(trace);
    }

    /// Takes a point-in-time copy of every metric and trace.
    pub fn snapshot(&self) -> snapshot::Snapshot {
        let mut snap = self.metrics_snapshot();
        snap.traces =
            self.traces.lock().expect("registry poisoned").iter().cloned().collect();
        snap
    }

    /// Like [`snapshot`](Self::snapshot) but with `traces` left
    /// empty. Up to [`MAX_TRACES`] convergence traces are held, each
    /// as long as its run, so a periodic scraper that only reads scalar
    /// metrics (the scope sampler) skips cloning them on every cadence
    /// tick.
    pub fn metrics_snapshot(&self) -> snapshot::Snapshot {
        snapshot::Snapshot {
            counters: self
                .counters
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
            traces: Vec::new(),
        }
    }

    /// The current value of the counter registered under `name`,
    /// without interning a new one when absent.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.lock().expect("registry poisoned").get(name).map(|c| c.get())
    }

    /// Visits every counter as `(name, value)` in sorted-name order
    /// without building a snapshot. The registry's counter table is
    /// locked for the duration, so `f` must not intern new counters.
    pub fn for_each_counter(&self, mut f: impl FnMut(&str, u64)) {
        for (n, c) in self.counters.lock().expect("registry poisoned").iter() {
            f(n, c.get());
        }
    }

    /// Visits every gauge; same locking caveat as
    /// [`for_each_counter`](Self::for_each_counter).
    pub fn for_each_gauge(&self, mut f: impl FnMut(&str, f64)) {
        for (n, g) in self.gauges.lock().expect("registry poisoned").iter() {
            f(n, g.get());
        }
    }

    /// Visits every histogram; same locking caveat as
    /// [`for_each_counter`](Self::for_each_counter).
    pub fn for_each_histogram(&self, mut f: impl FnMut(&str, &Histogram)) {
        for (n, h) in self.histograms.lock().expect("registry poisoned").iter() {
            f(n, h);
        }
    }

    /// Zeroes every metric and discards traces. Registrations (and the
    /// `'static` references handed out) stay valid.
    pub fn reset(&self) {
        for (_, c) in self.counters.lock().expect("registry poisoned").iter() {
            c.reset();
        }
        for (_, g) in self.gauges.lock().expect("registry poisoned").iter() {
            g.reset();
        }
        for (_, h) in self.histograms.lock().expect("registry poisoned").iter() {
            h.reset();
        }
        self.traces.lock().expect("registry poisoned").clear();
    }
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Resolves (once per call site) and returns the named counter.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *__SLOT.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Resolves (once per call site) and returns the named gauge.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *__SLOT.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// Resolves (once per call site) and returns the named histogram.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *__SLOT.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// Opens an RAII span timer: elapsed nanoseconds are recorded into the
/// histogram of the same name when the guard drops.
///
/// ```
/// let _g = dbcast_obs::span!("alloc.drp.split_scan");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name, $crate::histogram!($name))
    };
}

/// Serializes tests that flip the global runtime switch so parallel
/// test threads cannot observe each other's toggles.
#[cfg(test)]
pub(crate) static TEST_SWITCH_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_interns_by_name() {
        let a = registry().counter("lib.test.intern");
        let b = registry().counter("lib.test.intern");
        assert!(std::ptr::eq(a, b));
        let c = registry().counter("lib.test.other");
        assert!(!std::ptr::eq(a, c));
    }

    #[test]
    fn macros_cache_per_call_site() {
        let a = counter!("lib.test.macro");
        let b = counter!("lib.test.macro");
        assert!(std::ptr::eq(a, b));
        let _ = gauge!("lib.test.gauge");
        let _ = histogram!("lib.test.hist");
    }

    #[test]
    fn trace_list_keeps_the_newest_and_counts_drops() {
        let _guard = TEST_SWITCH_LOCK.lock().unwrap();
        set_enabled(true);
        let reg = Registry::new();
        let dropped = counter!("obs.traces.dropped");
        let before = dropped.get();
        let overflow = 5;
        for i in 0..MAX_TRACES + overflow {
            let mut t = ConvergenceTrace::new("lib.test.cap");
            t.push(trace::TraceEvent::GoptGeneration { generation: i, best_cost: 0.0 });
            reg.record_trace(t);
        }
        let kept: Vec<usize> = reg
            .snapshot()
            .traces
            .iter()
            .map(|t| match t.events[0] {
                trace::TraceEvent::GoptGeneration { generation, .. } => generation,
                ref e => panic!("unexpected event {e:?}"),
            })
            .collect();
        assert_eq!(kept, (overflow..MAX_TRACES + overflow).collect::<Vec<_>>());
        const { assert!(MAX_TRACES >= 3, "the end-to-end telemetry test reads three traces") };
        assert_eq!(dropped.get() - before, overflow as u64);
    }

    #[test]
    fn enabled_tracks_switch() {
        let _guard = TEST_SWITCH_LOCK.lock().unwrap();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
    }
}
