//! In-memory span recording and per-layer wall-time attribution.
//!
//! The benchmark records a span around each call it makes into a
//! layer's public functions: name, layer, start, end, parent span, run
//! id and recording thread. Spans stay in memory and are written out
//! once the run ends.
//!
//! [`attribute`] turns the spans of one run into a layer table whose
//! rows add up to the run's wall time exactly: every instant of the
//! root span goes to the innermost span open on the root's thread. When
//! that span only waits for other threads (a join, a subscription
//! barrier), the instant goes to the other-thread span that is open
//! then and ends last, the one being waited for. Instants no layer span
//! covers are `unattributed`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = u32;

/// Layer name of time no layer span covers.
pub const UNATTRIBUTED: &str = "unattributed";

/// Layer name of spans that only wait on other threads.
pub const WAIT: &str = "wait";

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `net.egress.run`.
    pub name: &'static str,
    /// The layer the call belongs to, e.g. `net.egress`, or [`WAIT`].
    pub layer: &'static str,
    /// Start, ns since the tracer origin.
    pub start: u64,
    /// End, ns since the tracer origin (0 while open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The benchmark repetition this span belongs to.
    pub run: u32,
    /// Small per-thread number; 0 is the thread that opened the root.
    pub thread: u32,
}

/// A span recorder. [`Tracer::off`] records nothing and costs a branch
/// per call, so traced and untraced runs execute the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    run: AtomicU32,
}

thread_local! {
    static THREAD: std::cell::Cell<u32> = const { std::cell::Cell::new(u32::MAX) };
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

/// Marks the calling thread as a run's root thread (number 0).
pub fn mark_root_thread() {
    THREAD.with(|t| t.set(0));
}

fn thread_number() -> u32 {
    THREAD.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer { enabled: true, ..Tracer::off() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            run: AtomicU32::new(0),
        }
    }

    /// Sets the run id stamped on spans opened from now on.
    pub fn set_run(&self, run: u32) {
        self.run.store(run, Ordering::Relaxed);
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let thread = thread_number();
        let run = self.run.load(Ordering::Relaxed);
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        let id = spans.len() as SpanId;
        let start = self.now();
        spans.push(Span { name, layer, start, end: 0, parent, run, thread });
        id
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        self.spans.lock().expect("span buffer poisoned")[id as usize].end = end;
    }

    /// Runs `f` inside a span; `f` receives the span's id for children.
    pub fn span<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let id = self.open(name, layer, parent);
        let out = f(self.enabled.then_some(id));
        self.close(id);
        out
    }

    /// Takes every recorded span out of the tracer.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Wall-time attribution of one or more runs: layer → nanoseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTable {
    /// Nanoseconds per layer, including [`UNATTRIBUTED`].
    pub layers: BTreeMap<&'static str, u64>,
    /// Summed wall time of the root spans.
    pub wall_ns: u64,
}

impl LayerTable {
    /// Adds another table's rows.
    pub fn merge(&mut self, other: &LayerTable) {
        for (layer, ns) in &other.layers {
            *self.layers.entry(layer).or_insert(0) += ns;
        }
        self.wall_ns += other.wall_ns;
    }

    /// Nanoseconds attributed to `layer` (0 if it never ran).
    pub fn ns(&self, layer: &str) -> u64 {
        self.layers.get(layer).copied().unwrap_or(0)
    }
}

/// Attributes the root span `root` of `spans` (one run's spans) to
/// layers; the rows sum to the root's duration.
pub fn attribute(spans: &[Span], root: SpanId) -> LayerTable {
    let root_span = &spans[root as usize];
    let (lo, hi) = (root_span.start, root_span.end);
    let inside: Vec<(usize, &Span)> = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| *i != root as usize && s.run == root_span.run && s.end > s.start)
        .collect();
    // Sweep over start/end events; open spans live in ordered sets so
    // each elementary interval finds its owner in O(log n).
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(2 * inside.len());
    for &(i, s) in &inside {
        events.push((s.start.clamp(lo, hi), true, i));
        events.push((s.end.clamp(lo, hi), false, i));
    }
    events.sort_unstable();
    let mut own_open: BTreeSet<(u64, usize)> = BTreeSet::new();
    let mut other_open: BTreeSet<(u64, u64, usize)> = BTreeSet::new();
    let mut table = LayerTable { wall_ns: hi - lo, ..LayerTable::default() };
    let mut at = lo;
    let mut next = 0;
    while at < hi {
        while next < events.len() && events[next].0 <= at {
            let (_, opens, i) = events[next];
            let s = &spans[i];
            match (s.thread == root_span.thread, opens) {
                (true, true) => own_open.insert((s.start, i)),
                (true, false) => own_open.remove(&(s.start, i)),
                (false, true) => other_open.insert((s.end, s.start, i)),
                (false, false) => other_open.remove(&(s.end, s.start, i)),
            };
            next += 1;
        }
        let until = events.get(next).map_or(hi, |e| e.0.min(hi));
        // Innermost span on the root's thread: the latest-starting open
        // one (spans on one thread nest).
        let own = own_open.last().map(|&(_, i)| &spans[i]);
        let layer = match own {
            Some(s) if s.layer != WAIT => s.layer,
            // The root thread waits: charge the other thread's span
            // that is open and ends last.
            Some(_) => other_open.last().map_or(UNATTRIBUTED, |&(_, _, i)| spans[i].layer),
            None => UNATTRIBUTED,
        };
        *table.layers.entry(layer).or_insert(0) += until - at;
        at = until;
    }
    table
}

/// Renders spans as a JSON array (one object per span).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"parent\":{parent},\"run\":{},\"thread\":{}}}",
            s.name, s.layer, s.start, s.end, s.run, s.thread
        ));
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, thread: u32) -> Span {
        Span { name: layer, layer, start, end, parent: None, run: 0, thread }
    }

    #[test]
    fn rows_sum_to_the_root_and_waits_go_to_the_awaited_thread() {
        let spans = vec![
            span("root", 0, 100, 0),
            span("a", 10, 30, 0),
            span("b", 15, 20, 0),
            span(WAIT, 40, 90, 0),
            span("client", 35, 70, 1),
            span("client2", 50, 80, 2),
        ];
        let t = attribute(&spans, 0);
        assert_eq!(t.wall_ns, 100);
        assert_eq!(t.layers.values().sum::<u64>(), 100);
        assert_eq!(t.ns("a"), 15);
        assert_eq!(t.ns("b"), 5);
        // 40..50 client (only one open), 50..80 client2 (ends last),
        // 80..90 nobody: unattributed, as are 0..10, 30..40, 90..100.
        assert_eq!(t.ns("client"), 10);
        assert_eq!(t.ns("client2"), 30);
        assert_eq!(t.ns(UNATTRIBUTED), 10 + 10 + 10 + 10);
    }
}
