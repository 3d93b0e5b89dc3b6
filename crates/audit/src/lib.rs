//! # dbcast-audit — per-request causal tracing and Eq. 2 residual attribution
//!
//! The serving runtime's aggregate telemetry (histograms, flight
//! events, scope windows) can say *that* waits are slow; this crate
//! closes the explainability gap by capturing *which requests*, on
//! *which channel and generation*, and *how far* each observed wait
//! diverged from the Eq. 2 model that justified the allocation:
//!
//! * [`Sampler`] — a deterministic, allocation-free seeded sampling
//!   decision (splitmix64 of `(seed, request_id)`), so a replay under
//!   the same seed captures a bit-identical trace set.
//! * [`TraceRing`] — a fixed-capacity seqlock ring of
//!   [`TraceRecord`]s (the flight crate's per-slot protocol), amended
//!   in place at swap boundaries to stamp swap-straddle penalties.
//! * [`ResidualLedger`] — per-(channel, generation) observed-vs-
//!   predicted mean-wait residuals, frozen into a bounded history at
//!   each swap.
//! * [`AuditTracer`] — the facade the serving loop drives: a two-stage
//!   sampler (seeded + tail-biased, which catches *every* SLO-slow
//!   request), residual accounting per served request, and snapshot /
//!   JSON / OpenMetrics-exemplar exports for the exposition server.
//!
//! Every sampled wait decomposes exactly as
//! `wait = predicted + residual + straddle_penalty`, where `predicted`
//! is the per-item Eq. 2 term `cycle_c/(2b) + z_i/b`, the straddle
//! penalty is the part of the wait past a program-swap boundary, and
//! the residual is the remainder — scheduling reality the model does
//! not explain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod residual;
mod ring;
mod sampler;

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

pub use residual::{ChannelResidual, GenerationResiduals, ResidualLedger};
pub use ring::{TraceRecord, TraceRing, FLAG_SEEDED, FLAG_STRADDLED, FLAG_TAIL};
pub use sampler::Sampler;

/// Configuration of an [`AuditTracer`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuditConfig {
    /// Seeded stage keeps 1-in-2^`sample_shift` requests (0 = all;
    /// clamped to [`Sampler::MAX_SHIFT`]).
    pub sample_shift: u32,
    /// Seed of the sampling hash — replaying the same trace under the
    /// same seed samples a bit-identical request set.
    pub seed: u64,
    /// Trace-ring capacity (rounded up to a power of two, minimum 64).
    pub capacity: usize,
    /// Without an SLO tracker, the tail stage treats a request as slow
    /// when its wait exceeds this multiple of the serving generation's
    /// Eq. 2 expected wait (with one, the tracker's slow verdict is
    /// authoritative).
    pub tail_multiplier: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig { sample_shift: 6, seed: 0, capacity: 1024, tail_multiplier: 2.0 }
    }
}

/// Everything the tracer knows, copied out at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditSnapshot {
    /// Trace-ring capacity.
    pub capacity: usize,
    /// Records ever written to the ring.
    pub recorded: u64,
    /// Requests caught by the seeded stage.
    pub sampled: u64,
    /// Requests caught by the tail stage.
    pub tail: u64,
    /// Sampled requests that straddled a swap.
    pub straddled: u64,
    /// Live generation's residual table.
    pub residuals: GenerationResiduals,
    /// Frozen residual tables of finished generations, oldest first.
    pub history: Vec<GenerationResiduals>,
    /// Live trace records, oldest first.
    pub records: Vec<TraceRecord>,
}

/// The audit totals that ride along in a serve report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AuditSummary {
    /// Requests caught by the seeded stage.
    pub sampled: u64,
    /// Requests caught by the tail stage.
    pub tail: u64,
    /// Sampled requests that straddled a swap.
    pub straddled: u64,
    /// Live records in the ring when the run ended.
    pub records: u64,
    /// Final generation's residual table.
    pub residuals: Vec<ChannelResidual>,
}

/// The per-request audit facade the serving loop drives.
#[derive(Debug)]
pub struct AuditTracer {
    sampler: Sampler,
    ring: TraceRing,
    ledger: ResidualLedger,
    sampled: AtomicU64,
    tail: AtomicU64,
    straddled: AtomicU64,
    tail_multiplier: f64,
}

impl AuditTracer {
    /// Creates a tracer for `channels` channels.
    pub fn new(config: AuditConfig, channels: usize) -> Self {
        AuditTracer {
            sampler: Sampler::new(config.seed, config.sample_shift),
            ring: TraceRing::new(config.capacity),
            ledger: ResidualLedger::new(channels),
            sampled: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            straddled: AtomicU64::new(0),
            tail_multiplier: config.tail_multiplier,
        }
    }

    /// The seeded-stage decision for `request_id` — deterministic and
    /// allocation-free.
    #[inline]
    pub fn should_sample(&self, request_id: u64) -> bool {
        self.sampler.decide(request_id)
    }

    /// The tail-stage fallback when no SLO tracker is configured:
    /// `wait > tail_multiplier × expected_wait`.
    #[inline]
    pub fn tail_slow(&self, wait: f64, expected_wait: f64) -> bool {
        wait > self.tail_multiplier * expected_wait
    }

    /// Accounts one served request in the residual ledger (serving
    /// loop only; allocation-free) and returns the channel's updated
    /// residual `observed_mean − predicted_mean`.
    #[inline]
    pub fn observe_wait(&self, channel: usize, wait: f64, predicted: f64) -> f64 {
        self.ledger.observe(channel, wait, predicted)
    }

    /// Appends a sampled lifecycle to the ring, bumping the stage
    /// counters according to the record's flags.
    pub fn record(&self, record: &TraceRecord) {
        if record.seeded() {
            self.sampled.fetch_add(1, Ordering::Relaxed);
        }
        if record.tail() {
            self.tail.fetch_add(1, Ordering::Relaxed);
        }
        self.ring.record(record);
    }

    /// At a swap boundary: stamps swap-straddle penalties into live
    /// records spanning `boundary`, freezes the finished generation's
    /// residual table, and resets the ledger against `new_generation`.
    /// Returns how many records were newly marked as straddling.
    pub fn on_swap(&self, boundary: f64, new_generation: u64) -> u64 {
        let marked = self.ring.mark_straddles(boundary);
        self.straddled.fetch_add(marked, Ordering::Relaxed);
        self.ledger.roll(new_generation);
        marked
    }

    /// Requests caught by the seeded stage.
    pub fn sampled(&self) -> u64 {
        self.sampled.load(Ordering::Relaxed)
    }

    /// Requests caught by the tail stage.
    pub fn tail(&self) -> u64 {
        self.tail.load(Ordering::Relaxed)
    }

    /// Sampled requests that straddled a swap.
    pub fn straddled(&self) -> u64 {
        self.straddled.load(Ordering::Relaxed)
    }

    /// The live generation's residual table.
    pub fn residuals(&self) -> GenerationResiduals {
        self.ledger.current()
    }

    /// Copies out the tracer's full state (safe concurrently with the
    /// serving loop; torn ring slots are skipped).
    pub fn snapshot(&self) -> AuditSnapshot {
        AuditSnapshot {
            capacity: self.ring.capacity(),
            recorded: self.ring.recorded(),
            sampled: self.sampled(),
            tail: self.tail(),
            straddled: self.straddled(),
            residuals: self.ledger.current(),
            history: self.ledger.history(),
            records: self.ring.snapshot(),
        }
    }

    /// The report-level totals.
    pub fn summary(&self) -> AuditSummary {
        let snap = self.snapshot();
        AuditSummary {
            sampled: snap.sampled,
            tail: snap.tail,
            straddled: snap.straddled,
            records: snap.records.len() as u64,
            residuals: snap.residuals.channels,
        }
    }

    /// Renders the `/exemplars` schema-v1 JSON document.
    pub fn render_json(&self) -> String {
        json::render(&self.snapshot())
    }

    /// OpenMetrics exemplars for the serve wait histogram: for each
    /// log2 bucket holding at least one live trace record, the slowest
    /// record in the bucket, keyed by the bucket's upper bound in the
    /// histogram's microsecond domain. Output is sorted by bucket.
    pub fn exemplars(&self) -> Vec<(u64, dbcast_obs::openmetrics::Exemplar)> {
        let mut best: std::collections::BTreeMap<u64, TraceRecord> =
            std::collections::BTreeMap::new();
        for record in self.ring.snapshot() {
            let micros = (record.wait * 1e6) as u64;
            let le = dbcast_obs::metrics::bucket_upper_bound(
                dbcast_obs::metrics::bucket_index(micros),
            );
            let slower =
                |b: &TraceRecord| (record.wait, record.request_id) > (b.wait, b.request_id);
            match best.get(&le) {
                Some(current) if !slower(current) => {}
                _ => {
                    best.insert(le, record);
                }
            }
        }
        best.into_iter()
            .map(|(le, r)| {
                (
                    le,
                    dbcast_obs::openmetrics::Exemplar {
                        labels: vec![
                            ("request_id".to_string(), r.request_id.to_string()),
                            ("channel".to_string(), r.channel.to_string()),
                            ("generation".to_string(), r.generation.to_string()),
                        ],
                        value: (r.wait * 1e6) as u64 as f64,
                        timestamp: Some(r.arrival),
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, wait: f64, flags: u64) -> TraceRecord {
        TraceRecord {
            request_id: id,
            item: id,
            arrival_tick: id / 4,
            satisfied_tick: id / 4 + 1,
            generation: 0,
            channel: id % 3,
            queue_position: 0,
            arrival: id as f64 * 0.25,
            wait,
            predicted: wait * 0.6,
            straddle_penalty: 0.0,
            flags,
        }
    }

    #[test]
    fn tracer_counts_stages_and_snapshots() {
        let tracer = AuditTracer::new(AuditConfig::default(), 3);
        tracer.record(&record(0, 1.0, FLAG_SEEDED));
        tracer.record(&record(1, 5.0, FLAG_SEEDED | FLAG_TAIL));
        tracer.record(&record(2, 6.0, FLAG_TAIL));
        let snap = tracer.snapshot();
        assert_eq!((snap.sampled, snap.tail, snap.straddled), (2, 2, 0));
        assert_eq!(snap.records.len(), 3);
        assert_eq!(snap.recorded, 3);
    }

    #[test]
    fn on_swap_marks_and_rolls() {
        let tracer = AuditTracer::new(AuditConfig::default(), 2);
        tracer.observe_wait(0, 2.0, 1.0);
        let mut r = record(0, 4.0, FLAG_SEEDED);
        r.arrival = 0.0;
        tracer.record(&r);
        let marked = tracer.on_swap(1.0, 1);
        assert_eq!(marked, 1);
        assert_eq!(tracer.straddled(), 1);
        let snap = tracer.snapshot();
        assert_eq!(snap.residuals.generation, 1);
        assert_eq!(snap.history.len(), 1);
        assert!((snap.history[0].channels[0].residual - 1.0).abs() < 1e-12);
        let rec = snap.records[0];
        assert!(rec.straddled());
        assert!((rec.straddle_penalty - 3.0).abs() < 1e-12);
        let sum = rec.predicted + rec.residual() + rec.straddle_penalty;
        assert!((sum - rec.wait).abs() < 1e-9);
    }

    /// 50 records on two channels across one swap, four of them
    /// straddling it.
    fn populated_tracer() -> AuditTracer {
        let tracer = AuditTracer::new(AuditConfig::default(), 2);
        for id in 0..50 {
            let flags = if id % 5 == 0 { FLAG_SEEDED | FLAG_TAIL } else { FLAG_SEEDED };
            tracer.observe_wait((id % 2) as usize, 1.0 + id as f64 * 0.01, 0.9);
            tracer.record(&record(id, 1.0 + id as f64 * 0.01, flags));
        }
        tracer.on_swap(6.0, 1);
        tracer
    }

    #[test]
    fn rendered_json_round_trips_the_validator() {
        let tracer = populated_tracer();
        let text = tracer.render_json();
        let doc = json::validate(&text).expect("rendered payload validates");
        assert_eq!(doc.records.len(), 50);
        assert_eq!(doc.residuals.generation, 1);
        assert_eq!(doc.history.len(), 1);
        assert_eq!(doc.records, tracer.snapshot().records);
    }

    #[test]
    fn tampered_json_is_rejected() {
        let tracer = AuditTracer::new(AuditConfig::default(), 1);
        tracer.record(&record(0, 2.0, FLAG_SEEDED));
        let text = tracer.render_json();
        for (needle, replacement, why) in [
            ("\"schema\":1", "\"schema\":3", "wrong version"),
            ("\"seeded\":true", "\"seeded\":false", "stageless record"),
            ("\"straddle_penalty\":0,", "\"straddle_penalty\":0.5,", "broken sum"),
            ("\"schema\":1", "\"schema\":1,\"bogus\":7", "unknown top-level key"),
            ("\"seeded\":true", "\"seeded\":true,\"bogus\":7", "unknown record key"),
        ] {
            assert!(text.contains(needle), "fixture lost the {why} needle");
            let bad = text.replacen(needle, replacement, 1);
            assert!(
                matches!(json::validate(&bad), Err(json::AuditJsonError::Schema(_))),
                "{why} accepted"
            );
        }
        assert!(matches!(json::validate("{"), Err(json::AuditJsonError::Parse(_))));
    }

    #[test]
    fn saved_v1_documents_still_validate() {
        let saved = json::validate(include_str!("../tests/fixtures/exemplars_v1.json"))
            .expect("saved document validates");
        let rendered = json::validate(&populated_tracer().render_json());
        assert_eq!(saved, rendered.expect("render validates"));
        assert!(saved.records.iter().any(|r| r.straddled()), "fixture has no straddler");
    }

    #[test]
    fn exemplars_pick_the_slowest_record_per_bucket() {
        let tracer = AuditTracer::new(AuditConfig::default(), 1);
        // Two records in the same log2 microsecond bucket (both waits
        // land in (2^20, 2^21] µs), one slower.
        tracer.record(&record(0, 1.10, FLAG_SEEDED));
        tracer.record(&record(1, 1.30, FLAG_SEEDED));
        // A clearly different bucket.
        tracer.record(&record(2, 40.0, FLAG_TAIL));
        let exemplars = tracer.exemplars();
        assert_eq!(exemplars.len(), 2);
        let values: Vec<f64> = exemplars.iter().map(|(_, e)| e.value).collect();
        assert_eq!(values, vec![1.3e6, 4e7]);
        assert!(exemplars.windows(2).all(|w| w[0].0 < w[1].0), "unsorted buckets");
        let labels = &exemplars[0].1.labels;
        assert_eq!(labels[0], ("request_id".to_string(), "1".to_string()));
    }
}
