//! The `/exemplars` wire format: a schema-versioned JSON document whose
//! types derive the serde shim's `Serialize`/`Deserialize` with
//! `deny_unknown_fields` (the pattern `/fleet` uses), re-parsed by a
//! strict validator — the same posture `/metrics` (OpenMetrics parser)
//! and `/series` (scope validator) take, so a malformed export fails in
//! `dbcast flight check-exemplars` rather than in an operator's
//! console.
//!
//! Schema v1:
//!
//! ```text
//! { "schema": 1, "capacity": C, "recorded": R,
//!   "sampled": S, "tail": T, "straddled": X, "generation": G,
//!   "residuals": [ { "channel", "requests", "observed_mean",
//!                    "predicted_mean", "residual" }, … ],
//!   "history":   [ { "generation", "channels": [same shape] }, … ],
//!   "records":   [ { "request_id", "item", "arrival_tick",
//!                    "satisfied_tick", "generation", "channel",
//!                    "queue_position", "arrival", "wait", "predicted",
//!                    "straddle_penalty", "residual",
//!                    "seeded", "tail", "straddled" }, … ] }
//! ```
//!
//! Missing, mistyped and unknown keys fail deserialization. On top,
//! the validator checks the version, record ordering, flag
//! consistency, and — the audit layer's core contract — that every
//! record's wait decomposition `predicted + residual + straddle_penalty`
//! sums back to the observed wait within 1e-9.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::residual::{ChannelResidual, GenerationResiduals};
use crate::ring::{TraceRecord, FLAG_SEEDED, FLAG_STRADDLED, FLAG_TAIL};
use crate::AuditSnapshot;

/// The current `/exemplars` schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// Decomposition components must reassemble the observed wait within
/// this absolute-relative tolerance.
pub const DECOMPOSITION_TOLERANCE: f64 = 1e-9;

/// Why an `/exemplars` payload failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditJsonError {
    /// The text is not well-formed JSON.
    Parse(String),
    /// The JSON does not satisfy schema v1; the string names the
    /// offending element.
    Schema(String),
}

impl fmt::Display for AuditJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditJsonError::Parse(e) => write!(f, "/exemplars payload is not JSON: {e}"),
            AuditJsonError::Schema(e) => {
                write!(f, "/exemplars payload violates schema: {e}")
            }
        }
    }
}

impl std::error::Error for AuditJsonError {}

/// The schema-v1 document: an [`AuditSnapshot`] with the live
/// generation's residual table flattened into the top level.
#[derive(Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct ExemplarsDoc {
    schema: u64,
    capacity: usize,
    recorded: u64,
    sampled: u64,
    tail: u64,
    straddled: u64,
    generation: u64,
    residuals: Vec<ChannelResidual>,
    history: Vec<GenerationResiduals>,
    records: Vec<RecordRow>,
}

/// A [`TraceRecord`] on the wire: flags spelled out as bools, plus the
/// derived residual so readers see the whole decomposition.
#[derive(Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct RecordRow {
    request_id: u64,
    item: u64,
    arrival_tick: u64,
    satisfied_tick: u64,
    generation: u64,
    channel: u64,
    queue_position: u64,
    arrival: f64,
    wait: f64,
    predicted: f64,
    straddle_penalty: f64,
    residual: f64,
    seeded: bool,
    tail: bool,
    straddled: bool,
}

impl From<&TraceRecord> for RecordRow {
    fn from(r: &TraceRecord) -> Self {
        RecordRow {
            request_id: r.request_id,
            item: r.item,
            arrival_tick: r.arrival_tick,
            satisfied_tick: r.satisfied_tick,
            generation: r.generation,
            channel: r.channel,
            queue_position: r.queue_position,
            arrival: r.arrival,
            wait: r.wait,
            predicted: r.predicted,
            straddle_penalty: r.straddle_penalty,
            residual: r.residual(),
            seeded: r.seeded(),
            tail: r.tail(),
            straddled: r.straddled(),
        }
    }
}

impl From<&RecordRow> for TraceRecord {
    fn from(r: &RecordRow) -> Self {
        let flag = |set: bool, flag: u64| if set { flag } else { 0 };
        TraceRecord {
            request_id: r.request_id,
            item: r.item,
            arrival_tick: r.arrival_tick,
            satisfied_tick: r.satisfied_tick,
            generation: r.generation,
            channel: r.channel,
            queue_position: r.queue_position,
            arrival: r.arrival,
            wait: r.wait,
            predicted: r.predicted,
            straddle_penalty: r.straddle_penalty,
            flags: flag(r.seeded, FLAG_SEEDED)
                | flag(r.tail, FLAG_TAIL)
                | flag(r.straddled, FLAG_STRADDLED),
        }
    }
}

/// Renders a tracer snapshot to the schema-v1 wire form.
pub fn render(snap: &AuditSnapshot) -> String {
    let doc = ExemplarsDoc {
        schema: SCHEMA_VERSION,
        capacity: snap.capacity,
        recorded: snap.recorded,
        sampled: snap.sampled,
        tail: snap.tail,
        straddled: snap.straddled,
        generation: snap.residuals.generation,
        residuals: snap.residuals.channels.clone(),
        history: snap.history.clone(),
        records: snap.records.iter().map(RecordRow::from).collect(),
    };
    serde_json::to_string(&doc).expect("/exemplars document serializes")
}

/// Parses and strictly validates an `/exemplars` payload.
///
/// # Errors
///
/// [`AuditJsonError::Parse`] for malformed JSON (including numbers that
/// overflow `f64`); [`AuditJsonError::Schema`] for missing, mistyped or
/// unknown keys and when any schema-v1 invariant fails (wrong version,
/// out-of-order records, a record in neither sampling stage, a straddle
/// flag without a penalty or vice versa, a decomposition that does not
/// sum back to the observed wait, residual tables whose arithmetic is
/// inconsistent, …).
pub fn validate(text: &str) -> Result<AuditSnapshot, AuditJsonError> {
    let value: serde_json::Value =
        serde_json::from_str(text).map_err(|e| AuditJsonError::Parse(e.to_string()))?;
    let doc = ExemplarsDoc::from_value(&value)
        .map_err(|e| AuditJsonError::Schema(e.to_string()))?;
    check(&doc).map_err(AuditJsonError::Schema)?;
    Ok(AuditSnapshot {
        capacity: doc.capacity,
        recorded: doc.recorded,
        sampled: doc.sampled,
        tail: doc.tail,
        straddled: doc.straddled,
        residuals: GenerationResiduals {
            generation: doc.generation,
            channels: doc.residuals,
        },
        history: doc.history,
        records: doc.records.iter().map(TraceRecord::from).collect(),
    })
}

/// The schema-v1 invariants a well-typed document must also satisfy.
fn check(doc: &ExemplarsDoc) -> Result<(), String> {
    if doc.schema != SCHEMA_VERSION {
        return Err(format!("unsupported schema version {}", doc.schema));
    }
    if !doc.capacity.is_power_of_two() {
        return Err(format!("capacity {} is not a power of two", doc.capacity));
    }
    if let Some(w) = doc.history.windows(2).find(|w| w[0].generation >= w[1].generation) {
        return Err(format!(
            "history generation {} not strictly increasing",
            w[1].generation
        ));
    }
    let tables = std::iter::once((doc.generation, &doc.residuals))
        .chain(doc.history.iter().map(|h| (h.generation, &h.channels)));
    for (generation, channels) in tables {
        for (i, c) in channels.iter().enumerate() {
            let what = format!("generation {generation} residuals[{i}]");
            if c.channel != i {
                return Err(format!("{what} is channel {}, expected {i}", c.channel));
            }
            let tol = DECOMPOSITION_TOLERANCE * c.observed_mean.abs().max(1.0);
            if (c.residual - (c.observed_mean - c.predicted_mean)).abs() > tol {
                return Err(format!(
                    "{what} residual {} != observed {} - predicted {}",
                    c.residual, c.observed_mean, c.predicted_mean
                ));
            }
            if c.requests == 0 && (c.observed_mean != 0.0 || c.predicted_mean != 0.0) {
                return Err(format!("{what} has means but zero requests"));
            }
        }
    }
    if doc.records.len() > doc.capacity {
        return Err(format!(
            "{} records exceed the declared capacity {}",
            doc.records.len(),
            doc.capacity
        ));
    }
    if let Some(w) = doc.records.windows(2).find(|w| w[0].request_id >= w[1].request_id) {
        return Err(format!("request_id {} not strictly increasing", w[1].request_id));
    }
    for r in &doc.records {
        let what = format!("record {}", r.request_id);
        if r.wait < 0.0 || r.predicted < 0.0 || r.straddle_penalty < 0.0 {
            return Err(format!("{what} has a negative wait component"));
        }
        let tol = DECOMPOSITION_TOLERANCE * r.wait.abs().max(1.0);
        if (r.predicted + r.residual + r.straddle_penalty - r.wait).abs() > tol {
            return Err(format!(
                "{what} decomposition {} + {} + {} does not sum to wait {}",
                r.predicted, r.residual, r.straddle_penalty, r.wait
            ));
        }
        if !r.seeded && !r.tail {
            return Err(format!("{what} was caught by neither sampling stage"));
        }
        if r.straddled != (r.straddle_penalty > 0.0) {
            return Err(format!(
                "{what} straddled={} but penalty={}",
                r.straddled, r.straddle_penalty
            ));
        }
    }
    Ok(())
}
