//! The `/series` wire format: a schema-versioned JSON document whose
//! types derive the serde shim's `Serialize`/`Deserialize` with
//! `deny_unknown_fields` (the pattern `/fleet` uses), re-parsed by a
//! strict validator — the same posture `/metrics` takes with the
//! OpenMetrics parser, so a malformed export fails in CI rather than in
//! an operator's console.
//!
//! Schema v1:
//!
//! ```text
//! { "schema": 1, "tick": T, "wall_ms": W,
//!   "series": [ { "name", "kind": "counter"|"gauge",
//!                 "raw":  [[tick, wall_ms, value], …],
//!                 "mid":  [[start_tick, end_tick, start_wall_ms, end_wall_ms,
//!                           count, min, max, mean, last], …],
//!                 "coarse": [same shape as mid],
//!                 "rate": [[tick, wall_ms, per_second], …] }, … ],
//!   "histograms": [ { "name", "count", "sum",
//!                     "windows": [{ "window", "spanned", "count",
//!                                   "p50", "p90", "p99" }, …] }, … ] }
//! ```
//!
//! Raw/rate entries are positional triples and bins positional
//! 9-tuples to keep a 100-series payload compact. Missing, mistyped and
//! unknown keys fail deserialization; [`validate`]'s `check` holds the
//! semantic invariants on top.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::series::{Bin, Sample, SeriesKind};
use crate::store::{SeriesStore, WindowQuantiles};

/// The current `/series` schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// The parsed (and validated) `/series` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SeriesDoc {
    /// Schema version (always [`SCHEMA_VERSION`] after validation).
    pub schema: u64,
    /// Newest virtual tick across all series.
    pub tick: u64,
    /// Exporting store's age in milliseconds.
    pub wall_ms: u64,
    /// Scalar series, sorted by name.
    pub series: Vec<SeriesEntry>,
    /// Histogram series, sorted by name.
    pub histograms: Vec<HistEntry>,
}

impl SeriesDoc {
    /// The entry named `name`.
    pub fn series(&self, name: &str) -> Option<&SeriesEntry> {
        self.series.iter().find(|s| s.name == name)
    }

    /// The histogram entry named `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistEntry> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Entries whose name starts with `prefix` (indexed families like
    /// `serve.channel.expected_wait.<i>`).
    pub fn series_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a SeriesEntry> {
        self.series.iter().filter(move |s| s.name.starts_with(prefix))
    }
}

/// One scalar series in the document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SeriesEntry {
    /// Registry metric name.
    pub name: String,
    /// Counter or gauge.
    pub kind: SeriesKind,
    /// Newest raw samples, oldest → newest.
    pub raw: Vec<Sample>,
    /// Mid-tier bins (10 raw samples each), oldest → newest.
    pub mid: Vec<Bin>,
    /// Coarse-tier bins (100 raw samples each), oldest → newest.
    pub coarse: Vec<Bin>,
    /// Per-second rates (counters only), oldest → newest.
    pub rate: Vec<Sample>,
}

impl SeriesEntry {
    /// The newest raw value.
    pub fn last(&self) -> Option<f64> {
        self.raw.last().map(|s| s.value)
    }

    /// The newest derived rate.
    pub fn last_rate(&self) -> Option<f64> {
        self.rate.last().map(|s| s.value)
    }
}

/// One histogram in the document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct HistEntry {
    /// Registry metric name.
    pub name: String,
    /// Cumulative observation count at the newest scrape.
    pub count: u64,
    /// Cumulative observation sum at the newest scrape.
    pub sum: u64,
    /// Windowed quantiles, one per configured window.
    pub windows: Vec<WindowQuantiles>,
}

/// Wire form: `"counter"` or `"gauge"`.
impl Serialize for SeriesKind {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for SeriesKind {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .and_then(SeriesKind::from_name)
            .ok_or_else(|| DeError::expected("\"counter\" or \"gauge\"", "kind", v))
    }
}

/// Wire form: the positional triple `[tick, wall_ms, value]`.
impl Serialize for Sample {
    fn to_value(&self) -> Value {
        (self.tick, self.wall_ms, self.value).to_value()
    }
}

impl Deserialize for Sample {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let (tick, wall_ms, value) = Deserialize::from_value(v)?;
        Ok(Sample { tick, wall_ms, value })
    }
}

/// Wire form: the positional 9-tuple `[start_tick, end_tick,
/// start_wall_ms, end_wall_ms, count, min, max, mean, last]`; the sum
/// is carried as its mean.
impl Serialize for Bin {
    fn to_value(&self) -> Value {
        let b = self;
        (
            b.start_tick,
            b.end_tick,
            b.start_wall_ms,
            b.end_wall_ms,
            b.count,
            b.min,
            b.max,
            b.mean(),
            b.last,
        )
            .to_value()
    }
}

impl Deserialize for Bin {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let (start_tick, end_tick, start_wall_ms, end_wall_ms, count, min, max, mean, last) =
            <(u64, u64, u64, u64, u64, f64, f64, f64, f64)>::from_value(v)?;
        let sum = mean * count as f64;
        Ok(Bin {
            start_tick,
            end_tick,
            start_wall_ms,
            end_wall_ms,
            count,
            min,
            max,
            sum,
            last,
        })
    }
}

/// Why a `/series` payload failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesError {
    /// The text is not well-formed JSON.
    Parse(String),
    /// The JSON does not satisfy schema v1; the string names the
    /// offending element.
    Schema(String),
}

impl fmt::Display for SeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeriesError::Parse(e) => write!(f, "/series payload is not JSON: {e}"),
            SeriesError::Schema(e) => write!(f, "/series payload violates schema: {e}"),
        }
    }
}

impl std::error::Error for SeriesError {}

/// Renders a document to the schema-v1 wire form.
pub fn render(doc: &SeriesDoc) -> String {
    serde_json::to_string(doc).expect("/series document serializes")
}

/// Renders the store's current contents to the wire form.
pub fn render_store(store: &SeriesStore) -> String {
    render(&store.export())
}

/// Parses and strictly validates a `/series` payload.
///
/// # Errors
///
/// [`SeriesError::Parse`] for malformed JSON (including numbers that
/// overflow `f64`); [`SeriesError::Schema`] for missing, mistyped or
/// unknown keys and when any schema-v1 invariant fails (wrong version,
/// unsorted or duplicate names, backwards `wall_ms`, negative counter
/// values or rates, bins whose mean escapes `[min, max]`, unordered
/// quantiles, …).
pub fn validate(text: &str) -> Result<SeriesDoc, SeriesError> {
    let value: Value =
        serde_json::from_str(text).map_err(|e| SeriesError::Parse(e.to_string()))?;
    let doc =
        SeriesDoc::from_value(&value).map_err(|e| SeriesError::Schema(e.to_string()))?;
    check(&doc).map_err(SeriesError::Schema)?;
    Ok(doc)
}

/// The schema-v1 invariants a well-typed document must also satisfy.
fn check(doc: &SeriesDoc) -> Result<(), String> {
    if doc.schema != SCHEMA_VERSION {
        return Err(format!("unsupported schema version {}", doc.schema));
    }
    let series: Vec<&str> = doc.series.iter().map(|s| s.name.as_str()).collect();
    let histograms: Vec<&str> = doc.histograms.iter().map(|h| h.name.as_str()).collect();
    for (what, names) in [("series", series), ("histogram", histograms)] {
        if names.contains(&"") {
            return Err(format!("{what} with an empty name"));
        }
        if let Some(w) = names.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!("{what} names not strictly sorted at {:?}", w[1]));
        }
    }

    for s in &doc.series {
        let name = &s.name;
        for (what, samples) in [("raw", &s.raw), ("rate", &s.rate)] {
            if let Some(i) = samples.windows(2).position(|w| w[1].wall_ms < w[0].wall_ms) {
                return Err(format!(
                    "series {name:?} {what}[{}] wall_ms goes backwards",
                    i + 1
                ));
            }
        }
        for (what, bins) in [("mid", &s.mid), ("coarse", &s.coarse)] {
            for (i, b) in bins.iter().enumerate() {
                if b.count == 0 {
                    return Err(format!("series {name:?} {what}[{i}] has count 0"));
                }
                let (min, mean, max) = (b.min, b.mean(), b.max);
                let tol = 1e-9 * min.abs().max(max.abs()).max(1.0);
                if min > max || mean < min - tol || mean > max + tol {
                    return Err(format!(
                        "series {name:?} {what}[{i}] violates min <= mean <= max: \
                         {min} / {mean} / {max}"
                    ));
                }
            }
        }
        match s.kind {
            SeriesKind::Counter => {
                if s.raw.iter().any(|x| x.value < 0.0) {
                    return Err(format!("counter {name:?} has a negative value"));
                }
                if s.rate.iter().any(|x| x.value < 0.0) {
                    return Err(format!("counter {name:?} has a negative rate"));
                }
            }
            SeriesKind::Gauge => {
                if !s.rate.is_empty() {
                    return Err(format!("gauge {name:?} carries rates"));
                }
            }
        }
    }
    for h in &doc.histograms {
        if let Some(j) =
            h.windows.iter().position(|q| q.p50 < 0.0 || q.p50 > q.p90 || q.p90 > q.p99)
        {
            return Err(format!("histogram {:?} windows[{j}] quantiles unordered", h.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ScopeConfig, SeriesStore};

    fn populated_store() -> SeriesStore {
        let store = SeriesStore::new(ScopeConfig::default());
        let reg = dbcast_obs::registry();
        for i in 0..25u64 {
            let mut snap = reg.snapshot();
            snap.counters =
                vec![("json.test.requests".into(), i * 7), ("serve.ticks".into(), i)];
            snap.gauges = vec![("json.test.drift".into(), (i as f64 / 10.0).sin())];
            snap.histograms.clear();
            store.append_snapshot(&snap, i * 100);
        }
        store
    }

    #[test]
    fn rendered_store_round_trips_the_validator() {
        let store = populated_store();
        let text = render_store(&store);
        let doc = validate(&text).expect("rendered payload validates");
        assert_eq!(doc.schema, SCHEMA_VERSION);
        assert_eq!(doc.tick, 24);
        let req = doc.series("json.test.requests").expect("requests series");
        assert_eq!(req.kind, SeriesKind::Counter);
        assert_eq!(req.last(), Some(168.0));
        // 7 per 100 ms = 70/s.
        assert!((req.last_rate().unwrap() - 70.0).abs() < 1e-9);
        let drift = doc.series("json.test.drift").expect("drift series");
        assert_eq!(drift.kind, SeriesKind::Gauge);
        assert!(drift.rate.is_empty());
        assert_eq!(drift.mid.len(), 2);
    }

    /// The test store as a document, its real age (`wall_ms`) zeroed as
    /// in the saved fixture.
    fn populated_doc() -> SeriesDoc {
        SeriesDoc { wall_ms: 0, ..populated_store().export() }
    }

    #[test]
    fn saved_v1_documents_still_validate() {
        let saved = validate(include_str!("../tests/fixtures/series_v1.json"))
            .expect("saved document validates");
        assert_eq!(saved, validate(&render(&populated_doc())).expect("render validates"));
    }

    #[test]
    fn tampered_payloads_are_rejected() {
        let text = render_store(&populated_store());
        let schema = std::mem::discriminant(&SeriesError::Schema(String::new()));
        let parse = std::mem::discriminant(&SeriesError::Parse(String::new()));
        for (needle, replacement, want, why) in [
            ("\"schema\":1", "\"schema\":2", schema, "wrong version"),
            ("\"kind\":\"counter\"", "\"kind\":\"delta\"", schema, "unknown kind"),
            ("\"wall_ms\":", "\"wall\":", schema, "missing wall_ms"),
            ("{\"schema\"", "{\"bogus\":7,\"schema\"", schema, "unknown top-level key"),
            (
                "\"kind\":\"counter\"",
                "\"kind\":\"counter\",\"bogus\":7",
                schema,
                "unknown series key",
            ),
            ("\"raw\":[[0,0,0]", "\"raw\":[[0,0,1e999]", parse, "overflowing value"),
        ] {
            assert!(text.contains(needle), "fixture lost the {why} needle");
            let bad = text.replacen(needle, replacement, 1);
            let err = validate(&bad).expect_err(why);
            assert_eq!(std::mem::discriminant(&err), want, "{why}: {err}");
        }
        assert!(matches!(validate("{nope"), Err(SeriesError::Parse(_))));
    }

    #[test]
    fn negative_counter_rates_are_rejected() {
        let good = "{\"schema\": 1, \"tick\": 0, \"wall_ms\": 5, \"series\": [\
                    {\"name\": \"c\", \"kind\": \"counter\", \"raw\": [[0,1,2.0]], \
                    \"mid\": [], \"coarse\": [], \"rate\": [[0,1,-4.0]]}], \
                    \"histograms\": []}";
        assert!(matches!(validate(good), Err(SeriesError::Schema(_))));
    }

    #[test]
    fn bin_mean_outside_min_max_is_rejected() {
        let bad = "{\"schema\": 1, \"tick\": 0, \"wall_ms\": 5, \"series\": [\
                   {\"name\": \"g\", \"kind\": \"gauge\", \"raw\": [], \
                   \"mid\": [[0,9,0,90,10,1.0,2.0,5.0,1.5]], \"coarse\": [], \
                   \"rate\": []}], \"histograms\": []}";
        assert!(matches!(validate(bad), Err(SeriesError::Schema(_))));
    }

    #[test]
    fn unsorted_series_names_are_rejected() {
        let bad = "{\"schema\": 1, \"tick\": 0, \"wall_ms\": 5, \"series\": [\
                   {\"name\": \"b\", \"kind\": \"gauge\", \"raw\": [], \"mid\": [], \
                   \"coarse\": [], \"rate\": []},\
                   {\"name\": \"a\", \"kind\": \"gauge\", \"raw\": [], \"mid\": [], \
                   \"coarse\": [], \"rate\": []}], \"histograms\": []}";
        assert!(matches!(validate(bad), Err(SeriesError::Schema(_))));
    }
}
