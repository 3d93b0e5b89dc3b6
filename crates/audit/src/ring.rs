//! The trace ring: a fixed-capacity, power-of-two buffer of
//! [`TraceRecord`]s guarded by the flight crate's per-slot seqlock
//! idiom.
//!
//! The ring is **single-writer**: only the serving loop records and
//! amends slots, while any number of reader threads (the `/exemplars`
//! endpoint, `dbcast trace` scrapes mid-run) snapshot concurrently.
//! Each slot carries a sequence word that is bumped to an *odd* value
//! before the payload is touched and to the next *even* value after,
//! so a reader that observes a consistent even sequence on both sides
//! of its payload loads has read an untorn record — torn slots are
//! simply skipped, which is the right trade for telemetry.
//!
//! The single-writer discipline is what additionally permits
//! [`TraceRing::mark_straddles`]: at a swap boundary the serving loop
//! re-opens *live* slots whose request was admitted before the
//! boundary but satisfied after it, stamps the swap-straddle penalty
//! in, and re-seals them under the same odd/even protocol. A
//! concurrent reader either sees the record before the amendment, or
//! after it, or skips it — never a half-written mix.

use std::sync::atomic::{AtomicU64, Ordering};

/// The record was caught by the deterministic seeded sampling stage.
pub const FLAG_SEEDED: u64 = 1;
/// The record was caught by the tail-biased stage (SLO-slow request).
pub const FLAG_TAIL: u64 = 1 << 1;
/// The request's service straddled an EpochCell program swap.
pub const FLAG_STRADDLED: u64 = 1 << 2;

/// One sampled request lifecycle, as captured by the serving loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Served-request ordinal (0-based position among served requests).
    pub request_id: u64,
    /// Requested item index.
    pub item: u64,
    /// Tick index at arrival.
    pub arrival_tick: u64,
    /// Tick index at (projected) satisfaction, assuming the tick length
    /// at arrival holds until completion.
    pub satisfied_tick: u64,
    /// Generation that admitted the request (waits are accounted here).
    pub generation: u64,
    /// Channel broadcasting the requested item in that generation.
    pub channel: u64,
    /// Items scheduled on the channel strictly before the requested one
    /// relative to the broadcast phase at arrival — the request's
    /// position in the cyclic "queue".
    pub queue_position: u64,
    /// Arrival time (virtual seconds).
    pub arrival: f64,
    /// Observed wait (virtual seconds).
    pub wait: f64,
    /// Eq. 2 per-item model prediction: `cycle_c/(2b) + z_i/b`.
    pub predicted: f64,
    /// Wait attributable to crossing a swap boundary mid-service
    /// (`completion − boundary`; 0 for non-straddling requests).
    pub straddle_penalty: f64,
    /// [`FLAG_SEEDED`] | [`FLAG_TAIL`] | [`FLAG_STRADDLED`].
    pub flags: u64,
}

impl TraceRecord {
    /// The scheduling residual: whatever part of the observed wait the
    /// model prediction and the straddle penalty do not explain.
    /// Computed as the exact remainder, so
    /// `predicted + residual() + straddle_penalty == wait` up to one
    /// floating-point rounding of the subtraction itself.
    pub fn residual(&self) -> f64 {
        self.wait - self.predicted - self.straddle_penalty
    }

    /// Virtual time at which the request was satisfied.
    pub fn completion(&self) -> f64 {
        self.arrival + self.wait
    }

    /// Caught by the seeded sampling stage?
    pub fn seeded(&self) -> bool {
        self.flags & FLAG_SEEDED != 0
    }

    /// Caught by the tail-biased (SLO-slow) stage?
    pub fn tail(&self) -> bool {
        self.flags & FLAG_TAIL != 0
    }

    /// Straddled a program swap?
    pub fn straddled(&self) -> bool {
        self.flags & FLAG_STRADDLED != 0
    }
}

/// One seqlock-guarded slot. Field order mirrors [`TraceRecord`];
/// floats are stored as raw bits.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    request_id: AtomicU64,
    item: AtomicU64,
    arrival_tick: AtomicU64,
    satisfied_tick: AtomicU64,
    generation: AtomicU64,
    channel: AtomicU64,
    queue_position: AtomicU64,
    arrival: AtomicU64,
    wait: AtomicU64,
    predicted: AtomicU64,
    straddle_penalty: AtomicU64,
    flags: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            request_id: AtomicU64::new(0),
            item: AtomicU64::new(0),
            arrival_tick: AtomicU64::new(0),
            satisfied_tick: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            channel: AtomicU64::new(0),
            queue_position: AtomicU64::new(0),
            arrival: AtomicU64::new(0),
            wait: AtomicU64::new(0),
            predicted: AtomicU64::new(0),
            straddle_penalty: AtomicU64::new(0),
            flags: AtomicU64::new(0),
        }
    }

    fn load(&self) -> TraceRecord {
        TraceRecord {
            request_id: self.request_id.load(Ordering::Relaxed),
            item: self.item.load(Ordering::Relaxed),
            arrival_tick: self.arrival_tick.load(Ordering::Relaxed),
            satisfied_tick: self.satisfied_tick.load(Ordering::Relaxed),
            generation: self.generation.load(Ordering::Relaxed),
            channel: self.channel.load(Ordering::Relaxed),
            queue_position: self.queue_position.load(Ordering::Relaxed),
            arrival: f64::from_bits(self.arrival.load(Ordering::Relaxed)),
            wait: f64::from_bits(self.wait.load(Ordering::Relaxed)),
            predicted: f64::from_bits(self.predicted.load(Ordering::Relaxed)),
            straddle_penalty: f64::from_bits(self.straddle_penalty.load(Ordering::Relaxed)),
            flags: self.flags.load(Ordering::Relaxed),
        }
    }

    fn store(&self, r: &TraceRecord) {
        self.request_id.store(r.request_id, Ordering::Relaxed);
        self.item.store(r.item, Ordering::Relaxed);
        self.arrival_tick.store(r.arrival_tick, Ordering::Relaxed);
        self.satisfied_tick.store(r.satisfied_tick, Ordering::Relaxed);
        self.generation.store(r.generation, Ordering::Relaxed);
        self.channel.store(r.channel, Ordering::Relaxed);
        self.queue_position.store(r.queue_position, Ordering::Relaxed);
        self.arrival.store(r.arrival.to_bits(), Ordering::Relaxed);
        self.wait.store(r.wait.to_bits(), Ordering::Relaxed);
        self.predicted.store(r.predicted.to_bits(), Ordering::Relaxed);
        self.straddle_penalty.store(r.straddle_penalty.to_bits(), Ordering::Relaxed);
        self.flags.store(r.flags, Ordering::Relaxed);
    }
}

/// Fixed-capacity ring of sampled request lifecycles.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Slot>,
    cursor: AtomicU64,
}

impl TraceRing {
    /// Creates a ring holding at least `capacity` records (rounded up
    /// to the next power of two, minimum 64).
    pub fn new(capacity: usize) -> Self {
        let len = capacity.max(64).next_power_of_two();
        TraceRing {
            slots: (0..len).map(|_| Slot::empty()).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records ever written (not clamped to capacity).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    fn slot_at(&self, idx: u64) -> &Slot {
        &self.slots[(idx as usize) & (self.slots.len() - 1)]
    }

    /// Appends a record (single writer: the serving loop).
    pub fn record(&self, record: &TraceRecord) {
        let idx = self.cursor.fetch_add(1, Ordering::AcqRel);
        let slot = self.slot_at(idx);
        // Odd = write in progress; readers back off.
        slot.seq.store(2 * idx + 1, Ordering::Release);
        slot.store(record);
        // Even and unique to this lap: readers accept.
        slot.seq.store(2 * (idx + 1), Ordering::Release);
    }

    /// At a swap boundary, stamps the straddle penalty into every live
    /// record whose service spans `boundary` and is not yet marked.
    /// Returns how many records were marked. Single writer only — the
    /// amendment reuses the slot's odd/even seqlock protocol, so
    /// concurrent snapshots stay untorn.
    pub fn mark_straddles(&self, boundary: f64) -> u64 {
        let end = self.cursor.load(Ordering::Acquire);
        let start = end.saturating_sub(self.slots.len() as u64);
        let mut marked = 0;
        for idx in start..end {
            let slot = self.slot_at(idx);
            // Only this lap's sealed records are eligible; anything else
            // was lapped between the cursor load and now (impossible for
            // the single writer, but cheap to guard).
            if slot.seq.load(Ordering::Acquire) != 2 * (idx + 1) {
                continue;
            }
            let record = slot.load();
            let straddles = record.arrival < boundary && record.completion() > boundary;
            if !straddles || record.straddled() {
                continue;
            }
            slot.seq.store(2 * idx + 1, Ordering::Release);
            slot.straddle_penalty
                .store((record.completion() - boundary).to_bits(), Ordering::Relaxed);
            slot.flags.store(record.flags | FLAG_STRADDLED, Ordering::Relaxed);
            slot.seq.store(2 * (idx + 1), Ordering::Release);
            marked += 1;
        }
        marked
    }

    /// Copies out every untorn live record, oldest first. Slots being
    /// overwritten or amended concurrently are skipped.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let end = self.cursor.load(Ordering::Acquire);
        let start = end.saturating_sub(self.slots.len() as u64);
        let mut out = Vec::with_capacity((end - start) as usize);
        for idx in start..end {
            let slot = self.slot_at(idx);
            let expected = 2 * (idx + 1);
            if slot.seq.load(Ordering::Acquire) != expected {
                continue;
            }
            let record = slot.load();
            if slot.seq.load(Ordering::Acquire) != expected {
                continue;
            }
            out.push(record);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, arrival: f64, wait: f64) -> TraceRecord {
        TraceRecord {
            request_id: id,
            item: id * 3,
            arrival_tick: id,
            satisfied_tick: id + 1,
            generation: 0,
            channel: id % 4,
            queue_position: id % 7,
            arrival,
            wait,
            predicted: wait * 0.8,
            straddle_penalty: 0.0,
            flags: FLAG_SEEDED,
        }
    }

    #[test]
    fn capacity_rounds_up_and_ring_wraps() {
        let ring = TraceRing::new(100);
        assert_eq!(ring.capacity(), 128);
        for i in 0..300 {
            ring.record(&rec(i, i as f64, 1.0));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 128);
        assert_eq!(snap.first().unwrap().request_id, 172);
        assert_eq!(snap.last().unwrap().request_id, 299);
        assert_eq!(ring.recorded(), 300);
    }

    #[test]
    fn snapshot_round_trips_floats_exactly() {
        let ring = TraceRing::new(64);
        let r = rec(7, 1.234567891234, 0.98765432101);
        ring.record(&r);
        assert_eq!(ring.snapshot(), vec![r]);
    }

    #[test]
    fn mark_straddles_stamps_spanning_records_once() {
        let ring = TraceRing::new(64);
        ring.record(&rec(0, 0.0, 1.0)); // completes at 1.0 < boundary
        ring.record(&rec(1, 1.5, 2.0)); // spans boundary 2.0
        ring.record(&rec(2, 2.5, 1.0)); // arrives after boundary
        assert_eq!(ring.mark_straddles(2.0), 1);
        // Re-marking the same boundary is a no-op.
        assert_eq!(ring.mark_straddles(2.0), 0);
        let snap = ring.snapshot();
        assert!(!snap[0].straddled() && !snap[2].straddled());
        assert!(snap[1].straddled());
        assert!((snap[1].straddle_penalty - 1.5).abs() < 1e-12);
        let sum = snap[1].predicted + snap[1].residual() + snap[1].straddle_penalty;
        assert!((sum - snap[1].wait).abs() < 1e-9);
    }

    #[test]
    fn concurrent_snapshots_never_tear() {
        use std::sync::atomic::AtomicBool;
        let ring = std::sync::Arc::new(TraceRing::new(64));
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let ring = std::sync::Arc::clone(&ring);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        for r in ring.snapshot() {
                            // Writer keeps predicted = 0.8·wait; a torn
                            // read would break the invariant.
                            assert!((r.predicted - r.wait * 0.8).abs() < 1e-12);
                        }
                    }
                })
            })
            .collect();
        for i in 0..20_000 {
            ring.record(&rec(i, i as f64 * 0.1, (i % 13) as f64 + 0.5));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }
}
