//! dbcast-flight: the always-on flight recorder for the serving
//! runtime, plus the machinery that gets its contents out of the
//! process — live HTTP exposition and postmortem dumps.
//!
//! Three pieces:
//!
//! * [`ring::FlightRing`] — a fixed-capacity, lock-free ring of
//!   structured [`event::FlightEvent`]s. Recording is wait-free (one
//!   `fetch_add` plus atomic stores) and allocation-free, so it is
//!   *always on*: the serving loop records ticks, served requests,
//!   drift scores, repair dispatch/outcomes, swap publishes and budget
//!   exhaustions unconditionally, independent of the obs runtime
//!   switch.
//! * [`postmortem`] — triggers (a process panic via the installed
//!   hook, or an explicit incident such as a drift alarm) dump the
//!   last events plus a full metrics snapshot to a timestamped JSON
//!   file under the armed `--postmortem-dir`.
//! * [`http::ExpositionServer`] — a blocking `TcpListener` responder
//!   on its own thread serving `/metrics` (OpenMetrics text),
//!   `/flight` (the ring as JSON) and `/status` (serving-generation
//!   status), all built from snapshot reads.
//!
//! The crate-level [`recorder()`] is the process-global ring everything
//! writes to; it exists so the panic hook and the exposition endpoint
//! see the same events the serving loop records, with no plumbing.

pub mod event;
pub mod http;
pub mod postmortem;
pub mod ring;

pub use event::{EventKind, FlightEvent};
pub use http::{ExpositionServer, Route};
pub use ring::FlightRing;

use std::sync::OnceLock;

/// Default capacity of the global recorder (events retained).
pub const DEFAULT_CAPACITY: usize = 4096;

/// The process-global flight ring. Created on first use with
/// [`DEFAULT_CAPACITY`]; all production recording goes through this.
pub fn recorder() -> &'static FlightRing {
    static RING: OnceLock<FlightRing> = OnceLock::new();
    RING.get_or_init(|| FlightRing::new(DEFAULT_CAPACITY))
}

/// Records one event on the global recorder. Wait-free and
/// allocation-free; safe to call from the hot serving loop.
#[inline]
pub fn record(event: FlightEvent) {
    recorder().record(event);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_recorder_is_shared_and_records() {
        let before = recorder().recorded();
        record(FlightEvent::new(EventKind::Tick, 1, 0, 0.5).value(0.5));
        assert_eq!(recorder().recorded(), before + 1);
        assert_eq!(recorder().capacity(), DEFAULT_CAPACITY);
    }
}
