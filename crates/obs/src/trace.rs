//! Structured convergence traces: typed per-iteration event streams
//! emitted by the optimizers (CDS refinement, DRP splitting, GOPT
//! generations) and exported with metric snapshots.
//!
//! Events carry plain indices and floats — no model types — so the
//! telemetry layer stays dependency-free and traces from different
//! algorithms share one stream type.

/// One step of an optimizer's progress.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// CDS accepted a cost-reducing move.
    CdsIteration {
        /// 1-based iteration number.
        iteration: usize,
        /// Item moved (index into the database ordering).
        item: usize,
        /// Source channel.
        from: usize,
        /// Destination channel.
        to: usize,
        /// Cost reduction achieved by the move (positive).
        reduction: f64,
        /// Total cost after applying the move.
        cost_after: f64,
    },
    /// DRP committed one binary split.
    DrpSplit {
        /// 1-based split number (the k-th cut).
        split: usize,
        /// Chosen cut position within the segment (prefix length).
        chosen_index: usize,
        /// Cost of the prefix segment after the cut.
        prefix_cost: f64,
        /// Cost of the suffix segment after the cut.
        suffix_cost: f64,
    },
    /// GOPT finished one generation.
    GoptGeneration {
        /// 0-based generation number.
        generation: usize,
        /// Best cost in the population after this generation.
        best_cost: f64,
    },
}

impl TraceEvent {
    /// The cost-like quantity tracked by this event: total cost after
    /// a CDS move, combined segment cost of a DRP split, or best cost
    /// of a GOPT generation.
    pub fn cost(&self) -> f64 {
        match *self {
            TraceEvent::CdsIteration { cost_after, .. } => cost_after,
            TraceEvent::DrpSplit { prefix_cost, suffix_cost, .. } => {
                prefix_cost + suffix_cost
            }
            TraceEvent::GoptGeneration { best_cost, .. } => best_cost,
        }
    }
}

/// A named stream of optimizer events from one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTrace {
    /// `<crate>.<algo>` name, e.g. `alloc.cds`.
    pub name: String,
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
}

impl ConvergenceTrace {
    /// An empty trace for algorithm `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ConvergenceTrace { name: name.into(), events: Vec::new() }
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The cost series across events, in order.
    pub fn costs(&self) -> Vec<f64> {
        self.events.iter().map(TraceEvent::cost).collect()
    }

    /// Whether the cost series never increases (beyond `tol`) — the
    /// convergence invariant of CDS and GOPT.
    pub fn is_monotone_non_increasing(&self, tol: f64) -> bool {
        self.costs().windows(2).all(|w| w[1] <= w[0] + tol)
    }

    /// Final cost, or `None` for an empty trace.
    pub fn final_cost(&self) -> Option<f64> {
        self.events.last().map(TraceEvent::cost)
    }

    /// Records this trace in the global registry (honouring
    /// [`crate::enabled()`]); consumes the trace.
    pub fn record(self) {
        crate::registry().record_trace(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cds(i: usize, cost_after: f64) -> TraceEvent {
        TraceEvent::CdsIteration {
            iteration: i,
            item: 0,
            from: 0,
            to: 1,
            reduction: 1.0,
            cost_after,
        }
    }

    #[test]
    fn monotonicity_check() {
        let mut t = ConvergenceTrace::new("alloc.cds");
        for (i, c) in [10.0, 8.0, 8.0, 5.0].into_iter().enumerate() {
            t.push(cds(i + 1, c));
        }
        assert!(t.is_monotone_non_increasing(1e-9));
        assert_eq!(t.final_cost(), Some(5.0));
        t.push(cds(5, 6.0));
        assert!(!t.is_monotone_non_increasing(1e-9));
    }

    #[test]
    fn event_costs_by_kind() {
        let split = TraceEvent::DrpSplit {
            split: 1,
            chosen_index: 3,
            prefix_cost: 2.0,
            suffix_cost: 5.0,
        };
        assert_eq!(split.cost(), 7.0);
        let g = TraceEvent::GoptGeneration { generation: 0, best_cost: 4.5 };
        assert_eq!(g.cost(), 4.5);
    }

    #[test]
    fn recording_honours_switch() {
        let _guard = crate::TEST_SWITCH_LOCK.lock().unwrap();
        crate::set_enabled(true);
        let t = ConvergenceTrace::new("trace.test.switch");
        t.record();
        let snap = crate::registry().snapshot();
        assert!(snap.traces.iter().any(|t| t.name == "trace.test.switch"));
    }
}
