//! Algorithm **DRP — Dimension Reduction Partitioning** (paper §3.1).
//!
//! DRP sorts the database by benefit ratio `br = f/z` descending and
//! repeatedly splits one group at its optimal split point, until `K`
//! groups exist. Because groups are contiguous ranges of the sorted
//! order, each split is a single O(n) scan over prefix sums (see
//! [`best_split`](crate::best_split)).
//!
//! # Which group gets split?
//!
//! The paper's pseudocode pops the **max-cost** group from the priority
//! queue. Its worked example, however, is only consistent with popping
//! the group whose split yields the **largest cost reduction**: in the
//! fourth iteration of Table 3 the example splits the group with cost
//! 7.02 (gain 3.36) even though a group with cost 7.26 (gain 3.23)
//! exists — reaching the Table 3(d)/Table 4 state with total cost 24.09,
//! where the strict max-cost rule yields 24.22. Both rules are
//! implemented as [`SplitPriority`]; the default is
//! [`SplitPriority::Gain`], which reproduces the paper's tables
//! end-to-end.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dbcast_model::{AllocError, Allocation, ChannelAllocator, Database, ItemId};
use serde::{Deserialize, Serialize};

use crate::partition::{best_split, prefix_sums, SplitPoint};

/// How DRP picks the next group to split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SplitPriority {
    /// Split the group with the largest cost — the paper's pseudocode.
    Cost,
    /// Split the group whose optimal split reduces total cost the most —
    /// the rule consistent with the paper's worked example (default).
    #[default]
    Gain,
}

/// A contiguous segment of the benefit-ratio-sorted order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    start: usize,
    end: usize,
    cost: f64,
    /// Optimal split, absent for singletons.
    split: Option<SplitPoint>,
    /// Heap key under the configured [`SplitPriority`].
    priority: f64,
}

impl Eq for Segment {}

impl PartialOrd for Segment {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Segment {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by priority; break ties by range for determinism.
        self.priority
            .total_cmp(&other.priority)
            .then_with(|| other.start.cmp(&self.start))
            .then_with(|| other.end.cmp(&self.end))
    }
}

/// The full result of a DRP run: the allocation plus the split log that
/// reproduces Table 3.
///
/// Every DRP group is a contiguous range of one benefit-ratio order, so
/// the state after `i` splits is fully described by the first `i` split
/// points; [`groups_after`](Self::groups_after) replays them.
#[derive(Debug, Clone, PartialEq)]
pub struct DrpOutcome {
    /// The final allocation (channel `i` = `i`-th segment in
    /// benefit-ratio order).
    pub allocation: Allocation,
    /// Item ids in descending benefit-ratio order.
    pub order: Vec<ItemId>,
    /// Cost `(Σf)(Σz)` of the initial single group.
    pub initial_cost: f64,
    /// The `K − 1` splits in the order DRP made them, with the costs of
    /// the two groups each one created.
    pub splits: Vec<SplitPoint>,
}

impl DrpOutcome {
    /// The groups after the first `splits` splits — row `splits` of the
    /// paper's Table 3 — as member slices of [`order`](Self::order) with
    /// their costs, in benefit-ratio order of their first member.
    ///
    /// # Panics
    ///
    /// Panics if `splits` exceeds the number of recorded splits.
    pub fn groups_after(&self, splits: usize) -> Vec<(&[ItemId], f64)> {
        // `(start, cost)` per group, sorted by start; a group ends where
        // the next one starts.
        let mut groups = vec![(0, self.initial_cost)];
        for s in &self.splits[..splits] {
            let g = groups.partition_point(|&(start, _)| start < s.at) - 1;
            groups[g].1 = s.left_cost;
            groups.insert(g + 1, (s.at, s.right_cost));
        }
        let ends = groups.iter().skip(1).map(|&(start, _)| start).chain([self.order.len()]);
        groups
            .iter()
            .zip(ends)
            .map(|(&(start, cost), end)| (&self.order[start..end], cost))
            .collect()
    }
}

/// The DRP allocator (paper §3.1).
///
/// Stateless and deterministic; construct once and reuse freely.
///
/// # Example
///
/// ```
/// use dbcast_alloc::Drp;
/// use dbcast_model::ChannelAllocator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let db = dbcast_workload::paper::table2_profile();
/// let alloc = Drp::new().allocate(&db, 5)?;
/// assert_eq!(alloc.channels(), 5);
/// assert_eq!(alloc.empty_channels(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Drp {
    priority: SplitPriority,
}

impl Drp {
    /// Creates a DRP allocator with the default
    /// ([`SplitPriority::Gain`]) selection rule.
    pub fn new() -> Self {
        Drp::default()
    }

    /// Selects the group-selection rule.
    pub fn with_priority(mut self, priority: SplitPriority) -> Self {
        self.priority = priority;
        self
    }

    fn make_segment(&self, pf: &[f64], pz: &[f64], start: usize, end: usize) -> Segment {
        let cost = (pf[end] - pf[start]) * (pz[end] - pz[start]);
        let split = best_split(pf, pz, start..end);
        let priority = match self.priority {
            SplitPriority::Cost => {
                // Singletons must never outrank splittable groups.
                if split.is_some() {
                    cost
                } else {
                    f64::NEG_INFINITY
                }
            }
            SplitPriority::Gain => {
                split.map_or(f64::NEG_INFINITY, |s| cost - s.total_cost())
            }
        };
        Segment { start, end, cost, split, priority }
    }

    /// Runs DRP and returns both the allocation and the split log.
    ///
    /// # Errors
    ///
    /// * [`AllocError::Model`] for `channels == 0`.
    /// * [`AllocError::Infeasible`] when `channels > N` (DRP groups are
    ///   non-empty by construction).
    pub fn allocate_traced(
        &self,
        db: &Database,
        channels: usize,
    ) -> Result<DrpOutcome, AllocError> {
        if channels == 0 {
            return Err(dbcast_model::ModelError::ZeroChannels.into());
        }
        if channels > db.len() {
            return Err(AllocError::Infeasible {
                reason: format!(
                    "DRP needs at least one item per channel: {} channels > {} items",
                    channels,
                    db.len()
                ),
            });
        }

        // Root span for the whole run; the per-split scans below nest
        // under it in the span tree.
        let _run = dbcast_obs::span!("alloc.drp.run");
        let order = db.ids_by_benefit_ratio_desc();
        let features: Vec<(f64, f64)> = order
            .iter()
            .map(|id| {
                let d = &db.items()[id.index()];
                (d.frequency(), d.size())
            })
            .collect();
        let (pf, pz) = prefix_sums(&features);

        let root = self.make_segment(&pf, &pz, 0, db.len());
        let initial_cost = root.cost;
        let mut heap = BinaryHeap::from([root]);
        let mut splits = Vec::new();
        // Segments that can no longer be split (len 1) keep NEG_INFINITY
        // priority and sink to the bottom of the heap; if one surfaces,
        // every group is a singleton and K > N would have been required
        // — already rejected above.
        while heap.len() < channels {
            let _scan = dbcast_obs::span!("alloc.drp.split_scan");
            let seg = heap.pop().expect("heap holds at least one segment");
            let split =
                seg.split.expect("channels <= N guarantees a splittable segment surfaces");
            let prefix = self.make_segment(&pf, &pz, seg.start, split.at);
            let suffix = self.make_segment(&pf, &pz, split.at, seg.end);
            dbcast_obs::counter!("alloc.drp.splits").inc();
            // Record the groups' own costs, not the scan's: they are the
            // same prefix-sum products the final groups report.
            splits.push(SplitPoint {
                left_cost: prefix.cost,
                right_cost: suffix.cost,
                ..split
            });
            heap.push(prefix);
            heap.push(suffix);
        }
        if dbcast_obs::enabled() {
            let mut trace = dbcast_obs::trace::ConvergenceTrace::new("alloc.drp");
            for (i, s) in splits.iter().enumerate() {
                trace.push(dbcast_obs::trace::TraceEvent::DrpSplit {
                    split: i + 1,
                    chosen_index: s.at,
                    prefix_cost: s.left_cost,
                    suffix_cost: s.right_cost,
                });
            }
            trace.record();
        }

        let mut segs: Vec<Segment> = heap.into_iter().collect();
        segs.sort_by_key(|s| s.start);
        let mut assignment = vec![0usize; db.len()];
        for (ch, seg) in segs.iter().enumerate() {
            for &id in &order[seg.start..seg.end] {
                assignment[id.index()] = ch;
            }
        }
        let allocation = Allocation::from_assignment(db, channels, assignment)?;
        Ok(DrpOutcome { allocation, order, initial_cost, splits })
    }
}

impl ChannelAllocator for Drp {
    fn name(&self) -> &str {
        match self.priority {
            SplitPriority::Gain => "DRP",
            SplitPriority::Cost => "DRP(max-cost)",
        }
    }

    fn allocate(&self, db: &Database, channels: usize) -> Result<Allocation, AllocError> {
        Ok(self.allocate_traced(db, channels)?.allocation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcast_model::{Database, ItemSpec};

    fn uniform_db(n: usize) -> Database {
        Database::try_from_specs((0..n).map(|_| ItemSpec::new(1.0, 1.0))).unwrap()
    }

    #[test]
    fn rejects_zero_and_too_many_channels() {
        let db = uniform_db(4);
        assert!(Drp::new().allocate(&db, 0).is_err());
        assert!(matches!(Drp::new().allocate(&db, 5), Err(AllocError::Infeasible { .. })));
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let db = uniform_db(6);
        for priority in [SplitPriority::Cost, SplitPriority::Gain] {
            let alloc = Drp::new().with_priority(priority).allocate(&db, 6).unwrap();
            assert_eq!(alloc.empty_channels(), 0);
            for s in alloc.all_channel_stats() {
                assert_eq!(s.items, 1);
            }
        }
    }

    #[test]
    fn k_one_is_the_whole_database() {
        let db = uniform_db(5);
        let out = Drp::new().allocate_traced(&db, 1).unwrap();
        assert_eq!(out.splits.len() + 1, 1);
        assert_eq!(out.allocation.all_channel_stats()[0].items, 5);
    }

    #[test]
    fn groups_are_contiguous_in_br_order() {
        let db = dbcast_workload::WorkloadBuilder::new(60)
            .skewness(1.0)
            .seed(3)
            .build()
            .unwrap();
        let alloc = Drp::new().allocate(&db, 7).unwrap();
        let order = db.ids_by_benefit_ratio_desc();
        // Walking the br order, the channel index may change only at
        // segment boundaries and each channel appears exactly once.
        let mut seen = Vec::new();
        let mut last = usize::MAX;
        for id in order {
            let ch = alloc.channel_of(id).unwrap().index();
            if ch != last {
                assert!(!seen.contains(&ch), "channel {ch} appears twice");
                seen.push(ch);
                last = ch;
            }
        }
        assert_eq!(seen.len(), 7);
    }

    #[test]
    fn every_iteration_reduces_total_cost() {
        let db = dbcast_workload::WorkloadBuilder::new(80).seed(9).build().unwrap();
        for priority in [SplitPriority::Cost, SplitPriority::Gain] {
            let out = Drp::new().with_priority(priority).allocate_traced(&db, 8).unwrap();
            let totals: Vec<f64> = (0..=out.splits.len())
                .map(|i| out.groups_after(i).iter().map(|g| g.1).sum())
                .collect();
            for w in totals.windows(2) {
                assert!(w[1] <= w[0] + 1e-9);
            }
            let final_cost = *totals.last().unwrap();
            assert!((final_cost - out.allocation.total_cost()).abs() < 1e-9);
        }
    }

    #[test]
    fn max_cost_priority_splits_costliest_group() {
        let db = dbcast_workload::paper::table2_profile();
        let out =
            Drp::new().with_priority(SplitPriority::Cost).allocate_traced(&db, 3).unwrap();
        // Iteration 1 has two groups; iteration 2 must have split the
        // costlier one, so its cost no longer appears.
        let it1 = out.groups_after(1);
        let max_cost = it1.iter().map(|g| g.1).fold(f64::MIN, f64::max);
        let it2 = out.groups_after(2);
        assert!(it2.iter().all(|g| (g.1 - max_cost).abs() > 1e-9));
    }

    #[test]
    fn trace_matches_paper_table3_first_split() {
        // Table 3(b): first split yields costs 29.04 and 28.62 — both
        // priority rules agree here.
        let db = dbcast_workload::paper::table2_profile();
        for priority in [SplitPriority::Cost, SplitPriority::Gain] {
            let out = Drp::new().with_priority(priority).allocate_traced(&db, 5).unwrap();
            let it1 = out.groups_after(1);
            assert_eq!(it1.len(), 2);
            assert!((it1[0].1 - 29.04).abs() < 0.01, "{}", it1[0].1);
            assert!((it1[1].1 - 28.62).abs() < 0.01, "{}", it1[1].1);
            let labels: Vec<usize> = it1[0].0.iter().map(|i| i.index() + 1).collect();
            assert_eq!(labels, vec![9, 2, 3, 6, 5, 15, 1, 12]);
        }
    }

    #[test]
    fn gain_priority_reproduces_paper_table3d() {
        // Table 3(d): groups {d9 d2 d3} {d6 d5 d15} {d1 d12}
        // {d10 d13 d4 d8} {d14 d7 d11} with costs
        // 2.59, 1.07, 6.82, 7.26, 6.35 (total 24.09).
        let db = dbcast_workload::paper::table2_profile();
        let out = Drp::new().allocate_traced(&db, 5).unwrap();
        let final_groups: Vec<(Vec<usize>, f64)> = out
            .groups_after(out.splits.len())
            .iter()
            .map(|g| (g.0.iter().map(|i| i.index() + 1).collect(), g.1))
            .collect();
        let expected: Vec<(Vec<usize>, f64)> = vec![
            (vec![9, 2, 3], 2.59),
            (vec![6, 5, 15], 1.07),
            (vec![1, 12], 6.82),
            (vec![10, 13, 4, 8], 7.26),
            (vec![14, 7, 11], 6.35),
        ];
        for ((got_members, got_cost), (want_members, want_cost)) in
            final_groups.iter().zip(&expected)
        {
            assert_eq!(got_members, want_members);
            assert!((got_cost - want_cost).abs() < 0.01, "{got_cost} vs {want_cost}");
        }
        assert!((out.allocation.total_cost() - 24.09).abs() < 0.01);
    }

    #[test]
    fn equal_sized_equal_frequency_items_split_evenly_at_powers_of_two() {
        let db = uniform_db(16);
        let alloc = Drp::new().allocate(&db, 4).unwrap();
        for s in alloc.all_channel_stats() {
            assert_eq!(s.items, 4);
        }
    }

    #[test]
    fn allocation_validates_against_database() {
        let db = dbcast_workload::WorkloadBuilder::new(50).seed(2).build().unwrap();
        let alloc = Drp::new().allocate(&db, 5).unwrap();
        alloc.validate(&db).unwrap();
    }

    #[test]
    fn priority_rules_differ_only_modestly_in_cost() {
        // Both rules are valid DRP variants; their final costs should be
        // in the same ballpark on random workloads.
        for seed in 0..5 {
            let db = dbcast_workload::WorkloadBuilder::new(90).seed(seed).build().unwrap();
            let gain = Drp::new().allocate(&db, 6).unwrap().total_cost();
            let cost = Drp::new()
                .with_priority(SplitPriority::Cost)
                .allocate(&db, 6)
                .unwrap()
                .total_cost();
            let ratio = gain.max(cost) / gain.min(cost);
            assert!(ratio < 1.5, "seed {seed}: gain {gain} vs cost {cost}");
        }
    }
}
