//! The IdleFunction a holistic worker executes (Fig 2 of the paper).
//!
//! "Each worker thread executes an instance of the IdleFunction, which picks
//! an index from the Index Space IS and performs x partial index refinement
//! actions on it. Every time an index is refined, the respective statistics
//! […] are updated. When an index reaches the optimal status, it is moved
//! into the optimal configuration."

use crate::handle::RefineResult;
use crate::index_space::{IndexSpace, Membership};
use rand::RngCore;
use std::time::{Duration, Instant};

/// What one worker activation accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Successful piece splits.
    pub refinements: u64,
    /// Attempts that found every tried piece latched.
    pub busy: u64,
    /// Pivots that already were boundaries.
    pub already_bound: u64,
    /// Stale snapshot pieces refreshed to live granularity in the
    /// background (snapshot follow-up (b)).
    pub snapshot_refreshes: u64,
    /// Point membership filters rebuilt after delete churn degraded
    /// their false-positive rate.
    pub filter_rebuilds: u64,
    /// Wall time spent in the IdleFunction.
    pub duration: Duration,
    /// Whether an index was available to work on.
    pub picked: bool,
}

/// Runs one IdleFunction instance: pick an index, refine it `x` times with
/// random pivots, update statistics, stop early once it turns optimal.
pub fn idle_function(
    space: &IndexSpace,
    refinements_per_worker: usize,
    latch_attempts: usize,
    rng: &mut dyn RngCore,
) -> WorkerReport {
    let start = Instant::now();
    let mut report = WorkerReport::default();

    let Some((id, handle)) = space.pick(rng) else {
        report.duration = start.elapsed();
        return report;
    };
    report.picked = true;

    for _ in 0..refinements_per_worker {
        let result = handle.refine_random(rng, latch_attempts);
        space.record_worker_outcome(id, result);
        match result {
            RefineResult::Refined { .. } => report.refinements += 1,
            RefineResult::Busy => report.busy += 1,
            RefineResult::AlreadyBound => report.already_bound += 1,
        }
        if space.membership(id) == Some(Membership::Optimal) {
            break;
        }
    }
    // End-of-activation maintenance: refresh one stale snapshot piece (so
    // the first unlucky reader stops paying the copy), rebuild the point
    // membership filter if delete churn degraded it, and republish the
    // plan-time statistics the refinements invalidated.
    if handle.refresh_snapshot() {
        report.snapshot_refreshes += 1;
    }
    if handle.maybe_rebuild_filter() {
        report.filter_rebuilds += 1;
    }
    handle.publish_plan_stats();
    report.duration = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HolisticConfig;
    use crate::handle::CrackerHandle;
    use holix_cracking::CrackerColumn;
    use rand::prelude::*;
    use std::sync::Arc;

    fn space_with_column(n: usize) -> IndexSpace {
        let space = IndexSpace::new(HolisticConfig::default());
        let base: Vec<i64> = (0..n as i64).rev().collect();
        let handle = Arc::new(CrackerHandle::new(Arc::new(CrackerColumn::from_base(
            "a", &base,
        ))));
        space.register_actual(handle);
        space
    }

    #[test]
    fn empty_space_reports_nothing_picked() {
        let space = IndexSpace::new(HolisticConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let r = idle_function(&space, 16, 8, &mut rng);
        assert!(!r.picked);
        assert_eq!(r.refinements, 0);
    }

    #[test]
    fn performs_x_refinements() {
        let space = space_with_column(100_000);
        let mut rng = StdRng::seed_from_u64(2);
        let r = idle_function(&space, 16, 8, &mut rng);
        assert!(r.picked);
        // On an unlatched fresh column almost every pivot splits a piece.
        assert!(r.refinements + r.already_bound == 16, "{r:?}");
        assert!(r.refinements >= 12);
    }

    #[test]
    fn stops_at_optimal() {
        // Column small enough that a handful of cracks reaches |L1| pieces.
        let space = space_with_column(8_192);
        let mut rng = StdRng::seed_from_u64(3);
        let mut total = 0;
        for _ in 0..50 {
            let r = idle_function(&space, 16, 8, &mut rng);
            total += r.refinements;
            if !r.picked {
                break;
            }
        }
        // 8192 i64 values: optimal at avg piece ≤ 4096 values → 1 split.
        assert!(total >= 1);
        let (_, _, optimal, _) = space.membership_counts();
        assert_eq!(optimal, 1);
        // Once optimal, nothing remains pickable.
        let r = idle_function(&space, 16, 8, &mut rng);
        assert!(!r.picked);
    }

    #[test]
    fn idle_function_refreshes_stale_snapshots() {
        // A coarse published snapshot over a column the workers keep
        // cracking finer: end-of-activation maintenance must refresh the
        // snapshot's piece table in the background, so the first reader
        // stops paying the copy.
        let space = IndexSpace::new(HolisticConfig::default());
        let base: Vec<i64> = (0..100_000i64).rev().collect();
        let col = std::sync::Arc::new(CrackerColumn::from_base("a", &base));
        let mut scratch = holix_cracking::CrackScratch::new();
        col.snapshot_scan(
            holix_storage::select::Predicate::range(0, 100_000),
            &mut scratch,
        );
        let coarse = col.snapshot_piece_count();
        space.register_actual(Arc::new(CrackerHandle::new(Arc::clone(&col))));
        let mut rng = StdRng::seed_from_u64(9);
        let mut refreshes = 0;
        for _ in 0..50 {
            let r = idle_function(&space, 8, 8, &mut rng);
            refreshes += r.snapshot_refreshes;
            if !r.picked {
                break;
            }
        }
        assert!(refreshes > 0, "workers never refreshed the snapshot");
        assert!(
            col.snapshot_piece_count() > coarse,
            "snapshot piece table did not chase the refinements \
             ({} vs coarse {coarse})",
            col.snapshot_piece_count()
        );
    }

    #[test]
    fn idle_function_rebuilds_a_churned_point_filter() {
        // A published point filter over a column that then absorbs heavy
        // delete churn: end-of-activation maintenance must rebuild the
        // filter (deleted keys never leave a Bloom filter) and reset the
        // churn accounting.
        let space = IndexSpace::new(HolisticConfig::default());
        let base: Vec<i64> = (0..100_000i64).rev().collect();
        let col = Arc::new(CrackerColumn::from_base("a", &base));
        col.ensure_point_filter();
        for v in 0..30_000i64 {
            col.queue_delete(v, v as u32);
        }
        assert!(col.point_filter_staleness() >= 30_000);
        space.register_actual(Arc::new(CrackerHandle::new(Arc::clone(&col))));
        let mut rng = StdRng::seed_from_u64(11);
        let mut rebuilds = 0;
        for _ in 0..50 {
            let r = idle_function(&space, 8, 8, &mut rng);
            rebuilds += r.filter_rebuilds;
            if !r.picked {
                break;
            }
        }
        assert!(rebuilds > 0, "workers never rebuilt the churned filter");
        assert_eq!(
            col.point_filter_staleness(),
            0,
            "rebuild did not reset the churn accounting"
        );
        // The fresh filter still proves absence for never-inserted values.
        assert_eq!(col.probe_point(-5), Some(false));
    }

    #[test]
    fn stats_recorded_per_outcome() {
        let space = space_with_column(100_000);
        let mut rng = StdRng::seed_from_u64(4);
        idle_function(&space, 8, 8, &mut rng);
        let id = space.live_ids()[0];
        let (_, stats) = space.get(id).unwrap();
        assert!(stats.worker_refinements() > 0);
        assert_eq!(stats.queries(), 0);
    }
}
