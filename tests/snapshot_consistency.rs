//! Snapshot-epoch consistency under full interference (§5.7 grown to the
//! lock-free read path): concurrent snapshot scans must observe the exact
//! base multiset plus the net applied inserts/deletes — never a torn
//! intermediate — while query-driven cracks, background refinements
//! (piece splits) and Ripple merges run against the same shards; and
//! retired snapshot segments must actually be reclaimed once the last
//! pinned epoch drops.
//!
//! The mid-race oracle uses constant-value update streams: one updater
//! inserts only `VA`, another deletes only pre-merged `VB` tuples. Any
//! *consistent* point-in-time view then satisfies a linear system —
//! `count = base + M + i - d`, `sum = base_sum + M·VB + i·VA - d·VB` —
//! whose integer solution `(i, d)` must fall inside the per-updater
//! progress windows read around the scan. A torn scan (a Ripple shift
//! observed halfway, an insert counted in both snapshot and pending, a
//! half-published splice) breaks the coupling and fails the solve.

use holix::cracking::{CrackScratch, ShardPlan, ShardedColumn, SnapshotScan};
use holix::storage::select::{scan_stats, Predicate, RangeStats};
use holix::storage::types::RowId;
use rand::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

const N: usize = 60_000;
const DOMAIN: i64 = 100_000;
/// Inserted by updater A (inside the scanned domain).
const VA: i64 = 41_000;
/// Pre-merged tuples deleted by updater B.
const VB: i64 = 59_000;
/// Pre-merged `VB` tuples available for deletion.
const M: usize = 400;
/// A value band no updater ever touches (exact-equality scans).
const QUIET: (i64, i64) = (70_000, 90_000);

fn base_data(seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N)
        .map(|_| {
            // Keep the base clear of the sentinel update values so the
            // accounting attributes every VA/VB tuple to an updater.
            loop {
                let v = rng.random_range(0..DOMAIN);
                if v != VA && v != VB {
                    return v;
                }
            }
        })
        .collect()
}

/// Locked select on every intersecting shard (merges pending + cracks);
/// count-only, safe under concurrent updates (unlike `select_verified`,
/// whose checksum re-lock is documented as caller-synchronised).
fn select_all(col: &ShardedColumn<i64>, pred: Predicate<i64>, scratch: &mut CrackScratch<i64>) {
    for (_, shard, p) in col.fan_out(pred) {
        shard.select(p, scratch);
    }
}

/// Locked select plus exclusive checksum on every intersecting shard.
fn select_verified(
    col: &ShardedColumn<i64>,
    pred: Predicate<i64>,
    scratch: &mut CrackScratch<i64>,
) -> RangeStats {
    let mut stats = RangeStats::default();
    for (_, shard, p) in col.fan_out(pred) {
        stats.merge(shard.select_verified(p, scratch).1);
    }
    stats
}

/// Lock-free snapshot scan of every intersecting shard (one epoch pin
/// per shard), merged.
fn snapshot_scan(
    col: &ShardedColumn<i64>,
    pred: Predicate<i64>,
    scratch: &mut CrackScratch<i64>,
) -> SnapshotScan {
    let mut out = SnapshotScan::default();
    for (_, shard, p) in col.fan_out(pred) {
        let scan = shard.snapshot_scan(p, scratch);
        out.count += scan.count;
        out.sum += scan.sum;
        out.filtered += scan.filtered;
    }
    out
}

/// Lock-free collect of every intersecting shard's qualifying values.
fn snapshot_collect(
    col: &ShardedColumn<i64>,
    pred: Predicate<i64>,
    scratch: &mut CrackScratch<i64>,
    out: &mut Vec<i64>,
) {
    for (_, shard, p) in col.fan_out(pred) {
        shard.snapshot_collect(p, scratch, out);
    }
}

#[test]
fn snapshot_scans_observe_exact_multisets_under_interference() {
    let base = base_data(0xB0);
    let plan = ShardPlan::from_values(&base, 4);
    let col = ShardedColumn::from_base_with_plan("stress", &base, plan);
    let base_full = scan_stats(&base, Predicate::range(0, DOMAIN));

    // Pre-merge M deletable VB tuples.
    {
        let mut scratch = CrackScratch::new();
        for i in 0..M {
            col.queue_insert(VB, (N + i) as RowId);
        }
        select_verified(&col, Predicate::range(VB - 1, VB + 1), &mut scratch);
        assert_eq!(col.pending_len(), 0, "VB seed tuples must be merged");
    }

    let inserted = AtomicUsize::new(0); // updater A progress (applied VA inserts)
    let deleted = AtomicUsize::new(0); // updater B progress (applied VB deletes)

    crossbeam::thread::scope(|s| {
        // Updater A: insert VA, force the Ripple merge via a narrow locked
        // select, then publish progress.
        {
            let col = &col;
            let inserted = &inserted;
            s.spawn(move |_| {
                let mut scratch = CrackScratch::new();
                for i in 0..250usize {
                    col.queue_insert(VA, (N + M + i) as RowId);
                    // `select` (not select_verified): the verified checksum
                    // re-locks and is documented unsafe vs concurrent
                    // updates; the plain select still forces the merge.
                    select_all(col, Predicate::range(VA - 3, VA + 3), &mut scratch);
                    inserted.fetch_add(1, SeqCst);
                }
            });
        }
        // Updater B: delete one pre-merged VB tuple at a time.
        {
            let col = &col;
            let deleted = &deleted;
            s.spawn(move |_| {
                let mut scratch = CrackScratch::new();
                for i in 0..M {
                    col.queue_delete(VB, (N + i) as RowId);
                    select_all(col, Predicate::range(VB - 3, VB + 3), &mut scratch);
                    deleted.fetch_add(1, SeqCst);
                }
            });
        }
        // Cracker: locked selects over random ranges (cracks + merges).
        {
            let col = &col;
            s.spawn(move |_| {
                let mut rng = StdRng::seed_from_u64(0xC1);
                let mut scratch = CrackScratch::new();
                for _ in 0..300 {
                    let a = rng.random_range(0..DOMAIN);
                    let b = rng.random_range(0..DOMAIN);
                    select_all(
                        col,
                        Predicate::range(a.min(b), a.max(b).max(a.min(b) + 1)),
                        &mut scratch,
                    );
                }
            });
        }
        // Refiners: background piece splits on every shard.
        for t in 0..2u64 {
            let col = &col;
            s.spawn(move |_| {
                let mut rng = StdRng::seed_from_u64(0xD0 + t);
                let mut scratch = CrackScratch::new();
                for _ in 0..400 {
                    for k in 0..col.shard_count() {
                        col.shard(k).refine_random(&mut rng, &mut scratch, 4);
                    }
                }
            });
        }
        // Snapshot scanners: full-domain solves + quiet-band exact checks.
        for t in 0..2u64 {
            let col = &col;
            let inserted = &inserted;
            let deleted = &deleted;
            let base = &base;
            let base_full = &base_full;
            s.spawn(move |_| {
                let mut rng = StdRng::seed_from_u64(0xE0 + t);
                let mut scratch = CrackScratch::new();
                for round in 0..250 {
                    // Progress windows bracketing the scan.
                    let i_lo = inserted.load(SeqCst) as i128;
                    let d_lo = deleted.load(SeqCst) as i128;
                    let scan = snapshot_scan(col, Predicate::range(0, DOMAIN), &mut scratch);
                    let i_hi = inserted.load(SeqCst) as i128 + 1; // +1: merge may precede counter bump
                    let d_hi = deleted.load(SeqCst) as i128 + 1;

                    // Solve the 2x2 system for (i, d).
                    let count_delta = scan.count as i128 - base_full.count as i128 - M as i128;
                    let sum_delta = scan.sum - base_full.sum - (M as i128) * (VB as i128);
                    // count_delta = i - d; sum_delta = i*VA - d*VB
                    // => i = (sum_delta - count_delta*VB) / (VA - VB)
                    let num = sum_delta - count_delta * (VB as i128);
                    let den = (VA - VB) as i128;
                    assert_eq!(
                        num % den,
                        0,
                        "torn snapshot: non-integral insert count (round {round}, \
                         count={}, sum={})",
                        scan.count,
                        scan.sum
                    );
                    let i = num / den;
                    let d = i - count_delta;
                    assert!(
                        (i_lo..=i_hi).contains(&i) && (d_lo..=d_hi).contains(&d),
                        "inconsistent snapshot: solved i={i} d={d} outside windows \
                         [{i_lo},{i_hi}] / [{d_lo},{d_hi}] (round {round})"
                    );

                    // Quiet band: no updates land there, so the scan must
                    // equal the static base oracle *exactly*, mid-race.
                    let a = rng.random_range(QUIET.0..QUIET.1 - 1);
                    let b = rng.random_range(a + 1..QUIET.1);
                    let pred = Predicate::range(a, b);
                    let quiet = snapshot_scan(col, pred, &mut scratch);
                    let oracle = scan_stats(base, pred);
                    assert_eq!(
                        (quiet.count, quiet.sum),
                        (oracle.count, oracle.sum),
                        "quiet-band scan diverged (round {round}, pred [{a},{b}))"
                    );
                }
            });
        }
    })
    .unwrap();

    // Quiesce: merge everything, then all read paths agree exactly.
    let mut scratch = CrackScratch::new();
    for k in 0..col.shard_count() {
        col.shard(k).merge_pending_range(i64::MIN, i64::MAX);
    }
    let full = Predicate::range(0, DOMAIN);
    let scan = snapshot_scan(&col, full, &mut scratch);
    let locked = select_verified(&col, full, &mut scratch);
    assert_eq!((scan.count, scan.sum), (locked.count, locked.sum));
    let i = inserted.load(SeqCst) as i128;
    let d = deleted.load(SeqCst) as i128;
    assert_eq!(
        scan.count as i128,
        base_full.count as i128 + M as i128 + i - d
    );
    assert_eq!(
        scan.sum,
        base_full.sum + (M as i128 - d) * VB as i128 + i * VA as i128
    );
    // Collect agrees with the final multiset too.
    let mut got = Vec::new();
    snapshot_collect(&col, full, &mut scratch, &mut got);
    assert_eq!(got.len() as u64, scan.count);

    for k in 0..col.shard_count() {
        col.shard(k).check_invariants(None);
    }
}

#[test]
fn retired_segments_are_reclaimed_after_last_pin_drops() {
    let base = base_data(0xB1);
    let plan = ShardPlan::from_values(&base, 2);
    let col = ShardedColumn::from_base_with_plan("reclaim", &base, plan);
    let mut scratch = CrackScratch::new();
    let full = Predicate::range(0, DOMAIN);
    snapshot_scan(&col, full, &mut scratch); // publish both shards

    let column_bytes = N * std::mem::size_of::<i64>();
    let bytes = |col: &ShardedColumn<i64>| -> usize {
        (0..col.shard_count())
            .map(|k| col.shard(k).snapshot_bytes())
            .sum()
    };

    // Crack-heavy update loop: every merge splices + retires a snapshot.
    let mut rng = StdRng::seed_from_u64(0xF0);
    for i in 0..150 {
        let v = rng.random_range(0..DOMAIN);
        col.queue_insert(v, (N + i) as RowId);
        select_verified(&col, Predicate::range(v - 2, v + 2), &mut scratch);
        for k in 0..col.shard_count() {
            col.shard(k).refine_random(&mut rng, &mut scratch, 2);
        }
        snapshot_scan(&col, full, &mut scratch);
    }
    for k in 0..col.shard_count() {
        col.shard(k).snapshot_gc();
    }
    let settled = bytes(&col);
    assert!(
        settled <= 2 * column_bytes,
        "snapshot memory grew without bound: {settled} B vs {column_bytes} B column"
    );

    // A pinned epoch on shard 0 holds every snapshot version retired after
    // it — memory climbs while the pin lives …
    let guard = col.shard(0).snapshot_pin();
    for i in 0..60 {
        let v = rng.random_range(0..DOMAIN / 2); // land updates in shard 0's range
        col.queue_insert(v, (N + 1_000 + i) as RowId);
        select_verified(&col, Predicate::range(v - 2, v + 2), &mut scratch);
    }
    for k in 0..col.shard_count() {
        col.shard(k).snapshot_gc();
    }
    let pinned = bytes(&col);
    assert!(
        pinned > settled,
        "pinned epoch did not retain retired segments ({pinned} vs {settled})"
    );
    // … and falls back once the pin drops and a collection runs.
    drop(guard);
    let freed: usize = (0..col.shard_count())
        .map(|k| col.shard(k).snapshot_gc())
        .sum();
    assert!(freed > 0, "nothing reclaimed after the last pin dropped");
    let after = bytes(&col);
    assert!(
        after <= 2 * column_bytes,
        "retired segments not freed after unpin: {after} B"
    );
    assert!(after < pinned);
}
