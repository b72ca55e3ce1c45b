//! Eviction races: a storage budget of about two and a half attributes
//! keeps evicting single shards while concurrent readers, point probes and
//! an inserter touch every attribute, the replanner runs every millisecond
//! and the daemon refines in the background.
//!
//! Each read rebuilds only the evicted shards its predicate (or its
//! update's value) reaches, so rebuilds, replans and daemon refinements
//! race on shards of the same attribute. Range and point answers over the
//! base domain are checked exactly against a sorted copy of the base
//! column throughout: inserts land outside that domain, so eviction
//! (which rebuilds from the base rows and drops what a shard absorbed)
//! never changes a base-domain answer. Reads of the insert domain are
//! band-checked: they can lose inserts to eviction, never invent them.

use holix::engine::{Dataset, HolisticEngine, HolisticEngineConfig, QueryEngine};
use holix::workloads::data::uniform_table;
use holix::workloads::QuerySpec;
use rand::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const ATTRS: usize = 5;
const ROWS: usize = 40_000;
const SHARDS: usize = 4;
const DOMAIN: i64 = 1 << 20;
const READS: usize = 1_500;
const INSERTS: usize = 3_000;

/// Rows with `lo <= v < hi` in a sorted column.
fn count(sorted: &[i64], lo: i64, hi: i64) -> u64 {
    (sorted.partition_point(|&v| v < hi) - sorted.partition_point(|&v| v < lo)) as u64
}

fn config(budget: Option<usize>) -> HolisticEngineConfig {
    let mut cfg = HolisticEngineConfig::split_half_sharded(2, SHARDS);
    cfg.holistic.monitor_interval = Duration::from_millis(1);
    cfg.holistic.storage_budget = budget;
    cfg.replan = true;
    cfg
}

/// Bytes one fully materialised attribute charges against the budget,
/// its published snapshots included.
fn attribute_bytes(data: &Dataset) -> usize {
    let probe = HolisticEngine::new(data.clone(), config(None));
    let whole = QuerySpec {
        attr: 0,
        lo: 0,
        hi: DOMAIN,
    };
    probe.execute_snapshot(&whole);
    let bytes = probe.space().bytes_used();
    probe.stop();
    bytes
}

/// A random base-domain range: mostly narrow, sometimes spanning shards.
fn range(rng: &mut StdRng) -> (i64, i64) {
    let width = if rng.random_bool(0.2) {
        rng.random_range(DOMAIN / 4..DOMAIN / 2)
    } else {
        DOMAIN / 100
    };
    let lo = rng.random_range(0..DOMAIN - width);
    (lo, lo + width)
}

#[test]
fn shard_rebuilds_race_reads_inserts_replans_and_the_daemon() {
    let data = Dataset::new(uniform_table(ATTRS, ROWS, DOMAIN, 91));
    let budget = attribute_bytes(&data) * 5 / 2;
    let eng = HolisticEngine::new(data.clone(), config(Some(budget)));
    let sorted: Vec<Vec<i64>> = (0..ATTRS)
        .map(|a| {
            let mut col = data.column(a).to_vec();
            col.sort_unstable();
            col
        })
        .collect();
    let inserted: Vec<AtomicU64> = (0..ATTRS).map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|s| {
        // Two range readers, exact against the base: one over every
        // attribute, one hammering attr 0's lowest eighth, whose access
        // heat makes the replanner split the shards there while the first
        // reader's traffic evicts and rebuilds attr 0's other shards.
        for t in 0..2u64 {
            let (eng, sorted) = (&eng, &sorted);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + t);
                for i in 0..READS {
                    let (attr, (lo, hi)) = if t == 0 {
                        (rng.random_range(0..ATTRS), range(&mut rng))
                    } else {
                        let lo = rng.random_range(0..DOMAIN / 8);
                        (0, (lo, lo + DOMAIN / 100))
                    };
                    let q = QuerySpec { attr, lo, hi };
                    let want = count(&sorted[attr], lo, hi);
                    if i % 3 == 0 {
                        let (got, _) = eng.execute_snapshot(&q).expect("snapshots supported");
                        assert_eq!(got, want, "snapshot {q:?}");
                    } else {
                        assert_eq!(eng.execute(&q), want, "range {q:?}");
                    }
                }
            });
        }
        // Point prober: present and absent equality probes plus IN lists,
        // each touching only the shard owning the value.
        {
            let (eng, sorted) = (&eng, &sorted);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(200);
                for _ in 0..READS {
                    let attr = rng.random_range(0..ATTRS);
                    let col = &sorted[attr];
                    let v = if rng.random_bool(0.5) {
                        col[rng.random_range(0..col.len())]
                    } else {
                        rng.random_range(0..DOMAIN)
                    };
                    let q = QuerySpec {
                        attr,
                        lo: v,
                        hi: v + 1,
                    };
                    assert_eq!(eng.execute(&q), count(col, v, v + 1), "point {q:?}");
                    let list = [v, col[rng.random_range(0..col.len())], v + 7];
                    let mut uniq = list.to_vec();
                    uniq.sort_unstable();
                    uniq.dedup();
                    let want: u64 = uniq.iter().map(|&x| count(col, x, x + 1)).sum();
                    assert_eq!(eng.execute_points(attr, &list), Some(want), "in {list:?}");
                }
            });
        }
        // Inserter: values outside the base domain — below it they pile
        // into each attribute's lowest shard (the one the hot reader's
        // replans split and seal), above it into the top shard. Reads of
        // the insert domain may lose inserts to eviction but never see
        // more than were queued.
        {
            let (eng, inserted) = (&eng, &inserted);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(300);
                for i in 0..INSERTS {
                    let attr = rng.random_range(0..ATTRS);
                    let v = if i % 2 == 0 {
                        DOMAIN + rng.random_range(0..DOMAIN)
                    } else {
                        -1 - rng.random_range(0..DOMAIN)
                    };
                    inserted[attr].fetch_add(1, Ordering::SeqCst);
                    eng.queue_insert(attr, v, (ROWS + i) as u32);
                    if i % 16 == 0 {
                        let (below, above) = (
                            QuerySpec {
                                attr,
                                lo: -DOMAIN,
                                hi: 0,
                            },
                            QuerySpec {
                                attr,
                                lo: DOMAIN,
                                hi: 2 * DOMAIN,
                            },
                        );
                        let got = eng.execute(&below) + eng.execute(&above);
                        let queued = inserted[attr].load(Ordering::SeqCst);
                        assert!(got <= queued, "{got} inserts seen, {queued} queued");
                    }
                }
            });
        }
    });

    // Quiesced: every attribute still answers the base domain exactly.
    let mut rng = StdRng::seed_from_u64(400);
    for (attr, col) in sorted.iter().enumerate() {
        for _ in 0..8 {
            let (lo, hi) = range(&mut rng);
            let q = QuerySpec { attr, lo, hi };
            assert_eq!(eng.execute(&q), count(col, lo, hi), "{q:?}");
        }
    }
    let (actual, potential, optimal, dropped) = eng.space().membership_counts();
    assert!(dropped > 0, "the budget never evicted anything");
    // Live entries are only the current slots' shards: at most every
    // attribute's current shard count.
    let shards: usize = (0..ATTRS).map(|a| eng.plan_epoch(a).plan.shards()).sum();
    assert!(
        actual + potential + optimal <= shards,
        "orphaned live entries: {} for {shards} shards",
        actual + potential + optimal
    );
    eng.stop();
}
