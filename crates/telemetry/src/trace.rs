//! Bounded lock-free per-query trace ring.
//!
//! One [`QueryTrace`] per query lifecycle: admit decision → queue wait →
//! batch/coalesce → route taken → crack estimate → completion, with
//! the shard-plan version and the predicted-vs-actual `PlanCost` residual
//! attached. The ring is a fixed array of seqlock slots: a writer claims a
//! ticket with one `fetch_add`, marks the slot's sequence odd, copies the
//! `Copy` record in, and publishes the even sequence. Readers validate the
//! sequence pair and simply skip torn slots — tracing never blocks or
//! allocates on the query path, and memory is bounded at
//! `capacity × size_of::<QueryTrace>()`.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// How admission control disposed of the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Admitted into the queue.
    Queued,
    /// Cheap query executed inline at submission (admission bypass).
    Inline,
    /// Expensive query downgraded to an inline snapshot scan.
    Downgraded,
    /// Load-shed (rejected).
    Shed,
}

/// How batching disposed of the query relative to its batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalesceKind {
    /// Executed on its own.
    Solo,
    /// Duplicate predicate answered by another run in the batch.
    Duplicate,
    /// Contained predicate answered by post-filtering a superset run.
    Containment,
}

/// Which execution path served the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRoute {
    /// Locked crack-and-refine path.
    Locked,
    /// Lock-free snapshot path.
    Snapshot,
    /// Answered entirely by a point-filter screen.
    Screened,
}

/// One query's lifecycle record. `Copy` so seqlock slots can tear-check a
/// plain memcpy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTrace {
    /// Monotone ticket (global order of completion records).
    pub seq: u64,
    /// Attribute / column index the predicate targeted.
    pub attr: u32,
    /// Admission decision.
    pub admit: AdmitOutcome,
    /// Queue wait (enqueue → drain), ns.
    pub queue_wait_ns: u64,
    /// Queries drained in the same batch.
    pub batch_len: u32,
    /// Batch coalescing outcome.
    pub coalesce: CoalesceKind,
    /// Execution route taken.
    pub route: TraceRoute,
    /// Shard-plan version the query executed against.
    pub plan_version: u64,
    /// Planner's predicted service time, ns (0 when cost-blind).
    pub predicted_ns: u64,
    /// Measured service time, ns.
    pub actual_ns: u64,
    /// Planner's crack-work estimate (values to partition).
    pub crack_values: u64,
}

impl QueryTrace {
    /// Signed predicted-vs-actual residual, ns (positive ⇒ over-predicted).
    pub fn residual_ns(&self) -> i64 {
        self.predicted_ns as i64 - self.actual_ns as i64
    }
}

const EMPTY: QueryTrace = QueryTrace {
    seq: 0,
    attr: 0,
    admit: AdmitOutcome::Queued,
    queue_wait_ns: 0,
    batch_len: 0,
    coalesce: CoalesceKind::Solo,
    route: TraceRoute::Locked,
    plan_version: 0,
    predicted_ns: 0,
    actual_ns: 0,
    crack_values: 0,
};

struct Slot {
    /// 0 = never written; odd = write in progress; even = ticket*2+2.
    seq: AtomicU64,
    data: UnsafeCell<QueryTrace>,
}

/// Bounded lock-free ring of [`QueryTrace`] records.
pub struct TraceRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

// The UnsafeCell is guarded by the per-slot seqlock protocol.
unsafe impl Sync for TraceRing {}
unsafe impl Send for TraceRing {}

impl TraceRing {
    /// `capacity` is rounded up to a power of two (min 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        TraceRing {
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    data: UnsafeCell::new(EMPTY),
                })
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Records one trace; `trace.seq` is overwritten with the claimed
    /// ticket. Wait-free for writers (one `fetch_add`, two stores, one
    /// memcpy). A writer stalled for a full ring revolution can race
    /// another writer on the same slot; readers detect the torn slot via
    /// the sequence pair and skip it.
    pub fn record(&self, mut trace: QueryTrace) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        trace.seq = ticket;
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        slot.seq.store(ticket * 2 + 1, Ordering::Release);
        // Order the payload store after the odd mark.
        std::sync::atomic::fence(Ordering::Release);
        unsafe {
            *slot.data.get() = trace;
        }
        slot.seq.store(ticket * 2 + 2, Ordering::Release);
    }

    /// Tickets issued so far (= traces ever recorded).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Snapshot of currently readable records, oldest first. Torn or
    /// never-written slots are skipped.
    pub fn snapshot(&self) -> Vec<QueryTrace> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            std::sync::atomic::fence(Ordering::Acquire);
            let data = unsafe { *slot.data.get() };
            std::sync::atomic::fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Acquire);
            if s1 == s2 && data.seq * 2 + 2 == s2 {
                out.push(data);
            }
        }
        out.sort_by_key(|t| t.seq);
        out
    }

    /// The `n` most recent readable records, oldest first.
    pub fn recent(&self, n: usize) -> Vec<QueryTrace> {
        let mut all = self.snapshot();
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn t(attr: u32, actual: u64) -> QueryTrace {
        QueryTrace {
            attr,
            actual_ns: actual,
            ..EMPTY
        }
    }

    #[test]
    fn records_and_reads_back_in_order() {
        let ring = TraceRing::new(16);
        for i in 0..10 {
            ring.record(t(i, i as u64 * 100));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 10);
        for (i, tr) in snap.iter().enumerate() {
            assert_eq!(tr.seq, i as u64);
            assert_eq!(tr.attr, i as u32);
        }
    }

    #[test]
    fn ring_wraps_keeping_most_recent() {
        let ring = TraceRing::new(8);
        for i in 0..100u32 {
            ring.record(t(i, 0));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8);
        assert_eq!(snap.first().unwrap().attr, 92);
        assert_eq!(snap.last().unwrap().attr, 99);
        assert_eq!(ring.recent(3).len(), 3);
        assert_eq!(ring.recent(3)[2].attr, 99);
        assert_eq!(ring.recorded(), 100);
    }

    #[test]
    fn concurrent_writers_and_readers_never_tear() {
        // Writers stamp attr == low bits of actual_ns; any torn read would
        // break the invariant. Readers continuously snapshot meanwhile.
        let ring = Arc::new(TraceRing::new(64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let ring = Arc::clone(&ring);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let tag = (w as u64) << 32 | i;
                        ring.record(QueryTrace {
                            attr: w,
                            actual_ns: tag,
                            predicted_ns: tag,
                            ..EMPTY
                        });
                        i += 1;
                    }
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(150);
        while std::time::Instant::now() < deadline {
            for tr in ring.snapshot() {
                assert_eq!(tr.actual_ns, tr.predicted_ns, "torn record: {tr:?}");
                assert_eq!(tr.attr as u64, tr.actual_ns >> 32, "torn record: {tr:?}");
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn residual_is_signed() {
        let mut tr = EMPTY;
        tr.predicted_ns = 100;
        tr.actual_ns = 250;
        assert_eq!(tr.residual_ns(), -150);
    }
}
