//! Per-shard snapshot epochs: an immutable piece-table snapshot published
//! through an atomic pointer, reclaimed with epoch-based garbage collection.
//!
//! ## Why snapshots can be cheap here
//!
//! A crack only *permutes values inside one piece* — the multiset of values
//! per value range never changes. Snapshot scans (count / sum / collect of
//! qualifying **values**) therefore stay correct across arbitrary concurrent
//! cracks and piece splits; only a **Ripple merge** (insert/delete) changes
//! a piece's multiset, and merges already run under the column's exclusive
//! structure lock. So the write side replaces a snapshot copy-on-write at
//! piece granularity exactly when a merge lands, sharing the `Arc`'d
//! [`Segment`]s of every untouched piece, and readers run with **no
//! structure lock at all**. A segment is a plain copy of one live piece's
//! values: fully covered pieces answer from a precomputed sum, and the two
//! edge pieces of a range go through the lane filter in [`crate::kernels`].
//!
//! ## Reclamation
//!
//! Readers cannot safely clone an `Arc` out of a bare `AtomicPtr` (the
//! pointee may die between load and refcount bump), so each column owns an
//! [`EpochDomain`]: readers *pin* the current epoch into a slot, dereference
//! the published pointer while pinned, and unpin. Writers swap the pointer
//! and *retire* the old snapshot stamped with the current epoch; retired
//! snapshots (and through their `Arc`s, the segments only they reference)
//! free once every pinned slot has moved past the stamp — i.e. only after
//! the last pinned reader drops. Publication and pointer loads are both
//! performed under the column's short pending-updates mutex, which doubles
//! as the linearisation point between a snapshot and its not-yet-merged
//! pending updates; the epoch machinery only has to protect the
//! *dereference* after that mutex is released.

use crate::kernels;
use holix_storage::select::Predicate;
use holix_storage::types::CrackValue;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

/// Pin slots per domain. Readers pin one slot for the duration of a scan;
/// with per-shard domains the concurrent-reader count per domain is small,
/// so a fixed array with CAS claiming suffices (an overfull domain spins —
/// see [`EpochDomain::pin`]).
const SLOTS: usize = 64;

/// Slot value meaning "not pinned".
const EMPTY: u64 = u64::MAX;

#[repr(align(64))]
struct Slot(AtomicU64);

/// One column's (shard's) epoch-reclamation domain.
pub struct EpochDomain {
    /// Monotone global epoch; bumped on every retire.
    global: AtomicU64,
    slots: Box<[Slot; SLOTS]>,
    /// Retired garbage stamped with the epoch at retirement.
    garbage: Mutex<Vec<(u64, Box<dyn std::any::Any + Send>)>>,
}

impl Default for EpochDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochDomain {
    /// Fresh domain: epoch 0, no pins, no garbage.
    pub fn new() -> Self {
        EpochDomain {
            global: AtomicU64::new(0),
            slots: Box::new(std::array::from_fn(|_| Slot(AtomicU64::new(EMPTY)))),
            garbage: Mutex::new(Vec::new()),
        }
    }

    /// Pins the current epoch; the returned guard keeps every object
    /// retired at-or-after the pinned epoch alive until it drops.
    ///
    /// Lock-free in the common case (one CAS on a free slot). When all
    /// slots are simultaneously pinned the caller spins until one frees —
    /// with per-shard domains and short scans this is effectively
    /// unreachable, and spinning (rather than blocking reclamation
    /// forever) keeps the safety argument trivial.
    pub fn pin(&self) -> EpochGuard<'_> {
        if holix_telemetry::metrics_enabled() {
            holix_telemetry::counter!("cracking_epoch_pins_total").inc();
        }
        loop {
            let epoch = self.global.load(SeqCst);
            for (i, slot) in self.slots.iter().enumerate() {
                if slot.0.load(SeqCst) == EMPTY
                    && slot
                        .0
                        .compare_exchange(EMPTY, epoch, SeqCst, SeqCst)
                        .is_ok()
                {
                    return EpochGuard {
                        domain: self,
                        slot: i,
                    };
                }
            }
            std::thread::yield_now();
        }
    }

    /// Retires an object: it is dropped by a later [`EpochDomain::collect`]
    /// once every epoch pinned at retirement time has been released.
    /// Advances the global epoch and opportunistically collects.
    pub fn retire(&self, object: Box<dyn std::any::Any + Send>) {
        let stamp = self.global.fetch_add(1, SeqCst);
        self.garbage.lock().push((stamp, object));
        self.collect();
    }

    /// Drops every retired object whose stamp precedes all currently
    /// pinned epochs; returns how many were freed.
    pub fn collect(&self) -> usize {
        let mut garbage = self.garbage.lock();
        let min_pinned = self
            .slots
            .iter()
            .map(|s| s.0.load(SeqCst))
            .filter(|&e| e != EMPTY)
            .min()
            .unwrap_or(u64::MAX);
        let before = garbage.len();
        // Safe to free at stamp `s` only when every pinned reader pinned
        // *after* the retirement: min_pinned > s.
        garbage.retain(|&(stamp, _)| stamp >= min_pinned);
        let freed = before - garbage.len();
        if freed > 0 && holix_telemetry::metrics_enabled() {
            holix_telemetry::counter!("cracking_epoch_gc_freed_total").add(freed as u64);
        }
        freed
    }

    /// Retired-but-not-yet-freed objects (tests / introspection).
    pub fn garbage_len(&self) -> usize {
        self.garbage.lock().len()
    }

    /// Number of currently pinned slots (tests / introspection).
    pub fn pinned(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.0.load(SeqCst) != EMPTY)
            .count()
    }
}

impl std::fmt::Debug for EpochDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochDomain")
            .field("epoch", &self.global.load(SeqCst))
            .field("pinned", &self.pinned())
            .field("garbage", &self.garbage_len())
            .finish()
    }
}

/// A pinned epoch; dropping it releases the slot.
pub struct EpochGuard<'a> {
    domain: &'a EpochDomain,
    slot: usize,
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        self.domain.slots[self.slot].0.store(EMPTY, SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Generic epoch-published cell
// ---------------------------------------------------------------------------

/// A lock-free publish/load cell for an arbitrary immutable value: an atomic
/// pointer to the current `Arc<T>` plus a private [`EpochDomain`] reclaiming
/// replaced versions. Unlike [`SnapshotCell`] (whose loads are linearised
/// under the column's pending mutex), this cell is self-contained: `load`
/// pins an epoch, clones the `Arc` out while pinned, and unpins — so readers
/// and the single/multiple publishers need no external lock at all. The
/// plan-time [`crate::piece_stats::PieceStats`] summaries are published
/// through it: `estimate()` must complete while a shard's structure write
/// lock and the daemon's maintenance mutex are both held.
pub struct EpochCell<T> {
    ptr: AtomicPtr<T>,
    epochs: EpochDomain,
}

impl<T: Send + Sync + 'static> Default for EpochCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + Sync + 'static> EpochCell<T> {
    /// Empty cell: nothing published yet.
    pub fn new() -> Self {
        EpochCell {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
            epochs: EpochDomain::new(),
        }
    }

    /// Has a value ever been published?
    pub fn is_published(&self) -> bool {
        !self.ptr.load(SeqCst).is_null()
    }

    /// Clones the current value's `Arc` out of the cell (no locks; one epoch
    /// pin for the duration of the refcount bump).
    pub fn load(&self) -> Option<Arc<T>> {
        let _guard = self.epochs.pin();
        let p = self.ptr.load(SeqCst);
        if p.is_null() {
            return None;
        }
        // SAFETY: non-null pointers originate from `Arc::into_raw` in
        // `publish`; a replaced pointer is retired into `epochs` and freed
        // only after every epoch pinned at retirement drops — the pin above
        // precedes this load, so the pointee (and its refcount word) is
        // alive for the `increment_strong_count` below.
        unsafe {
            Arc::increment_strong_count(p);
            Some(Arc::from_raw(p))
        }
    }

    /// Publishes a new value, retiring the replaced one into the epoch
    /// domain. Concurrent publishers are safe (atomic swap); last wins.
    pub fn publish(&self, new: Arc<T>) {
        let raw = Arc::into_raw(new) as *mut T;
        let old = self.ptr.swap(raw, SeqCst);
        if !old.is_null() {
            // SAFETY: `old` came from `Arc::into_raw` in a previous publish.
            let old = unsafe { Arc::from_raw(old) };
            self.epochs.retire(Box::new(old));
        }
    }

    /// Runs a reclamation cycle (tests / quiesce).
    pub fn collect(&self) -> usize {
        self.epochs.collect()
    }
}

impl<T> Drop for EpochCell<T> {
    fn drop(&mut self) {
        let p = self.ptr.load(SeqCst);
        if !p.is_null() {
            // SAFETY: pointer originates from `Arc::into_raw`; the cell is
            // being dropped, so no reader can be pinned on it.
            drop(unsafe { Arc::from_raw(p) });
        }
    }
}

// ---------------------------------------------------------------------------
// Segments and piece snapshots
// ---------------------------------------------------------------------------

/// The immutable values backing one snapshot piece: a plain copy of the
/// live piece's values, in column order. The byte counter (shared with the
/// owning column) tracks live snapshot memory: it rises by the copy's size
/// when the segment is created and falls in `Drop` — i.e. only once epoch
/// reclamation actually frees the last snapshot referencing the segment.
pub struct Segment<V> {
    data: Vec<V>,
    bytes: Arc<AtomicUsize>,
    /// Exactly what the constructor charged, so `Drop` debits
    /// symmetrically even for value types whose accounting `width()`
    /// differs from their in-memory size.
    charged: usize,
}

impl<V: CrackValue> Segment<V> {
    /// Wraps copied-out values, charging them to `bytes`.
    pub fn new(data: Vec<V>, bytes: Arc<AtomicUsize>) -> Self {
        let charged = data.len() * V::width();
        bytes.fetch_add(charged, SeqCst);
        Segment {
            data,
            bytes,
            charged,
        }
    }
}

impl<V> Drop for Segment<V> {
    fn drop(&mut self) {
        self.bytes.fetch_sub(self.charged, SeqCst);
    }
}

/// One piece of a snapshot: an unordered multiset of the values in
/// `[lo_key, hi_key)` (the lower key is implicit: the previous piece's
/// `hi_key`, or the column minimum for the first piece), with its sum
/// precomputed so fully-covered pieces answer in O(1). `Clone` shares the
/// backing segment (pointer copy, no data copy) — splices clone the
/// untouched pieces of the snapshot they replace.
#[derive(Clone)]
pub struct SnapPiece<V> {
    /// Exclusive upper boundary key; `None` = unbounded (last piece).
    pub hi_key: Option<V>,
    seg: Arc<Segment<V>>,
    /// Sum of the piece's values (widened).
    sum: i128,
}

impl<V: CrackValue> SnapPiece<V> {
    /// Builds a piece over `seg` with its aggregate.
    pub fn new(hi_key: Option<V>, seg: Arc<Segment<V>>) -> Self {
        let sum = seg.data.iter().map(|&v| v.as_i64() as i128).sum();
        SnapPiece { hi_key, seg, sum }
    }

    /// The piece's values (unordered multiset).
    pub fn values(&self) -> &[V] {
        &self.seg.data
    }

    /// Number of values in the piece.
    pub fn len(&self) -> usize {
        self.seg.data.len()
    }

    /// `true` when the piece holds no values.
    pub fn is_empty(&self) -> bool {
        self.seg.data.is_empty()
    }

    /// Count + sum of the piece's values qualifying under `[lo, hi)`
    /// (sentinel-aware, matching [`Predicate::matches_unbounded`]): the
    /// values widen into i64 lanes for the ISA-dispatched lane filter.
    fn scan_range(&self, lo: V, hi: V) -> (u64, i128) {
        // The `as_i64` map is order-preserving, so i64 comparisons agree
        // with `V`'s order; a sentinel bound means unbounded.
        let lo_b = (lo != V::MIN_VALUE).then(|| lo.as_i64());
        let hi_b = (hi != V::MAX_VALUE).then(|| hi.as_i64());
        let mut count = 0u64;
        let mut sum = 0i128;
        let mut lanes = [0i64; 256];
        for chunk in self.values().chunks(lanes.len()) {
            for (o, v) in lanes.iter_mut().zip(chunk) {
                *o = v.as_i64();
            }
            let (c, s) = kernels::filter_count(&lanes[..chunk.len()], lo_b, hi_b);
            count += c;
            sum += s;
        }
        (count, sum)
    }

    /// Appends the piece's values qualifying under `[lo, hi)`
    /// (sentinel-aware) to `out`. Returns (count, sum) of the appended
    /// values.
    fn collect_range(&self, lo: V, hi: V, out: &mut Vec<V>) -> (u64, i128) {
        let pred = Predicate { lo, hi };
        let mut count = 0u64;
        let mut sum = 0i128;
        for &v in self.values() {
            if pred.matches_unbounded(v) {
                out.push(v);
                count += 1;
                sum += v.as_i64() as i128;
            }
        }
        (count, sum)
    }
}

/// Result of one snapshot scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotScan {
    /// Qualifying-value count.
    pub count: u64,
    /// Qualifying-value sum (widened).
    pub sum: i128,
    /// Values inspected element-wise in the (at most two) edge pieces —
    /// the read path's refresh heuristic: a large filter cost means the
    /// snapshot's piece table lags the live cracker index.
    pub filtered: usize,
}

/// An immutable snapshot of one column: pieces in ascending value order,
/// jointly covering the whole domain. Piece `i` covers
/// `[pieces[i-1].hi_key, pieces[i].hi_key)`.
pub struct PieceSnapshot<V> {
    pieces: Vec<SnapPiece<V>>,
    len: usize,
}

impl<V: CrackValue> PieceSnapshot<V> {
    /// Wraps an ordered piece list.
    pub fn new(pieces: Vec<SnapPiece<V>>) -> Self {
        debug_assert!(
            pieces
                .windows(2)
                .all(|w| w[0].hi_key.is_some()
                    && (w[1].hi_key.is_none() || w[1].hi_key > w[0].hi_key))
        );
        let len = pieces.iter().map(SnapPiece::len).sum();
        PieceSnapshot { pieces, len }
    }

    /// Total values in the snapshot.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the snapshot holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ordered pieces.
    pub fn pieces(&self) -> &[SnapPiece<V>] {
        &self.pieces
    }

    /// Count + sum of values in `[lo, hi)`. Interior pieces fully covered
    /// by the range contribute their precomputed aggregates; only the edge
    /// pieces are filtered element-wise.
    pub fn stats(&self, lo: V, hi: V) -> SnapshotScan {
        let mut out = SnapshotScan::default();
        self.walk(lo, hi, |piece, covered| {
            if covered {
                out.count += piece.len() as u64;
                out.sum += piece.sum;
            } else {
                out.filtered += piece.len();
                let (c, s) = piece.scan_range(lo, hi);
                out.count += c;
                out.sum += s;
            }
        });
        out
    }

    /// Appends every value in `[lo, hi)` to `out`; returns the scan record.
    pub fn collect_into(&self, lo: V, hi: V, out: &mut Vec<V>) -> SnapshotScan {
        let mut scan = SnapshotScan::default();
        self.walk(lo, hi, |piece, covered| {
            if covered {
                out.extend_from_slice(piece.values());
                scan.count += piece.len() as u64;
                scan.sum += piece.sum;
            } else {
                scan.filtered += piece.len();
                let (c, s) = piece.collect_range(lo, hi, out);
                scan.count += c;
                scan.sum += s;
            }
        });
        scan
    }

    /// Visits every piece intersecting `[lo, hi)`; `covered` is `true` when
    /// the piece's whole value range qualifies.
    fn walk(&self, lo: V, hi: V, mut visit: impl FnMut(&SnapPiece<V>, bool)) {
        // Degenerate predicates are empty everywhere — including the
        // sentinel-valued forms `[MIN, MIN)` / `[MAX, MAX)`, which the old
        // sentinel-exception guard let through to visit edge pieces.
        if lo >= hi {
            return;
        }
        // First piece that can contain values >= lo: the first whose
        // hi_key exceeds lo.
        let first = self
            .pieces
            .partition_point(|p| p.hi_key.is_some_and(|k| k <= lo));
        let mut piece_lo: Option<V> = if first == 0 {
            None
        } else {
            self.pieces[first - 1].hi_key
        };
        for piece in &self.pieces[first..] {
            // Stop once the piece's lower key is at or past the upper bound.
            if hi != V::MAX_VALUE && piece_lo.is_some_and(|k| k >= hi) {
                break;
            }
            let lo_covered = lo == V::MIN_VALUE || piece_lo.is_some_and(|k| k >= lo);
            let hi_covered = hi == V::MAX_VALUE || piece.hi_key.is_some_and(|k| k <= hi);
            visit(piece, lo_covered && hi_covered);
            piece_lo = piece.hi_key;
        }
    }
}

impl<V: CrackValue> std::fmt::Debug for PieceSnapshot<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PieceSnapshot")
            .field("pieces", &self.pieces.len())
            .field("len", &self.len)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Published snapshot cell
// ---------------------------------------------------------------------------

/// The column's published-snapshot slot: an atomic pointer to the current
/// [`PieceSnapshot`] plus the epoch domain that reclaims replaced ones.
///
/// Protocol (enforced by `CrackerColumn`): all `swap`s and all `load`s run
/// under the column's pending-updates mutex; readers pin an epoch *before*
/// taking that mutex and keep the guard alive for as long as they use the
/// returned reference.
pub struct SnapshotCell<V> {
    ptr: AtomicPtr<PieceSnapshot<V>>,
    epochs: EpochDomain,
}

impl<V: CrackValue> Default for SnapshotCell<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: CrackValue> SnapshotCell<V> {
    /// Empty cell: no snapshot published yet.
    pub fn new() -> Self {
        SnapshotCell {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
            epochs: EpochDomain::new(),
        }
    }

    /// The reclamation domain (pin before loading).
    pub fn epochs(&self) -> &EpochDomain {
        &self.epochs
    }

    /// Has a snapshot ever been published?
    pub fn is_published(&self) -> bool {
        !self.ptr.load(SeqCst).is_null()
    }

    /// Dereferences the current snapshot under a pinned epoch. The
    /// reference lives as long as the guard.
    pub fn load<'g>(&self, _guard: &'g EpochGuard<'_>) -> Option<&'g PieceSnapshot<V>> {
        let p = self.ptr.load(SeqCst);
        // SAFETY: non-null pointers in the cell are live `Arc` allocations;
        // a swap retires the old value into `epochs`, and retired memory is
        // only freed once every epoch pinned at retirement drops — `_guard`
        // was pinned before this load, so the pointee outlives it.
        unsafe { p.as_ref() }
    }

    /// Reads the current snapshot from inside a critical section of the
    /// column's pending mutex — the lock every [`SnapshotCell::swap`] runs
    /// under. The *currently published* pointer can never be in the
    /// garbage list (only replaced pointers are retired), so it stays live
    /// for as long as the mutex is held: publishers therefore need **no
    /// epoch pin**, which keeps writers free of the pin-slot spin and its
    /// reader-induced stall while they hold the structure lock.
    ///
    /// Crate-private on purpose: the returned reference must not outlive
    /// the caller's pending-mutex guard, and only `CrackerColumn` can
    /// uphold that.
    pub(crate) fn load_publisher(&self) -> Option<&PieceSnapshot<V>> {
        let p = self.ptr.load(SeqCst);
        // SAFETY: see doc comment — the caller's pending-mutex guard
        // excludes every swap, and the current pointer is never retired.
        unsafe { p.as_ref() }
    }

    /// Publishes `new` and returns the replaced snapshot, which the caller
    /// must hand to [`SnapshotCell::retire`] — *after* releasing the
    /// pending mutex: retirement runs an eager collection that can free
    /// O(column) bytes of segments, and that must not lengthen the reader
    /// linearisation lock. Deferring only moves the retirement stamp
    /// later, which delays freeing and can never unfree. Caller holds the
    /// pending mutex for the swap itself (and a structure lock for
    /// splice-building — see `CrackerColumn`).
    #[must_use = "hand the replaced snapshot to retire() outside the pending lock"]
    pub fn swap(&self, new: Arc<PieceSnapshot<V>>) -> Option<Arc<PieceSnapshot<V>>> {
        let raw = Arc::into_raw(new) as *mut PieceSnapshot<V>;
        let old = self.ptr.swap(raw, SeqCst);
        if old.is_null() {
            None
        } else {
            // SAFETY: `old` came from `Arc::into_raw` in a previous swap.
            Some(unsafe { Arc::from_raw(old) })
        }
    }

    /// Retires a snapshot returned by [`SnapshotCell::swap`] into the
    /// epoch domain (stamps, then opportunistically collects).
    pub fn retire(&self, old: Arc<PieceSnapshot<V>>) {
        self.epochs.retire(Box::new(old));
    }

    /// Runs a collection cycle on the domain (tests / quiesce).
    pub fn collect(&self) -> usize {
        self.epochs.collect()
    }
}

impl<V> Drop for SnapshotCell<V> {
    fn drop(&mut self) {
        let p = self.ptr.load(SeqCst);
        if !p.is_null() {
            // SAFETY: pointer originates from `Arc::into_raw`; the cell is
            // being dropped, so no reader can be pinned on it.
            drop(unsafe { Arc::from_raw(p) });
        }
    }
}

// SAFETY: the cell shares `PieceSnapshot`s (themselves `Send + Sync` for
// `V: CrackValue`) across threads under the epoch protocol above.
unsafe impl<V: CrackValue> Send for SnapshotCell<V> {}
unsafe impl<V: CrackValue> Sync for SnapshotCell<V> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> Arc<AtomicUsize> {
        Arc::new(AtomicUsize::new(0))
    }

    fn snapshot_of(
        pieces: Vec<(Option<i64>, Vec<i64>)>,
        bytes: &Arc<AtomicUsize>,
    ) -> PieceSnapshot<i64> {
        let pieces = pieces
            .into_iter()
            .map(|(hi, vals)| SnapPiece::new(hi, Arc::new(Segment::new(vals, Arc::clone(bytes)))))
            .collect();
        PieceSnapshot::new(pieces)
    }

    #[test]
    fn pin_blocks_collection_until_dropped() {
        let d = EpochDomain::new();
        let guard = d.pin();
        d.retire(Box::new(vec![1u8; 16]));
        assert_eq!(d.garbage_len(), 1, "pinned epoch must hold garbage");
        d.collect();
        assert_eq!(d.garbage_len(), 1);
        drop(guard);
        assert_eq!(d.collect(), 1);
        assert_eq!(d.garbage_len(), 0);
    }

    #[test]
    fn late_pin_does_not_block_older_garbage() {
        let d = EpochDomain::new();
        let early = d.pin(); // epoch 0
        d.retire(Box::new(0u8)); // stamp 0, blocked by `early`
        assert_eq!(d.garbage_len(), 1);
        // A reader pinning *after* the retire pins a later epoch …
        let late = d.pin();
        drop(early);
        // … so it does not keep the stamp-0 garbage alive.
        assert_eq!(d.collect(), 1);
        assert_eq!(d.garbage_len(), 0);
        drop(late);
    }

    #[test]
    fn retire_with_no_pins_collects_immediately() {
        let d = EpochDomain::new();
        d.retire(Box::new(0u8));
        assert_eq!(d.garbage_len(), 0);
    }

    #[test]
    fn concurrent_collects_never_free_what_a_pinned_reader_loaded() {
        use std::sync::atomic::AtomicBool;
        // A publisher swaps the current id and retires a marker whose drop
        // flags the old id as freed; readers pin, load the current id and
        // check it stays unfreed while pinned; a collector thread runs
        // bare collections beside the publisher's own. A collection must
        // never free garbage pushed after a reader it did not see pinned.
        struct Marker(Arc<Vec<AtomicBool>>, usize);
        impl Drop for Marker {
            fn drop(&mut self) {
                self.0[self.1].store(true, SeqCst);
            }
        }
        const IDS: usize = 100_000;
        let freed: Arc<Vec<AtomicBool>> =
            Arc::new((0..IDS).map(|_| AtomicBool::new(false)).collect());
        let current = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let d = EpochDomain::new();
        crossbeam::thread::scope(|s| {
            let (d, current, done) = (&d, &current, &done);
            let publisher_freed = Arc::clone(&freed);
            s.spawn(move |_| {
                for id in 1..IDS {
                    let old = current.swap(id, SeqCst);
                    d.retire(Box::new(Marker(Arc::clone(&publisher_freed), old)));
                }
                done.store(true, SeqCst);
            });
            s.spawn(move |_| {
                while !done.load(SeqCst) {
                    d.collect();
                }
            });
            for _ in 0..2 {
                let freed = &freed;
                s.spawn(move |_| {
                    while !done.load(SeqCst) {
                        let guard = d.pin();
                        let id = current.load(SeqCst);
                        std::hint::spin_loop();
                        assert!(!freed[id].load(SeqCst), "id {id} freed under a pin");
                        drop(guard);
                    }
                });
            }
        })
        .unwrap();
    }

    #[test]
    fn slots_are_reusable_and_concurrent() {
        let d = EpochDomain::new();
        crossbeam::thread::scope(|s| {
            for _ in 0..8 {
                let d = &d;
                s.spawn(move |_| {
                    for _ in 0..200 {
                        let g = d.pin();
                        std::hint::black_box(&g);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(d.pinned(), 0);
        d.retire(Box::new(1u32));
        assert_eq!(d.garbage_len(), 0, "no pins: retire collects immediately");
    }

    #[test]
    fn segment_bytes_rise_and_fall_with_reclamation() {
        let bytes = counter();
        let cell = SnapshotCell::<i64>::new();
        let publish = |cell: &SnapshotCell<i64>, snap: PieceSnapshot<i64>| {
            if let Some(old) = cell.swap(Arc::new(snap)) {
                cell.retire(old);
            }
        };
        publish(&cell, snapshot_of(vec![(None, vec![1, 2, 3])], &bytes));
        assert_eq!(bytes.load(SeqCst), 3 * 8);
        let guard = cell.epochs().pin();
        let old = cell.load(&guard).unwrap();
        assert_eq!(old.len(), 3);
        // Replace while a reader is pinned: both snapshots' bytes live.
        publish(&cell, snapshot_of(vec![(None, vec![4, 5])], &bytes));
        assert_eq!(bytes.load(SeqCst), 3 * 8 + 2 * 8);
        assert_eq!(old.len(), 3, "pinned reader still sees the old snapshot");
        drop(guard);
        cell.collect();
        assert_eq!(
            bytes.load(SeqCst),
            2 * 8,
            "retired segment freed after unpin"
        );
        drop(cell);
        assert_eq!(bytes.load(SeqCst), 0);
    }

    #[test]
    fn stats_cover_edges_and_interiors() {
        let bytes = counter();
        // Pieces: [min,10): {1,5}, [10,20): {12,17,11}, [20,+inf): {25,20}.
        let snap = snapshot_of(
            vec![
                (Some(10), vec![5, 1]),
                (Some(20), vec![12, 17, 11]),
                (None, vec![25, 20]),
            ],
            &bytes,
        );
        assert_eq!(snap.len(), 7);
        let full = snap.stats(i64::MIN, i64::MAX);
        assert_eq!((full.count, full.sum), (7, 91));
        assert_eq!(full.filtered, 0, "sentinel range covers every piece");

        let mid = snap.stats(10, 20);
        assert_eq!((mid.count, mid.sum), (3, 40));
        assert_eq!(mid.filtered, 0, "exact boundary hit needs no filtering");

        let cross = snap.stats(5, 21);
        assert_eq!((cross.count, cross.sum), (5, 65));
        assert_eq!(cross.filtered, 4, "both edge pieces filtered");

        let empty = snap.stats(14, 14);
        assert_eq!(empty.count, 0);

        let mut out = Vec::new();
        let scan = snap.collect_into(5, 21, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![5, 11, 12, 17, 20]);
        assert_eq!(scan.count, 5);
    }

    #[test]
    fn unbounded_upper_end_includes_max_value() {
        let bytes = counter();
        let snap = snapshot_of(vec![(None, vec![i64::MAX, 3])], &bytes);
        let s = snap.stats(0, i64::MAX);
        assert_eq!(
            s.count, 2,
            "MAX sentinel means unbounded, like the cracked path"
        );
    }

    #[test]
    fn empty_snapshot_answers_zero() {
        let snap = PieceSnapshot::<i64>::new(Vec::new());
        assert!(snap.is_empty());
        assert_eq!(snap.stats(0, 100).count, 0);
        let mut out = Vec::new();
        snap.collect_into(i64::MIN, i64::MAX, &mut out);
        assert!(out.is_empty());
    }
}
