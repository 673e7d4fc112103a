//! A cache-line-padded SPSC ring buffer: the lock-free metric
//! transport's wire.
//!
//! One producer (the hot thread) streams fixed-size records to one
//! consumer (the collector thread) through a power-of-two array of
//! atomic words. There are no locks and no CAS loops: the producer owns
//! the tail cursor, the consumer owns the head cursor, and each side
//! publishes its cursor with a release store that the other side reads
//! with an acquire load — the classic single-producer/single-consumer
//! protocol. Unlike upstream SPSC queues the slots themselves are plain
//! relaxed [`AtomicU64`] words rather than `UnsafeCell`s, which keeps
//! the whole module inside `#![forbid(unsafe_code)]`: the release/
//! acquire edge on the cursors is what orders the relaxed slot accesses,
//! and on x86-64 a relaxed atomic store compiles to the same `mov` a
//! plain store would.
//!
//! **Overflow contract.** The ring never blocks the producer: when the
//! consumer falls behind, [`RingProducer::push_batch`] (and
//! [`push`](RingProducer::push)) drop the records that do not fit and
//! count them in the [`dropped`](RingProducer::dropped) counter —
//! telemetry may be lossy, the hot loop may not stall. The primitive
//! underneath, [`RingProducer::try_push_batch`], accepts the prefix that
//! fits without counting the rest, so a caller that must not lose
//! records can retry the suffix itself: backpressure is the caller's
//! choice, never silently inside the ring.
//!
//! SPSC is enforced by move semantics: [`ring`] returns one non-`Clone`
//! [`RingProducer`] and one non-`Clone` [`RingReader`]; whichever thread
//! owns a side is that side.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::sync::CachePadded;

/// Upper bound on [`RingItem::WORDS`]; lets the encode/decode scratch be
/// a fixed stack array instead of a per-call allocation.
pub const MAX_ITEM_WORDS: usize = 4;

/// A record the ring can carry: a fixed number of `u64` words.
///
/// Items are encoded into relaxed atomic words rather than stored as
/// `T`, which is what lets the ring stay safe code. Implementations must
/// round-trip exactly: `decode(encode(x)) == x`.
pub trait RingItem: Copy + Send + 'static {
    /// Words one item occupies (at most [`MAX_ITEM_WORDS`]).
    const WORDS: usize;

    /// Writes the item into `words` (`words.len() == Self::WORDS`).
    fn encode(self, words: &mut [u64]);

    /// Reads an item back from `words`.
    fn decode(words: &[u64]) -> Self;
}

/// The cursors both sides share. Cursors are monotonically increasing
/// and wrap through the power-of-two mask; padding keeps the producer's
/// tail, the consumer's head and the drop counter on separate lines.
///
/// The slot array itself is *not* in here: each side holds its own
/// `Arc<[AtomicU64]>` clone of it, a fat pointer whose data pointer and
/// length live inline in the producer/consumer struct. The hot push path
/// then reaches its slot through one indirection instead of chasing
/// `Arc -> Shared -> Box -> words`, which is measurable at
/// one-nanosecond-per-op scale.
struct Shared {
    /// Next unread slot; written only by the consumer (release), read by
    /// the producer (acquire) to learn how much space has been freed.
    head: CachePadded<AtomicUsize>,
    /// Next free slot; written only by the producer (release), read by
    /// the consumer (acquire) to learn how much data is available.
    tail: CachePadded<AtomicUsize>,
    /// Records rejected by the count-and-drop producer entry points.
    dropped: CachePadded<AtomicU64>,
}

/// Creates an SPSC ring carrying `T` with room for `capacity` items.
///
/// # Panics
///
/// Panics when `capacity` is not a power of two (the cursor arithmetic
/// relies on the mask) or when `T::WORDS` exceeds [`MAX_ITEM_WORDS`].
pub fn ring<T: RingItem>(capacity: usize) -> (RingProducer<T>, RingReader<T>) {
    assert!(
        capacity.is_power_of_two() && capacity > 0,
        "ring capacity must be a non-zero power of two, got {capacity}"
    );
    assert!(
        T::WORDS > 0 && T::WORDS <= MAX_ITEM_WORDS,
        "RingItem::WORDS must be in 1..={MAX_ITEM_WORDS}"
    );
    let words: Arc<[AtomicU64]> = (0..capacity * T::WORDS)
        .map(|_| AtomicU64::new(0))
        .collect();
    let shared = Arc::new(Shared {
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
        dropped: CachePadded::new(AtomicU64::new(0)),
    });
    (
        RingProducer {
            shared: Arc::clone(&shared),
            words: Arc::clone(&words),
            mask: capacity - 1,
            capacity,
            cached_head: 0,
            tail: 0,
            _items: PhantomData,
        },
        RingReader {
            shared,
            words,
            mask: capacity - 1,
            capacity,
            cached_tail: 0,
            head: 0,
            _items: PhantomData,
        },
    )
}

/// The producer side: owned by exactly one thread (not `Clone`).
///
/// Keeps a private mirror of its own tail (it is the only writer) and a
/// cached copy of the consumer's head, so the steady-state push touches
/// no shared line except the slots and one release store of the tail;
/// the head is re-read (acquire) only when the cached view looks full.
pub struct RingProducer<T: RingItem> {
    shared: Arc<Shared>,
    /// Fat-pointer clone of the slot array (see [`Shared`]).
    words: Arc<[AtomicU64]>,
    mask: usize,
    capacity: usize,
    cached_head: usize,
    tail: usize,
    _items: PhantomData<fn(T)>,
}

impl<T: RingItem> std::fmt::Debug for RingProducer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingProducer")
            .field("capacity", &self.capacity)
            .field("tail", &self.tail)
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl<T: RingItem> RingProducer<T> {
    /// Ring capacity in items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records dropped so far by the count-and-drop entry points.
    pub fn dropped(&self) -> u64 {
        // ORDERING: Relaxed — the drop counter is a monotonic statistic;
        // no other memory is published through it.
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Pushes a prefix of `items` — as many as currently fit — and
    /// returns how many were accepted, publishing them. Never waits,
    /// never drops: the caller decides whether the rejected suffix is
    /// retried or abandoned.
    #[inline]
    pub fn try_push_batch(&mut self, items: &[T]) -> usize {
        let cap = self.capacity;
        let mut free = cap - self.tail.wrapping_sub(self.cached_head);
        if free < items.len() {
            // ORDERING: Acquire — pairs with the consumer's Release store
            // of head in pop_batch: slots it freed are only rewritten
            // after its reads of them are complete.
            self.cached_head = self.shared.head.load(Ordering::Acquire);
            free = cap - self.tail.wrapping_sub(self.cached_head);
        }
        let n = free.min(items.len());
        if n == 0 {
            return 0;
        }
        // Copy in contiguous runs: at most two slices per call (the
        // wrap), with the slot iteration bounds-check-free.
        let mask = self.mask;
        let mut written = 0;
        while written < n {
            let start = self.tail.wrapping_add(written) & mask;
            let run = (cap - start).min(n - written);
            let slots = &self.words[start * T::WORDS..(start + run) * T::WORDS];
            let batch = &items[written..written + run];
            for (slot, item) in slots.chunks_exact(T::WORDS).zip(batch.iter()) {
                let mut scratch = [0u64; MAX_ITEM_WORDS];
                item.encode(&mut scratch[..T::WORDS]);
                for (word, value) in slot.iter().zip(scratch[..T::WORDS].iter()) {
                    // ORDERING: Relaxed — the Release store of tail below
                    // is the sole point handing these words to the
                    // consumer; ordering slot writes against each other
                    // buys nothing in an SPSC ring.
                    word.store(*value, Ordering::Relaxed);
                }
            }
            written += run;
        }
        self.tail = self.tail.wrapping_add(n);
        // ORDERING: Release — pairs with the consumer's Acquire load of
        // tail in pop_batch/is_empty; it orders the Relaxed slot stores
        // above before the tail becomes visible.
        self.shared.tail.store(self.tail, Ordering::Release);
        n
    }

    /// Pushes `items` under the ring's overflow contract: whatever does
    /// not fit is dropped and counted. Returns how many were accepted.
    #[inline]
    pub fn push_batch(&mut self, items: &[T]) -> usize {
        let n = self.try_push_batch(items);
        let rejected = items.len() - n;
        if rejected > 0 {
            // ORDERING: Relaxed — the drop counter is a statistic; no
            // memory is published through it.
            self.shared
                .dropped
                .fetch_add(rejected as u64, Ordering::Relaxed);
        }
        n
    }

    /// Pushes one item under the count-and-drop contract; `false` means
    /// it was dropped (and counted).
    #[inline]
    pub fn push(&mut self, item: T) -> bool {
        self.push_batch(std::slice::from_ref(&item)) == 1
    }
}

/// The consumer side: owned by exactly one thread (not `Clone`).
pub struct RingReader<T: RingItem> {
    shared: Arc<Shared>,
    /// Fat-pointer clone of the slot array (see [`Shared`]).
    words: Arc<[AtomicU64]>,
    mask: usize,
    capacity: usize,
    cached_tail: usize,
    head: usize,
    _items: PhantomData<fn() -> T>,
}

impl<T: RingItem> std::fmt::Debug for RingReader<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingReader")
            .field("capacity", &self.capacity)
            .field("head", &self.head)
            .finish()
    }
}

impl<T: RingItem> RingReader<T> {
    /// Ring capacity in items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records dropped so far on the producer side.
    pub fn dropped(&self) -> u64 {
        // ORDERING: Relaxed — monotonic statistic, publishes no memory.
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Pops up to `max` items in production order, appending them to
    /// `out`; returns how many were popped (`0` = ring currently empty).
    ///
    /// `out` is the caller's reusable scratch — the collector allocates
    /// it once and clears it between drains, so the steady-state drain
    /// path performs no heap allocation.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        // ORDERING: the Acquire tail load pairs with the producer's
        // Release tail store in try_push_batch: it makes the Relaxed slot
        // stores behind it visible before we read them below.
        let mut available = self.cached_tail.wrapping_sub(self.head);
        if available == 0 {
            self.cached_tail = self.shared.tail.load(Ordering::Acquire);
            available = self.cached_tail.wrapping_sub(self.head);
            if available == 0 {
                return 0;
            }
        }
        let n = available.min(max);
        let cap = self.capacity;
        let mask = self.mask;
        let mut popped = 0;
        while popped < n {
            let start = self.head.wrapping_add(popped) & mask;
            let run = (cap - start).min(n - popped);
            let slots = &self.words[start * T::WORDS..(start + run) * T::WORDS];
            for slot in slots.chunks_exact(T::WORDS) {
                let mut scratch = [0u64; MAX_ITEM_WORDS];
                for (value, word) in scratch[..T::WORDS].iter_mut().zip(slot.iter()) {
                    *value = word.load(Ordering::Relaxed);
                }
                out.push(T::decode(&scratch[..T::WORDS]));
            }
            popped += run;
        }
        self.head = self.head.wrapping_add(n);
        // ORDERING: Release — the producer's Acquire load of head must
        // also see our slot reads as completed before it overwrites
        // them.
        self.shared.head.store(self.head, Ordering::Release);
        n
    }

    /// `true` when the ring has no unread items at this instant.
    pub fn is_empty(&mut self) -> bool {
        if self.cached_tail.wrapping_sub(self.head) > 0 {
            return false;
        }
        // ORDERING: Acquire — pairs with the producer's Release tail
        // store, same contract as the refresh in pop_batch.
        self.cached_tail = self.shared.tail.load(Ordering::Acquire);
        self.cached_tail == self.head
    }
}

/// The collector-side contract: consumes batches drained from a ring.
///
/// The collector thread owns the expensive sinks (the metric map,
/// report writers) and calls `consume_batch` with each drained slice,
/// in production order. Consumer callbacks must not read
/// the wall clock (`rtr-lint`'s `wall-clock` rule scans `consume_batch`
/// bodies in every crate, including the measurement crates): timing
/// happens on the producer side, the collector only aggregates.
pub trait RingConsumer<T>: Send {
    /// Consumes one drained batch, in production order.
    fn consume_batch(&mut self, batch: &[T]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricRecord;

    /// A two-word record standing in for an access: the flag as the id,
    /// the address as the value.
    fn op(addr: u64, is_write: bool) -> MetricRecord {
        MetricRecord {
            id: u32::from(is_write),
            value: addr,
        }
    }

    #[test]
    fn items_round_trip_in_order_across_wrap() {
        let (mut tx, mut rx) = ring::<MetricRecord>(8);
        let mut popped = Vec::new();
        // 5 rounds of 6 through a capacity-8 ring crosses the wrap
        // boundary repeatedly.
        for round in 0..5u64 {
            let batch: Vec<MetricRecord> = (0..6).map(|i| op(round * 6 + i, i % 2 == 0)).collect();
            assert_eq!(tx.push_batch(&batch), 6);
            assert_eq!(rx.pop_batch(&mut popped, 16), 6);
        }
        let expected: Vec<MetricRecord> = (0..30).map(|i| op(i, i % 2 == 0)).collect();
        assert_eq!(popped, expected);
        assert_eq!(tx.dropped(), 0);
    }

    #[test]
    fn capacity_one_ring_alternates() {
        let (mut tx, mut rx) = ring::<MetricRecord>(1);
        let mut out = Vec::new();
        for i in 0..4u64 {
            assert!(tx.push(op(i, false)));
            assert!(!tx.push(op(99, true)), "second push must be rejected");
            assert_eq!(rx.pop_batch(&mut out, 8), 1);
        }
        assert_eq!(out.len(), 4);
        assert_eq!(tx.dropped(), 4, "one counted drop per round");
        assert_eq!(rx.dropped(), 4);
    }

    #[test]
    fn push_batch_accepts_a_prefix_and_counts_the_rest() {
        let (mut tx, mut rx) = ring::<MetricRecord>(4);
        let batch: Vec<MetricRecord> = (0..7).map(|i| op(i, false)).collect();
        assert_eq!(tx.push_batch(&batch), 4);
        assert_eq!(tx.dropped(), 3);
        let mut out = Vec::new();
        rx.pop_batch(&mut out, 16);
        assert_eq!(out, batch[..4].to_vec(), "accepted ops are the prefix");
    }

    #[test]
    fn try_push_batch_never_counts_drops() {
        let (mut tx, _rx) = ring::<MetricRecord>(2);
        assert_eq!(tx.try_push_batch(&[op(0, false); 5]), 2);
        assert_eq!(tx.try_push_batch(&[op(1, false)]), 0);
        assert_eq!(tx.dropped(), 0);
    }

    #[test]
    fn pop_respects_max_and_reports_empty() {
        let (mut tx, mut rx) = ring::<MetricRecord>(8);
        assert!(rx.is_empty());
        tx.push_batch(&(0..6).map(|i| op(i, false)).collect::<Vec<_>>());
        assert!(!rx.is_empty());
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 4), 4);
        assert_eq!(rx.pop_batch(&mut out, 4), 2);
        assert_eq!(rx.pop_batch(&mut out, 4), 0);
        assert!(rx.is_empty());
        assert_eq!(out.len(), 6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_is_rejected() {
        let _ = ring::<MetricRecord>(6);
    }
}
