//! Ring-semantics tests: proptests for wrap-around, capacity-1 and
//! overflow-drop accounting, plus a two-thread stress test pinning the
//! order-preservation and loss contracts across a real producer/consumer
//! thread pair.

use proptest::prelude::*;
use rtr_trace::ring::{ring, RingItem};

/// A one-word test record: the address in bits 1.., the read/write flag
/// in bit 0, so addresses are limited to 63 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Op {
    addr: u64,
    is_write: bool,
}

impl RingItem for Op {
    const WORDS: usize = 1;

    fn encode(self, words: &mut [u64]) {
        words[0] = (self.addr << 1) | u64::from(self.is_write);
    }

    fn decode(words: &[u64]) -> Self {
        Op {
            addr: words[0] >> 1,
            is_write: words[0] & 1 != 0,
        }
    }
}

fn op(addr: u64, is_write: bool) -> Op {
    Op { addr, is_write }
}

/// A single-thread lossless pump: pushes each batch with backpressure
/// (drain-when-full) and drains the rest, returning the popped stream.
fn pump_lossless(capacity: usize, batches: &[Vec<Op>]) -> (Vec<Op>, u64) {
    let (mut tx, mut rx) = ring::<Op>(capacity);
    let mut popped = Vec::new();
    for batch in batches {
        let mut sent = 0;
        while sent < batch.len() {
            sent += tx.try_push_batch(&batch[sent..]);
            if sent < batch.len() {
                // Ring full: the "collector" catches up.
                rx.pop_batch(&mut popped, capacity);
            }
        }
    }
    while rx.pop_batch(&mut popped, 64) > 0 {}
    (popped, tx.dropped())
}

proptest! {
    /// Wrap-around: any interleaving of small pushes and pops through a
    /// small ring preserves the stream exactly (positions wrap the mask
    /// many times over).
    #[test]
    fn wrap_around_preserves_stream(
        capacity_log2 in 0u32..6,
        lens in prop::collection::vec(0usize..20, 1..30),
    ) {
        let capacity = 1usize << capacity_log2;
        let mut next = 0u64;
        let batches: Vec<Vec<Op>> = lens
            .iter()
            .map(|&len| {
                (0..len)
                    .map(|_| {
                        next += 1;
                        op(next, next.is_multiple_of(3))
                    })
                    .collect()
            })
            .collect();
        let expected: Vec<Op> = batches.iter().flatten().copied().collect();
        let (popped, dropped) = pump_lossless(capacity, &batches);
        prop_assert_eq!(popped, expected);
        prop_assert_eq!(dropped, 0u64);
    }

    /// Capacity 1 is the degenerate ring: strict alternation, every
    /// overflow counted.
    #[test]
    fn capacity_one_counts_every_overflow(pushes in prop::collection::vec(1usize..4, 1..20)) {
        let (mut tx, mut rx) = ring::<Op>(1);
        let mut out = Vec::new();
        let mut expected_drops = 0u64;
        let mut expected_accepted = 0usize;
        for (round, &burst) in pushes.iter().enumerate() {
            let batch: Vec<Op> = (0..burst as u64)
                .map(|i| op(round as u64 * 10 + i, false))
                .collect();
            let accepted = tx.push_batch(&batch);
            prop_assert_eq!(accepted, 1, "exactly one op fits an empty capacity-1 ring");
            expected_drops += (burst - 1) as u64;
            expected_accepted += 1;
            prop_assert_eq!(rx.pop_batch(&mut out, 4), 1);
        }
        prop_assert_eq!(tx.dropped(), expected_drops);
        prop_assert_eq!(out.len(), expected_accepted);
    }

    /// Count-and-drop accounting: accepted + dropped always equals the
    /// number offered, the accepted stream is the in-order prefix
    /// concatenation, and the drop counter never moves on `try_`.
    #[test]
    fn overflow_drop_accounting_balances(
        capacity_log2 in 0u32..5,
        lens in prop::collection::vec(0usize..24, 1..20),
        drain_every in 1usize..5,
    ) {
        let capacity = 1usize << capacity_log2;
        let (mut tx, mut rx) = ring::<Op>(capacity);
        let mut popped = Vec::new();
        let mut offered = 0u64;
        let mut accepted = 0u64;
        let mut next = 0u64;
        for (i, &len) in lens.iter().enumerate() {
            let batch: Vec<Op> = (0..len)
                .map(|_| {
                    next += 1;
                    op(next, next.is_multiple_of(2))
                })
                .collect();
            offered += len as u64;
            accepted += tx.push_batch(&batch) as u64;
            if i % drain_every == 0 {
                rx.pop_batch(&mut popped, capacity / 2 + 1);
            }
        }
        while rx.pop_batch(&mut popped, 64) > 0 {}
        prop_assert_eq!(accepted + tx.dropped(), offered);
        prop_assert_eq!(popped.len() as u64, accepted);
        // The surviving stream must be a subsequence of the offered one
        // in order; since ops carry unique increasing addrs, it suffices
        // that addrs are strictly increasing.
        prop_assert!(popped.windows(2).all(|w| w[0].addr < w[1].addr));
    }
}

/// Two-thread stress under count-and-drop: with a deliberately slow
/// consumer the ring drops, but what survives is an in-order subsequence
/// and the accounting balances exactly.
#[test]
fn two_thread_count_and_drop_survivors_are_an_ordered_subsequence() {
    const OPS: u64 = 100_000;
    let (mut tx, mut rx) = ring::<Op>(1 << 6);
    let producer = std::thread::spawn(move || {
        let mut accepted = 0u64;
        for i in 0..OPS {
            if tx.push(op(i, i % 7 == 0)) {
                accepted += 1;
            }
        }
        (accepted, tx.dropped())
    });

    let mut popped = Vec::new();
    let producer = loop {
        rx.pop_batch(&mut popped, 32);
        if producer.is_finished() {
            break producer;
        }
    };
    while rx.pop_batch(&mut popped, 64) > 0 {}
    let (accepted, dropped) = producer.join().unwrap();

    assert_eq!(accepted + dropped, OPS, "every op accepted or counted");
    assert_eq!(popped.len() as u64, accepted, "every accepted op drained");
    // Addresses are the production index, so order-preservation and
    // subsequence-ness reduce to strict monotonicity + payload check.
    assert!(popped.windows(2).all(|w| w[0].addr < w[1].addr));
    assert!(popped.iter().all(|o| o.is_write == (o.addr % 7 == 0)));
}

/// The encoding layer itself: the one-word test record and the two-word
/// MetricRecord round-trip through their word encodings for adversarial
/// values.
#[test]
fn ring_item_encodings_round_trip() {
    use rtr_trace::MetricRecord;
    for addr in [0u64, 1, (1 << 63) - 1, 0x4000_0000_0000_0000] {
        for is_write in [false, true] {
            let o = op(addr, is_write);
            let mut w = [0u64; Op::WORDS];
            o.encode(&mut w);
            assert_eq!(Op::decode(&w), o);
        }
    }
    let r = MetricRecord {
        id: u32::MAX,
        value: u64::MAX,
    };
    let mut w = [0u64; MetricRecord::WORDS];
    r.encode(&mut w);
    assert_eq!(MetricRecord::decode(&w), r);
}
