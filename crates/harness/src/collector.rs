//! The telemetry collector: the consumer-side thread of the SPSC ring.
//!
//! The transport inverts where the expensive work happens. On the hot
//! thread, recording a sample is a handful of relaxed stores and one
//! release store into the ring ([`rtr_trace::ring`]); everything costly —
//! histogram bucketing in [`MetricMap`](rtr_trace::MetricMap), report
//! writing — lives in a [`RingConsumer`] owned by a `Collector` thread
//! that drains the ring concurrently.
//!
//! # Lifecycle
//!
//! [`Collector::spawn`] takes the ring's reader and the consumer and
//! starts the drain loop; [`Collector::finish`] signals stop, joins, and
//! hands the consumer back with everything it absorbed. The shutdown
//! order matters and is handled here: the drain loop re-drains the ring
//! *after* observing the stop flag, so records pushed right up to the
//! `finish()` call are never stranded.
//!
//! Consumer callbacks run on the collector thread and must not read the
//! wall clock: timing belongs to the producer side, and `rtr-lint`'s
//! `wall-clock` rule scans `consume_batch` bodies in every crate to keep
//! it that way.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use rtr_trace::ring::{RingConsumer, RingItem, RingReader};

/// Items drained per `pop_batch` call; bounds the collector's scratch
/// buffer and the latency between a push and its consumption.
const DRAIN_BATCH: usize = 1024;

/// Empty polls (each a `yield_now`) before the drain loop backs off to
/// sleeping. Yielding keeps drain latency minimal while records flow;
/// the sleep makes an *idle* collector nearly free — important on
/// single-CPU hosts, where a yield loop against a runnable producer
/// degenerates into a context-switch ping-pong that steals a measurable
/// share of the producer's cycles.
const IDLE_SPINS_BEFORE_SLEEP: u32 = 64;

/// How long an idle collector sleeps between polls. Bounds both how long
/// a burst can wait in the ring before the sleeping consumer wakes (and
/// hence how soon a full ring drains again) and the extra latency a
/// `finish()` call can observe.
const IDLE_SLEEP: std::time::Duration = std::time::Duration::from_micros(50);

/// A collector thread draining one SPSC ring into one [`RingConsumer`].
///
/// # Example
///
/// ```
/// use rtr_harness::Collector;
/// use rtr_trace::{metric_channel, MetricMap};
///
/// let (mut publisher, reader) = metric_channel(1 << 10);
/// let collector = Collector::spawn(reader, MetricMap::new());
/// let id = publisher.metric_id("solve.latency_ns");
/// for v in [120u64, 340, 90] {
///     publisher.publish(id, v);
/// }
/// let metrics = collector.finish();
/// assert_eq!(metrics.get(id).unwrap().hist.count(), 3);
/// ```
#[derive(Debug)]
pub struct Collector<C> {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<C>,
}

impl<C> Collector<C> {
    /// Spawns the drain loop over `reader`, feeding `consumer`.
    pub fn spawn<T>(mut reader: RingReader<T>, mut consumer: C) -> Self
    where
        T: RingItem,
        C: RingConsumer<T> + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("rtr-collector".into())
            .spawn(move || {
                // The scratch batch is allocated once; the steady-state
                // drain performs no heap allocation.
                let mut batch: Vec<T> = Vec::with_capacity(DRAIN_BATCH);
                let mut idle_polls = 0u32;
                loop {
                    batch.clear();
                    if reader.pop_batch(&mut batch, DRAIN_BATCH) > 0 {
                        idle_polls = 0;
                        consumer.consume_batch(&batch);
                        continue;
                    }
                    // ORDERING: Acquire — pairs with finish()'s Release
                    // store of the stop flag.
                    if stop_flag.load(Ordering::Acquire) {
                        // Stop observed (so every record published
                        // before `finish()` is already visible): drain
                        // the residue, then exit.
                        loop {
                            batch.clear();
                            if reader.pop_batch(&mut batch, DRAIN_BATCH) == 0 {
                                break;
                            }
                            consumer.consume_batch(&batch);
                        }
                        return consumer;
                    }
                    idle_polls += 1;
                    if idle_polls < IDLE_SPINS_BEFORE_SLEEP {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(IDLE_SLEEP);
                    }
                }
            })
            .expect("spawn rtr-collector thread");
        Collector { stop, handle }
    }

    /// Signals stop, joins the thread, and returns the consumer with
    /// everything published before this call fully absorbed.
    ///
    /// # Panics
    ///
    /// Panics if the collector thread itself panicked (a consumer bug).
    pub fn finish(self) -> C {
        // ORDERING: Release — pairs with the collector thread's Acquire
        // load of the stop flag: everything the caller published before
        // finish() is visible to the final drain.
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("rtr-collector thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_trace::{metric_channel, ring, MetricMap, MetricRecord};

    /// A consumer that appends every record to a vec (test double for
    /// the expensive sinks).
    struct Capture(Vec<MetricRecord>);

    impl RingConsumer<MetricRecord> for Capture {
        fn consume_batch(&mut self, batch: &[MetricRecord]) {
            self.0.extend_from_slice(batch);
        }
    }

    #[test]
    fn collector_drains_everything_published_before_finish() {
        let (mut tx, rx) = ring::<MetricRecord>(1 << 8);
        let collector = Collector::spawn(rx, Capture(Vec::new()));
        let ops: Vec<MetricRecord> = (0..10_000u64)
            .map(|i| MetricRecord {
                id: u32::from(i % 3 == 0),
                value: i,
            })
            .collect();
        let mut sent = 0;
        while sent < ops.len() {
            sent += tx.try_push_batch(&ops[sent..]);
            if sent < ops.len() {
                std::thread::yield_now();
            }
        }
        let captured = collector.finish().0;
        assert_eq!(
            captured, ops,
            "stream intact and ordered through the thread"
        );
    }

    #[test]
    fn collector_finish_on_empty_ring_returns_immediately() {
        let (_tx, rx) = ring::<MetricRecord>(4);
        let collector = Collector::spawn(rx, Capture(Vec::new()));
        assert!(collector.finish().0.is_empty());
    }

    #[test]
    fn metric_channel_feeds_a_metric_map_end_to_end() {
        // Capacity exceeds the 1100 published records, so the test is
        // deterministic even if the collector thread never gets
        // scheduled until `finish`.
        let (mut publisher, rx) = metric_channel(1 << 11);
        let collector = Collector::spawn(rx, MetricMap::new());
        let lat = publisher.metric_id("lat");
        let jit = publisher.metric_id("jit");
        for i in 0..1000u64 {
            publisher.publish(lat, 100 + i);
            if i % 10 == 0 {
                publisher.publish(jit, i);
            }
        }
        let metrics = collector.finish();
        assert_eq!(metrics.len(), 2);
        let lat_m = metrics.get(lat).unwrap();
        assert_eq!(lat_m.hist.count(), 1000);
        assert!(lat_m.hist.p50() >= 100);
        assert!(lat_m.hist.p99() >= lat_m.hist.p50());
        assert_eq!(metrics.get(jit).unwrap().hist.count(), 100);
        assert_eq!(publisher.dropped(), 0);
    }
}
