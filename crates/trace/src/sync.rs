//! Minimal concurrency primitives for the lock-free metric transport.
//!
//! The build is fully offline, so the ring's one alignment wrapper lives
//! here instead of in an external utility crate. Everything else the
//! ring needs ([`core::sync::atomic::AtomicUsize`]/[`AtomicU64`](core::sync::atomic::AtomicU64)
//! with acquire/release orderings, [`std::sync::Arc`] for the shared
//! allocation) is in `std`, so the ring itself is dependency-free and —
//! unlike upstream SPSC queues — entirely safe code.

/// Pads and aligns a value to 64 bytes so two instances never share a
/// cache line.
///
/// The SPSC ring keeps its producer cursor, consumer cursor and drop
/// counter in separate `CachePadded` cells: the producer thread writes
/// the tail on every publish and the consumer writes the head on every
/// drain, and without padding each store would invalidate the other
/// core's line (false sharing), putting a coherence miss on the hot
/// path the transport exists to keep clean.
///
/// 64 bytes matches the line size of every x86-64 part and of the cache
/// model in `rtr-archsim`; over-aligning on platforms with shorter lines
/// costs only a few bytes per cell.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_cells_are_line_aligned_and_line_sized() {
        assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 64);
        assert_eq!(std::mem::size_of::<CachePadded<u64>>(), 64);
        // Adjacent cells in a struct therefore occupy distinct lines.
        struct Cursors {
            head: CachePadded<u64>,
            tail: CachePadded<u64>,
        }
        let c = Cursors {
            head: CachePadded::new(1),
            tail: CachePadded::new(2),
        };
        let head = std::ptr::addr_of!(c.head) as usize;
        let tail = std::ptr::addr_of!(c.tail) as usize;
        assert!(head.abs_diff(tail) >= 64);
        assert_eq!(*c.head, 1);
        assert_eq!(*c.tail, 2);
    }

    #[test]
    fn deref_mut_reaches_the_inner_value() {
        let mut cell = CachePadded::new(5u32);
        *cell += 1;
        assert_eq!(cell.0, 6);
    }
}
