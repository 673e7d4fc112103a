//! Deterministic scoped worker pool for the kernel hot paths.
//!
//! The paper's kernels are dominated by embarrassingly parallel inner
//! loops (per-particle ray casting in PFL, per-node neighbor search in
//! PRM, per-point correspondence search in ICP, per-sample rollouts in
//! CEM). This module parallelizes them **without changing results**:
//!
//! - **Fixed chunk decomposition.** [`chunk_boundaries`] derives chunk
//!   ranges purely from `(len, parts)` — never from runtime load — so a
//!   given input always decomposes the same way.
//! - **Order-preserving assembly.** [`Pool::par_map`] evaluates a pure
//!   function element-wise and reassembles outputs in input order, so the
//!   result `Vec` is identical to a sequential `map`. Any floating-point
//!   *reduction* over the outputs stays with the caller, sequential and in
//!   legacy order; f64 addition is not associative, and keeping reductions
//!   linear is what makes parallel runs bit-identical to sequential runs
//!   for **any** thread count.
//! - **Per-chunk seed streams.** For workloads that need randomness inside
//!   a parallel region, [`chunk_seed`] derives an independent stream seed
//!   from `(base_seed, chunk_index)`. Because chunk boundaries are fixed,
//!   the streams — and therefore the results — do not depend on how many
//!   threads execute the chunks.
//!
//! A pool with one thread (see [`Pool::sequential`]) runs the caller's
//! closure inline without spawning, which is the exact legacy code path.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::resume_unwind;

/// Returns the fixed chunk decomposition of `0..len` into `parts` balanced
/// contiguous ranges (sizes differ by at most one; empty ranges are kept so
/// chunk indices are stable).
///
/// The decomposition depends only on `(len, parts)`: it is the anchor for
/// every determinism guarantee in this module.
pub fn chunk_boundaries(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    (0..parts)
        .map(|c| (c * len / parts)..((c + 1) * len / parts))
        .collect()
}

/// Derives the RNG stream seed for one chunk of a decomposed loop.
///
/// SplitMix64-style mixing of `(base_seed, chunk_index)`: well-spread,
/// deterministic, and independent of thread count because chunk indices
/// come from [`chunk_boundaries`].
pub fn chunk_seed(base_seed: u64, chunk_index: u64) -> u64 {
    let mut z = base_seed ^ chunk_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A scoped worker pool with a fixed thread count.
///
/// `Pool` owns no threads; each parallel call spawns scoped workers that
/// borrow from the caller's stack and are joined before the call returns,
/// so there is no cross-call state and no shutdown protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new(0)
    }
}

impl Pool {
    /// Creates a pool with `threads` workers; `0` means one worker per
    /// available hardware thread.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
        } else {
            threads
        };
        Pool { threads }
    }

    /// The single-threaded pool: every parallel primitive degenerates to a
    /// plain inline loop — the exact legacy sequential path.
    pub fn sequential() -> Self {
        Pool { threads: 1 }
    }

    /// Number of worker threads this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` in parallel, returning outputs in input order.
    ///
    /// `f` receives `(index, &item)` and must be pure with respect to the
    /// shared borrows it captures; under that contract the result is
    /// element-for-element identical to the sequential
    /// `items.iter().enumerate().map(..)` loop, regardless of thread count.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let bounds = chunk_boundaries(items.len(), self.threads.min(items.len()));
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .iter()
                .filter(|r| !r.is_empty())
                .map(|r| {
                    let range = r.clone();
                    scope.spawn(move || {
                        items[range.clone()]
                            .iter()
                            .enumerate()
                            .map(|(off, t)| f(range.start + off, t))
                            .collect::<Vec<U>>()
                    })
                })
                .collect();
            let mut out = Vec::with_capacity(items.len());
            for handle in handles {
                match handle.join() {
                    Ok(part) => out.extend(part),
                    Err(payload) => resume_unwind(payload),
                }
            }
            out
        })
    }

    /// [`Pool::par_map`] into a caller-owned buffer: `out` is cleared,
    /// resized to `items.len()` with `U::default()` placeholders, and
    /// every slot is overwritten with `f(index, &item)`.
    ///
    /// Outputs are element-for-element identical to [`Pool::par_map`]
    /// (same `f`, same order), but the buffer is reused across calls, so
    /// a steady-state caller that keeps `out` alive allocates nothing
    /// once the buffer has grown to its high-water length — the workspace
    /// convention the stepped kernel instances rely on.
    pub fn par_map_into<T, U, F>(&self, items: &[T], out: &mut Vec<U>, f: F)
    where
        T: Sync,
        U: Send + Default,
        F: Fn(usize, &T) -> U + Sync,
    {
        out.clear();
        out.resize_with(items.len(), U::default);
        if self.threads == 1 || items.len() <= 1 {
            for (i, (slot, item)) in out.iter_mut().zip(items).enumerate() {
                *slot = f(i, item);
            }
            return;
        }
        self.par_chunks_mut(out, |_, start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                let i = start + off;
                *slot = f(i, &items[i]);
            }
        });
    }

    /// Runs `f` over disjoint mutable chunks of `data` in parallel.
    ///
    /// The decomposition comes from [`chunk_boundaries`]`(data.len(),
    /// threads)`; `f` receives `(chunk_index, chunk_start, chunk)`. Pair
    /// with [`chunk_seed`] when the chunk body needs its own RNG stream.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        let bounds = chunk_boundaries(data.len(), self.threads.min(data.len().max(1)));
        if self.threads == 1 || data.len() <= 1 {
            for (c, r) in bounds.iter().enumerate() {
                f(c, r.start, &mut data[r.clone()]);
            }
            return;
        }
        // Carve `data` into the chunk slices up front; the scoped workers
        // then each own exactly one disjoint `&mut [T]`.
        let mut chunks: Vec<(usize, usize, &mut [T])> = Vec::with_capacity(bounds.len());
        let mut rest = data;
        let mut consumed = 0usize;
        for (c, r) in bounds.iter().enumerate() {
            let (head, tail) = rest.split_at_mut(r.end - consumed);
            consumed = r.end;
            rest = tail;
            if !head.is_empty() {
                chunks.push((c, r.start, head));
            }
        }
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|(c, start, chunk)| scope.spawn(move || f(c, start, chunk)))
                .collect();
            for handle in handles {
                if let Err(payload) = handle.join() {
                    resume_unwind(payload);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_partition_exactly() {
        for len in [0usize, 1, 2, 7, 8, 100, 101] {
            for parts in [1usize, 2, 3, 4, 8, 13] {
                let bounds = chunk_boundaries(len, parts);
                assert_eq!(bounds.len(), parts);
                assert_eq!(bounds[0].start, 0);
                assert_eq!(bounds[parts - 1].end, len);
                for w in bounds.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let sizes: Vec<usize> = bounds.iter().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn par_map_matches_sequential_for_all_thread_counts() {
        let items: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let reference: Vec<f64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 1.5 + i as f64)
            .collect();
        for threads in [1usize, 2, 3, 4, 8, 32] {
            let out = Pool::new(threads).par_map(&items, |i, x| x * 1.5 + i as f64);
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_tiny_inputs() {
        let pool = Pool::new(8);
        assert_eq!(pool.par_map(&[] as &[i32], |_, x| *x), Vec::<i32>::new());
        assert_eq!(pool.par_map(&[5], |i, x| x + i as i32), vec![5]);
        assert_eq!(pool.par_map(&[1, 2], |_, x| x * 2), vec![2, 4]);
    }

    #[test]
    fn par_map_into_matches_par_map_and_reuses_the_buffer() {
        let items: Vec<f64> = (0..257).map(|i| (i as f64).cos()).collect();
        for threads in [1usize, 2, 4, 7] {
            let pool = Pool::new(threads);
            let reference = pool.par_map(&items, |i, x| x * 2.0 - i as f64);
            let mut out = Vec::new();
            pool.par_map_into(&items, &mut out, |i, x| x * 2.0 - i as f64);
            assert_eq!(out, reference, "threads = {threads}");
            let cap = out.capacity();
            pool.par_map_into(&items, &mut out, |i, x| x * 2.0 - i as f64);
            assert_eq!(out.capacity(), cap, "steady state must not regrow");
            assert_eq!(out, reference);
            // Shrinking inputs reuse the same buffer.
            pool.par_map_into(&items[..3], &mut out, |i, x| x * 2.0 - i as f64);
            assert_eq!(out.len(), 3);
            assert_eq!(out.capacity(), cap);
        }
    }

    #[test]
    fn par_chunks_mut_covers_every_element_once() {
        for threads in [1usize, 2, 4, 7] {
            let mut data = vec![0u32; 103];
            Pool::new(threads).par_chunks_mut(&mut data, |_, start, chunk| {
                for (off, v) in chunk.iter_mut().enumerate() {
                    *v += (start + off) as u32 + 1;
                }
            });
            assert!(
                data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn par_chunks_mut_chunk_indices_match_boundaries() {
        let mut data = vec![usize::MAX; 64];
        Pool::new(4).par_chunks_mut(&mut data, |c, _, chunk| chunk.fill(c));
        let bounds = chunk_boundaries(64, 4);
        for (c, r) in bounds.iter().enumerate() {
            assert!(data[r.clone()].iter().all(|&v| v == c));
        }
    }

    #[test]
    fn chunk_seeds_are_stable_and_spread() {
        assert_eq!(chunk_seed(42, 3), chunk_seed(42, 3));
        let seeds: Vec<u64> = (0..64).map(|c| chunk_seed(7, c)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(Pool::new(0).threads() >= 1);
        assert_eq!(Pool::sequential().threads(), 1);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).par_map(&[1, 2, 3, 4, 5, 6, 7, 8], |i, _| {
                assert!(i != 5, "boom");
                i
            });
        });
        assert!(result.is_err());
    }
}
