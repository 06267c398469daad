//! # hummer-par — std-only intra-query parallelism
//!
//! The HumMer pipeline is embarrassingly parallel at several stages:
//! candidate-pair scoring in duplicate detection, the per-duplicate
//! field-similarity matrices of DUMAS schema matching, and per-cluster
//! conflict resolution in fusion. This crate is the shared execution layer
//! those stages fan out through — scoped fork-join helpers built on
//! [`std::thread::scope`], no external dependencies, sized from
//! [`std::thread::available_parallelism`].
//!
//! ## Determinism contract
//!
//! Every helper here merges results in **input order**: `par_map(p, xs, f)`
//! returns exactly `xs.iter().map(f).collect()` for any degree, and
//! [`par_chunks`] returns per-chunk results in chunk order. As long as the
//! worker closure is a pure function of its item, output is bit-identical
//! to the sequential path — which is how the repo's property tests
//! (`tests/parallel_equivalence.rs`) can assert byte-equality between a
//! 1-thread and an 8-thread run.
//!
//! ## Composing with a server worker pool
//!
//! A serving layer that already runs N worker threads should hand each
//! request an intra-query degree of roughly `cores / N`
//! ([`Parallelism::auto_shared`]) so the two layers multiply to the
//! machine's capacity instead of oversubscribing it.
//!
//! ## Example
//!
//! ```
//! use hummer_par::{par_map, Parallelism};
//!
//! let xs: Vec<u64> = (0..1000).collect();
//! let seq = par_map(Parallelism::sequential(), &xs, |x| x * x);
//! let par = par_map(Parallelism::degree(4), &xs, |x| x * x);
//! assert_eq!(seq, par); // deterministic merge order
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::num::NonZeroUsize;

/// How many threads a parallelizable stage may use.
///
/// A degree of 1 ([`Parallelism::sequential`], also the `Default`) runs the
/// stage inline on the calling thread — no threads are spawned, no overhead
/// is paid. Higher degrees fork the work across that many scoped threads
/// and join before returning; results are merged in input order, so the
/// degree never changes *what* is computed, only how fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    degree: NonZeroUsize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::sequential()
    }
}

impl Parallelism {
    /// Degree 1: run inline, spawn nothing.
    pub fn sequential() -> Self {
        Parallelism {
            degree: NonZeroUsize::MIN,
        }
    }

    /// Use the given number of threads (0 is clamped to 1).
    pub fn degree(n: usize) -> Self {
        Parallelism {
            degree: NonZeroUsize::new(n.max(1)).expect("clamped to >= 1"),
        }
    }

    /// One thread per available core
    /// ([`std::thread::available_parallelism`]; 1 if unknown).
    pub fn auto() -> Self {
        Parallelism {
            degree: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The fair per-worker share of the machine when `workers` threads
    /// already run concurrently: `max(1, cores / workers)`.
    ///
    /// This is the composition rule for a serving layer: a connection pool
    /// of N workers hands each request `auto_shared(N)` so pool × intra-query
    /// threads ≈ cores instead of N × cores.
    pub fn auto_shared(workers: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Parallelism::degree(cores / workers.max(1))
    }

    /// The configured thread count (≥ 1).
    pub fn get(&self) -> usize {
        self.degree.get()
    }

    /// Whether work runs inline on the calling thread.
    pub fn is_sequential(&self) -> bool {
        self.degree.get() == 1
    }
}

/// Evenly split `len` items into at most `degree` contiguous ranges.
///
/// Every range is non-empty, ranges cover `0..len` in order, and sizes
/// differ by at most one (the first `len % chunks` ranges get the extra
/// item). Returns an empty vector for `len == 0`.
pub fn chunk_ranges(len: usize, degree: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = degree.clamp(1, len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Apply `f` to each contiguous chunk of `items`, with at most
/// `par.get()` chunks processed on as many threads; per-chunk results come
/// back **in chunk order**.
///
/// `f` receives the chunk's offset into `items` (its first element's index)
/// and the chunk slice. This is the right shape when the worker wants to
/// batch per-thread state (e.g. local accumulators that the caller merges
/// in order) instead of paying a closure call per item. The pair scorer
/// (`hummer_dupdetect::score_candidates`) composes with this directly:
/// each chunk runs the block kernel with its own scratch, and the
/// in-chunk-order merge keeps the output bit-identical to sequential.
pub fn par_chunks<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let ranges = chunk_ranges(items.len(), par.get());
    if ranges.len() <= 1 {
        return ranges.into_iter().map(|r| f(r.start, &items[r])).collect();
    }
    FORKED_THREADS.fetch_add(ranges.len() as u64, std::sync::atomic::Ordering::Relaxed);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let f = &f;
                let chunk = &items[r.clone()];
                scope.spawn(move || f(r.start, chunk))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Process-wide count of scoped worker threads ever forked by
/// [`par_chunks`] (and everything built on it). Sequential fast paths
/// spawn nothing and count nothing.
static FORKED_THREADS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Total scoped worker threads forked by this process so far — a cheap
/// gauge of how much intra-query fan-out actually happened (the server
/// exposes it as `hummer_par_forks_total`).
pub fn forked_threads_total() -> u64 {
    FORKED_THREADS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Map `f` over `items` on up to `par.get()` threads; the result vector is
/// in input order — element `i` is `f(i, &items[i])` — for any degree.
pub fn par_map_indexed<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if par.is_sequential() || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let per_chunk = par_chunks(par, items, |offset, chunk| {
        chunk
            .iter()
            .enumerate()
            .map(|(k, x)| f(offset + k, x))
            .collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for chunk in per_chunk {
        out.extend(chunk);
    }
    out
}

/// Map `f` over `items` on up to `par.get()` threads, preserving input
/// order. Equivalent to `items.iter().map(f).collect()` for any degree.
pub fn par_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(par, items, |_, x| f(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_clamps_to_one() {
        assert_eq!(Parallelism::degree(0).get(), 1);
        assert!(Parallelism::degree(0).is_sequential());
        assert_eq!(Parallelism::degree(8).get(), 8);
        assert!(!Parallelism::degree(8).is_sequential());
    }

    #[test]
    fn default_is_sequential() {
        assert!(Parallelism::default().is_sequential());
    }

    #[test]
    fn auto_is_at_least_one() {
        assert!(Parallelism::auto().get() >= 1);
    }

    #[test]
    fn auto_shared_never_zero() {
        assert!(Parallelism::auto_shared(0).get() >= 1);
        assert!(Parallelism::auto_shared(1024).get() >= 1);
        // The shares multiply to at most the machine (up to rounding).
        let workers = 4;
        let share = Parallelism::auto_shared(workers).get();
        assert!(share * workers <= Parallelism::auto().get().max(workers));
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 3, 7, 100, 101] {
            for degree in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, degree);
                assert!(ranges.len() <= degree.max(1));
                let mut expected = 0;
                for r in &ranges {
                    assert_eq!(r.start, expected, "contiguous");
                    assert!(!r.is_empty(), "no empty chunks");
                    expected = r.end;
                }
                assert_eq!(expected, len, "covers 0..len");
                if !ranges.is_empty() {
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let max = *sizes.iter().max().unwrap();
                    let min = *sizes.iter().min().unwrap();
                    assert!(max - min <= 1, "balanced: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn par_map_matches_sequential_for_all_degrees() {
        let xs: Vec<i64> = (0..997).collect();
        let expected: Vec<i64> = xs.iter().map(|x| x * 3 - 1).collect();
        for degree in 1..=9 {
            let got = par_map(Parallelism::degree(degree), &xs, |x| x * 3 - 1);
            assert_eq!(got, expected, "degree {degree}");
        }
    }

    #[test]
    fn par_map_indexed_sees_global_indices() {
        let xs = vec!["a", "b", "c", "d", "e"];
        let got = par_map_indexed(Parallelism::degree(3), &xs, |i, x| format!("{i}{x}"));
        assert_eq!(got, vec!["0a", "1b", "2c", "3d", "4e"]);
    }

    #[test]
    fn par_chunks_merges_in_chunk_order() {
        let xs: Vec<usize> = (0..100).collect();
        let sums = par_chunks(Parallelism::degree(4), &xs, |offset, chunk| {
            (offset, chunk.iter().sum::<usize>())
        });
        assert_eq!(sums.len(), 4);
        // Offsets ascend — chunk order is preserved.
        for pair in sums.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
        let total: usize = sums.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, 4950);
    }

    #[test]
    fn empty_input_is_fine() {
        let xs: Vec<u8> = Vec::new();
        assert!(par_map(Parallelism::degree(4), &xs, |x| *x).is_empty());
        assert!(par_chunks(Parallelism::degree(4), &xs, |_, c| c.len()).is_empty());
    }

    #[test]
    fn degree_larger_than_input() {
        let xs = vec![1, 2];
        assert_eq!(par_map(Parallelism::degree(64), &xs, |x| x + 1), vec![2, 3]);
    }
}
