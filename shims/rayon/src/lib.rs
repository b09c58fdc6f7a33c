//! Offline shim for `rayon` 1.x: data parallelism over `std::thread::scope`.
//!
//! Implements exactly the surface the DICE workspace uses — `into_par_iter`
//! / `par_iter` on ranges, vectors, and slices, followed by `.map(...)` and
//! `.collect::<Vec<_>>()` (plus `for_each` / `sum`). Work is split into one
//! contiguous chunk per worker thread and results are reassembled in input
//! order, so a `map → collect` pipeline returns exactly what the serial
//! `iter().map().collect()` would — the property the deterministic
//! experiment runner relies on.
//!
//! Differences from upstream rayon:
//!
//! * no work stealing: items are pre-chunked, so heavily skewed workloads
//!   balance worse than under real rayon (results are still identical);
//! * no global thread pool: every `collect` spawns workers − 1 short-lived
//!   scoped threads, with the caller taking the last chunk (fine for the
//!   coarse per-trial/per-dataset/per-training-chunk tasks we run);
//! * `RAYON_NUM_THREADS` is read once, at the first parallel section, as
//!   upstream reads it when it builds its global pool; `RAYON_NUM_THREADS=1`
//!   set at process start forces the serial path, which tests use to
//!   compare serial vs parallel output.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// The worker-thread count: `RAYON_NUM_THREADS` if set and positive, else
/// the machine's available parallelism. Read on the first call and fixed
/// for the life of the process.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Runs `f` over `items`, one contiguous chunk per worker, and returns the
/// results in input order.
fn par_map_vec<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_vec_on(current_num_threads(), items, f)
}

/// [`par_map_vec`] on at most `workers` threads: every chunk but the last
/// on a scoped thread of its own, the last on the calling thread. A panic
/// in any chunk propagates to the caller.
fn par_map_vec_on<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = workers.min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Split into `threads` contiguous chunks (the first chunks get the
    // remainder), preserving order.
    let (base, extra) = (n / threads, n % threads);
    let mut items = items.into_iter();
    let mut chunks: Vec<Vec<T>> = (0..threads)
        .map(|i| items.by_ref().take(base + usize::from(i < extra)).collect())
        .collect();
    let last = chunks.pop().expect("at least two chunks");

    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let tail: Vec<R> = last.into_iter().map(f).collect();
        let mut out = Vec::with_capacity(n);
        for handle in handles {
            match handle.join() {
                Ok(chunk) => out.extend(chunk),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out.extend(tail);
        out
    })
}

/// Parallel-iterator adapters.
pub mod iter {
    use super::par_map_vec;

    /// Conversion into a parallel iterator (by value).
    pub trait IntoParallelIterator {
        /// The element type.
        type Item: Send;
        /// Converts `self` into a [`ParIter`].
        fn into_par_iter(self) -> ParIter<Self::Item>;
    }

    /// Conversion into a parallel iterator over references.
    pub trait IntoParallelRefIterator<'a> {
        /// The borrowed element type.
        type Item: Send + 'a;
        /// Borrows `self` as a [`ParIter`] of references.
        fn par_iter(&'a self) -> ParIter<Self::Item>;
    }

    /// A materialized parallel iterator: the items to process, in order.
    pub struct ParIter<T> {
        items: Vec<T>,
    }

    impl<T: Send> ParIter<T> {
        /// Maps every item through `f` in parallel.
        pub fn map<R, F>(self, f: F) -> ParMap<T, F>
        where
            R: Send,
            F: Fn(T) -> R + Sync,
        {
            ParMap {
                items: self.items,
                f,
            }
        }

        /// Runs `f` on every item in parallel.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(T) + Sync,
        {
            par_map_vec(self.items, f);
        }
    }

    /// The result of [`ParIter::map`]; executes on `collect`.
    pub struct ParMap<T, F> {
        items: Vec<T>,
        f: F,
    }

    impl<T, R, F> ParMap<T, F>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        /// Executes the pipeline and collects results in input order.
        pub fn collect<C: FromParallelIterator<R>>(self) -> C {
            C::from_ordered_vec(par_map_vec(self.items, self.f))
        }

        /// Executes the pipeline and sums the results.
        pub fn sum<S: std::iter::Sum<R>>(self) -> S {
            par_map_vec(self.items, self.f).into_iter().sum()
        }
    }

    /// Collection types a parallel pipeline can collect into.
    pub trait FromParallelIterator<T> {
        /// Builds the collection from results already in input order.
        fn from_ordered_vec(items: Vec<T>) -> Self;
    }

    impl<T> FromParallelIterator<T> for Vec<T> {
        fn from_ordered_vec(items: Vec<T>) -> Self {
            items
        }
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;
        fn into_par_iter(self) -> ParIter<T> {
            ParIter { items: self }
        }
    }

    impl<T: Send> IntoParallelIterator for std::ops::Range<T>
    where
        std::ops::Range<T>: Iterator<Item = T>,
    {
        type Item = T;
        fn into_par_iter(self) -> ParIter<T> {
            ParIter {
                items: self.collect(),
            }
        }
    }

    impl<T: Send> IntoParallelIterator for std::ops::RangeInclusive<T>
    where
        std::ops::RangeInclusive<T>: Iterator<Item = T>,
    {
        type Item = T;
        fn into_par_iter(self) -> ParIter<T> {
            ParIter {
                items: self.collect(),
            }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
        type Item = &'a T;
        fn par_iter(&'a self) -> ParIter<&'a T> {
            ParIter {
                items: self.iter().collect(),
            }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = &'a T;
        fn par_iter(&'a self) -> ParIter<&'a T> {
            ParIter {
                items: self.iter().collect(),
            }
        }
    }
}

/// The `use rayon::prelude::*` surface.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator, ParIter, ParMap};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, par_map_vec_on};
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    /// Maps `items` on `workers` threads, returning the results and the
    /// distinct threads that ran the closure.
    fn traced_map(workers: usize, items: Vec<u64>) -> (Vec<u64>, HashSet<ThreadId>) {
        let seen = Mutex::new(HashSet::new());
        let out = par_map_vec_on(workers, items, |i| {
            seen.lock().unwrap().insert(thread::current().id());
            i * 3 + 1
        });
        (out, seen.into_inner().unwrap())
    }

    #[test]
    fn caller_runs_one_chunk_on_at_most_workers_threads() {
        let caller = thread::current().id();
        for workers in 2..=5 {
            for n in [2, workers, workers + 1, 1000] {
                let (out, threads) = traced_map(workers, (0..n as u64).collect());
                assert_eq!(out.len(), n);
                assert!(threads.contains(&caller), "workers={workers} n={n}");
                assert!(threads.len() <= workers, "workers={workers} n={n}");
            }
        }
    }

    #[test]
    fn serial_widths_stay_on_the_calling_thread() {
        let caller = thread::current().id();
        for (workers, n) in [(1, 1000), (4, 1), (4, 0)] {
            let (_, threads) = traced_map(workers, (0..n).collect());
            assert!(threads.iter().all(|&t| t == caller));
        }
    }

    #[test]
    fn order_is_kept_at_every_split() {
        for workers in 1..=5 {
            for n in [1, workers - 1, workers + 1, 1000] {
                let items: Vec<u64> = (0..n as u64).collect();
                let expected: Vec<u64> = items.iter().map(|i| i * 3 + 1).collect();
                assert_eq!(traced_map(workers, items).0, expected, "workers={workers}");
            }
        }
    }

    #[test]
    fn process_pool_collect_uses_the_caller_and_at_most_the_pool() {
        let workers = current_num_threads();
        let caller = thread::current().id();
        let seen = Mutex::new(HashSet::new());
        for n in [1, workers.saturating_sub(1), workers + 1, 1000] {
            let out: Vec<usize> = (0..n)
                .into_par_iter()
                .map(|i| {
                    seen.lock().unwrap().insert(thread::current().id());
                    i
                })
                .collect();
            assert_eq!(out, (0..n).collect::<Vec<_>>());
            let threads = std::mem::take(&mut *seen.lock().unwrap());
            assert!(threads.len() <= workers);
            if n > 0 {
                assert!(threads.contains(&caller));
            }
        }
    }

    #[test]
    #[should_panic(expected = "caller chunk")]
    fn panic_in_the_callers_chunk_propagates() {
        let caller = thread::current().id();
        par_map_vec_on(2, vec![0, 1, 2, 3], |i| {
            assert!(thread::current().id() != caller, "caller chunk");
            i
        });
    }

    #[test]
    #[should_panic(expected = "spawned chunk")]
    fn panic_in_a_spawned_chunk_propagates() {
        let caller = thread::current().id();
        par_map_vec_on(2, vec![0, 1, 2, 3], |i| {
            assert!(thread::current().id() == caller, "spawned chunk");
            i
        });
    }

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<u64> = (0u64..1000).into_par_iter().map(|i| i * 2).collect();
        let expected: Vec<u64> = (0u64..1000).map(|i| i * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn slice_par_iter_borrows() {
        let data = vec![String::from("a"), String::from("bb"), String::from("ccc")];
        let lens: Vec<usize> = data.par_iter().map(String::len).collect();
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn sum_matches_serial() {
        let par: u64 = (1u64..=100).into_par_iter().map(|i| i).sum();
        assert_eq!(par, 5050);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x).collect();
        assert!(empty.is_empty());
        let one: Vec<u32> = vec![7].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }
}
