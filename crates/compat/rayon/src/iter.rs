//! Order-preserving indexed parallel iterators.
//!
//! The model is deliberately eager and simple: an adaptor chain is a
//! list of items plus a composed `Sync` mapping; a terminal operation
//! (`collect`, `for_each`, `sum`, `count`) drains the items through a
//! scoped worker pool. The items are cut into contiguous chunks, a few
//! per worker; workers take chunks from one shared queue and map each
//! one sequentially into a vector of its own.
//! The terminal then concatenates the chunk vectors **in chunk order**,
//! so the observable output is identical to the sequential order
//! regardless of scheduling. That is the determinism contract the sweep
//! runners in `recluster-sim` build on.

use std::sync::Mutex;

use crate::current_num_threads;

/// Types convertible into a parallel iterator by value.
pub trait IntoParallelIterator {
    /// The iterator's item type.
    type Item: Send;
    /// The concrete parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

/// `par_iter()` on shared references (rayon's `IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'data> {
    /// The by-reference item type.
    type Item: Send;
    /// The concrete parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Borrowing counterpart of `into_par_iter`.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Iter = ParIter<&'data T>;
    fn par_iter(&'data self) -> Self::Iter {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Iter = ParIter<&'data T>;
    fn par_iter(&'data self) -> Self::Iter {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParIter<usize>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            items: self.collect(),
        }
    }
}

/// An indexed parallel iterator.
pub trait ParallelIterator: Sized {
    /// Item type produced by the iterator.
    type Item: Send;

    /// Drains the iterator into a vector of items **in index order**.
    fn drain_ordered(self) -> Vec<Self::Item>;

    /// Maps every item through `f` (applied on the worker threads).
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    /// Collects the mapped items in index order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.drain_ordered().into_iter().collect()
    }

    /// Runs `f` on every item (on the worker threads); completion order
    /// of side effects is unspecified, as in rayon.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let _ = self.map(f).drain_ordered();
    }

    /// Number of items.
    fn count(self) -> usize {
        self.drain_ordered().len()
    }

    /// Sums the items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.drain_ordered().into_iter().sum()
    }
}

/// The source iterator over a list of items.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;

    fn drain_ordered(self) -> Vec<T> {
        self.items
    }
}

/// The `map` adaptor.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync,
{
    type Item = R;

    fn drain_ordered(self) -> Vec<R> {
        run_indexed(self.base.drain_ordered(), &self.f)
    }
}

/// Chunks per worker in [`run_indexed`]: enough that a worker that
/// drew a slow chunk leaves the others more to claim, few enough that
/// claiming a chunk costs nothing next to mapping it.
const CHUNKS_PER_WORKER: usize = 8;

/// Applies `f` to every item on a scoped worker pool and returns the
/// results in index order.
///
/// The items are split into contiguous chunks (about
/// [`CHUNKS_PER_WORKER`] per worker). Each worker takes the next chunk
/// from one shared queue and maps it sequentially into its own vector;
/// the chunk vectors are then concatenated in chunk order, which is
/// index order. A panic in `f` panics the caller with "parallel worker
/// panicked".
fn run_indexed<T: Send, R: Send>(items: Vec<T>, f: &(impl Fn(T) -> R + Sync)) -> Vec<R> {
    let n = items.len();
    let workers = current_num_threads().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let queue = Mutex::new(
        split_chunks(items, workers * CHUNKS_PER_WORKER)
            .into_iter()
            .enumerate(),
    );
    let work = || {
        let mut done: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            // The guard drops at the end of this statement: chunks are
            // mapped outside the lock.
            let next = queue.lock().expect("chunk queue lock poisoned").next();
            let Some((k, chunk)) = next else {
                break;
            };
            done.push((k, chunk.into_iter().map(f).collect()));
        }
        done
    };
    let mut mapped: Vec<(usize, Vec<R>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("parallel worker panicked"))
            .collect()
    });

    mapped.sort_unstable_by_key(|&(k, _)| k);
    let mut results = Vec::with_capacity(n);
    for (_, out) in mapped {
        results.extend(out);
    }
    results
}

/// Splits `items` into at most `chunks` contiguous runs of near-equal
/// length (the first `len % chunks` runs are one longer), in order.
fn split_chunks<T>(items: Vec<T>, chunks: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let chunks = chunks.clamp(1, n.max(1));
    let (base, extra) = (n / chunks, n % chunks);
    let mut rest = items.into_iter();
    (0..chunks)
        .map(|k| rest.by_ref().take(base + usize::from(k < extra)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPoolBuilder;

    /// Lengths around the chunk boundaries of every tested width.
    const LENGTHS: [usize; 11] = [0, 1, 2, 7, 8, 9, 15, 16, 17, 1_000, 4_097];
    /// Pool widths the order contract must hold at.
    const WIDTHS: [usize; 4] = [1, 2, 3, 8];

    /// Runs `op` once per pool width in [`WIDTHS`], with that width
    /// installed.
    fn at_every_width(op: impl Fn(usize)) {
        for width in WIDTHS {
            let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            pool.install(|| op(width));
        }
    }

    #[test]
    fn split_chunks_covers_every_item_once_in_order() {
        for n in LENGTHS {
            for chunks in [1, 2, 3, 8, 16, 64] {
                let parts = split_chunks((0..n).collect(), chunks);
                assert!(parts.len() <= chunks.max(1), "n {n} chunks {chunks}");
                let lens: Vec<usize> = parts.iter().map(Vec::len).collect();
                let (min, max) = (lens.iter().min(), lens.iter().max());
                assert!(max.unwrap() - min.unwrap() <= 1, "uneven split {lens:?}");
                let joined: Vec<usize> = parts.into_iter().flatten().collect();
                assert_eq!(joined, (0..n).collect::<Vec<_>>(), "n {n} chunks {chunks}");
            }
        }
    }

    #[test]
    fn every_terminal_equals_the_sequential_result_at_every_width() {
        at_every_width(|width| {
            for n in LENGTHS {
                let items: Vec<u64> = (0..n as u64).map(|i| i * 7 + 3).collect();
                let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();

                let by_ref: Vec<u64> = items.par_iter().map(|&x| x * x).collect();
                assert_eq!(by_ref, expected, "par_iter, n {n}, width {width}");
                let by_value: Vec<u64> = items.clone().into_par_iter().map(|x| x * x).collect();
                assert_eq!(
                    by_value, expected,
                    "Vec::into_par_iter, n {n}, width {width}"
                );
                let from_range: Vec<usize> = (0..n).into_par_iter().map(|i| i * 3).collect();
                assert_eq!(
                    from_range,
                    (0..n).map(|i| i * 3).collect::<Vec<_>>(),
                    "Range::into_par_iter, n {n}, width {width}"
                );

                let sum: u64 = items.par_iter().map(|&x| x * x).sum();
                assert_eq!(
                    sum,
                    expected.iter().sum::<u64>(),
                    "sum, n {n}, width {width}"
                );
                let count = (0..n).into_par_iter().map(|i| i + 1).count();
                assert_eq!(count, n, "count, n {n}, width {width}");

                // The bare terminals drain the source without a map.
                let bare_sum: u64 = items.clone().into_par_iter().sum();
                assert_eq!(
                    bare_sum,
                    items.iter().sum::<u64>(),
                    "bare sum, n {n}, width {width}"
                );
                let bare_count = (0..n).into_par_iter().count();
                assert_eq!(bare_count, n, "bare count, n {n}, width {width}");
            }
        });
    }

    #[test]
    fn for_each_visits_each_index_exactly_once_at_every_width() {
        use std::sync::atomic::{AtomicU32, Ordering};
        at_every_width(|width| {
            for n in LENGTHS {
                let visits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                (0..n).into_par_iter().for_each(|i| {
                    visits[i].fetch_add(1, Ordering::Relaxed);
                });
                for (i, v) in visits.iter().enumerate() {
                    assert_eq!(
                        v.load(Ordering::Relaxed),
                        1,
                        "index {i}, n {n}, width {width}"
                    );
                }
            }
        });
    }

    #[test]
    fn uneven_work_still_merges_in_order() {
        // The first chunk is by far the slowest, so under any width > 1
        // every other chunk finishes first: finishing late must not
        // reorder its results.
        at_every_width(|width| {
            let n = 4 * CHUNKS_PER_WORKER * width;
            let slow = n / (width * CHUNKS_PER_WORKER);
            let out: Vec<usize> = (0..n)
                .into_par_iter()
                .map(|i| {
                    let spins = if i < slow { 200_000 } else { 10 };
                    let mut acc = i as u64;
                    for k in 0..spins {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                    i
                })
                .collect();
            assert_eq!(out, (0..n).collect::<Vec<_>>(), "width {width}");
        });
    }

    #[test]
    fn a_panicking_item_panics_the_caller_at_every_parallel_width() {
        for width in WIDTHS.into_iter().filter(|&w| w > 1) {
            let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            let caught = std::panic::catch_unwind(|| {
                pool.install(|| {
                    (0..100usize)
                        .into_par_iter()
                        .map(|i| {
                            assert!(i != 57, "item 57 fails");
                            i
                        })
                        .collect::<Vec<_>>()
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("parallel worker panicked"),
                "width {width}: {message:?}"
            );
        }
    }

    #[test]
    fn par_iter_borrows_and_preserves_order() {
        let words = vec!["a", "bb", "ccc", "dddd"];
        let lens: Vec<usize> = words.par_iter().map(|w| w.len()).collect();
        assert_eq!(lens, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = Vec::<usize>::new().into_par_iter().map(|i| i).collect();
        assert!(out.is_empty());
    }
}
