//! Deterministic scoped host worker pool.
//!
//! Every host-parallel layer in the workspace — bench sweep cells, the
//! hybrid CPU backend, fleet shards and within-device batches — runs on
//! this one primitive. A kernel launch steps its warps on the calling
//! thread, so no layer nests inside a launch. [`par_map`] applies a
//! function to indexed items on up to `jobs` OS threads and returns the
//! results **in input order**, no matter how the items were scheduled.
//! Workers claim fixed-size chunks of consecutive items from a shared
//! queue, so a straggler item only delays its own chunk while idle workers
//! drain the rest.
//!
//! The pool is purely host-side machinery: it changes wall-clock time, never
//! simulated results. Callers that need bit-identical artifacts across
//! `jobs` values get that for free as long as their per-item work is
//! self-contained — the merge order here is always `0, 1, 2, …`.

use std::sync::{Mutex, PoisonError};

/// Resolves a `host_jobs`-style knob to a concrete worker count:
/// `0` means "auto" (one worker per available hardware thread), any other
/// value is used as-is.
pub fn resolve(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Applies `f` to every item on up to `jobs` threads; results come back in
/// input order regardless of scheduling.
///
/// `jobs == 0` resolves to the available hardware parallelism; `jobs <= 1`
/// (or a single item) degrades to a plain serial map on the calling thread.
/// Workers pop numbered chunks of consecutive items from a shared queue —
/// chunked work-stealing — and the finished chunks are put back in number
/// order, so the output order (and therefore every downstream merge) is
/// independent of `jobs`.
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let jobs = resolve(jobs).min(items.len().max(1));
    if jobs <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Chunks several times smaller than an even split keep workers busy when
    // per-item costs are skewed, without a claim per item.
    let chunk = items.len().div_ceil(jobs * 4).max(1);
    let mut items = items.into_iter();
    let chunks: Vec<Vec<T>> = std::iter::from_fn(|| {
        let next: Vec<T> = items.by_ref().take(chunk).collect();
        (!next.is_empty()).then_some(next)
    })
    .collect();
    let done = Mutex::new(Vec::with_capacity(chunks.len()));
    // Neither lock is held while `f` runs, and a pop or a push leaves the
    // guarded data whole, so a guard poisoned by another worker's panic is
    // still valid; that panic itself resurfaces when the scope joins.
    let queue = Mutex::new(chunks.into_iter().enumerate());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((index, chunk)) = next else { break };
                let out: Vec<R> = chunk.into_iter().map(&f).collect();
                done.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((index, out));
            });
        }
    });
    let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().flat_map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_is_auto_and_nonzero_is_identity() {
        assert!(resolve(0) >= 1);
        assert_eq!(resolve(1), 1);
        assert_eq!(resolve(7), 7);
    }

    #[test]
    fn results_are_in_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [0usize, 1, 2, 3, 8, 64] {
            let got = par_map(jobs, items.clone(), |x| x * x);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u32> = par_map(4, Vec::<u32>::new(), |x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn skewed_items_still_merge_in_order() {
        // One heavy item at the front; stealing must not reorder results.
        let items: Vec<u32> = (0..32).collect();
        let got = par_map(4, items, |x| {
            let spins = if x == 0 { 200_000 } else { 10 };
            let mut acc = x as u64;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        });
        for (i, (x, _)) in got.iter().enumerate() {
            assert_eq!(*x, i as u32);
        }
    }
}
