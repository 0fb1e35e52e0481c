//! The one scoped worker loop. Independent items (rare events, pool
//! vectors) are spread over a few threads that each own their mutable
//! state, and the results come back in item order, so the output never
//! depends on the number of threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The host's available hardware parallelism (1 when unknown), queried
/// once per process: the query reads cgroup files on Linux, which would
/// cost more than a small job's whole parallel section.
#[must_use]
pub fn host_threads() -> usize {
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    *HOST_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Computes `f(worker, i)` for every `i` in `0..len` and returns the
/// results in index order.
///
/// One scoped thread runs per element of `workers` (at most `len` of
/// them), with that element as its private `&mut` state, e.g. a search
/// engine built once and reused across items. Threads take the next
/// index from one shared counter, so a few slow items cannot pile up
/// on one thread. When `f(worker, i)` depends only on `i`, not on what
/// the worker computed before, the result is the same at any worker
/// count.
///
/// # Panics
///
/// Panics if `workers` is empty while `len > 0`. A panic inside `f` is
/// re-raised on the caller with its original payload, so campaign-level
/// isolation reports the real message.
///
/// # Examples
///
/// ```
/// let mut scratch = vec![Vec::new(); 2];
/// let squares = htforge_obs::map_indexed(&mut scratch, 5, |seen: &mut Vec<usize>, i| {
///     seen.push(i);
///     i * i
/// });
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// assert_eq!(scratch.iter().map(Vec::len).sum::<usize>(), 5);
/// ```
pub fn map_indexed<W, T, F>(workers: &mut [W], len: usize, f: F) -> Vec<T>
where
    W: Send,
    T: Send,
    F: Fn(&mut W, usize) -> T + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    assert!(!workers.is_empty(), "need at least one worker");
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .take(len)
            .map(|worker| {
                let (next, f) = (&next, &f);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break done;
                        }
                        done.push((i, f(worker, i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(len).collect();
    for (i, result) in parts.into_iter().flatten() {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index is taken exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_at_any_worker_count() {
        for threads in 1..=4 {
            let mut workers = vec![0usize; threads];
            let out = map_indexed(&mut workers, 37, |count, i| {
                *count += 1;
                i * 3
            });
            assert_eq!(out, (0..37).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(workers.iter().sum::<usize>(), 37);
        }
    }

    #[test]
    fn no_items_needs_no_workers() {
        let out: Vec<u8> = map_indexed(&mut Vec::<()>::new(), 0, |(), _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn a_worker_panic_keeps_its_payload() {
        let err = crate::isolate("map", || {
            map_indexed(&mut [(), ()], 8, |(), i| {
                assert!(i != 5, "item {i} failed");
                i
            })
        })
        .unwrap_err();
        assert_eq!(err, "panic in map: item 5 failed");
    }

    #[test]
    fn host_threads_is_positive_and_stable() {
        assert!(host_threads() >= 1);
        assert_eq!(host_threads(), host_threads());
    }
}
