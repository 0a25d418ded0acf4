//! The workspace's one indexed fan-out: run numbered items on scoped
//! threads and join the results by index.
//!
//! Every parallel site in the workspace — sweep grids, router buckets,
//! per-stage GCN forwards, recipe evaluations, retrain stages and
//! engine shards — has the same shape: a list of independent items
//! whose results must come back in item order, so the output is a
//! function of the item list alone and never of thread scheduling.
//! [`run_indexed`] is that shape, once.

use std::sync::{Mutex, PoisonError};

/// Run `f` over every `(index, item)` pair on up to `workers` scoped
/// threads and return the results **in item order**.
///
/// With `workers <= 1` or at most one item, `f` runs inline on the
/// caller's thread and no thread is spawned. Otherwise
/// `min(workers, items.len())` threads each pull the next item from
/// one shared cursor, so fast items take up the slack left by slow
/// ones.
///
/// A panicking job propagates with its **original payload**: the
/// remaining jobs may or may not run, every thread is joined, and then
/// the first panic seen in join order resurfaces through
/// [`std::panic::resume_unwind`] — the same observable outcome as a
/// panic in a serial loop.
///
/// # Examples
///
/// ```
/// use eda_cloud_trace::par::run_indexed;
///
/// let squares = run_indexed(4, (0..10u64).collect(), |i, v| {
///     assert_eq!(i as u64, v);
///     v * v
/// });
/// assert_eq!(squares, (0..10u64).map(|v| v * v).collect::<Vec<_>>());
/// ```
pub fn run_indexed<I, T, F>(workers: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    // The lock is held only to take the next item, never while `f`
    // runs, so a panicking job cannot poison it.
    let cursor = Mutex::new(items.into_iter().enumerate());
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (cursor, f) = (&cursor, &f);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let next = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((index, item)) = next else { return done };
                        done.push((index, f(index, item)));
                    }
                })
            })
            .collect();
        let mut indexed = Vec::new();
        let mut panic = None;
        for handle in handles {
            match handle.join() {
                Ok(done) => indexed.extend(done),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        indexed
    });
    indexed.sort_unstable_by_key(|&(index, _)| index);
    indexed.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn run_indexed_preserves_item_order() {
        let items: Vec<u64> = (0..64).collect();
        let expected: Vec<u64> = items.iter().map(|v| v * v).collect();
        for workers in [1, 2, 4, 9] {
            let got = run_indexed(workers, items.clone(), |i, v| {
                assert_eq!(i as u64, v);
                // Stagger completion so out-of-order arrival is real.
                if v % 3 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                v * v
            });
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        let none: Vec<u32> = run_indexed(4, Vec::new(), |_, v: u32| v);
        assert!(none.is_empty());
        assert_eq!(run_indexed(4, vec![7u32], |_, v| v + 1), vec![8]);
        assert_eq!(run_indexed(0, vec![1u32, 2], |_, v| v * 10), vec![10, 20]);
    }

    #[test]
    fn many_uneven_jobs_match_the_serial_output() {
        // Far more jobs than workers, with costs that vary by two
        // orders of magnitude so the shared cursor hands them out
        // unevenly; the joined output must still equal the serial run.
        let job = |i: usize, v: u64| -> u64 {
            if i.is_multiple_of(7) {
                std::thread::sleep(Duration::from_micros(300));
            }
            let rounds = 1 + (v * 2_654_435_761 % 97) * 50;
            (0..rounds).fold(v, |acc, r| acc.rotate_left(5) ^ r.wrapping_mul(0x9e37_79b9))
        };
        let items: Vec<u64> = (0..500).collect();
        let serial = run_indexed(1, items.clone(), job);
        for workers in [2, 3, 8] {
            assert_eq!(run_indexed(workers, items.clone(), job), serial, "workers={workers}");
        }
    }

    #[test]
    fn panicking_job_resurfaces_original_payload() {
        // The runner must re-raise the job's own panic, not a panic
        // of its own about a worker or a poisoned lock.
        let result = std::panic::catch_unwind(|| {
            run_indexed(4, (0..64u32).collect(), |_, v| {
                if v == 5 {
                    panic!("job 5 exploded");
                }
                v
            })
        });
        let payload = result.expect_err("runner must propagate the panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert_eq!(msg, "job 5 exploded");
    }
}
