//! Zero-dependency deterministic fork-join runtime.
//!
//! The paper's evaluation is hundreds of independent trace-driven
//! simulations (20 benchmarks × ~7 execution schemes × sensitivity
//! sweeps). Each job is pure — a function of its inputs — so the only
//! thing a parallel runtime must guarantee is that *results come back
//! in input order*, making parallel and serial runs bit-identical.
//!
//! This crate provides exactly that on `std::thread::scope`:
//!
//! * **Chunked work-stealing**: workers claim contiguous index chunks
//!   from a shared `AtomicUsize` cursor, so an expensive item (a `paper`
//!   scale simulation) doesn't leave the other workers idle behind a
//!   static partition.
//! * **Ordered collection**: each result is written to its input index;
//!   output order never depends on thread scheduling.
//! * **Sized by the host**: thread count comes from
//!   `std::thread::available_parallelism`, overridable with the
//!   `NDC_THREADS` environment variable (`NDC_THREADS=1` forces the
//!   serial path — the determinism baseline `scripts/verify.sh` diffs
//!   against).
//! * **No nested oversubscription**: a `parallel_map` issued from inside
//!   a worker runs serially on that worker. The experiment harness fans
//!   out per-benchmark and then per-scheme; only the outer level spawns.
//!
//! Panics in a worker propagate to the caller (the scope re-raises
//! them), so assertion failures inside parallel property tests behave
//! like serial ones.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set while the current thread is an ndc-par worker; nested
    /// `parallel_map` calls observe it and degrade to serial execution.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads a top-level `parallel_map` will use:
/// `NDC_THREADS` if set to a positive integer, else the host's
/// available parallelism, else 1.
pub fn num_threads() -> usize {
    std::env::var("NDC_THREADS")
        .ok()
        .and_then(|v| parse_threads(&v))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Parse an `NDC_THREADS` value: a positive integer (surrounding
/// whitespace tolerated) or `None` for anything else — empty, garbage,
/// and `0` all fall back to the host's available parallelism rather
/// than silently forcing a serial run.
pub fn parse_threads(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// True when called from inside an ndc-par worker thread.
pub fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Apply `f` to every element of `items`, in parallel, returning the
/// results **in input order** regardless of thread count or scheduling.
///
/// `f` must be a pure function of its argument for the determinism
/// guarantee to mean anything; every call site in this workspace
/// satisfies that (simulations are deterministic given their inputs).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_indexed(items.len(), |i| f(&items[i]))
}

/// Like [`parallel_map`] but hands the closure the element index —
/// useful for seeding per-case PRNGs in property tests.
pub fn parallel_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_indexed(items.len(), |i| f(i, &items[i]))
}

/// Core driver: evaluate `f(0..n)` across the worker pool, ordered.
pub fn map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = if in_worker() {
        1
    } else {
        num_threads().min(n.max(1))
    };
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }

    // Small chunks keep the pool balanced when item costs are skewed
    // (one `paper`-scale benchmark vs. nineteen `test`-scale ones);
    // claiming by chunk keeps cursor contention negligible.
    let chunk = (n / (threads * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                IN_WORKER.with(|flag| flag.set(true));
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for i in start..(start + chunk).min(n) {
                        local.push((i, f(i)));
                    }
                }
                results.lock().unwrap().extend(local);
                IN_WORKER.with(|flag| flag.set(false));
            });
        }
    });

    let mut pairs = results.into_inner().unwrap();
    debug_assert_eq!(pairs.len(), n);
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Run two independent closures, potentially in parallel, returning
/// both results. Serial when nested inside a worker.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if in_worker() || num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(|| {
            IN_WORKER.with(|flag| flag.set(true));
            let r = b();
            IN_WORKER.with(|flag| flag.set(false));
            r
        });
        // The caller's thread is the pool's other worker while `a()`
        // runs: without the mark, a nested `parallel_map` inside `a()`
        // would spawn a second full pool while `b()` is still running,
        // oversubscribing the host.
        let was = IN_WORKER.with(|flag| flag.replace(true));
        let ra = a();
        IN_WORKER.with(|flag| flag.set(was));
        (ra, hb.join().unwrap())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn ordered_results_match_serial() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        let par = parallel_map(&items, |x| x * x + 1);
        assert_eq!(par, serial);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, |x| *x).is_empty());
        assert_eq!(parallel_map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn indexed_variant_sees_indices() {
        let items = ["a", "b", "c"];
        let out = parallel_map_indexed(&items, |i, s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn nested_calls_run_serially() {
        let saw_nested_parallel = AtomicBool::new(false);
        let outer: Vec<usize> = (0..8).collect();
        let out = parallel_map(&outer, |&i| {
            // Inside a worker, a nested map must not spawn again.
            let inner: Vec<usize> = (0..4).collect();
            let r = parallel_map(&inner, |&j| {
                if !in_worker() {
                    saw_nested_parallel.store(true, Ordering::Relaxed);
                }
                i * 10 + j
            });
            r.iter().sum::<usize>()
        });
        assert_eq!(out.len(), 8);
        // When the outer map parallelized, inner closures ran on worker
        // threads; either way nothing escaped the pool.
        assert!(!saw_nested_parallel.load(Ordering::Relaxed) || num_threads() == 1);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "ok".to_string());
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn parse_threads_rejects_garbage_and_zero() {
        // Garbage, empty, and zero must fall back (None), not force 1.
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("abc"), None);
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-3"), None);
        // Valid values parse, with surrounding whitespace tolerated.
        assert_eq!(parse_threads(" 8 "), Some(8));
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads("16"), Some(16));
    }

    #[test]
    fn join_marks_caller_side_as_worker() {
        // Both closures must see themselves inside the pool, so nested
        // parallel_map calls in either arm degrade to serial instead of
        // spawning a second pool. When the host is serial (1 thread),
        // join never spawns and the flags legitimately stay unset.
        if num_threads() <= 1 {
            return;
        }
        let (a_marked, b_marked) = join(in_worker, in_worker);
        assert!(a_marked, "caller side of join must be marked as a worker");
        assert!(b_marked, "spawned side of join must be marked as a worker");
        // The mark is scoped to the join: the caller is clean afterwards.
        assert!(!in_worker());
    }

    #[test]
    fn nothing_nested_escapes_join() {
        if num_threads() <= 1 {
            return;
        }
        let escaped = AtomicBool::new(false);
        let nested = |tag: usize| {
            let items: Vec<usize> = (0..8).collect();
            let out = parallel_map(&items, |&j| {
                if !in_worker() {
                    escaped.store(true, Ordering::Relaxed);
                }
                tag * 100 + j
            });
            out.iter().sum::<usize>()
        };
        let (ra, rb) = join(|| nested(1), || nested(2));
        assert_eq!(ra, (0..8).map(|j| 100 + j).sum::<usize>());
        assert_eq!(rb, (0..8).map(|j| 200 + j).sum::<usize>());
        assert!(
            !escaped.load(Ordering::Relaxed),
            "a nested parallel_map inside join spawned a second pool"
        );
    }

    #[test]
    fn skewed_costs_still_ordered() {
        // Make early items much slower than late ones so chunks finish
        // out of order; output order must not change.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..32).collect();
        let _ = parallel_map(&items, |&x| {
            assert!(x != 17, "boom");
            x
        });
    }
}
