//! Parallel parameter sweeps.
//!
//! Individual simulations are single-threaded and deterministic; experiment
//! harnesses, however, sweep parameters (pipeline speedup factors, load
//! levels, probe periods). [`sweep`] fans the points out over a fixed-size
//! pool of scoped threads and returns results in input order, so a parallel
//! sweep is byte-identical to a sequential one.
//!
//! Work distribution is a single shared atomic cursor over the input slice:
//! each worker claims the next index with `fetch_add`, so there is no lock
//! to contend on the hot path and no allocation per claim.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A worker panic captured by [`sweep`]: the offending point index plus
/// the original payload, so the failure can be re-raised with context.
struct SweepPanic {
    point: usize,
    payload: Box<dyn std::any::Any + Send>,
}

/// Runs `f` once per input point across `threads` worker threads.
///
/// Results come back in the order of `points`, independent of scheduling.
/// `f` must be `Sync` (it is shared by reference across workers); per-run
/// state, including RNG seeds, should be derived from the point itself.
///
/// # Panics
///
/// If `f` panics for some point, the sweep stops handing out new work,
/// waits for in-flight points, and re-raises the *first* (lowest-index)
/// captured panic with the offending point index prepended to string
/// payloads — instead of the opaque poisoned-mutex abort this used to
/// produce.
pub fn sweep<P, R, F>(points: Vec<P>, threads: usize, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let threads = threads.max(1);
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    // Points move into per-slot cells so workers can take ownership of a
    // claimed point; each cell is touched exactly once, so the per-slot
    // mutexes are uncontended by construction.
    let work: Vec<Mutex<Option<P>>> = points.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let panics: Mutex<Vec<SweepPanic>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let p = match work[idx].lock() {
                    Ok(mut cell) => cell.take().expect("sweep point claimed twice"),
                    // Another worker panicked while holding this cell;
                    // its own capture carries the real payload.
                    Err(_) => break,
                };
                // Capture the panic instead of letting it poison the slot
                // mutexes: the payload (with its point index) is what the
                // caller needs, not a "sweep point poisoned" abort.
                match std::panic::catch_unwind(AssertUnwindSafe(|| f(p))) {
                    Ok(r) => {
                        if let Ok(mut slot) = slots[idx].lock() {
                            *slot = Some(r);
                        }
                    }
                    Err(payload) => {
                        failed.store(true, Ordering::Relaxed);
                        if let Ok(mut ps) = panics.lock() {
                            ps.push(SweepPanic {
                                point: idx,
                                payload,
                            });
                        }
                    }
                }
            });
        }
    });

    let mut captured = panics.into_inner().unwrap_or_default();
    if !captured.is_empty() {
        captured.sort_by_key(|p| p.point);
        let SweepPanic { point, payload } = captured.remove(0);
        // Re-raise with the point index attached when the payload is a
        // plain message; otherwise resume the original payload untouched
        // (typed payloads may be downcast by the caller).
        if let Some(msg) = payload.downcast_ref::<&str>() {
            panic!("sweep point {point} panicked: {msg}");
        }
        if let Some(msg) = payload.downcast_ref::<String>() {
            panic!("sweep point {point} panicked: {msg}");
        }
        eprintln!("sweep point {point} panicked (non-string payload)");
        std::panic::resume_unwind(payload);
    }

    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("sweep slot poisoned")
                .expect("sweep slot unfilled: worker exited without a result")
        })
        .collect()
}

/// A sensible default worker count: available parallelism capped at 8
/// (simulation sweeps are memory-bandwidth-bound beyond that). The cap can
/// be overridden with the `EDP_SWEEP_THREADS` environment variable, e.g.
/// to pin CI boxes to a single worker or to use a bigger machine fully.
/// A value that is not a non-negative integer exits with a diagnostic
/// naming it ([`crate::env_config_error`]).
pub fn default_threads() -> usize {
    let raw = std::env::var_os("EDP_SWEEP_THREADS").unwrap_or_default();
    let raw = raw.to_string_lossy();
    match parse_threads(&raw) {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8),
        Err(()) => crate::env_config_error(
            "EDP_SWEEP_THREADS",
            raw.trim(),
            "a non-negative worker count (0 clamps to 1)",
        ),
    }
}

/// Parses an `EDP_SWEEP_THREADS` value: blank means unset (`None`), a
/// non-negative integer is clamped to at least one worker, anything else
/// is an error.
fn parse_threads(raw: &str) -> Result<Option<usize>, ()> {
    let v = raw.trim();
    if v.is_empty() {
        return Ok(None);
    }
    v.parse::<usize>().map(|n| Some(n.max(1))).map_err(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let points: Vec<u64> = (0..64).collect();
        let out = sweep(points.clone(), 4, |p| p * 2);
        assert_eq!(out, points.iter().map(|p| p * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_matches_multi() {
        let points: Vec<u64> = (0..32).collect();
        let a = sweep(points.clone(), 1, |p| p * p + 1);
        let b = sweep(points, 7, |p| p * p + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u64> = sweep(Vec::<u64>::new(), 4, |p| p);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_points() {
        let out = sweep(vec![1u32, 2], 16, |p| p + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn worker_panic_carries_point_index_and_payload() {
        let err = std::panic::catch_unwind(|| {
            sweep(vec![0u64, 1, 2, 3], 2, |p| {
                if p == 2 {
                    panic!("boom at load {p}");
                }
                p
            })
        })
        .expect_err("sweep must propagate the worker panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert!(
            msg.contains("sweep point 2") && msg.contains("boom at load 2"),
            "panic message must name the point and original payload, got: {msg}"
        );
    }

    #[test]
    fn panic_on_every_point_reports_lowest_index() {
        let err = std::panic::catch_unwind(|| {
            sweep(vec![0u64, 1, 2, 3], 1, |p: u64| -> u64 { panic!("p{p}") })
        })
        .expect_err("sweep must propagate");
        let msg = err.downcast_ref::<String>().cloned().expect("string");
        assert!(msg.contains("sweep point 0"), "got: {msg}");
    }

    #[test]
    fn env_var_overrides_default_threads() {
        // Serialized against other env readers by Rust's test harness only
        // per-process; keep the touched variable unique to this test.
        std::env::set_var("EDP_SWEEP_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("EDP_SWEEP_THREADS", "0");
        assert_eq!(default_threads(), 1, "zero clamps to one worker");
        std::env::remove_var("EDP_SWEEP_THREADS");
        assert!(default_threads() >= 1);
        // Garbage exits the process, so those inputs go to the pure parser.
        assert_eq!(parse_threads(" 3 "), Ok(Some(3)));
        assert_eq!(parse_threads(""), Ok(None), "empty means unset");
        assert_eq!(parse_threads("  "), Ok(None), "blank means unset");
        assert_eq!(parse_threads("abc"), Err(()));
        assert_eq!(parse_threads("-1"), Err(()));
    }
}
