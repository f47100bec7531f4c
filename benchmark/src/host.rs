//! What the benchmark reads from the host it runs on: the fingerprint
//! stored with every result, process memory and CPU time from `/proc`,
//! and the counting allocator behind `host.allocs_per_pkt`.

use crate::json::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus two counters that only move while
/// [`count_allocs`] has switched them on. Off — always, outside the one
/// counting pass — it costs one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics (`Relaxed`: they publish no other data).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with allocation counting on; returns its result and the
/// `(allocations, bytes requested)` made meanwhile, on any thread.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    ALLOC_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (
        r,
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

fn proc_status_kib(key: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(f64::NAN, |k| k / 1024.0)
}

/// `(user, system)` CPU seconds this process (all threads) has used.
pub fn cpu_times() -> (f64, f64) {
    // Fields 14 and 15 of /proc/self/stat, counted after the `)` that
    // closes the command name; USER_HZ is 100 on every Linux ABI Rust
    // targets.
    let parse = || -> Option<(f64, f64)> {
        let text = std::fs::read_to_string("/proc/self/stat").ok()?;
        let rest = &text[text.rfind(')')? + 1..];
        let mut f = rest.split_whitespace().skip(11);
        let ut: f64 = f.next()?.parse().ok()?;
        let st: f64 = f.next()?.parse().ok()?;
        Some((ut / 100.0, st / 100.0))
    };
    parse().unwrap_or((f64::NAN, f64::NAN))
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host fingerprint every result carries. `rustc` and `commit` come
/// from `run.sh` through the environment (the acceptance driver's
/// checkout is not a git repository, so `commit` may be "unknown").
pub fn fingerprint(load_before: f64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Json::obj([
        ("nproc", Json::Num(cores() as f64)),
        ("cpu_model", Json::str(cpu)),
        ("loadavg_before", Json::Num(load_before)),
        ("loadavg_after", Json::Num(loadavg())),
        ("rustc", Json::str(env("EDP_BENCH_RUSTC"))),
        ("commit", Json::str(env("EDP_BENCH_COMMIT"))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_sane_values() {
        assert!(peak_rss_mib() > 0.5);
        let (u, s) = cpu_times();
        assert!(u >= 0.0 && s >= 0.0);
        assert!(cores() >= 1);
        assert!(fingerprint(loadavg()).get("cpu_model").is_some());
    }

    #[test]
    fn allocations_are_counted_only_while_switched_on() {
        let (v, n, bytes) = count_allocs(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(n >= 1 && bytes >= 4096);
        let before = ALLOCS.load(Ordering::Relaxed);
        drop(std::hint::black_box(vec![1u8; 64]));
        // Other test threads may allocate, but not through the counter.
        assert_eq!(ALLOCS.load(Ordering::Relaxed), before);
    }
}
