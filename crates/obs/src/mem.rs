//! Process memory and allocation accounting for the cold-path summary.
//!
//! Two zero-dependency probes, both observation-only (they can never
//! influence findings or machine-format bytes):
//!
//! * [`CountingAlloc`] — a global-allocator wrapper around the system
//!   allocator that counts every allocating call. A *binary* opts in by
//!   installing it with `#[global_allocator]`; when it is not installed
//!   (unit tests, library consumers) the counter simply stays at zero and
//!   the pipeline reports no allocation figure.
//! * [`peak_rss_bytes`] — the process's peak resident set size, read
//!   from `/proc/self/status` (`VmHWM`) on Linux; 0 where unknown.
//!
//! ## Why the counter is sharded
//!
//! Every allocation on every thread passes through the counter, so one
//! shared atomic is a cache line all scan threads write: on a 2-job scan
//! of a 257k-LoC app a profile put 7.6% of the CPU time in that one
//! `fetch_add` (3.1% at 1 job). The count is instead spread over
//! 64 cache-line-padded atomics. Each thread picks its shard once,
//! round-robin, and keeps it in a const-initialised thread-local with no
//! destructor, so the lookup neither allocates nor locks and works inside
//! the allocator. [`allocations_now`] sums the shards, so the total stays
//! exact: a shard keeps the counts of threads that have exited.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of counter shards; threads beyond this share shards.
const SHARDS: usize = 64;

/// One counter on its own cache line, so two threads' increments never
/// contend for a line.
#[repr(align(64))]
struct Shard(AtomicU64);

static COUNTS: [Shard; SHARDS] = [const { Shard(AtomicU64::new(0)) }; SHARDS];

/// Hands out shard indices to threads, round-robin.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// Marks a thread that has not picked its shard yet.
const UNASSIGNED: usize = usize::MAX;

thread_local! {
    // `usize` needs no destructor, so this slot registers none and never
    // allocates: it is safe to touch from inside the global allocator.
    static MY_SHARD: Cell<usize> = const { Cell::new(UNASSIGNED) };
}

/// Counts one allocating call on the calling thread's shard. A thread
/// whose thread-locals are already torn down counts on shard 0.
#[inline]
fn count_one() {
    let shard = MY_SHARD
        .try_with(|slot| {
            let mut i = slot.get();
            if i == UNASSIGNED {
                i = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
                slot.set(i);
            }
            i
        })
        .unwrap_or(0);
    COUNTS[shard].0.fetch_add(1, Ordering::Relaxed);
}

/// A system-allocator wrapper counting every allocating call
/// (`alloc`/`alloc_zeroed`/`realloc`). Install in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: wap_obs::CountingAlloc = wap_obs::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the only
// addition is `count_one`, a thread-local read and a relaxed atomic
// increment, which neither allocate nor lock.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total allocating calls since process start, on every thread, exited
/// ones included. Stays 0 unless the running binary installed
/// [`CountingAlloc`]; diff two readings to attribute allocations to a
/// region of work. Each shard only grows, so a later reading is never
/// below an earlier one.
pub fn allocations_now() -> u64 {
    COUNTS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// The process's peak resident set size in bytes (Linux `VmHWM`), or 0
/// when the platform does not expose it.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_counter_is_monotonic() {
        let a = allocations_now();
        let _v: Vec<u8> = Vec::with_capacity(4096);
        let b = allocations_now();
        // the test binary may or may not have the allocator installed;
        // either way the counter never goes backwards
        assert!(b >= a);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_bytes() > 0, "VmHWM must parse on Linux");
    }
}
