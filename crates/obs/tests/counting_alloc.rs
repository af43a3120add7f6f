//! The sharded allocation counter with `CountingAlloc` installed: every
//! thread's allocations are counted, while the thread runs and after it
//! has exited, with more threads than the counter has shards.
//!
//! This binary installs its own global allocator. Its tests take one
//! lock, so neither allocates while the other reads the counter.

use std::hint::black_box;
use std::sync::{Barrier, Mutex};
use wap_obs::{allocations_now, CountingAlloc, Phase};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations each worker thread makes.
const PER_THREAD: u64 = 1000;
/// Worker threads per wave.
const THREADS: usize = 20;
/// Waves: 4 × 20 = 80 threads, more than the 64 counter shards.
const WAVES: usize = 4;

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn threads_that_spawn_allocate_and_exit_are_all_counted() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut floor = allocations_now();
    for _ in 0..WAVES {
        let allocated = Barrier::new(THREADS + 1);
        let release = Barrier::new(THREADS + 1);
        let before = allocations_now();
        let while_running = std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..PER_THREAD {
                        drop(black_box(Box::new(i)));
                    }
                    allocated.wait();
                    // stays alive until the main thread has read the count
                    release.wait();
                });
            }
            allocated.wait();
            let now = allocations_now();
            release.wait();
            now
        });
        let after_exit = allocations_now();
        let expected = THREADS as u64 * PER_THREAD;
        assert!(
            while_running - before >= expected,
            "running threads' allocations: {} counted, at least {expected} made",
            while_running - before
        );
        assert!(
            after_exit >= while_running,
            "exited threads' counts must persist: {after_exit} < {while_running}"
        );
        assert!(before >= floor, "the counter never goes backwards");
        floor = after_exit;
    }
}

#[test]
fn untraced_file_spans_and_events_allocate_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let job = wap_obs::disabled().job();
    // the test harness's own thread may allocate during any one attempt
    // (reporting the other test), so the quietest of several counts
    let fewest = (0..5)
        .map(|_| {
            let before = allocations_now();
            for _ in 0..100 {
                drop(black_box(job.span_file(Phase::Parse, "site/page.php")));
                job.event_file("cache_miss", "site/page.php");
            }
            allocations_now() - before
        })
        .min();
    assert_eq!(fewest, Some(0));
}
