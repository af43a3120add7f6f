//! # wap-runtime — the shared analysis runtime
//!
//! Every parallel phase of the pipeline (parsing, per-file taint, symptom
//! collection, predictor voting, corpus sweeps) fans out through one
//! [`Runtime`]: a fixed crew of scoped worker threads pulling tasks from a
//! shared injector queue. Tasks are indexed, results are joined **in task
//! order**, and the `jobs = 1` configuration runs the exact same task
//! decomposition inline — so output is bit-identical for any job count by
//! construction.
//!
//! The implementation is dependency-free: `std::thread::scope` lets workers
//! borrow the caller's data, the injector is an atomic cursor (for indexed
//! fan-out) or a mutexed deque (for owned work items), and a panicking task
//! propagates on join like any scoped thread.
//!
//! ```
//! use wap_runtime::Runtime;
//!
//! let rt = Runtime::new(Some(4));
//! let squares = rt.run(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]

pub mod queue;
pub mod rng;
pub mod signal;

pub use queue::{JobQueue, JobStatus, SubmitError, Task};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Name of the environment variable overriding the worker count.
pub const JOBS_ENV: &str = "WAP_JOBS";

/// A reusable pool configuration for deterministic parallel fan-out.
///
/// `Runtime` is cheap to construct (it holds only the worker count); threads
/// are scoped to each [`run`](Runtime::run)/[`map`](Runtime::map) call so
/// borrowed data flows into tasks without `'static` bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runtime {
    jobs: usize,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new(None)
    }
}

impl Runtime {
    /// Creates a runtime with `jobs` workers, defaulting to
    /// [`std::thread::available_parallelism`] when `None` (and to 1 if even
    /// that is unavailable).
    pub fn new(jobs: Option<usize>) -> Self {
        let jobs = jobs.filter(|&j| j > 0).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Runtime { jobs }
    }

    /// A single-worker runtime: tasks run inline, in index order.
    pub fn serial() -> Self {
        Runtime { jobs: 1 }
    }

    /// Creates a runtime honoring the `WAP_JOBS` environment variable when
    /// `jobs` is `None`.
    pub fn from_config(jobs: Option<usize>) -> Self {
        Runtime::new(jobs.or_else(jobs_from_env))
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Splits this runtime's worker budget across `ways` concurrent
    /// job-level consumers, returning the per-consumer runtime.
    ///
    /// A resident service running several scans at once hands each scan a
    /// partitioned runtime so the file-level fan-out of all scans together
    /// never oversubscribes the configured worker count. The result always
    /// keeps at least one worker, and output is bit-identical regardless
    /// of partitioning (the per-task decomposition does not change).
    #[must_use]
    pub fn partition(&self, ways: usize) -> Runtime {
        let ways = ways.max(1);
        Runtime {
            jobs: self.jobs.div_ceil(ways).max(1),
        }
    }

    /// Runs `n` indexed tasks and returns their results in index order.
    ///
    /// Workers claim indices from a shared cursor, so a long task on one
    /// worker never blocks the rest of the queue. With one worker (or one
    /// task) everything runs inline on the caller's thread.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.jobs.min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let done = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    done.lock().expect("runtime results lock").extend(local);
                });
            }
        });
        join_in_order(done.into_inner().expect("runtime results lock"), n)
    }

    /// Consumes `items`, runs `f(index, item)` for each, and returns the
    /// results in the items' original order.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let n = items.len();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, it)| f(i, it))
                .collect();
        }
        let injector: Mutex<VecDeque<(usize, I)>> =
            Mutex::new(items.into_iter().enumerate().collect());
        let done = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let task = injector.lock().expect("runtime injector lock").pop_front();
                        let Some((i, item)) = task else { break };
                        local.push((i, f(i, item)));
                    }
                    done.lock().expect("runtime results lock").extend(local);
                });
            }
        });
        join_in_order(done.into_inner().expect("runtime results lock"), n)
    }
}

/// Sorts `(index, value)` pairs back into task order and unwraps them.
fn join_in_order<T>(mut pairs: Vec<(usize, T)>, n: usize) -> Vec<T> {
    debug_assert_eq!(pairs.len(), n);
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

/// Reads the `WAP_JOBS` environment variable; `None` when unset, empty, or
/// not a positive integer.
pub fn jobs_from_env() -> Option<usize> {
    std::env::var(JOBS_ENV)
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&j| j > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_preserves_index_order() {
        let rt = Runtime::new(Some(4));
        let out = rt.run(100, |i| {
            // stagger completion so out-of-order finishes are likely
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i * 3
        });
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_preserves_item_order() {
        let rt = Runtime::new(Some(8));
        let items: Vec<String> = (0..50).map(|i| format!("f{i}.php")).collect();
        let out = rt.map(items.clone(), |i, item| format!("{i}:{item}"));
        let want: Vec<String> = items
            .iter()
            .enumerate()
            .map(|(i, it)| format!("{i}:{it}"))
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn serial_matches_parallel() {
        let f = |i: usize| (i * 17) % 13;
        let serial = Runtime::serial().run(200, f);
        for jobs in [2, 3, 8] {
            assert_eq!(Runtime::new(Some(jobs)).run(200, f), serial);
        }
    }

    #[test]
    fn borrows_caller_data() {
        let data: Vec<usize> = (0..64).collect();
        let rt = Runtime::new(Some(4));
        let out = rt.run(data.len(), |i| data[i] + 1);
        assert_eq!(out.iter().sum::<usize>(), data.iter().sum::<usize>() + 64);
    }

    #[test]
    fn empty_and_single_task() {
        let rt = Runtime::new(Some(4));
        assert!(rt.run(0, |i| i).is_empty());
        assert_eq!(rt.run(1, |i| i + 41), vec![41]);
        assert!(rt.map(Vec::<u8>::new(), |_, b| b).is_empty());
    }

    #[test]
    fn default_jobs_positive() {
        assert!(Runtime::default().jobs() >= 1);
        assert_eq!(Runtime::new(Some(0)).jobs(), Runtime::default().jobs());
        assert_eq!(Runtime::serial().jobs(), 1);
    }

    #[test]
    fn from_config_explicit_wins() {
        assert_eq!(Runtime::from_config(Some(3)).jobs(), 3);
    }

    #[test]
    fn partition_divides_and_never_starves() {
        let rt = Runtime::new(Some(8));
        assert_eq!(rt.partition(2).jobs(), 4);
        assert_eq!(rt.partition(3).jobs(), 3); // ceil(8/3)
        assert_eq!(rt.partition(16).jobs(), 1);
        assert_eq!(rt.partition(0).jobs(), 8); // degenerate ways clamp to 1
        assert_eq!(Runtime::serial().partition(4).jobs(), 1);
    }
}
