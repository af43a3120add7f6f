//! Service counters, latency histograms, and their Prometheus exposition.
//!
//! Counters are plain atomics bumped by HTTP handlers and executors;
//! latency distributions are [`wap_obs::Histogram`]s fed from each scan's
//! [`wap_report::ScanStats`] and from queue timestamps. The `/metrics`
//! endpoint renders everything in the text exposition format (one
//! `# TYPE` line per family). Queue depth and in-flight gauges are read
//! from the live [`crate::queue::JobQueue`] at render time rather than
//! mirrored here, so they can never go stale.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use wap_obs::Histogram;
use wap_report::{AppReport, Phase};

/// The pipeline phases exposed as per-phase latency series. These are the
/// phases every scan measures unconditionally (the finer traced phases
/// only exist when a collector is enabled), plus the CFG and lint phases,
/// which are zero unless a scan requested `?lint=1` or guard attributes.
pub const EXPOSED_PHASES: [Phase; 6] = [
    Phase::Parse,
    Phase::Taint,
    Phase::Predict,
    Phase::Cache,
    Phase::Cfg,
    Phase::Lint,
];

/// Monotonic service counters and latency histograms.
#[derive(Debug)]
pub struct Metrics {
    /// Scans admitted to the queue.
    pub jobs_accepted: AtomicU64,
    /// Scans refused at admission (queue full).
    pub jobs_rejected: AtomicU64,
    /// Scans refused because the server was draining.
    pub jobs_refused_draining: AtomicU64,
    /// Scans that finished and produced a report.
    pub jobs_completed: AtomicU64,
    /// Scans that failed.
    pub jobs_failed: AtomicU64,
    /// Requests that could not be parsed or routed.
    pub bad_requests: AtomicU64,
    /// Incremental-cache hits across all scans.
    pub cache_hits: AtomicU64,
    /// Incremental-cache misses across all scans.
    pub cache_misses: AtomicU64,
    /// Incremental-cache entries stored across all scans.
    pub cache_stored: AtomicU64,
    /// Entries served by the remote cache peer across all scans.
    pub remote_cache_hits: AtomicU64,
    /// Remote-peer lookups that found nothing.
    pub remote_cache_misses: AtomicU64,
    /// Remote-peer lookups that failed (unreachable, corrupt payload) and
    /// degraded to the local path.
    pub remote_cache_errors: AtomicU64,
    /// Scans answered `307` because a fleet peer owns their cache key.
    pub jobs_redirected: AtomicU64,
    /// `POST /v1/batch` requests accepted.
    pub batch_requests: AtomicU64,
    /// End-to-end scan latency (admission excluded), seconds.
    pub scan_duration: Histogram,
    /// Time from admission to executor pickup, seconds.
    pub queue_wait: Histogram,
    /// Per-phase time within each scan, one histogram per
    /// [`EXPOSED_PHASES`] entry.
    pub phase_durations: [Histogram; 6],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            jobs_accepted: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_refused_draining: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_stored: AtomicU64::new(0),
            remote_cache_hits: AtomicU64::new(0),
            remote_cache_misses: AtomicU64::new(0),
            remote_cache_errors: AtomicU64::new(0),
            jobs_redirected: AtomicU64::new(0),
            batch_requests: AtomicU64::new(0),
            scan_duration: Histogram::default(),
            queue_wait: Histogram::default(),
            phase_durations: std::array::from_fn(|_| Histogram::default()),
        }
    }
}

impl Metrics {
    /// Bumps a counter by one.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one finished scan's statistics into the totals. Every
    /// completed scan contributes exactly one observation to the scan
    /// histogram and to each per-phase histogram, so their `_count`
    /// series always agree with `jobs_completed`.
    pub fn record_report(&self, report: &AppReport) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        self.cache_hits
            .fetch_add(report.cache.hits, Ordering::Relaxed);
        self.cache_misses
            .fetch_add(report.cache.misses, Ordering::Relaxed);
        self.cache_stored
            .fetch_add(report.cache.stored, Ordering::Relaxed);
        self.remote_cache_hits
            .fetch_add(report.cache.remote_hits, Ordering::Relaxed);
        self.remote_cache_misses
            .fetch_add(report.cache.remote_misses, Ordering::Relaxed);
        self.remote_cache_errors
            .fetch_add(report.cache.remote_errors, Ordering::Relaxed);
        self.scan_duration
            .observe_ns(report.duration.as_nanos().min(u64::MAX as u128) as u64);
        for (i, phase) in EXPOSED_PHASES.iter().enumerate() {
            self.phase_durations[i].observe_ns(report.stats.phase_ns(*phase));
        }
    }

    /// Records how long one scan sat in the queue before an executor
    /// claimed it.
    pub fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait
            .observe_ns(wait.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Renders the text exposition, with the live queue gauges supplied by
    /// the caller.
    pub fn render(&self, queue_depth: usize, in_flight: usize) -> String {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::new();
        let mut gauge = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        };
        gauge(
            "wap_serve_queue_depth",
            "Scans admitted and waiting for an executor.",
            queue_depth as u64,
        );
        gauge(
            "wap_serve_jobs_in_flight",
            "Scans currently being analyzed.",
            in_flight as u64,
        );
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        counter(
            "wap_serve_jobs_accepted_total",
            "Scans admitted to the queue.",
            g(&self.jobs_accepted),
        );
        counter(
            "wap_serve_jobs_rejected_total",
            "Scans refused at admission (queue full).",
            g(&self.jobs_rejected),
        );
        counter(
            "wap_serve_jobs_refused_draining_total",
            "Scans refused during graceful shutdown.",
            g(&self.jobs_refused_draining),
        );
        counter(
            "wap_serve_jobs_completed_total",
            "Scans that produced a report.",
            g(&self.jobs_completed),
        );
        counter(
            "wap_serve_jobs_failed_total",
            "Scans that failed.",
            g(&self.jobs_failed),
        );
        counter(
            "wap_serve_bad_requests_total",
            "Requests that could not be parsed or routed.",
            g(&self.bad_requests),
        );
        counter(
            "wap_serve_cache_hits_total",
            "Incremental-cache hits across scans.",
            g(&self.cache_hits),
        );
        counter(
            "wap_serve_cache_misses_total",
            "Incremental-cache misses across scans.",
            g(&self.cache_misses),
        );
        counter(
            "wap_serve_cache_stored_total",
            "Incremental-cache entries stored across scans.",
            g(&self.cache_stored),
        );
        counter(
            "wap_serve_remote_cache_hits_total",
            "Incremental-cache entries served by the remote peer.",
            g(&self.remote_cache_hits),
        );
        counter(
            "wap_serve_remote_cache_misses_total",
            "Remote-peer lookups that found nothing.",
            g(&self.remote_cache_misses),
        );
        counter(
            "wap_serve_remote_cache_errors_total",
            "Remote-peer lookups that failed and fell back to local.",
            g(&self.remote_cache_errors),
        );
        counter(
            "wap_serve_jobs_redirected_total",
            "Scans answered 307 because a fleet peer owns the key.",
            g(&self.jobs_redirected),
        );
        counter(
            "wap_serve_batch_requests_total",
            "Batch scan requests accepted.",
            g(&self.batch_requests),
        );
        // the historical per-phase counter, now derived from the phase
        // histograms so the two families can never disagree
        out.push_str(
            "# HELP wap_serve_phase_ns_total Nanoseconds per pipeline phase, summed over scans.\n\
             # TYPE wap_serve_phase_ns_total counter\n",
        );
        for (i, phase) in EXPOSED_PHASES.iter().enumerate() {
            out.push_str(&format!(
                "wap_serve_phase_ns_total{{phase=\"{}\"}} {}\n",
                phase.name(),
                self.phase_durations[i].sum_ns()
            ));
        }
        out.push_str(
            "# HELP wap_serve_scan_duration_seconds End-to-end scan latency.\n\
             # TYPE wap_serve_scan_duration_seconds histogram\n",
        );
        self.scan_duration
            .render_into(&mut out, "wap_serve_scan_duration_seconds", "");
        out.push_str(
            "# HELP wap_serve_queue_wait_seconds Time from admission to executor pickup.\n\
             # TYPE wap_serve_queue_wait_seconds histogram\n",
        );
        self.queue_wait
            .render_into(&mut out, "wap_serve_queue_wait_seconds", "");
        out.push_str(
            "# HELP wap_serve_phase_duration_seconds Per-scan time spent in each pipeline phase.\n\
             # TYPE wap_serve_phase_duration_seconds histogram\n",
        );
        for (i, phase) in EXPOSED_PHASES.iter().enumerate() {
            self.phase_durations[i].render_into(
                &mut out,
                "wap_serve_phase_duration_seconds",
                &format!("phase=\"{}\"", phase.name()),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Maps a series name to the family that must carry its `# TYPE`
    /// line: histogram series drop their `_bucket`/`_sum`/`_count`
    /// suffix.
    fn family_of(name: &str) -> &str {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if base.ends_with("_seconds") {
                    return base;
                }
            }
        }
        name
    }

    #[test]
    fn exposition_contains_every_family() {
        let m = Metrics::default();
        Metrics::inc(&m.jobs_accepted);
        Metrics::inc(&m.jobs_rejected);
        let text = m.render(3, 1);
        assert!(text.contains("wap_serve_queue_depth 3"), "{text}");
        assert!(text.contains("wap_serve_jobs_in_flight 1"), "{text}");
        assert!(text.contains("wap_serve_jobs_accepted_total 1"), "{text}");
        assert!(text.contains("wap_serve_jobs_rejected_total 1"), "{text}");
        assert!(
            text.contains("wap_serve_phase_ns_total{phase=\"taint\"} 0"),
            "{text}"
        );
        // every exposed series belongs to a typed family
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            let family = family_of(name);
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "family {family} (series {name}) missing TYPE"
            );
        }
    }

    #[test]
    fn histograms_track_reports_and_queue_waits() {
        let m = Metrics::default();
        let mut report = AppReport {
            duration: Duration::from_millis(30),
            ..AppReport::default()
        };
        report.stats.set_phase_ns(Phase::Parse, 2_000_000);
        report.stats.set_phase_ns(Phase::Taint, 500_000_000);
        report.cache.remote_hits = 4;
        report.cache.remote_misses = 2;
        report.cache.remote_errors = 1;
        m.record_report(&report);
        m.record_report(&report);
        m.record_queue_wait(Duration::from_millis(3));
        assert_eq!(m.scan_duration.count(), 2);
        assert_eq!(m.queue_wait.count(), 1);
        for h in &m.phase_durations {
            assert_eq!(h.count(), 2, "one observation per scan per phase");
        }
        let text = m.render(0, 0);
        // cumulative bucket counts: both 30ms scans fall at or below 0.05s
        assert!(
            text.contains("wap_serve_scan_duration_seconds_bucket{le=\"0.05\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("wap_serve_scan_duration_seconds_count 2"),
            "{text}"
        );
        assert!(
            text.contains("wap_serve_queue_wait_seconds_count 1"),
            "{text}"
        );
        assert!(
            text.contains("wap_serve_phase_duration_seconds_count{phase=\"taint\"} 2"),
            "{text}"
        );
        // the legacy counter is the histogram's sum
        assert!(
            text.contains("wap_serve_phase_ns_total{phase=\"taint\"} 1000000000"),
            "{text}"
        );
        // remote-cache counters fold per-report deltas (two reports here)
        assert!(
            text.contains("wap_serve_remote_cache_hits_total 8"),
            "{text}"
        );
        assert!(
            text.contains("wap_serve_remote_cache_misses_total 4"),
            "{text}"
        );
        assert!(
            text.contains("wap_serve_remote_cache_errors_total 2"),
            "{text}"
        );
    }
}
