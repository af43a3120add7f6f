//! The scan-job payload types over the shared bounded queue.
//!
//! The queue implementation itself lives in [`wap_runtime::queue`] — one
//! `Mutex` + three `Condvar`s shared by `wap serve`, `wap watch`, and
//! `wap lsp` — and this module only defines what a *scan* job carries:
//! the pre-collected sources with their render options going in
//! ([`ScanRequest`]), and the rendered report coming out
//! ([`ScanOutcome`]). Admission control semantics are the queue's: a
//! full queue refuses with [`SubmitError::Full`] (the HTTP layer answers
//! `429` + `Retry-After`) and a draining one with
//! [`SubmitError::Draining`] (`503`).

use wap_core::cli::FailOn;
use wap_report::Format;
pub use wap_runtime::queue::SubmitError;

/// One scan waiting for (or owned by) an executor.
#[derive(Debug)]
pub struct ScanRequest {
    /// `(file name, contents)` pairs, pre-collected by the HTTP layer.
    pub sources: Vec<(String, String)>,
    /// Render format for the finished report.
    pub format: Format,
    /// What the scan computes (`?lint=`, `?rules=`, `?values=`), with
    /// rule packs already resolved against the server's pack store.
    pub options: wap_core::ScanOptions,
    /// Exit-code policy (`?fail_on=`); a failing report is answered with
    /// HTTP 422 instead of 200.
    pub fail_on: FailOn,
}

/// A finished scan: the rendered report and how to serve it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOutcome {
    /// `Content-Type` of the rendered body.
    pub content_type: &'static str,
    /// The rendered report.
    pub body: String,
    /// Whether the task's `fail_on` policy fails this report — the HTTP
    /// layer maps it to 422 (the CLI's exit-code 1 analogue).
    pub failing: bool,
}

/// A claimed scan task (the shared queue's task over [`ScanRequest`]).
pub type ScanTask = wap_runtime::queue::Task<ScanRequest>;

/// A scan job's externally visible state.
pub type JobStatus = wap_runtime::queue::JobStatus<ScanOutcome>;

/// The bounded scan queue shared by HTTP handlers and executors.
pub type JobQueue = wap_runtime::queue::JobQueue<ScanRequest, ScanOutcome>;

#[cfg(test)]
mod tests {
    use super::*;

    fn request(n: usize) -> ScanRequest {
        ScanRequest {
            sources: vec![(format!("f{n}.php"), "<?php echo 1;\n".to_string())],
            format: Format::Json,
            options: wap_core::ScanOptions::default(),
            fail_on: FailOn::None,
        }
    }

    #[test]
    fn scan_requests_round_trip_through_the_shared_queue() {
        let q = JobQueue::new(2);
        let id = q.submit(request(0)).unwrap();
        assert!(q.submit(request(1)).is_ok());
        assert_eq!(q.submit(request(2)).unwrap_err(), SubmitError::Full);
        let t = q.next_task().unwrap();
        assert_eq!(t.id, id);
        assert_eq!(t.payload.sources[0].0, "f0.php");
        assert_eq!(t.payload.format, Format::Json);
        q.complete(
            t.id,
            ScanOutcome {
                content_type: "application/json",
                body: "{}".into(),
                failing: false,
            },
        );
        match q.status(id) {
            Some(JobStatus::Done(out)) => {
                assert_eq!(out.body, "{}");
                assert!(!out.failing);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn draining_scan_queue_refuses_like_the_server_does() {
        let q = JobQueue::new(4);
        q.drain();
        assert_eq!(q.submit(request(0)).unwrap_err(), SubmitError::Draining);
        assert!(q.next_task().is_none());
    }
}
