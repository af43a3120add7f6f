//! `POST /v1/batch`: scan many applications in one request, streaming one
//! NDJSON result line per app.
//!
//! The body is either a ustar archive whose members are grouped into apps
//! by their first path component (`app1/index.php`, `app2/lib/db.php`,
//! ...) or, when it does not look like a tar, a text manifest of
//! server-local directories (one per line; blank lines and `#` comments
//! ignored). Apps run in name order through the same bounded
//! [`crate::queue::JobQueue`] as single scans, so batch work obeys the
//! same admission control and drains cleanly on shutdown.
//!
//! The response streams: headers go out first (no `Content-Length`;
//! `Connection: close` delimits the stream), then one line per finished
//! app. Each line embeds the rendered report — byte-identical to what a
//! single `POST /v1/scan` of the same tree would return — as a JSON
//! string, so `jq -r .report` recovers the exact bytes.
//!
//! Batch requests are always served by the receiving replica, never
//! `307`-redirected: one batch may span many cache owners, and splitting
//! it would turn one request into N client round-trips. Cross-replica
//! cache sharing still applies per entry via the remote backend.

use crate::http::Request;
use crate::metrics::Metrics;
use crate::queue::{JobStatus, ScanRequest, SubmitError};
use crate::{scan_format, scan_options, tar, Shared};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wap_core::cli::FailOn;
use wap_core::ScanOptions;
use wap_json::quote;

/// How long a batch waits for room in a full queue before reporting the
/// app as failed.
const FULL_RETRY_LIMIT: Duration = Duration::from_secs(30);

/// One named application extracted from the batch body.
struct BatchApp {
    name: String,
    sources: Vec<(String, String)>,
}

/// Handles `POST /v1/batch` end to end, writing the streamed response
/// itself (the only route that does not return through `route()`).
pub(crate) fn handle_batch(shared: &Shared, req: &Request, stream: &TcpStream) {
    let format = match scan_format(req) {
        Ok(f) => f,
        Err(err) => return refuse(shared, stream, err.http_status(), &err.to_string()),
    };
    let options = match scan_options(shared, req) {
        Ok(o) => o,
        Err(msg) => return refuse(shared, stream, 400, &msg),
    };
    let apps = match gather_apps(&req.body) {
        Ok(a) => a,
        Err(msg) => return refuse(shared, stream, 422, &format!("bad batch: {msg}")),
    };
    Metrics::inc(&shared.metrics.batch_requests);

    // stream from here on: status and headers first, then one line per
    // app as it finishes. No Content-Length — Connection: close delimits.
    let mut w = stream;
    if w.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
    )
    .is_err()
    {
        return;
    }
    for app in apps {
        let line = run_app(shared, app, format, &options);
        if w.write_all(line.as_bytes()).is_err() || w.flush().is_err() {
            return; // client went away; remaining apps are skipped
        }
    }
}

/// Answers a batch that cannot start: `status` with `msg` as plain text,
/// counted as a bad request.
fn refuse(shared: &Shared, stream: &TcpStream, status: u16, msg: &str) {
    Metrics::inc(&shared.metrics.bad_requests);
    let _ = crate::http::write_response(
        stream,
        status,
        "text/plain; charset=utf-8",
        format!("{msg}\n").as_bytes(),
        &[],
    );
}

/// Runs one app through the shared queue and renders its NDJSON line.
fn run_app(
    shared: &Shared,
    app: BatchApp,
    format: wap_report::Format,
    options: &ScanOptions,
) -> String {
    if app.sources.is_empty() {
        return format!(
            "{{\"app\":{},\"status\":\"done\",\"report\":{}}}\n",
            quote(&app.name),
            quote("no .php files found\n")
        );
    }
    let admitted = shared.queue.submit_wait(
        ScanRequest {
            sources: app.sources,
            format,
            options: options.clone(),
            fail_on: FailOn::None,
        },
        Instant::now() + FULL_RETRY_LIMIT,
    );
    let id = match admitted {
        Ok(id) => id,
        Err(SubmitError::Full) => return fail_line(&app.name, "scan queue stayed full"),
        Err(SubmitError::Draining) => {
            return fail_line(&app.name, "server is draining for shutdown");
        }
    };
    Metrics::inc(&shared.metrics.jobs_accepted);
    match shared.queue.wait(id) {
        Some(JobStatus::Done(out)) => format!(
            "{{\"app\":{},\"status\":\"done\",\"report\":{}}}\n",
            quote(&app.name),
            quote(&out.body)
        ),
        Some(JobStatus::Failed { message }) => fail_line(&app.name, &message),
        _ => fail_line(&app.name, "job vanished"),
    }
}

fn fail_line(app: &str, message: &str) -> String {
    format!(
        "{{\"app\":{},\"status\":\"failed\",\"error\":{}}}\n",
        quote(app),
        quote(message)
    )
}

/// Splits the batch body into named apps: a ustar upload grouped by first
/// path component, or a manifest of server-local directories.
fn gather_apps(body: &[u8]) -> Result<Vec<BatchApp>, String> {
    if body.is_empty() {
        return Err("batch needs a tar body or a directory manifest".to_string());
    }
    if looks_like_tar(body) {
        return group_tar(body);
    }
    let manifest = std::str::from_utf8(body).map_err(|_| "manifest is not UTF-8".to_string())?;
    let mut apps = Vec::new();
    for line in manifest.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let files = wap_core::cli::collect_php_files(&[PathBuf::from(line)])
            .map_err(|e| format!("{line}: {e}"))?;
        let mut sources = Vec::with_capacity(files.len());
        for f in files {
            let contents =
                std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
            sources.push((f.display().to_string(), contents));
        }
        apps.push(BatchApp {
            name: line.to_string(),
            sources,
        });
    }
    if apps.is_empty() {
        return Err("manifest lists no directories".to_string());
    }
    apps.sort_by(|a, b| a.name.cmp(&b.name));
    apps.dedup_by(|a, b| a.name == b.name);
    Ok(apps)
}

/// A 512-byte-aligned body with the ustar magic in its first header is an
/// archive; anything else is treated as a manifest.
fn looks_like_tar(body: &[u8]) -> bool {
    body.len() >= 512 && body.len().is_multiple_of(512) && &body[257..262] == b"ustar"
}

/// Groups archive members into apps by their first path component. Member
/// names are kept in full, so each app's sources — and therefore its
/// rendered report — are byte-identical to scanning the same archive
/// alone.
fn group_tar(body: &[u8]) -> Result<Vec<BatchApp>, String> {
    let members = tar::extract_php_sources(body)?;
    let mut by_app: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for (name, contents) in members {
        let app = name
            .trim_start_matches("./")
            .split('/')
            .next()
            .unwrap_or(&name)
            .to_string();
        by_app.entry(app).or_default().push((name, contents));
    }
    Ok(by_app
        .into_iter()
        .map(|(name, mut sources)| {
            // same ordering contract as scan_sources and the CLI walk
            sources.sort_by(|a, b| a.0.cmp(&b.0));
            sources.dedup_by(|a, b| a.0 == b.0);
            BatchApp { name, sources }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tar_bodies_group_by_first_component() {
        let archive = tar::build(&[
            ("app2/x.php".to_string(), "<?php echo 2;\n".to_string()),
            ("app1/a/y.php".to_string(), "<?php echo 1;\n".to_string()),
            ("app1/z.php".to_string(), "<?php echo 3;\n".to_string()),
        ]);
        assert!(looks_like_tar(&archive));
        let apps = gather_apps(&archive).unwrap();
        assert_eq!(apps.len(), 2);
        assert_eq!(apps[0].name, "app1");
        assert_eq!(
            apps[0]
                .sources
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["app1/a/y.php", "app1/z.php"],
            "member names stay full and sorted"
        );
        assert_eq!(apps[1].name, "app2");
    }

    #[test]
    fn manifest_bodies_list_directories() {
        let dir = std::env::temp_dir().join(format!("wap-batch-man-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("m.php"), "<?php echo 1;\n").unwrap();
        let manifest = format!("# comment\n\n{}\n", dir.display());
        let apps = gather_apps(manifest.as_bytes()).unwrap();
        assert_eq!(apps.len(), 1);
        assert_eq!(apps[0].sources.len(), 1);
        // empty and unreadable manifests are client errors
        assert!(gather_apps(b"").is_err());
        assert!(gather_apps(b"# only comments\n").is_err());
        assert!(gather_apps("/nonexistent-wap-dir\n".as_bytes()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
