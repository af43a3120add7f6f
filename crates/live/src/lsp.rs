//! `wap lsp`: a minimal stdio Language Server Protocol front-end.
//!
//! Speaks JSON-RPC 2.0 over `Content-Length`-framed messages (the LSP
//! base protocol) and implements the small slice an editor needs for
//! diagnostics: `initialize`/`initialized`, the `textDocument/did*`
//! document-sync notifications (full sync), `shutdown`, and `exit`.
//! Everything else with an id gets a proper `MethodNotFound` error;
//! unknown notifications are ignored, as the spec requires.
//!
//! Open buffers live in a [`SourceOverlay`]: every document event
//! re-collects the workspace with unsaved contents shadowing disk,
//! re-analyzes through the shared pipeline, and publishes
//! `textDocument/publishDiagnostics` for every open document. Re-analysis
//! is admitted through the same bounded [`JobQueue`] that backs
//! `wap serve` — one executor thread owns the resident [`WapTool`] and
//! its warm cache — and each revision runs under a
//! [`Phase::Live`] span.
//!
//! Messages are processed strictly in arrival order (the server submits
//! one job and waits before reading the next message), so a whole
//! session's output bytes are a pure function of its input transcript —
//! at any worker count, cache on or off. Diagnostics carry no timings;
//! latency goes into [`LiveMetrics`] and is printed to stderr at exit.

use crate::metrics::LiveMetrics;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wap_core::cli::{build_tool, CliOptions};
use wap_core::{collect_sources_with_overlay, AppReport, SourceOverlay, WapTool};
use wap_json::{quote, Value};
use wap_report::{LintSeverity, Phase, TOOL_NAME, TOOL_VERSION};
use wap_runtime::{JobQueue, JobStatus, SubmitError};

/// How long one admission attempt blocks on a full queue before the
/// re-analysis submits again.
const ADMIT_WAIT: Duration = Duration::from_secs(1);

/// Configuration for an LSP session.
#[derive(Debug, Clone)]
pub struct LspConfig {
    /// Worker threads for the analysis runtime.
    pub jobs: Option<usize>,
    /// Persistent incremental cache directory.
    pub cache_dir: Option<PathBuf>,
    /// Append CFG lint findings to the published diagnostics.
    pub lint: bool,
    /// Admission-queue capacity for re-analysis jobs.
    pub queue_capacity: usize,
}

impl Default for LspConfig {
    fn default() -> LspConfig {
        LspConfig {
            jobs: None,
            cache_dir: None,
            lint: false,
            queue_capacity: 32,
        }
    }
}

/// One re-analysis job: the merged source list and the open documents to
/// publish for (uri → display path), in publish order.
struct AnalyzeRequest {
    sources: Vec<(String, String)>,
    open: Vec<(String, String)>,
}

/// The executor's answer: `(uri, rendered diagnostics array)` per open
/// document, in the same order.
type Published = Vec<(String, String)>;

/// A stdio LSP server over the shared analysis pipeline.
pub struct LspServer {
    config: LspConfig,
}

impl LspServer {
    /// A server with the given configuration (nothing runs until
    /// [`run`](LspServer::run)).
    pub fn new(config: LspConfig) -> LspServer {
        LspServer { config }
    }

    /// Serves one session over the given transport until `exit`, EOF, or
    /// a transport error; returns the process exit code (0 after an
    /// orderly `shutdown`, 1 otherwise).
    pub fn run(&self, reader: &mut dyn BufRead, writer: &mut dyn Write) -> i32 {
        let opts = CliOptions {
            jobs: self.config.jobs,
            cache_dir: self.config.cache_dir.clone(),
            lint: self.config.lint,
            ..CliOptions::default()
        };
        let tool = match build_tool(&opts) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("wap lsp: {e}");
                return 1;
            }
        };
        let queue: JobQueue<AnalyzeRequest, Published> = JobQueue::new(self.config.queue_capacity);
        let metrics = LiveMetrics::new();
        let code = std::thread::scope(|s| {
            s.spawn(|| executor_loop(&tool, &queue, &metrics));
            let mut session = Session {
                queue: &queue,
                overlay: SourceOverlay::new(),
                docs: BTreeMap::new(),
                root: None,
                shutdown_seen: false,
            };
            let code = session.serve(reader, writer);
            queue.drain(); // release the executor's next_task() wait
            code
        });
        if metrics.revisions() > 0 {
            eprint!("{}", metrics.render("lsp"));
        }
        code
    }
}

/// Drains the queue: one re-analysis per task, diagnostics rendered per
/// open document. Runs until the queue is drained and empty.
fn executor_loop(
    tool: &WapTool,
    queue: &JobQueue<AnalyzeRequest, Published>,
    metrics: &LiveMetrics,
) {
    while let Some(task) = queue.next_task() {
        let req = &task.payload;
        let started = Instant::now();
        let mut report = {
            let job = tool.obs().job();
            let _live = job.span(Phase::Live);
            tool.scan(&req.sources, &tool.config().scan)
                .expect("builtin and weapon-declared lint rules always compile")
        };
        report.duration = Duration::ZERO;
        metrics.observe(started.elapsed());
        let published = req
            .open
            .iter()
            .map(|(uri, path)| {
                let text = req
                    .sources
                    .iter()
                    .find(|(name, _)| name == path)
                    .map(|(_, src)| src.as_str())
                    .unwrap_or("");
                (uri.clone(), diagnostics_json(&report, path, text))
            })
            .collect();
        queue.complete(task.id, published);
    }
}

/// Per-session connection state, driven by the reader thread.
struct Session<'q> {
    queue: &'q JobQueue<AnalyzeRequest, Published>,
    overlay: SourceOverlay,
    /// uri → display path for every open document (BTreeMap: publish
    /// order is sorted and therefore deterministic).
    docs: BTreeMap<String, String>,
    root: Option<PathBuf>,
    shutdown_seen: bool,
}

impl Session<'_> {
    fn serve(&mut self, reader: &mut dyn BufRead, writer: &mut dyn Write) -> i32 {
        loop {
            let body = match read_message(reader) {
                Ok(Some(b)) => b,
                Ok(None) => return i32::from(!self.shutdown_seen), // EOF
                Err(e) => {
                    eprintln!("wap lsp: transport: {e}");
                    return 1;
                }
            };
            let msg = match Value::parse(&body) {
                Ok(m) => m,
                Err(e) => {
                    let err = format!(
                        "{{\"jsonrpc\":\"2.0\",\"id\":null,\"error\":{{\"code\":-32700,\"message\":{}}}}}",
                        quote(&format!("parse error: {e}"))
                    );
                    if write_message(writer, &err).is_err() {
                        return 1;
                    }
                    continue;
                }
            };
            let method = msg.get("method").and_then(Value::as_str).unwrap_or("");
            let id = msg.get("id");
            let params = msg.get("params");
            let outcome = match method {
                "initialize" => {
                    self.root = params.and_then(root_path);
                    let result = format!(
                        "{{\"capabilities\":{{\"textDocumentSync\":{{\"openClose\":true,\"change\":1,\"save\":{{\"includeText\":true}}}}}},\"serverInfo\":{{\"name\":{},\"version\":{}}}}}",
                        quote(TOOL_NAME),
                        quote(TOOL_VERSION)
                    );
                    respond(writer, id, &result)
                }
                "initialized" | "$/cancelRequest" => Ok(()),
                "shutdown" => {
                    self.shutdown_seen = true;
                    respond(writer, id, "null")
                }
                "exit" => return i32::from(!self.shutdown_seen),
                "textDocument/didOpen" => {
                    let doc = params.and_then(|p| p.get("textDocument"));
                    match (
                        doc.and_then(|d| d.get("uri")).and_then(Value::as_str),
                        doc.and_then(|d| d.get("text")).and_then(Value::as_str),
                    ) {
                        (Some(uri), Some(text)) => {
                            let path = uri_to_path(uri);
                            self.overlay.insert(&path, text);
                            self.docs.insert(uri.to_string(), path);
                            self.reanalyze_and_publish(writer)
                        }
                        _ => Ok(()),
                    }
                }
                "textDocument/didChange" => {
                    let uri = doc_uri(params);
                    let full_text = params
                        .and_then(|p| p.get("contentChanges"))
                        .and_then(Value::as_arr)
                        .and_then(|changes| {
                            // full sync (change: 1): take the last
                            // whole-document replacement
                            changes
                                .iter()
                                .rev()
                                .find(|c| c.get("range").is_none())
                                .and_then(|c| c.get("text"))
                                .and_then(Value::as_str)
                        });
                    match (uri, full_text) {
                        (Some(uri), Some(text)) => {
                            let path = uri_to_path(uri);
                            self.overlay.insert(&path, text);
                            self.docs.insert(uri.to_string(), path);
                            self.reanalyze_and_publish(writer)
                        }
                        _ => Ok(()),
                    }
                }
                "textDocument/didSave" => {
                    if let Some(uri) = doc_uri(params) {
                        let path = uri_to_path(uri);
                        if let Some(text) =
                            params.and_then(|p| p.get("text")).and_then(Value::as_str)
                        {
                            self.overlay.insert(&path, text);
                        } else {
                            // no text in the notification: disk is now the
                            // truth for this document
                            self.overlay.remove(&path);
                        }
                        self.reanalyze_and_publish(writer)
                    } else {
                        Ok(())
                    }
                }
                "textDocument/didClose" => {
                    if let Some(uri) = doc_uri(params) {
                        let path = uri_to_path(uri);
                        self.overlay.remove(&path);
                        self.docs.remove(uri);
                        // the spec's contract: clear diagnostics we own for
                        // a document the editor no longer shows
                        let clear = format!(
                            "{{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/publishDiagnostics\",\"params\":{{\"uri\":{},\"diagnostics\":[]}}}}",
                            quote(uri)
                        );
                        write_message(writer, &clear)
                            .and_then(|()| self.reanalyze_and_publish(writer))
                    } else {
                        Ok(())
                    }
                }
                _ if id.is_some() => {
                    let err = format!(
                        "{{\"jsonrpc\":\"2.0\",\"id\":{},\"error\":{{\"code\":-32601,\"message\":{}}}}}",
                        id.map(Value::to_compact).unwrap_or_else(|| "null".to_string()),
                        quote(&format!("method not found: {method}"))
                    );
                    write_message(writer, &err)
                }
                _ => Ok(()), // unknown notification: ignore
            };
            if let Err(e) = outcome {
                eprintln!("wap lsp: transport: {e}");
                return 1;
            }
        }
    }

    /// Collects the workspace (overlay over disk), runs it through the
    /// queue, and publishes diagnostics for every open document.
    fn reanalyze_and_publish(&mut self, writer: &mut dyn Write) -> Result<(), std::io::Error> {
        let roots: Vec<PathBuf> = self.root.iter().cloned().collect();
        let sources = match collect_sources_with_overlay(&roots, &self.overlay) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("wap lsp: collect: {e}");
                return Ok(()); // transient (file vanished); keep serving
            }
        };
        let open: Vec<(String, String)> = self
            .docs
            .iter()
            .map(|(uri, path)| (uri.clone(), path.clone()))
            .collect();
        // a full queue never drops a revision: keep waiting for a slot
        let id = loop {
            let request = AnalyzeRequest {
                sources: sources.clone(),
                open: open.clone(),
            };
            match self.queue.submit_wait(request, Instant::now() + ADMIT_WAIT) {
                Ok(id) => break id,
                Err(SubmitError::Full) => {}
                Err(SubmitError::Draining) => return Ok(()),
            }
        };
        if let Some(JobStatus::Done(published)) = self.queue.wait(id) {
            for (uri, diagnostics) in published {
                let note = format!(
                    "{{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/publishDiagnostics\",\"params\":{{\"uri\":{},\"diagnostics\":{diagnostics}}}}}",
                    quote(&uri)
                );
                write_message(writer, &note)?;
            }
        }
        Ok(())
    }
}

/// Writes one JSON-RPC response with the given result payload.
fn respond(writer: &mut dyn Write, id: Option<&Value>, result: &str) -> Result<(), std::io::Error> {
    let id = id
        .map(Value::to_compact)
        .unwrap_or_else(|| "null".to_string());
    write_message(
        writer,
        &format!("{{\"jsonrpc\":\"2.0\",\"id\":{id},\"result\":{result}}}"),
    )
}

/// `params.textDocument.uri` of a document notification.
fn doc_uri(params: Option<&Value>) -> Option<&str> {
    params
        .and_then(|p| p.get("textDocument"))
        .and_then(|d| d.get("uri"))
        .and_then(Value::as_str)
}

/// The workspace root from `initialize` params (`rootUri` wins over the
/// deprecated `rootPath`).
fn root_path(params: &Value) -> Option<PathBuf> {
    if let Some(uri) = params.get("rootUri").and_then(Value::as_str) {
        return Some(PathBuf::from(uri_to_path(uri)));
    }
    params
        .get("rootPath")
        .and_then(Value::as_str)
        .map(PathBuf::from)
}

/// Converts a `file://` URI to a filesystem display path (percent-decoded).
/// Non-file URIs are kept verbatim so untitled buffers still get analyzed
/// under a stable name.
pub fn uri_to_path(uri: &str) -> String {
    let raw = uri
        .strip_prefix("file://")
        .map(|rest| rest.strip_prefix("localhost").unwrap_or(rest))
        .unwrap_or(uri);
    percent_decode(raw)
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
            if let Some(v) = hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                out.push(v);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Reads one `Content-Length`-framed message body. `Ok(None)` is a clean
/// EOF at a message boundary.
pub fn read_message(reader: &mut dyn BufRead) -> Result<Option<String>, String> {
    let mut content_length: Option<usize> = None;
    let mut first = true;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if n == 0 {
            if first {
                return Ok(None);
            }
            return Err("EOF inside message headers".to_string());
        }
        first = false;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad Content-Length: {value}"))?,
                );
            }
        }
    }
    let len = content_length.ok_or("missing Content-Length header")?;
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    String::from_utf8(body)
        .map(Some)
        .map_err(|_| "message body is not UTF-8".to_string())
}

/// Writes one `Content-Length`-framed message.
pub fn write_message(writer: &mut dyn Write, body: &str) -> Result<(), std::io::Error> {
    write!(writer, "Content-Length: {}\r\n\r\n{body}", body.len())?;
    writer.flush()
}

/// Converts a byte offset in `text` to an LSP position (0-based line,
/// UTF-16 code units from line start). Offsets past the end clamp to the
/// last position.
fn position(text: &str, byte_offset: usize) -> (u32, u32) {
    let offset = byte_offset.min(text.len());
    let mut line = 0u32;
    let mut line_start = 0usize;
    for (i, b) in text.as_bytes()[..offset].iter().enumerate() {
        if *b == b'\n' {
            line += 1;
            line_start = i + 1;
        }
    }
    let col: u32 = text[line_start..offset]
        .chars()
        .map(|c| c.len_utf16() as u32)
        .sum();
    (line, col)
}

fn render_range(text: &str, start: usize, end: usize) -> String {
    let (sl, sc) = position(text, start);
    let (el, ec) = position(text, end.max(start));
    format!(
        "{{\"start\":{{\"line\":{sl},\"character\":{sc}}},\"end\":{{\"line\":{el},\"character\":{ec}}}}}"
    )
}

/// Renders the LSP diagnostics array for one file of a finished report:
/// taint findings first (severity Error for real vulnerabilities,
/// Information for predicted false positives), then lint findings
/// (Error/Warning/Note → 1/2/3), both in report order. `text` is the
/// file's analyzed contents, used for byte-offset → position mapping.
/// Pure and timing-free: the bytes depend only on the report.
pub fn diagnostics_json(report: &AppReport, file: &str, text: &str) -> String {
    let mut items = Vec::new();
    for f in report
        .findings
        .iter()
        .filter(|f| f.candidate.file.as_deref() == Some(file))
    {
        let range = render_range(
            text,
            f.candidate.sink_span.start() as usize,
            f.candidate.sink_span.end() as usize,
        );
        let (severity, suffix) = if f.is_real() {
            (1, "")
        } else {
            (3, " (predicted false positive)")
        };
        items.push(format!(
            "{{\"range\":{range},\"severity\":{severity},\"code\":{},\"source\":\"wap\",\"message\":{}}}",
            quote(f.candidate.class.acronym()),
            quote(&format!("{}{suffix}", f.candidate.headline()))
        ));
    }
    for l in report.lint.iter().filter(|l| l.file == file) {
        let range = render_range(text, l.span.start() as usize, l.span.end() as usize);
        let severity = match l.severity {
            LintSeverity::Error => 1,
            LintSeverity::Warning => 2,
            LintSeverity::Note => 3,
        };
        items.push(format!(
            "{{\"range\":{range},\"severity\":{severity},\"code\":{},\"source\":\"wap\",\"message\":{}}}",
            quote(&l.rule_id),
            quote(&l.message)
        ));
    }
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame(body: &str) -> String {
        format!("Content-Length: {}\r\n\r\n{body}", body.len())
    }

    /// Runs a canned transcript through a fresh server; returns
    /// (exit code, every framed body written).
    fn run_session(bodies: &[String]) -> (i32, Vec<String>) {
        let input: String = bodies.iter().map(|b| frame(b)).collect();
        let mut reader = Cursor::new(input.into_bytes());
        let mut output = Vec::new();
        let code = LspServer::new(LspConfig::default()).run(&mut reader, &mut output);
        let mut cursor = Cursor::new(output);
        let mut messages = Vec::new();
        while let Ok(Some(body)) = read_message(&mut cursor) {
            messages.push(body);
        }
        (code, messages)
    }

    #[test]
    fn framing_round_trips_and_rejects_garbage() {
        let mut buf = Vec::new();
        write_message(&mut buf, "{\"x\":1}").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_message(&mut r).unwrap().as_deref(), Some("{\"x\":1}"));
        assert_eq!(read_message(&mut r).unwrap(), None, "clean EOF");
        let mut r = Cursor::new(b"X-Other: 1\r\n\r\n".to_vec());
        assert!(read_message(&mut r).is_err(), "missing Content-Length");
        let mut r = Cursor::new(b"Content-Length: 99\r\n\r\n{}".to_vec());
        assert!(read_message(&mut r).is_err(), "truncated body");
    }

    #[test]
    fn deeply_nested_messages_get_a_parse_error_reply() {
        let (code, messages) = run_session(&[
            "[".repeat(200_000),
            "{\"a\":".repeat(200_000),
            r#"{"jsonrpc":"2.0","id":2,"method":"shutdown"}"#.to_string(),
            r#"{"jsonrpc":"2.0","method":"exit"}"#.to_string(),
        ]);
        assert_eq!(code, 0, "the session survives and shuts down cleanly");
        assert_eq!(messages.len(), 3, "{messages:#?}");
        for reply in &messages[..2] {
            let v = Value::parse(reply).unwrap();
            assert_eq!(v["error"]["code"].as_i64(), Some(-32700));
            let message = v["error"]["message"].as_str().unwrap();
            assert!(message.contains("nesting"), "{message}");
        }
        assert_eq!(Value::parse(&messages[2]).unwrap()["id"].as_i64(), Some(2));
    }

    #[test]
    fn positions_are_utf16_and_zero_based() {
        let text = "<?php\n$a = 'é😀';\necho $a;\n";
        assert_eq!(position(text, 0), (0, 0));
        let echo = text.find("echo").unwrap();
        assert_eq!(position(text, echo), (2, 0));
        // "$a = 'é" is 7 utf-16 units, '😀' is 2 more
        let after_emoji = text.find('😀').unwrap() + '😀'.len_utf8();
        assert_eq!(position(text, after_emoji), (1, 9));
        assert_eq!(position(text, 10_000).0, 3, "clamps to end");
    }

    #[test]
    fn uri_decoding() {
        assert_eq!(uri_to_path("file:///tmp/a%20b.php"), "/tmp/a b.php");
        assert_eq!(uri_to_path("file://localhost/x.php"), "/x.php");
        assert_eq!(uri_to_path("untitled:one"), "untitled:one");
    }

    #[test]
    fn session_initialize_diagnose_fix_shutdown() {
        let uri = "file:///live/v.php";
        let (code, messages) = run_session(&[
            r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}"#.to_string(),
            r#"{"jsonrpc":"2.0","method":"initialized","params":{}}"#.to_string(),
            format!(
                r#"{{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{{"textDocument":{{"uri":"{uri}","languageId":"php","version":1,"text":"<?php echo $_GET['v'];\n"}}}}}}"#
            ),
            format!(
                r#"{{"jsonrpc":"2.0","method":"textDocument/didChange","params":{{"textDocument":{{"uri":"{uri}","version":2}},"contentChanges":[{{"text":"<?php echo htmlentities($_GET['v']);\n"}}]}}}}"#
            ),
            r#"{"jsonrpc":"2.0","id":9,"method":"unknown/method","params":{}}"#.to_string(),
            r#"{"jsonrpc":"2.0","id":2,"method":"shutdown"}"#.to_string(),
            r#"{"jsonrpc":"2.0","method":"exit"}"#.to_string(),
        ]);
        assert_eq!(code, 0, "orderly shutdown exits 0");
        assert_eq!(messages.len(), 5, "{messages:#?}");

        let init = Value::parse(&messages[0]).unwrap();
        assert_eq!(init.get("id").and_then(Value::as_i64), Some(1));
        let sync = init
            .get("result")
            .and_then(|r| r.get("capabilities"))
            .and_then(|c| c.get("textDocumentSync"))
            .expect("capabilities.textDocumentSync");
        assert_eq!(sync.get("change").and_then(Value::as_i64), Some(1));
        assert_eq!(
            init.get("result")
                .and_then(|r| r.get("serverInfo"))
                .and_then(|s| s.get("name"))
                .and_then(Value::as_str),
            Some("wap-rs")
        );

        // didOpen: one diagnostic on the vulnerable buffer
        let open = Value::parse(&messages[1]).unwrap();
        assert_eq!(
            open.get("method").and_then(Value::as_str),
            Some("textDocument/publishDiagnostics")
        );
        let params = open.get("params").unwrap();
        assert_eq!(params.get("uri").and_then(Value::as_str), Some(uri));
        let diags = params.get("diagnostics").and_then(Value::as_arr).unwrap();
        assert_eq!(diags.len(), 1, "{:?}", messages[1]);
        assert_eq!(diags[0].get("severity").and_then(Value::as_i64), Some(1));
        assert_eq!(diags[0].get("code").and_then(Value::as_str), Some("XSS"));
        assert_eq!(diags[0].get("source").and_then(Value::as_str), Some("wap"));
        let start = diags[0].get("range").and_then(|r| r.get("start")).unwrap();
        assert_eq!(start.get("line").and_then(Value::as_i64), Some(0));

        // didChange with the sanitized buffer: diagnostics clear
        let fixed = Value::parse(&messages[2]).unwrap();
        let diags = fixed
            .get("params")
            .and_then(|p| p.get("diagnostics"))
            .and_then(Value::as_arr)
            .unwrap();
        assert!(diags.is_empty(), "{:?}", messages[2]);

        // unknown request gets MethodNotFound with the echoed id
        let err = Value::parse(&messages[3]).unwrap();
        assert_eq!(err.get("id").and_then(Value::as_i64), Some(9));
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_i64),
            Some(-32601)
        );

        // shutdown answers null
        let bye = Value::parse(&messages[4]).unwrap();
        assert_eq!(bye.get("id").and_then(Value::as_i64), Some(2));
        assert_eq!(bye.get("result"), Some(&Value::Null));
    }

    #[test]
    fn did_close_clears_diagnostics_and_exit_without_shutdown_fails() {
        let uri = "file:///live/w.php";
        let (code, messages) = run_session(&[
            r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}"#.to_string(),
            format!(
                r#"{{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{{"textDocument":{{"uri":"{uri}","text":"<?php echo $_GET['q'];\n"}}}}}}"#
            ),
            format!(
                r#"{{"jsonrpc":"2.0","method":"textDocument/didClose","params":{{"textDocument":{{"uri":"{uri}"}}}}}}"#
            ),
            r#"{"jsonrpc":"2.0","method":"exit"}"#.to_string(),
        ]);
        assert_eq!(code, 1, "exit without shutdown exits 1");
        // init response, didOpen publish, then the didClose clear
        assert_eq!(messages.len(), 3, "{messages:#?}");
        let clear = Value::parse(&messages[2]).unwrap();
        let diags = clear
            .get("params")
            .and_then(|p| p.get("diagnostics"))
            .and_then(Value::as_arr)
            .unwrap();
        assert!(diags.is_empty());
    }

    #[test]
    fn diagnostics_json_orders_findings_then_lint() {
        let text = "<?php\n$id = $_GET['id'];\nmysql_query(\"SELECT * FROM t WHERE id = $id\");\n";
        let opts = CliOptions {
            lint: true,
            ..CliOptions::default()
        };
        let tool = build_tool(&opts).unwrap();
        let sources = vec![("q.php".to_string(), text.to_string())];
        let mut report = tool.analyze_sources(&sources);
        tool.apply_lint(&mut report, &sources);
        let rendered = diagnostics_json(&report, "q.php", text);
        let parsed = Value::parse(&rendered).unwrap();
        let items = parsed.as_arr().unwrap();
        assert!(items.len() >= 2, "finding + lint expected: {rendered}");
        assert_eq!(items[0].get("code").and_then(Value::as_str), Some("SQLI"));
        assert!(items
            .iter()
            .any(|d| d.get("code").and_then(Value::as_str) == Some(wap_cfg_rule())));
        // every range is on the sink line (line 2, 0-based)
        assert_eq!(
            items[0]
                .get("range")
                .and_then(|r| r.get("start"))
                .and_then(|s| s.get("line"))
                .and_then(Value::as_i64),
            Some(2)
        );
        // a file with no findings renders the empty array
        assert_eq!(diagnostics_json(&report, "other.php", ""), "[]");
    }

    fn wap_cfg_rule() -> &'static str {
        "WAP-LINT-TAINTED-SINK"
    }
}
