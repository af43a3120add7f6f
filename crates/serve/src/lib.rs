//! # wap-serve — the resident analysis service
//!
//! Scanning from a cold process pays parser/committee warm-up and an empty
//! incremental cache on every invocation. This crate keeps the whole
//! pipeline resident instead: one long-lived [`wap_core::WapTool`] — one
//! trained false-positive committee, one warm [`wap_core::cache`] store —
//! shared by every scan over plain HTTP/1.1 on `std::net::TcpListener`.
//! Like `wap-runtime` and `wap-cache`, the crate is dependency-free: no
//! async runtime, no HTTP framework, no TLS (a reverse proxy's job).
//!
//! ## Endpoints
//!
//! | Endpoint | Behavior |
//! |---|---|
//! | `POST /v1/scan` | Scan a server-local path (`?path=`) or an uploaded ustar archive (request body). Renders text/JSON/NDJSON/SARIF per `?format=` or `Accept`. `?async=1` returns `202` + job id immediately. `?lint=1` appends the CFG lint pass; `?rules=pack[@version],…` joins installed rule packs into it (implies lint; unknown packs answer `400`); `?fail_on=none|fpp|vuln|lint` answers `422` when the policy fails the report (default `none`: always `200`). With `--peers`, scans whose content key another replica owns are answered `307` ([`routing`]). |
//! | `POST /v1/batch` | Scan many apps in one request (tar grouped by top-level dir, or a manifest of server paths), streaming one NDJSON line per app ([`batch`]). Takes `?format=`, `?lint=`, `?rules=` and `?values=` as `/v1/scan` does. |
//! | `GET /v1/rules` | List the rule packs installed under the server's pack store (`--rules-dir`): name, version, fingerprint, rule count. |
//! | `GET/PUT/HEAD /v1/cache/{key}` | The peer-served cache: fetch, push, or probe one framed entry — what `--cache-peer` on another replica talks to. |
//! | `GET /v1/jobs/{id}` | Poll an async job: small JSON while queued/running, the rendered report once done. |
//! | `GET /healthz` | Liveness: `200 ok` (also while draining). |
//! | `GET /metrics` | Prometheus text exposition ([`metrics`]). |
//!
//! Admission control is a bounded queue: a full queue answers `429` with
//! `Retry-After`, and once graceful shutdown begins new scans get `503`
//! while queued and in-flight scans still finish.
//!
//! Scans render through `wap-report`, the same renderers the CLI uses, and
//! the runtime guarantees bit-identical findings at any worker count — so
//! a server response is byte-identical to `wap --format json` over the
//! same tree (JSON/NDJSON/SARIF formats exclude wall-clock timings).

#![warn(missing_docs)]

pub mod batch;
pub mod cli;
pub mod http;
pub mod metrics;
pub mod queue;
pub mod routing;
pub mod tar;

pub use cli::cli_main;

use metrics::Metrics;
use queue::{JobQueue, JobStatus, ScanOutcome, ScanRequest, SubmitError};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use wap_cache::{valid_key, CacheStore, RemoteBackend};
use wap_catalog::VulnClass;
use wap_core::cli::FailOn;
use wap_core::{Runtime, ScanOptions, ToolConfig, WapError, WapTool};
use wap_report::Format;

/// How long [`ServerHandle::shutdown`]'s loopback wake connection may
/// take to connect before it is abandoned.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a draining server waits for open connections to finish
/// writing their responses.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Server configuration (the `wap serve` flags).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 picks an ephemeral one).
    pub addr: String,
    /// Total analysis worker budget; `None` falls back to the `WAP_JOBS`
    /// environment variable, then all cores. The budget is partitioned
    /// across [`ServeConfig::workers`] concurrent scans.
    pub jobs: Option<usize>,
    /// Incremental cache root shared by every scan; `None` disables the
    /// disk cache (an in-memory cache still keeps repeat scans warm).
    pub cache_dir: Option<PathBuf>,
    /// Bounded queue capacity; submissions past it are answered `429`.
    pub queue_capacity: usize,
    /// Executor threads — scans analyzed concurrently.
    pub workers: usize,
    /// Base URL of a peer replica whose cache serves as a remote tier:
    /// misses read through to it, and new entries replicate back
    /// asynchronously. Any peer failure degrades to the local/cold path.
    pub cache_peer: Option<String>,
    /// The full fleet membership (this replica included) for consistent-
    /// hash job routing; scans whose key another peer owns are answered
    /// `307` with that peer in `Location`. Empty disables routing.
    pub peers: Vec<String>,
    /// This replica's own URL as it appears in [`ServeConfig::peers`] —
    /// required whenever `peers` is non-empty.
    pub advertise: Option<String>,
    /// Rule-pack store served by `GET /v1/rules` and consulted for
    /// `?rules=` references; `None` falls back to the `WAP_RULES_DIR`
    /// environment variable, then `.wap-rules/`.
    pub rules_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".to_string(),
            jobs: None,
            cache_dir: None,
            queue_capacity: 32,
            workers: 2,
            cache_peer: None,
            peers: Vec::new(),
            advertise: None,
            rules_dir: None,
        }
    }
}

/// State shared by the accept loop, connection handlers, and executors.
pub(crate) struct Shared {
    /// The one resident tool; each request picks its own
    /// [`ScanOptions`], and the cache keys keep their results apart.
    pub(crate) tool: WapTool,
    pub(crate) classes: Vec<VulnClass>,
    pub(crate) queue: JobQueue,
    pub(crate) metrics: Metrics,
    pub(crate) rules: wap_rules::Store,
    shutdown: AtomicBool,
    /// Connection handlers still running; the drain waits on
    /// `connections_closed` for it to reach zero.
    open_connections: Mutex<usize>,
    connections_closed: Condvar,
    /// `(peers, advertise)` when fleet routing is on.
    routing: Option<(Vec<String>, String)>,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
}

/// Remote control for a running [`Server`]: request graceful shutdown from
/// another thread (or a signal watcher).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Begins graceful shutdown: stop accepting, finish queued and
    /// in-flight scans, then return from [`Server::run`].
    ///
    /// The accept loop blocks in `accept()`, so after setting the flag
    /// this opens one loopback connection to wake it; the loop sees the
    /// flag and drops that connection unhandled. Calling it again, or
    /// after the server has stopped, is harmless.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // a refused connect means the listener is already closed
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT);
    }

    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Server {
    /// Binds the listener and builds the resident tool (training the
    /// false-positive committee once, opening the shared cache once).
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors; rejects inconsistent fleet flags
    /// (`--peers` without `--advertise`, or an advertise URL missing from
    /// the peer list) as `InvalidInput`.
    pub fn bind(config: &ServeConfig) -> io::Result<Server> {
        let routing = match (&config.peers[..], &config.advertise) {
            ([], _) => None,
            (_, None) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "--peers needs --advertise <URL> naming this replica",
                ));
            }
            (peers, Some(adv)) => {
                if !peers.contains(adv) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("--advertise {adv} is not in the --peers list"),
                    ));
                }
                Some((peers.to_vec(), adv.clone()))
            }
        };
        let listener = TcpListener::bind(&config.addr)?;
        let workers = config.workers.max(1);
        // every concurrent scan gets an equal slice of the job budget, so
        // `workers` simultaneous scans never oversubscribe it
        let per_scan = Runtime::from_config(config.jobs).partition(workers);
        let mut tool = WapTool::new(ToolConfig::builder().jobs(per_scan.jobs()).build());
        // the cache is composed here, not via ToolConfig: the local tier
        // is the configured dir (or process memory), and --cache-peer
        // stacks a remote read-through/write-back tier on top
        let store = match &config.cache_dir {
            Some(dir) => CacheStore::open(dir),
            None => CacheStore::in_memory(),
        };
        let store = match &config.cache_peer {
            Some(peer) => {
                let backend = RemoteBackend::new(peer)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
                store.with_remote(Arc::new(backend))
            }
            None => store,
        };
        tool.set_cache_store(store);
        let classes: Vec<VulnClass> = tool.catalog().classes().cloned().collect();
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                tool,
                classes,
                queue: JobQueue::new(config.queue_capacity),
                metrics: Metrics::default(),
                rules: wap_rules::Store::new(
                    config
                        .rules_dir
                        .clone()
                        .unwrap_or_else(wap_rules::default_rules_dir),
                ),
                shutdown: AtomicBool::new(false),
                open_connections: Mutex::new(0),
                connections_closed: Condvar::new(),
                routing,
            }),
            workers,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures from the socket.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for requesting shutdown from another thread.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures from the socket.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            shared: self.shared.clone(),
            addr: self.listener.local_addr()?,
        })
    }

    /// Runs the accept loop until shutdown is requested, then drains:
    /// queued and in-flight scans finish, executors join, and open
    /// connections get a grace period to flush. Every wait blocks on an
    /// event — the listener, the queue, the connection count — rather
    /// than polling.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors.
    pub fn run(self) -> io::Result<()> {
        let mut executors = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let shared = self.shared.clone();
            executors.push(std::thread::spawn(move || executor_loop(&shared)));
        }

        while !self.shared.shutdown.load(Ordering::SeqCst) {
            let accepted = self.listener.accept();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                // the shutdown wake (or a client racing it): drop unhandled
                break;
            }
            match accepted {
                Ok((stream, _)) => {
                    let shared = self.shared.clone();
                    *shared.open_connections.lock().expect("connection count") += 1;
                    std::thread::spawn(move || {
                        handle_connection(&shared, stream);
                        let mut open = shared.open_connections.lock().expect("connection count");
                        *open -= 1;
                        if *open == 0 {
                            shared.connections_closed.notify_all();
                        }
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // graceful drain: no new admissions, but everything admitted runs
        self.shared.queue.drain();
        for ex in executors {
            let _ = ex.join();
        }
        // give handlers that are writing responses a moment to finish
        let shared = &self.shared;
        let open = shared.open_connections.lock().expect("connection count");
        let _ = shared
            .connections_closed
            .wait_timeout_while(open, DRAIN_GRACE, |open| *open > 0)
            .expect("connection count");
        Ok(())
    }
}

/// Where [`ServerHandle::shutdown`] connects to wake the accept loop: the
/// bound address, with an unspecified IP (`0.0.0.0`, `::`) replaced by
/// the loopback address of the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// One executor: claim scans, analyze on the shared tool, render, record.
fn executor_loop(shared: &Shared) {
    while let Some(task) = shared.queue.next_task() {
        shared.metrics.record_queue_wait(task.submitted.elapsed());
        let scan = &task.payload;
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let report = shared
                .tool
                .scan(&scan.sources, &scan.options)
                .expect("pack rules are validated when the pack is parsed");
            let body = scan.format.render(&report, &shared.classes);
            let failing = scan.fail_on.exit_code(&report) != 0;
            (report, body, failing)
        }));
        match run {
            Ok((report, body, failing)) => {
                shared.metrics.record_report(&report);
                shared.queue.complete(
                    task.id,
                    ScanOutcome {
                        content_type: scan.format.content_type(),
                        body,
                        failing,
                    },
                );
            }
            Err(_) => {
                Metrics::inc(&shared.metrics.jobs_failed);
                shared.queue.fail(task.id, "scan panicked".to_string());
            }
        }
    }
}

/// Reads one request, routes it, writes one response, closes.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let request = match http::read_request(&stream) {
        Ok(r) => r,
        Err(msg) => {
            Metrics::inc(&shared.metrics.bad_requests);
            let _ = http::write_response(
                &stream,
                400,
                "text/plain; charset=utf-8",
                format!("bad request: {msg}\n").as_bytes(),
                &[],
            );
            return;
        }
    };
    if request.method == "POST" && request.path == "/v1/batch" {
        // batch responses stream line by line; the handler owns the socket
        batch::handle_batch(shared, &request, &stream);
        return;
    }
    let (status, content_type, body, extra): (u16, &str, Vec<u8>, Vec<(&str, String)>) =
        route(shared, &request);
    let extra_refs: Vec<(&str, &str)> = extra.iter().map(|(n, v)| (*n, v.as_str())).collect();
    let _ = http::write_response(&stream, status, content_type, &body, &extra_refs);
}

/// Status, content type, body bytes, extra headers. Bodies are bytes, not
/// text, because `/v1/cache` serves binary cache frames.
type RouteResponse = (u16, &'static str, Vec<u8>, Vec<(&'static str, String)>);

/// Dispatches one parsed request.
fn route(shared: &Shared, req: &http::Request) -> RouteResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, "text/plain; charset=utf-8", "ok\n".into(), vec![]),
        ("GET", "/metrics") => (
            200,
            "text/plain; version=0.0.4",
            shared
                .metrics
                .render(shared.queue.depth(), shared.queue.in_flight())
                .into_bytes(),
            vec![],
        ),
        ("POST", "/v1/scan") => handle_scan(shared, req),
        ("GET", "/v1/rules") => handle_rules_list(shared),
        ("GET", path) if path.starts_with("/v1/jobs/") => handle_job_poll(shared, path),
        ("GET" | "PUT" | "HEAD", path) if path.starts_with("/v1/cache/") => {
            handle_cache(shared, req)
        }
        (_, "/healthz" | "/metrics" | "/v1/scan" | "/v1/batch" | "/v1/rules") => (
            405,
            "text/plain; charset=utf-8",
            "method not allowed\n".into(),
            vec![],
        ),
        _ => {
            Metrics::inc(&shared.metrics.bad_requests);
            (
                404,
                "text/plain; charset=utf-8",
                "not found\n".into(),
                vec![],
            )
        }
    }
}

/// `/v1/cache/{key}`: the peer-served cache. `GET` answers the framed
/// entry bytes (or `404`), `HEAD` probes existence, `PUT` stores a frame
/// pushed by a peer's write-back. Frames are verified on both write
/// (`put_framed`) and later reads, so a corrupt peer can never inject
/// bytes that a scan will trust. Lookups serve local tiers only — a
/// replica never proxies a peer's `GET` onward to its own peer, so
/// chained `--cache-peer` topologies cannot loop.
fn handle_cache(shared: &Shared, req: &http::Request) -> RouteResponse {
    let key = req.path.trim_start_matches("/v1/cache/");
    if !valid_key(key) {
        Metrics::inc(&shared.metrics.bad_requests);
        return (
            400,
            "text/plain; charset=utf-8",
            "bad cache key\n".into(),
            vec![],
        );
    }
    let Some(store) = shared.tool.cache() else {
        // unreachable in practice: serve always composes a store
        return (
            404,
            "text/plain; charset=utf-8",
            "cache disabled\n".into(),
            vec![],
        );
    };
    match req.method.as_str() {
        "PUT" => {
            if store.put_framed(key, &req.body) {
                (201, "text/plain; charset=utf-8", Vec::new(), vec![])
            } else {
                (
                    422,
                    "text/plain; charset=utf-8",
                    "rejected: not a valid cache frame\n".into(),
                    vec![],
                )
            }
        }
        method => {
            let head = method == "HEAD";
            match store.get_framed(key) {
                Some(framed) => {
                    let body = if head { Vec::new() } else { framed };
                    (200, "application/octet-stream", body, vec![])
                }
                None => (
                    404,
                    "text/plain; charset=utf-8",
                    if head {
                        Vec::new()
                    } else {
                        "no such entry\n".into()
                    },
                    vec![],
                ),
            }
        }
    }
}

/// `POST /v1/scan`: gather sources, admit, and either wait (sync) or
/// return the job id (async).
fn handle_scan(shared: &Shared, req: &http::Request) -> RouteResponse {
    let format = match scan_format(req) {
        Ok(f) => f,
        Err(err) => {
            Metrics::inc(&shared.metrics.bad_requests);
            return (
                err.http_status(),
                "text/plain; charset=utf-8",
                format!("{err}\n").into_bytes(),
                vec![],
            );
        }
    };
    let sources = match scan_sources(req) {
        Ok(s) => s,
        Err(err) => {
            Metrics::inc(&shared.metrics.bad_requests);
            return (
                err.http_status(),
                "text/plain; charset=utf-8",
                format!("{err}\n").into_bytes(),
                vec![],
            );
        }
    };
    if sources.is_empty() {
        // mirror the CLI's answer for a tree with no PHP in it
        return (
            200,
            "text/plain; charset=utf-8",
            "no .php files found\n".into(),
            vec![],
        );
    }
    if let Some((peers, advertise)) = &shared.routing {
        // consistent-hash routing: the replica whose rendezvous weight
        // wins for this scan's content key serves it; everyone else
        // points the client there. 307 preserves method and body, so a
        // tar upload replays unchanged.
        let key = routing::scan_key(&sources);
        if let Some(owner) = routing::owner(peers, &key) {
            if owner != advertise {
                Metrics::inc(&shared.metrics.jobs_redirected);
                let location = format!("{}{}", owner.trim_end_matches('/'), req.target);
                return (
                    307,
                    "text/plain; charset=utf-8",
                    format!("scan key {key} is owned by {owner}\n").into_bytes(),
                    vec![("Location", location)],
                );
            }
        }
    }
    let options = match scan_options(shared, req) {
        Ok(o) => o,
        Err(msg) => {
            Metrics::inc(&shared.metrics.bad_requests);
            return (
                400,
                "text/plain; charset=utf-8",
                format!("{msg}\n").into_bytes(),
                vec![],
            );
        }
    };
    let fail_on = match req.query_param("fail_on") {
        // the server's default stays "never fail the response" so
        // existing clients keep their unconditional 200s
        None => FailOn::None,
        Some(v) => match FailOn::parse(v) {
            Some(p) => p,
            None => {
                Metrics::inc(&shared.metrics.bad_requests);
                return (
                    400,
                    "text/plain; charset=utf-8",
                    format!("unknown fail_on policy {v} (none|fpp|vuln|lint)\n").into_bytes(),
                    vec![],
                );
            }
        },
    };
    let id = match shared.queue.submit(ScanRequest {
        sources,
        format,
        options,
        fail_on,
    }) {
        Ok(id) => id,
        Err(SubmitError::Full) => {
            Metrics::inc(&shared.metrics.jobs_rejected);
            return (
                429,
                "text/plain; charset=utf-8",
                "scan queue is full, retry shortly\n".into(),
                vec![("Retry-After", "1".to_string())],
            );
        }
        Err(SubmitError::Draining) => {
            Metrics::inc(&shared.metrics.jobs_refused_draining);
            return (
                503,
                "text/plain; charset=utf-8",
                "server is draining for shutdown\n".into(),
                vec![],
            );
        }
    };
    Metrics::inc(&shared.metrics.jobs_accepted);

    let wants_async = matches!(req.query_param("async"), Some("1" | "true"));
    if wants_async {
        return (
            202,
            "application/json",
            format!("{{\"job\":{id},\"status\":\"queued\"}}\n").into_bytes(),
            vec![("Location", format!("/v1/jobs/{id}"))],
        );
    }
    match shared.queue.wait(id) {
        Some(JobStatus::Done(out)) => (
            if out.failing { 422 } else { 200 },
            out.content_type,
            out.body.into_bytes(),
            vec![],
        ),
        Some(JobStatus::Failed { message }) => (
            422,
            "text/plain; charset=utf-8",
            format!("scan failed: {message}\n").into_bytes(),
            vec![],
        ),
        _ => (
            500,
            "text/plain; charset=utf-8",
            "job vanished\n".into(),
            vec![],
        ),
    }
}

/// `GET /v1/rules`: the packs installed under the server's pack store,
/// as stable JSON sorted by name (and descending version within one).
fn handle_rules_list(shared: &Shared) -> RouteResponse {
    match shared.rules.list() {
        Ok(packs) => {
            let mut body = String::from("{\"packs\":[");
            for (i, p) in packs.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&format!(
                    "{{\"name\":{},\"version\":{},\"fingerprint\":{},\"rules\":{}}}",
                    wap_json::quote(&p.name),
                    wap_json::quote(&p.version),
                    wap_json::quote(&p.fingerprint),
                    p.rules
                ));
            }
            body.push_str("]}\n");
            (200, "application/json", body.into_bytes(), vec![])
        }
        Err(e) => (
            500,
            "text/plain; charset=utf-8",
            format!("rule-pack store unreadable: {e}\n").into_bytes(),
            vec![],
        ),
    }
}

/// `GET /v1/jobs/{id}`: job state, or the finished report itself.
fn handle_job_poll(shared: &Shared, path: &str) -> RouteResponse {
    let id_str = path.trim_start_matches("/v1/jobs/");
    let Ok(id) = id_str.parse::<u64>() else {
        Metrics::inc(&shared.metrics.bad_requests);
        return (
            400,
            "text/plain; charset=utf-8",
            format!("bad job id {id_str}\n").into_bytes(),
            vec![],
        );
    };
    match shared.queue.status(id) {
        None => (
            404,
            "text/plain; charset=utf-8",
            "unknown job\n".into(),
            vec![],
        ),
        Some(JobStatus::Done(out)) => (
            if out.failing { 422 } else { 200 },
            out.content_type,
            out.body.into_bytes(),
            vec![],
        ),
        Some(JobStatus::Failed { message }) => (
            422,
            "text/plain; charset=utf-8",
            format!("scan failed: {message}\n").into_bytes(),
            vec![],
        ),
        Some(status) => (
            200,
            "application/json",
            format!("{{\"job\":{id},\"status\":\"{}\"}}\n", status.name()).into_bytes(),
            vec![],
        ),
    }
}

/// Resolves the render format: `?format=` wins, then `Accept`, then JSON
/// (the natural API default; the CLI's default stays text).
pub(crate) fn scan_format(req: &http::Request) -> Result<Format, WapError> {
    if let Some(f) = req.query_param("format") {
        return Format::parse(f).ok_or_else(|| WapError::usage(format!("unknown format {f}")));
    }
    if let Some(accept) = req.header("accept") {
        if let Some(f) = Format::from_accept(accept) {
            return Ok(f);
        }
    }
    Ok(Format::Json)
}

/// The per-scan options a request asks for, shared by `/v1/scan` and
/// `/v1/batch`: `?rules=pack[@version],…` joins installed packs into the
/// lint pass (and implies it), `?lint=1` runs the pass, `?values=1` turns
/// on the value analysis.
///
/// # Errors
///
/// Returns the `400` message for a pack the server's store cannot
/// resolve.
pub(crate) fn scan_options(shared: &Shared, req: &http::Request) -> Result<ScanOptions, String> {
    let mut packs = Vec::new();
    for reference in req
        .query_param("rules")
        .unwrap_or_default()
        .split(',')
        .filter(|r| !r.is_empty())
    {
        let pack = shared
            .rules
            .resolve(reference)
            .map_err(|e| format!("unknown rule pack {reference}: {e}"))?;
        packs.push(pack);
    }
    let lint = matches!(req.query_param("lint"), Some("1" | "true")) || !packs.is_empty();
    Ok(ScanOptions {
        values: matches!(req.query_param("values"), Some("1" | "true")),
        lint: lint.then_some(packs),
    })
}

/// Gathers the sources to scan: an uploaded ustar body when present,
/// otherwise the server-local `?path=`. Errors carry their own HTTP
/// status via [`WapError::http_status`] — a malformed upload is the
/// client's fault (422), an unreadable server path is ours (500).
fn scan_sources(req: &http::Request) -> Result<Vec<(String, String)>, WapError> {
    if !req.body.is_empty() {
        let mut sources = tar::extract_php_sources(&req.body).map_err(|e| WapError::Parse {
            file: "tar upload".to_string(),
            detail: e.to_string(),
        })?;
        // same ordering contract as the CLI's directory walk
        sources.sort_by(|a, b| a.0.cmp(&b.0));
        sources.dedup_by(|a, b| a.0 == b.0);
        return Ok(sources);
    }
    let Some(path) = req.query_param("path") else {
        return Err(WapError::usage("scan needs a ?path= or a tar upload body"));
    };
    let files = wap_core::cli::collect_php_files(&[PathBuf::from(path)])?;
    let mut sources = Vec::with_capacity(files.len());
    for f in files {
        let contents = std::fs::read_to_string(&f).map_err(|e| WapError::io(&f, e))?;
        sources.push((f.display().to_string(), contents));
    }
    Ok(sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::mpsc;

    /// Boots a server on an ephemeral port; returns (handle, join).
    fn boot(config: ServeConfig) -> (ServerHandle, std::thread::JoinHandle<io::Result<()>>) {
        let server = Server::bind(&config).expect("bind");
        let handle = server.handle().expect("handle");
        let join = std::thread::spawn(move || server.run());
        (handle, join)
    }

    /// One blocking HTTP exchange; returns (status, headers+body text).
    fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw).expect("send");
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).expect("recv");
        let text = String::from_utf8_lossy(&buf).to_string();
        let status = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        (status, text)
    }

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        exchange(
            addr,
            format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
        )
    }

    /// Like [`exchange`] but binary-safe: returns (status, head text,
    /// exact body bytes) so cache frames and report bytes can be compared.
    fn exchange_bytes(addr: SocketAddr, raw: &[u8]) -> (u16, String, Vec<u8>) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw).expect("send");
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).expect("recv");
        let split = buf
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("header terminator");
        let head = String::from_utf8_lossy(&buf[..split]).to_string();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        (status, head, buf[split + 4..].to_vec())
    }

    /// One synchronous `POST /v1/scan?path=` returning the exact body.
    fn scan_path_bytes(addr: SocketAddr, dir: &std::path::Path, format: &str) -> (u16, Vec<u8>) {
        let target = format!(
            "/v1/scan?path={}&format={format}",
            http_escape(&dir.display().to_string())
        );
        let (status, _, body) = exchange_bytes(
            addr,
            format!("POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n").as_bytes(),
        );
        (status, body)
    }

    #[test]
    fn healthz_metrics_and_shutdown() {
        let (handle, join) = boot(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        });
        let (status, body) = get(handle.addr(), "/healthz");
        assert_eq!(status, 200);
        assert!(body.ends_with("ok\n"), "{body}");
        let (status, body) = get(handle.addr(), "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("wap_serve_queue_depth 0"), "{body}");
        let (status, _) = get(handle.addr(), "/nope");
        assert_eq!(status, 404);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn scan_path_text_round_trip() {
        let dir = std::env::temp_dir().join(format!("wap-serve-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("x.php"), "<?php echo $_GET['v'];\n").unwrap();
        let (handle, join) = boot(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        });
        let target = format!(
            "/v1/scan?path={}&format=text",
            http_escape(&dir.display().to_string())
        );
        let (status, body) = exchange(
            handle.addr(),
            format!("POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n").as_bytes(),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("1 files"), "{body}");
        // missing path and bad format are client errors
        let (status, _) = exchange(
            handle.addr(),
            b"POST /v1/scan HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(status, 400);
        let (status, _) = exchange(
            handle.addr(),
            b"POST /v1/scan?path=/tmp&format=xml HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(status, 400);
        handle.shutdown();
        join.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_tar_upload_and_async_polling() {
        let archive = tar::build(&[(
            "app/x.php".to_string(),
            "<?php echo $_GET['v'];\n".to_string(),
        )]);
        let (handle, join) = boot(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        });
        let mut raw = format!(
            "POST /v1/scan?format=text&async=1 HTTP/1.1\r\nHost: t\r\nContent-Type: application/x-tar\r\nContent-Length: {}\r\n\r\n",
            archive.len()
        )
        .into_bytes();
        raw.extend_from_slice(&archive);
        let (status, body) = exchange(handle.addr(), &raw);
        assert_eq!(status, 202, "{body}");
        assert!(body.contains("\"status\":\"queued\""), "{body}");
        let job_line = body.lines().last().unwrap();
        let id: u64 = job_line
            .trim_start_matches("{\"job\":")
            .split(',')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        // poll until done
        let mut result = String::new();
        for _ in 0..400 {
            let (status, body) = get(handle.addr(), &format!("/v1/jobs/{id}"));
            assert!(status == 200, "{body}");
            if !body.contains("\"status\":\"") {
                result = body;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(result.contains("1 files"), "{result}");
        let (status, _) = get(handle.addr(), "/v1/jobs/999999");
        assert_eq!(status, 404);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn lint_param_appends_findings_and_fail_on_maps_to_422() {
        let dir = std::env::temp_dir().join(format!("wap-serve-lint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("v.php"),
            "<?php\n$id = $_GET['id'];\nmysql_query(\"SELECT * FROM t WHERE id = $id\");\n",
        )
        .unwrap();
        let (handle, join) = boot(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        });
        let path = http_escape(&dir.display().to_string());
        let post = |target: String| {
            exchange(
                handle.addr(),
                format!("POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
                    .as_bytes(),
            )
        };
        // lint pass on, no fail policy: 200 with lint findings in the body
        let (status, body) = post(format!("/v1/scan?path={path}&format=text&lint=1"));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("WAP-LINT-TAINTED-SINK"), "{body}");
        // the fail_on=lint policy maps a failing report to 422
        let (status, body) = post(format!(
            "/v1/scan?path={path}&format=text&lint=1&fail_on=lint"
        ));
        assert_eq!(status, 422, "{body}");
        assert!(body.contains("WAP-LINT-TAINTED-SINK"), "{body}");
        // without ?lint= the default scan output is unchanged
        let (status, body) = post(format!("/v1/scan?path={path}&format=text"));
        assert_eq!(status, 200, "{body}");
        assert!(!body.contains("WAP-LINT-"), "{body}");
        // unknown policies are client errors
        let (status, _) = post(format!("/v1/scan?path={path}&fail_on=bogus"));
        assert_eq!(status, 400);
        handle.shutdown();
        join.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rules_endpoint_lists_packs_and_rules_param_joins_them() {
        let dir = std::env::temp_dir().join(format!("wap-serve-rules-{}", std::process::id()));
        let packs_dir = dir.join("packs");
        std::fs::create_dir_all(&dir).unwrap();
        wap_rules::Store::new(&packs_dir)
            .install_pack(&wap_rules::RulePack::wordpress())
            .unwrap();
        std::fs::write(
            dir.join("w.php"),
            "<?php\n$id = $_GET['id'];\n$wpdb->query(\"SELECT * FROM t WHERE id = $id\");\n",
        )
        .unwrap();
        let (handle, join) = boot(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            rules_dir: Some(packs_dir),
            ..ServeConfig::default()
        });
        // the pack inventory names the installed pack and its fingerprint
        let (status, body) = get(handle.addr(), "/v1/rules");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"name\":\"wordpress\""), "{body}");
        assert!(body.contains("\"fingerprint\":\""), "{body}");
        // ?rules= joins the pack into the scan and implies the lint pass
        let path = http_escape(&dir.display().to_string());
        let post = |target: String| {
            exchange(
                handle.addr(),
                format!("POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
                    .as_bytes(),
            )
        };
        let (status, body) = post(format!("/v1/scan?path={path}&format=text&rules=wordpress"));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("WAP-WP-WPDB-INTERPOLATED-QUERY"), "{body}");
        // without ?rules= the pack rule stays out of the report
        let (status, body) = post(format!("/v1/scan?path={path}&format=text&lint=1"));
        assert_eq!(status, 200, "{body}");
        assert!(!body.contains("WAP-WP-WPDB-INTERPOLATED-QUERY"), "{body}");
        // unknown packs are client errors, not silent no-ops
        let (status, body) = post(format!("/v1/scan?path={path}&rules=no-such-pack"));
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("unknown rule pack"), "{body}");
        // only GET is served on the inventory
        let (status, _) = post("/v1/rules".to_string());
        assert_eq!(status, 405);
        handle.shutdown();
        join.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `/v1/batch` reads its options through the same `scan_options` as
    /// `/v1/scan`: every app's batch report equals its single
    /// `?rules=wordpress` scan, and an unknown pack is refused with `400`
    /// before the stream starts.
    #[test]
    fn batch_honours_rules_like_single_scans() {
        let dir =
            std::env::temp_dir().join(format!("wap-serve-batch-rules-{}", std::process::id()));
        let packs_dir = dir.join("packs");
        wap_rules::Store::new(&packs_dir)
            .install_pack(&wap_rules::RulePack::wordpress())
            .unwrap();
        let apps = [
            (
                "plugin",
                "<?php\n$id = $_GET['id'];\n$wpdb->query(\"SELECT * FROM t WHERE id = $id\");\n",
            ),
            ("theme", "<?php\nextract($_POST);\necho $_GET['t'];\n"),
        ];
        let members: Vec<(String, String)> = apps
            .iter()
            .map(|(app, src)| (format!("{app}/index.php"), src.to_string()))
            .collect();
        let (handle, join) = boot(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            rules_dir: Some(packs_dir),
            ..ServeConfig::default()
        });
        let post = |target: &str, body: &[u8]| {
            let mut raw = format!(
                "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            raw.extend_from_slice(body);
            exchange_bytes(handle.addr(), &raw)
        };

        let (status, head, body) = post(
            "/v1/batch?format=json&rules=wordpress",
            &tar::build(&members),
        );
        assert_eq!(status, 200, "{head}");
        let text = String::from_utf8(body).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), members.len(), "{text}");
        for (line, member) in lines.iter().zip(&members) {
            let (status, _, want) = post(
                "/v1/scan?format=json&rules=wordpress",
                &tar::build(std::slice::from_ref(member)),
            );
            assert_eq!(status, 200);
            let want = String::from_utf8(want).unwrap();
            assert!(want.contains("WAP-WP-"), "the pack must fire: {want}");
            let got = wap_json::Value::parse(line).unwrap();
            assert_eq!(
                got.get("report").and_then(wap_json::Value::as_str),
                Some(want.as_str()),
                "batch report for {} differs from its ?rules= scan",
                member.0
            );
        }

        let (status, _, body) = post("/v1/batch?rules=no-such-pack", &tar::build(&members));
        assert_eq!(status, 400);
        assert!(String::from_utf8_lossy(&body).contains("unknown rule pack"));
        handle.shutdown();
        join.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn draining_server_refuses_new_scans() {
        let (handle, join) = boot(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        });
        // drain via the queue directly (as run() does on shutdown), while
        // the accept loop is still alive to answer
        handle.shared.queue.drain();
        let archive = tar::build(&[("x.php".to_string(), "<?php echo 1;\n".to_string())]);
        let mut raw = format!(
            "POST /v1/scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            archive.len()
        )
        .into_bytes();
        raw.extend_from_slice(&archive);
        let (status, body) = exchange(handle.addr(), &raw);
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("draining"), "{body}");
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn bind_rejects_inconsistent_fleet_flags() {
        let mut config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            peers: vec!["http://a:1".into(), "http://b:2".into()],
            ..ServeConfig::default()
        };
        let err = Server::bind(&config)
            .err()
            .expect("peers without advertise");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        config.advertise = Some("http://c:3".into());
        let err = Server::bind(&config).err().expect("advertise not in peers");
        assert!(err.to_string().contains("not in the --peers list"), "{err}");
        config.advertise = Some("http://a:1".into());
        assert!(Server::bind(&config).is_ok());
    }

    #[test]
    fn cache_endpoint_round_trips_frames() {
        let (handle, join) = boot(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        });
        // a frame produced the same way a peer's write-back produces one
        let donor = wap_cache::CacheStore::in_memory();
        donor.put("the-key", b"entry payload".to_vec());
        let frame = donor.get_framed("the-key").expect("framed");

        let put = |key: &str, body: &[u8]| {
            let mut raw = format!(
                "PUT /v1/cache/{key} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            raw.extend_from_slice(body);
            exchange_bytes(handle.addr(), &raw)
        };
        let (status, _, _) = put("the-key", &frame);
        assert_eq!(status, 201);
        // GET returns the identical frame bytes
        let (status, head, body) = exchange_bytes(
            handle.addr(),
            b"GET /v1/cache/the-key HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert_eq!(status, 200);
        assert!(head.contains("application/octet-stream"), "{head}");
        assert_eq!(body, frame, "served frame must be byte-identical");
        // HEAD probes existence without a body
        let (status, _, body) = exchange_bytes(
            handle.addr(),
            b"HEAD /v1/cache/the-key HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert_eq!(status, 200);
        assert!(body.is_empty());
        // absent keys, invalid keys, and corrupt frames are refused
        let (status, _, _) = exchange_bytes(
            handle.addr(),
            b"GET /v1/cache/absent-key HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert_eq!(status, 404);
        let (status, _, _) = exchange_bytes(
            handle.addr(),
            b"GET /v1/cache/bad%2Fkey HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert_eq!(status, 400, "path traversal in keys must be rejected");
        let (status, _, _) = put("junk-key", b"not a frame at all");
        assert_eq!(status, 422);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn peered_replica_warms_from_its_cache_peer() {
        let dir = std::env::temp_dir().join(format!("wap-serve-fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.php"), "<?php echo $_GET['v'];\n").unwrap();
        std::fs::write(dir.join("b.php"), "<?php echo strlen($_GET['v']);\n").unwrap();
        // replica A scans cold and keeps the entries
        let (handle_a, join_a) = boot(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        });
        let (status, body_a) = scan_path_bytes(handle_a.addr(), &dir, "json");
        assert_eq!(status, 200);
        // replica B has a cold local cache but reads through to A
        let (handle_b, join_b) = boot(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_peer: Some(format!("http://{}", handle_a.addr())),
            ..ServeConfig::default()
        });
        let (status, body_b) = scan_path_bytes(handle_b.addr(), &dir, "json");
        assert_eq!(status, 200);
        assert_eq!(body_a, body_b, "peer-warmed scan must be byte-identical");
        let (_, metrics) = get(handle_b.addr(), "/metrics");
        let hits = metric_value(&metrics, "wap_serve_remote_cache_hits_total");
        assert!(
            hits > 0,
            "B should have been served by A's cache:\n{metrics}"
        );
        // a replica whose peer is gone degrades to the cold path
        handle_a.shutdown();
        join_a.join().unwrap().unwrap();
        let (handle_c, join_c) = boot(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_peer: Some(format!("http://{}", handle_a.addr())),
            ..ServeConfig::default()
        });
        let (status, body_c) = scan_path_bytes(handle_c.addr(), &dir, "json");
        assert_eq!(status, 200);
        assert_eq!(body_a, body_c, "dead peer must not change findings");
        handle_b.shutdown();
        handle_c.shutdown();
        join_b.join().unwrap().unwrap();
        join_c.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_routing_redirects_to_the_owner() {
        let sources = vec![(
            "app/r.php".to_string(),
            "<?php echo $_GET['q'];\n".to_string(),
        )];
        let peers = vec![
            "http://replica-a:1".to_string(),
            "http://replica-b:2".to_string(),
        ];
        let key = routing::scan_key(&sources);
        let owner = routing::owner(&peers, &key).unwrap().clone();
        let loser = peers.iter().find(|p| **p != owner).unwrap().clone();
        // a replica advertising the losing URL redirects to the owner...
        let (handle, join) = boot(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            peers: peers.clone(),
            advertise: Some(loser),
            ..ServeConfig::default()
        });
        let archive = tar::build(&sources);
        let mut raw = format!(
            "POST /v1/scan?format=json HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            archive.len()
        )
        .into_bytes();
        raw.extend_from_slice(&archive);
        let (status, head, _) = exchange_bytes(handle.addr(), &raw);
        assert_eq!(status, 307, "{head}");
        assert!(
            head.contains(&format!("Location: {owner}/v1/scan?format=json")),
            "{head}"
        );
        handle.shutdown();
        join.join().unwrap().unwrap();
        // ...and the owner serves it
        let (handle, join) = boot(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            peers,
            advertise: Some(owner),
            ..ServeConfig::default()
        });
        let (status, _, body) = exchange_bytes(handle.addr(), &raw);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn batch_streams_one_ndjson_line_per_app() {
        let archive = tar::build(&[
            (
                "beta/x.php".to_string(),
                "<?php echo $_GET['v'];\n".to_string(),
            ),
            ("alpha/y.php".to_string(), "<?php echo 1;\n".to_string()),
        ]);
        let (handle, join) = boot(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        });
        let mut raw = format!(
            "POST /v1/batch?format=json HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            archive.len()
        )
        .into_bytes();
        raw.extend_from_slice(&archive);
        let (status, head, body) = exchange_bytes(handle.addr(), &raw);
        assert_eq!(status, 200);
        assert!(head.contains("application/x-ndjson"), "{head}");
        assert!(!head.contains("Content-Length"), "streams are unframed");
        let text = String::from_utf8(body).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].starts_with("{\"app\":\"alpha\""), "{text}");
        assert!(lines[1].starts_with("{\"app\":\"beta\""), "{text}");
        for line in lines {
            assert!(line.contains("\"status\":\"done\""), "{line}");
            assert!(line.contains("\"report\":\""), "{line}");
        }
        // a batch with no usable body is a client error
        let (status, _, _) = exchange_bytes(
            handle.addr(),
            b"POST /v1/batch HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(status, 422);
        // and only POST is accepted
        let (status, _) = get(handle.addr(), "/v1/batch");
        assert_eq!(status, 405);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    /// Runs `server` on a thread that reports `run()`'s result on a
    /// channel, so a test can bound how long it waits for the server to
    /// stop instead of hanging on a join.
    fn run_reporting(server: Server) -> mpsc::Receiver<io::Result<()>> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(server.run());
        });
        rx
    }

    /// Like [`boot`], but reporting through [`run_reporting`].
    fn boot_reporting(config: ServeConfig) -> (ServerHandle, mpsc::Receiver<io::Result<()>>) {
        let server = Server::bind(&config).expect("bind");
        let handle = server.handle().expect("handle");
        (handle, run_reporting(server))
    }

    /// Asserts that the server behind `rx` returned `Ok` from `run()`
    /// within two seconds.
    fn assert_stops(rx: &mpsc::Receiver<io::Result<()>>) {
        rx.recv_timeout(Duration::from_secs(2))
            .expect("run() must return within 2 s of shutdown()")
            .expect("run() failed");
    }

    fn idle_config(addr: &str) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            workers: 1,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn idle_server_wakes_on_shutdown() {
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let (handle, rx) = boot_reporting(idle_config(addr));
            // let run() reach its blocking accept with no client traffic
            assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
            handle.shutdown();
            assert_stops(&rx);
            // the wake connection is dropped, never handled as a request
            assert_eq!(
                handle.shared.metrics.bad_requests.load(Ordering::SeqCst),
                0,
                "wake connection reached handle_connection ({addr})"
            );
        }
    }

    #[test]
    fn shutdown_before_run_returns_at_once() {
        let server = Server::bind(&idle_config("127.0.0.1:0")).expect("bind");
        let handle = server.handle().expect("handle");
        handle.shutdown();
        assert_stops(&run_reporting(server));
    }

    #[test]
    fn shutdown_twice_is_harmless() {
        let (handle, rx) = boot_reporting(idle_config("127.0.0.1:0"));
        handle.shutdown();
        handle.shutdown();
        assert_stops(&rx);
        // and once more after the listener has closed
        handle.shutdown();
        assert_eq!(handle.shared.metrics.bad_requests.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wake_addr_maps_unspecified_to_loopback() {
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:8080"), "127.0.0.1:8080");
        assert_eq!(wake("[::]:8080"), "[::1]:8080");
        assert_eq!(wake("10.1.2.3:80"), "10.1.2.3:80");
    }

    #[test]
    fn sequential_round_trips_pay_no_accept_delay() {
        // a re-introduced accept poll costs every round trip its period;
        // 20 trips at 25 ms would take ~500 ms, well past this bound
        let bound = Duration::from_millis(250);
        let (handle, join) = boot(idle_config("127.0.0.1:0"));
        let start = std::time::Instant::now();
        for _ in 0..20 {
            let (status, _) = get(handle.addr(), "/healthz");
            assert_eq!(status, 200);
        }
        let healthz = start.elapsed();
        assert!(healthz < bound, "20 /healthz round trips took {healthz:?}");

        // the same for peer-cache loads through the remote backend
        let donor = wap_cache::CacheStore::in_memory();
        donor.put("latency-key", b"entry payload".to_vec());
        let frame = donor.get_framed("latency-key").expect("framed");
        let store = handle.shared.tool.cache().expect("serve composes a store");
        assert!(store.put_framed("latency-key", &frame));
        let remote = RemoteBackend::new(&format!("http://{}", handle.addr())).expect("url");
        let start = std::time::Instant::now();
        for _ in 0..20 {
            match wap_cache::CacheBackend::load(&remote, "latency-key") {
                wap_cache::Lookup::Found(bytes) => assert_eq!(bytes, frame),
                other => panic!("remote load: {other:?}"),
            }
        }
        let loads = start.elapsed();
        assert!(loads < bound, "20 remote cache loads took {loads:?}");
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    /// Reads one un-labelled counter/gauge value from an exposition body.
    fn metric_value(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing"))
    }

    fn http_escape(s: &str) -> String {
        let mut out = String::new();
        for b in s.bytes() {
            match b {
                b'/' | b'.' | b'-' | b'_' => out.push(b as char),
                b if b.is_ascii_alphanumeric() => out.push(b as char),
                b => out.push_str(&format!("%{b:02X}")),
            }
        }
        out
    }
}
