//! End-to-end: boot `wap-serve` on an ephemeral port and drive it over
//! real TCP. The contract under test is the tentpole guarantee: a scan
//! served over HTTP is **byte-identical** to the same scan run through the
//! CLI front end — cold cache, warm cache, any worker count — and the
//! service stays correct under concurrent clients.
//!
//! Every assertion here compares the server against the CLI (or the server
//! against itself), so the tests are independent of the random stream the
//! corpus and committee were built from.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use wap::core::cli::{self, CliOptions};
use wap::corpus::generate_webapp;
use wap::corpus::specs::vulnerable_webapps;
use wap::report::Format;
use wap::serve::{ServeConfig, Server, ServerHandle};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wap-serve-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_corpus_app(name: &str, seed: u64, dir: &Path) {
    let spec = vulnerable_webapps()
        .into_iter()
        .find(|a| a.name == name)
        .unwrap();
    let app = generate_webapp(&spec, 0.5, seed);
    app.write_to(dir).unwrap();
}

fn boot(config: ServeConfig) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&config).expect("bind ephemeral port");
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

/// Sends one request and returns `(status, headers, body)`. The body is
/// split off at the first blank line and compared as raw bytes.
fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("send");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("recv");
    let split = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header/body delimiter");
    let head = String::from_utf8_lossy(&buf[..split]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, head, buf[split + 4..].to_vec())
}

fn scan_request(dir: &Path, format: &str) -> Vec<u8> {
    format!(
        "POST /v1/scan?path={}&format={format} HTTP/1.1\r\nHost: e2e\r\nContent-Length: 0\r\n\r\n",
        url_escape(&dir.display().to_string())
    )
    .into_bytes()
}

fn url_escape(s: &str) -> String {
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

fn cli_output(dir: &Path, format: Format) -> String {
    let opts = CliOptions {
        paths: vec![dir.to_path_buf()],
        format: Some(format),
        ..Default::default()
    };
    let (_, output) = cli::run(&opts).unwrap();
    output
}

#[test]
fn server_scan_is_byte_identical_to_cli() {
    let dir = temp_dir("identical");
    write_corpus_app("RCR AEsir", 77, &dir);
    let cache_dir = temp_dir("identical-cache");

    let (handle, join) = boot(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(2),
        cache_dir: Some(cache_dir.clone()),
        workers: 2,
        ..ServeConfig::default()
    });

    for (format_name, format) in [
        ("json", Format::Json),
        ("sarif", Format::Sarif),
        ("ndjson", Format::Ndjson),
    ] {
        let want = cli_output(&dir, format).into_bytes();
        // cold cache
        let (status, head, cold) = exchange(handle.addr(), &scan_request(&dir, format_name));
        assert_eq!(status, 200, "{head}");
        assert!(
            head.contains(&format!("Content-Type: {}", format.content_type())),
            "{head}"
        );
        assert_eq!(
            cold, want,
            "cold {format_name} scan differs from CLI output"
        );
        // warm cache: same bytes again
        let (status, _, warm) = exchange(handle.addr(), &scan_request(&dir, format_name));
        assert_eq!(status, 200);
        assert_eq!(
            warm, want,
            "warm {format_name} scan differs from CLI output"
        );
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn eight_concurrent_clients_scan_correctly() {
    let dir_a = temp_dir("conc-a");
    let dir_b = temp_dir("conc-b");
    write_corpus_app("RCR AEsir", 81, &dir_a);
    write_corpus_app("divine", 82, &dir_b);

    let (handle, join) = boot(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(2),
        workers: 2,
        ..ServeConfig::default()
    });

    // pre-warm app A so concurrent clients mix warm (A) and cold (B) scans
    let (status, _, warm_a) = exchange(handle.addr(), &scan_request(&dir_a, "json"));
    assert_eq!(status, 200);

    let addr = handle.addr();
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let dir = if i % 2 == 0 {
                dir_a.clone()
            } else {
                dir_b.clone()
            };
            std::thread::spawn(move || exchange(addr, &scan_request(&dir, "json")))
        })
        .collect();
    let mut body_a = Vec::new();
    let mut body_b = Vec::new();
    for (i, c) in clients.into_iter().enumerate() {
        let (status, head, body) = c.join().expect("client thread");
        assert_eq!(status, 200, "client {i}: {head}");
        let bucket = if i % 2 == 0 { &mut body_a } else { &mut body_b };
        if bucket.is_empty() {
            *bucket = body;
        } else {
            assert_eq!(*bucket, body, "client {i} saw a different report");
        }
    }
    assert_eq!(body_a, warm_a, "concurrent scans must match the warm scan");
    assert_eq!(
        body_b,
        cli_output(&dir_b, Format::Json).into_bytes(),
        "concurrent cold scans must match the CLI"
    );

    // while serving concurrent scans the service stayed observable
    let (status, _, metrics) = exchange(addr, b"GET /metrics HTTP/1.1\r\nHost: e2e\r\n\r\n");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).unwrap();
    let metric_value = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing:\n{metrics}"))
    };
    assert_eq!(metric_value("wap_serve_jobs_accepted_total"), 9);
    assert_eq!(metric_value("wap_serve_jobs_completed_total"), 9);
    assert!(
        metric_value("wap_serve_cache_hits_total") > 0,
        "warm scans must hit the shared cache:\n{metrics}"
    );
    assert_eq!(metric_value("wap_serve_queue_depth"), 0);
    assert_eq!(metric_value("wap_serve_jobs_in_flight"), 0);

    // latency histograms: every completed scan contributes exactly one
    // observation to the scan histogram, the queue-wait histogram, and
    // each per-phase histogram
    assert_eq!(metric_value("wap_serve_scan_duration_seconds_count"), 9);
    assert_eq!(metric_value("wap_serve_queue_wait_seconds_count"), 9);
    for phase in ["parse", "taint", "predict", "cache"] {
        assert_eq!(
            metric_value(&format!(
                "wap_serve_phase_duration_seconds_count{{phase=\"{phase}\"}}"
            )),
            9,
            "phase {phase} histogram out of step with jobs_completed"
        );
    }
    // buckets are cumulative: the +Inf bucket carries the full count
    assert_eq!(
        metric_value("wap_serve_scan_duration_seconds_bucket{le=\"+Inf\"}"),
        9
    );
    assert!(
        metrics.contains("wap_serve_scan_duration_seconds_sum "),
        "scan histogram missing _sum:\n{metrics}"
    );
    assert!(
        metrics.contains("# TYPE wap_serve_queue_wait_seconds histogram"),
        "queue-wait family untyped:\n{metrics}"
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn tar_upload_matches_path_scan_of_same_tree() {
    let dir = temp_dir("tar-vs-path");
    write_corpus_app("divine", 83, &dir);

    // build a tar of the same tree with the names the path scan will use,
    // so the two scans must render byte-identical reports
    let files = cli::collect_php_files(std::slice::from_ref(&dir)).unwrap();
    let members: Vec<(String, String)> = files
        .iter()
        .map(|f| {
            (
                f.display().to_string().trim_start_matches('/').to_string(),
                std::fs::read_to_string(f).unwrap(),
            )
        })
        .collect();
    let archive = wap::serve::tar::build(&members);

    let (handle, join) = boot(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeConfig::default()
    });

    let (status, _, by_path) = exchange(handle.addr(), &scan_request(&dir, "ndjson"));
    assert_eq!(status, 200);
    let mut raw = format!(
        "POST /v1/scan?format=ndjson HTTP/1.1\r\nHost: e2e\r\nContent-Type: application/x-tar\r\nContent-Length: {}\r\n\r\n",
        archive.len()
    )
    .into_bytes();
    raw.extend_from_slice(&archive);
    let (status, _, by_tar) = exchange(handle.addr(), &raw);
    assert_eq!(status, 200);

    // names differ only by the stripped leading '/' — normalize and compare
    let by_path = String::from_utf8(by_path).unwrap().replace(
        &dir.display().to_string(),
        dir.display().to_string().trim_start_matches('/'),
    );
    assert_eq!(by_path, String::from_utf8(by_tar).unwrap());

    handle.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// `?values=1` must reproduce the CLI's `--values` bytes exactly, and a
/// plain scan against the same server must keep the default bytes — the
/// second resident tool may not leak into the first.
#[test]
fn values_scan_matches_cli_and_leaves_default_bytes_alone() {
    let dir = temp_dir("values");
    std::fs::create_dir_all(dir.join("lib")).unwrap();
    std::fs::write(
        dir.join("index.php"),
        "<?php\n$base = \"lib\";\n$id = $_GET['id'];\ninclude $base . \"/db.php\";\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("lib/db.php"),
        "<?php\nmysql_query(\"SELECT * FROM users WHERE id = \" . $id);\n",
    )
    .unwrap();

    let (handle, join) = boot(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeConfig::default()
    });

    let values_cli = {
        let opts = CliOptions {
            paths: vec![dir.clone()],
            format: Some(Format::Json),
            values: true,
            ..Default::default()
        };
        let (_, output) = cli::run(&opts).unwrap();
        output.into_bytes()
    };
    let plain_cli = cli_output(&dir, Format::Json).into_bytes();
    assert_ne!(
        values_cli, plain_cli,
        "the resolved dynamic include must change the findings"
    );

    let values_request = format!(
        "POST /v1/scan?path={}&format=json&values=1 HTTP/1.1\r\nHost: e2e\r\nContent-Length: 0\r\n\r\n",
        url_escape(&dir.display().to_string())
    );
    // interleave values and plain scans: each must keep its own bytes
    for _ in 0..2 {
        let (status, head, body) = exchange(handle.addr(), values_request.as_bytes());
        assert_eq!(status, 200, "{head}");
        assert_eq!(body, values_cli, "?values=1 scan differs from --values CLI");
        let (status, _, body) = exchange(handle.addr(), &scan_request(&dir, "json"));
        assert_eq!(status, 200);
        assert_eq!(body, plain_cli, "plain scan next to ?values=1 drifted");
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A long call chain is summarized callee-first, so its length never
/// becomes stack depth: a 600-function upload (about 23 KB) scans on a
/// worker's default stack, and the same server stays healthy.
#[test]
fn call_chain_upload_scans_and_the_server_stays_healthy() {
    let n = 600;
    let mut src = String::from("<?php\n");
    for i in 0..n {
        src.push_str(&format!("function f{i}($x) {{ return f{}($x); }}\n", i + 1));
    }
    src.push_str(&format!(
        "function f{n}($x) {{ return $x; }}\necho f0($_GET['q']);\n"
    ));
    let archive = wap::serve::tar::build(&[("chain.php".to_string(), src)]);

    let (handle, join) = boot(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeConfig::default()
    });
    let mut raw = format!(
        "POST /v1/scan?format=ndjson HTTP/1.1\r\nHost: e2e\r\nContent-Type: application/x-tar\r\nContent-Length: {}\r\n\r\n",
        archive.len()
    )
    .into_bytes();
    raw.extend_from_slice(&archive);
    let (status, _, body) = exchange(handle.addr(), &raw);
    assert_eq!(status, 200);
    let body = String::from_utf8(body).unwrap();
    let flows: Vec<&str> = body.lines().filter(|l| l.contains("chain.php")).collect();
    assert_eq!(flows.len(), 1, "{body}");
    assert!(flows[0].contains("XSS"), "{body}");

    let (status, _, health) = exchange(
        handle.addr(),
        b"GET /healthz HTTP/1.1\r\nHost: e2e\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!((status, health.as_slice()), (200, &b"ok\n"[..]));

    handle.shutdown();
    join.join().unwrap().unwrap();
}
