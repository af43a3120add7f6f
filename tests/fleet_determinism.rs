//! Fleet-level determinism: the tentpole guarantee of the distributed
//! cache is that network topology can change **performance only, never
//! findings**. Every test here compares bytes: CLI vs replica A (local
//! disk cache) vs replica B (cold local cache reading through A), warm
//! and cold, one worker thread or eight; a peer that is unreachable,
//! serves corrupt frames, or truncates payloads mid-body; and batch
//! scans against the equivalent sequence of single scans.
//!
//! Like `serve_http.rs`, everything is self-comparing (tool vs tool).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use wap::core::cli::{self, CliOptions};
use wap::corpus::generate_webapp;
use wap::corpus::specs::vulnerable_webapps;
use wap::report::Format;
use wap::serve::{ServeConfig, Server, ServerHandle};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wap-fleet-{tag}-{}", std::process::id()));
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
        "POST /v1/scan?path={}&format={format} HTTP/1.1\r\nHost: fleet\r\nContent-Length: 0\r\n\r\n",
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

fn metric_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing:\n{metrics}"))
}

fn fetch_metrics(addr: SocketAddr) -> String {
    let (status, _, body) = exchange(addr, b"GET /metrics HTTP/1.1\r\nHost: fleet\r\n\r\n");
    assert_eq!(status, 200);
    String::from_utf8(body).unwrap()
}

/// CLI, a dir-cached replica, and a replica warmed entirely through the
/// peer protocol all render byte-identical reports — cold, warm, at one
/// worker thread and at eight.
#[test]
fn peer_warmed_replica_matches_cli_bytes() {
    let dir = temp_dir("identity");
    write_corpus_app("RCR AEsir", 91, &dir);
    let cache_a = temp_dir("identity-cache-a");

    let want = cli_output(&dir, Format::Json).into_bytes();
    let want_sarif = cli_output(&dir, Format::Sarif).into_bytes();

    let (handle_a, join_a) = boot(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(1),
        cache_dir: Some(cache_a.clone()),
        workers: 1,
        ..ServeConfig::default()
    });
    // replica A: cold then warm
    for round in ["cold", "warm"] {
        let (status, _, body) = exchange(handle_a.addr(), &scan_request(&dir, "json"));
        assert_eq!(status, 200);
        assert_eq!(body, want, "replica A {round} scan differs from CLI");
    }

    // replica B: nothing local, everything through A, eight jobs
    let (handle_b, join_b) = boot(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(8),
        cache_peer: Some(format!("http://{}", handle_a.addr())),
        workers: 2,
        ..ServeConfig::default()
    });
    let (status, _, body) = exchange(handle_b.addr(), &scan_request(&dir, "json"));
    assert_eq!(status, 200);
    assert_eq!(body, want, "peer-warmed scan differs from CLI");
    let metrics = fetch_metrics(handle_b.addr());
    assert!(
        metric_value(&metrics, "wap_serve_remote_cache_hits_total") > 0,
        "replica B never used its peer:\n{metrics}"
    );
    // warm rerun on B (now memory-cached locally) and a second format
    let (status, _, body) = exchange(handle_b.addr(), &scan_request(&dir, "json"));
    assert_eq!(status, 200);
    assert_eq!(body, want, "replica B warm scan differs");
    let (status, _, body) = exchange(handle_b.addr(), &scan_request(&dir, "sarif"));
    assert_eq!(status, 200);
    assert_eq!(body, want_sarif, "replica B sarif scan differs");

    handle_a.shutdown();
    handle_b.shutdown();
    join_a.join().unwrap().unwrap();
    join_b.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&cache_a).ok();
}

/// A hostile or half-dead peer can slow a replica down but can never
/// change its findings: corrupt frames, truncated bodies, and refused
/// connections all degrade to the cold path with identical bytes.
#[test]
fn bad_peers_degrade_to_cold_with_identical_bytes() {
    let dir = temp_dir("degrade");
    write_corpus_app("divine", 92, &dir);
    let want = cli_output(&dir, Format::Json).into_bytes();

    // peer 1: answers every GET with a well-formed response whose body is
    // garbage (fails the checksum), and swallows PUTs
    let corrupt = spawn_fake_peer(|_req| {
        b"HTTP/1.1 200 OK\r\nContent-Length: 24\r\nConnection: close\r\n\r\nthis-is-not-a-wapc-frame".to_vec()
    });
    // peer 2: promises 4096 bytes and hangs up after 10 (transport error)
    let truncated = spawn_fake_peer(|_req| {
        b"HTTP/1.1 200 OK\r\nContent-Length: 4096\r\nConnection: close\r\n\r\nshort-body".to_vec()
    });
    // peer 3: a bound-then-dropped port — connection refused
    let unreachable = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        drop(l);
        format!("http://{addr}")
    };

    for (kind, peer) in [
        ("corrupt", corrupt),
        ("truncated", truncated),
        ("unreachable", unreachable),
    ] {
        let (handle, join) = boot(ServeConfig {
            addr: "127.0.0.1:0".into(),
            jobs: Some(2),
            cache_peer: Some(peer),
            workers: 1,
            ..ServeConfig::default()
        });
        let (status, _, body) = exchange(handle.addr(), &scan_request(&dir, "json"));
        assert_eq!(status, 200, "{kind} peer broke the scan");
        assert_eq!(body, want, "{kind} peer changed the findings bytes");
        if kind != "unreachable" {
            // the degraded lookups are visible, not silent
            let metrics = fetch_metrics(handle.addr());
            assert!(
                metric_value(&metrics, "wap_serve_remote_cache_errors_total") > 0,
                "{kind} peer produced no error samples:\n{metrics}"
            );
        }
        handle.shutdown();
        join.join().unwrap().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One `POST /v1/batch` answers exactly what N sequential `POST
/// /v1/scan` uploads of the same apps answer, app by app, byte by byte.
#[test]
fn batch_scan_equals_sequential_scans() {
    let dir_a = temp_dir("batch-a");
    let dir_b = temp_dir("batch-b");
    write_corpus_app("RCR AEsir", 93, &dir_a);
    write_corpus_app("divine", 94, &dir_b);

    // one archive holding both apps under distinct top-level dirs
    let mut members: Vec<(String, String)> = Vec::new();
    let mut per_app: Vec<(String, Vec<(String, String)>)> = Vec::new();
    for (app, dir) in [("appa", &dir_a), ("appb", &dir_b)] {
        let files = cli::collect_php_files(&[(*dir).clone()]).unwrap();
        let mut app_members = Vec::new();
        for f in files {
            let rel = f.strip_prefix(dir).unwrap().display().to_string();
            let contents = std::fs::read_to_string(&f).unwrap();
            app_members.push((format!("{app}/{rel}"), contents));
        }
        members.extend(app_members.iter().cloned());
        per_app.push((app.to_string(), app_members));
    }
    let archive = wap::serve::tar::build(&members);

    let (handle, join) = boot(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(2),
        workers: 2,
        ..ServeConfig::default()
    });

    // sequential reference: one tar upload per app
    let mut want_lines = Vec::new();
    for (app, app_members) in &per_app {
        let app_archive = wap::serve::tar::build(app_members);
        let mut raw = format!(
            "POST /v1/scan?format=json HTTP/1.1\r\nHost: fleet\r\nContent-Length: {}\r\n\r\n",
            app_archive.len()
        )
        .into_bytes();
        raw.extend_from_slice(&app_archive);
        let (status, _, body) = exchange(handle.addr(), &raw);
        assert_eq!(status, 200);
        want_lines.push((app.clone(), String::from_utf8(body).unwrap()));
    }

    let mut raw = format!(
        "POST /v1/batch?format=json HTTP/1.1\r\nHost: fleet\r\nContent-Length: {}\r\n\r\n",
        archive.len()
    )
    .into_bytes();
    raw.extend_from_slice(&archive);
    let (status, head, body) = exchange(handle.addr(), &raw);
    assert_eq!(status, 200, "{head}");
    let text = String::from_utf8(body).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), per_app.len(), "{text}");
    for (line, (app, want_report)) in lines.iter().zip(&want_lines) {
        assert!(
            line.starts_with(&format!("{{\"app\":\"{app}\",\"status\":\"done\"")),
            "{line}"
        );
        let got_report = extract_json_report(line);
        assert_eq!(
            &got_report, want_report,
            "batch report for {app} differs from its sequential scan"
        );
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// Boots a thread that answers every HTTP request on an ephemeral port
/// with `response(request_bytes)` until the process exits. Returns the
/// peer's base URL.
fn spawn_fake_peer(response: impl Fn(&[u8]) -> Vec<u8> + Send + 'static) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let mut buf = [0u8; 4096];
            let mut req = Vec::new();
            // read until the blank line; requests with bodies (PUTs) get
            // their body ignored — the fake peer never stores anything
            while !req.windows(4).any(|w| w == b"\r\n\r\n") {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => req.extend_from_slice(&buf[..n]),
                }
            }
            let _ = stream.write_all(&response(&req));
        }
    });
    format!("http://{addr}")
}

/// Pulls the decoded `"report"` string field out of one NDJSON batch
/// line (the line format is fixed: report is the final field).
fn extract_json_report(line: &str) -> String {
    let at = line.find("\"report\":\"").expect("report field") + "\"report\":\"".len();
    let raw = &line[at..line.len() - 2]; // strip trailing `"}`
    let mut out = String::new();
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next().expect("escape") {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = (&mut chars).take(4).collect();
                let v = u32::from_str_radix(&hex, 16).expect("unicode escape");
                out.push(char::from_u32(v).expect("scalar"));
            }
            other => panic!("unexpected escape \\{other}"),
        }
    }
    out
}
