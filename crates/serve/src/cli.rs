//! The `wap serve` front end: flag parsing, signal wiring, exit codes.

use crate::{ServeConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;
use wap_core::cli::positive_arg;
use wap_runtime::signal;

/// Help text for `wap serve`.
pub const SERVE_USAGE: &str = "\
wap serve — host the analysis pipeline as a resident HTTP service

USAGE:
    wap serve [FLAGS]

FLAGS:
    --addr <HOST:PORT>    bind address (default 127.0.0.1:8080; port 0 = ephemeral)
    --jobs <N>            analysis worker budget (default: WAP_JOBS env, then all cores)
    --cache-dir <DIR>     share a persistent incremental cache across scans
    --cache-peer <URL>    read through to (and replicate into) a peer replica's
                          cache; peer failures degrade to the local path
    --peers <URL,URL,..>  fleet membership for consistent-hash job routing
                          (requires --advertise; non-owned scans answer 307)
    --advertise <URL>     this replica's own URL in the --peers list
    --queue <N>           admission-queue capacity (default 32; full queue answers 429)
    --workers <N>         concurrent scans (default 2); each gets jobs/workers threads
    --rules-dir <DIR>     rule-pack store consulted for ?rules= and GET /v1/rules
                          (default: WAP_RULES_DIR, then .wap-rules/)
    --help                show this message

ENDPOINTS:
    POST /v1/scan?path=<dir>[&format=text|json|ndjson|sarif][&async=1]
    POST /v1/scan         (ustar body: scan an uploaded tree; ?rules=pack[@version]
                          joins installed rule packs into the lint pass)
    POST /v1/batch        (tar grouped by top dir, or a path manifest; NDJSON stream)
    GET  /v1/rules        installed rule packs (name, version, fingerprint)
    GET  /v1/cache/<key>  peer-served cache entry (also PUT and HEAD)
    GET  /v1/jobs/<id>    poll an async scan
    GET  /healthz         liveness
    GET  /metrics         Prometheus text exposition

SIGTERM or Ctrl-C drains gracefully: queued and in-flight scans finish,
new scans are refused with 503, then the process exits 0.
";

/// Parses `wap serve` arguments.
///
/// # Errors
///
/// Returns a message for unknown flags or malformed values.
pub fn parse_serve_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<(ServeConfig, bool), String> {
    let mut config = ServeConfig::default();
    let mut help = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => help = true,
            "--addr" => config.addr = it.next().ok_or("--addr needs HOST:PORT")?,
            "--jobs" | "-j" => {
                config.jobs = Some(positive_arg(&mut it, "--jobs", "a thread count")?)
            }
            "--cache-dir" => {
                let d = it.next().ok_or("--cache-dir needs a directory")?;
                config.cache_dir = Some(PathBuf::from(d));
            }
            "--cache-peer" => {
                let u = it.next().ok_or("--cache-peer needs a URL")?;
                config.cache_peer = Some(u);
            }
            "--peers" => {
                let list = it
                    .next()
                    .ok_or("--peers needs a comma-separated URL list")?;
                config.peers = list
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(str::to_string)
                    .collect();
                if config.peers.is_empty() {
                    return Err("--peers lists no URLs".to_string());
                }
            }
            "--advertise" => {
                let u = it.next().ok_or("--advertise needs this replica's URL")?;
                config.advertise = Some(u);
            }
            "--queue" => config.queue_capacity = positive_arg(&mut it, "--queue", "a capacity")?,
            "--workers" => config.workers = positive_arg(&mut it, "--workers", "a count")?,
            "--rules-dir" => {
                let d = it.next().ok_or("--rules-dir needs a directory")?;
                config.rules_dir = Some(PathBuf::from(d));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((config, help))
}

/// Runs `wap serve` to completion; returns the process exit code
/// (0 graceful shutdown, 1 runtime error, 2 usage error).
pub fn cli_main(args: Vec<String>) -> i32 {
    let (config, help) = match parse_serve_args(args) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{SERVE_USAGE}");
            return 2;
        }
    };
    if help {
        print!("{SERVE_USAGE}");
        return 0;
    }
    let server = match Server::bind(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: binding {}: {e}", config.addr);
            return 1;
        }
    };
    let handle = match server.handle() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    signal::install_shutdown_handlers();
    println!("wap-serve listening on http://{}", handle.addr());
    let watcher_handle = handle.clone();
    std::thread::spawn(move || loop {
        if signal::SHUTDOWN.load(Ordering::SeqCst) {
            watcher_handle.shutdown();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
    match server.run() {
        Ok(()) => {
            println!("wap-serve drained, shutting down");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let (c, help) = parse_serve_args(args(&[
            "--addr",
            "0.0.0.0:9000",
            "--jobs",
            "8",
            "--cache-dir",
            "/tmp/wc",
            "--queue",
            "5",
            "--workers",
            "3",
            "--cache-peer",
            "http://10.0.0.1:8080",
            "--peers",
            "http://10.0.0.1:8080, http://10.0.0.2:8080",
            "--advertise",
            "http://10.0.0.2:8080",
            "--rules-dir",
            "/tmp/rp",
        ]))
        .unwrap();
        assert!(!help);
        assert_eq!(c.rules_dir, Some(PathBuf::from("/tmp/rp")));
        assert_eq!(c.addr, "0.0.0.0:9000");
        assert_eq!(c.jobs, Some(8));
        assert_eq!(c.cache_dir, Some(PathBuf::from("/tmp/wc")));
        assert_eq!(c.queue_capacity, 5);
        assert_eq!(c.workers, 3);
        assert_eq!(c.cache_peer.as_deref(), Some("http://10.0.0.1:8080"));
        assert_eq!(
            c.peers,
            vec![
                "http://10.0.0.1:8080".to_string(),
                "http://10.0.0.2:8080".to_string()
            ]
        );
        assert_eq!(c.advertise.as_deref(), Some("http://10.0.0.2:8080"));
    }

    #[test]
    fn defaults_and_errors() {
        let (c, _) = parse_serve_args(args(&[])).unwrap();
        assert_eq!(c, ServeConfig::default());
        assert!(parse_serve_args(args(&["--frob"])).is_err());
        assert!(parse_serve_args(args(&["--jobs", "0"])).is_err());
        assert!(parse_serve_args(args(&["--queue", "0"])).is_err());
        assert!(parse_serve_args(args(&["--workers", "none"])).is_err());
        assert!(parse_serve_args(args(&["--addr"])).is_err());
        assert!(parse_serve_args(args(&["--cache-peer"])).is_err());
        assert!(parse_serve_args(args(&["--peers", " , "])).is_err());
        assert!(parse_serve_args(args(&["--advertise"])).is_err());
        assert!(parse_serve_args(args(&["--rules-dir"])).is_err());
        let (_, help) = parse_serve_args(args(&["--help"])).unwrap();
        assert!(help);
    }

    #[test]
    fn usage_names_the_endpoints() {
        for needle in [
            "/v1/scan",
            "/v1/jobs",
            "/v1/rules",
            "/healthz",
            "/metrics",
            "429",
            "503",
        ] {
            assert!(SERVE_USAGE.contains(needle), "usage missing {needle}");
        }
    }
}
