//! The `wap watch` / `wap lsp` front ends: flag parsing, signal wiring,
//! exit codes.

use crate::lsp::{LspConfig, LspServer};
use crate::watch::{WatchConfig, Watcher};
use std::path::PathBuf;
use std::time::Duration;
use wap_core::cli::positive_arg;
use wap_runtime::signal;

/// Help text for `wap watch`.
pub const WATCH_USAGE: &str = "\
wap watch — re-analyze a tree on every change, streaming findings deltas

USAGE:
    wap watch <DIR> [FLAGS]

FLAGS:
    --poll-ms <N>         snapshot interval in milliseconds (default 200)
    --debounce-ms <N>     quiet time required before re-analysis (default 150)
    --full                re-emit every current finding on each revision,
                          not just the added/removed delta
    --lint                include CFG lint findings in each revision
    --jobs <N>            worker threads (default: WAP_JOBS env, then all cores)
    --cache               enable the incremental cache at WAP_CACHE_DIR or .wap-cache/
    --cache-dir <DIR>     enable the incremental cache at DIR
    --help                show this message

OUTPUT (stdout, one JSON object per line, schema wap-watch-v1):
    {\"schema\":\"wap-watch-v1\",\"kind\":\"revision\",\"revision\":N,...counts...}
    {\"kind\":\"added\"|\"removed\",\"file\":...,\"line\":N,\"class\":...,\"sink\":...,\"real\":bool}

The delta stream is deterministic: it carries no timings and is identical
for every --jobs value and cache state. Re-analysis latency is recorded in
the wap_live_reanalysis_seconds histogram, printed to stderr on exit.
SIGTERM or Ctrl-C exits 0 after the current revision finishes.
";

/// Help text for `wap lsp`.
pub const LSP_USAGE: &str = "\
wap lsp — serve diagnostics to an editor over stdio (JSON-RPC 2.0 / LSP)

USAGE:
    wap lsp [FLAGS]

FLAGS:
    --lint                include CFG lint findings in published diagnostics
    --jobs <N>            worker threads (default: WAP_JOBS env, then all cores)
    --cache               enable the incremental cache at WAP_CACHE_DIR or .wap-cache/
    --cache-dir <DIR>     enable the incremental cache at DIR
    --queue <N>           re-analysis admission-queue capacity (default 32)
    --help                show this message

Implements initialize/initialized, textDocument/didOpen|didChange|didSave|
didClose (full document sync), publishDiagnostics, shutdown, and exit.
Unsaved buffers overlay the workspace, so diagnostics track what the editor
shows, not what disk holds. Exit code 0 after an orderly shutdown.
";

/// Parses `wap watch` arguments into a config (plus the help flag).
///
/// # Errors
///
/// Returns a message for unknown flags, malformed values, or a missing
/// directory operand.
pub fn parse_watch_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<(WatchConfig, bool), String> {
    let mut dir: Option<PathBuf> = None;
    let mut config = WatchConfig::new("");
    let mut help = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => help = true,
            "--full" => config.full = true,
            "--lint" => config.lint = true,
            "--poll-ms" => {
                config.poll =
                    Duration::from_millis(positive_arg(&mut it, "--poll-ms", "milliseconds")?)
            }
            "--debounce-ms" => {
                config.debounce =
                    Duration::from_millis(positive_arg(&mut it, "--debounce-ms", "milliseconds")?)
            }
            "--jobs" | "-j" => {
                config.jobs = Some(positive_arg(&mut it, "--jobs", "a thread count")?)
            }
            "--cache" => {
                if config.cache_dir.is_none() {
                    config.cache_dir = Some(wap_core::cli::default_cache_dir());
                }
            }
            "--cache-dir" => {
                let d = it.next().ok_or("--cache-dir needs a directory")?;
                config.cache_dir = Some(PathBuf::from(d));
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            path if dir.is_none() => dir = Some(PathBuf::from(path)),
            extra => return Err(format!("unexpected extra operand {extra}")),
        }
    }
    if let Some(d) = dir {
        config.dir = d;
    } else if !help {
        return Err("wap watch needs a directory to watch (try --help)".to_string());
    }
    Ok((config, help))
}

/// Parses `wap lsp` arguments.
///
/// # Errors
///
/// Returns a message for unknown flags or malformed values.
pub fn parse_lsp_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<(LspConfig, bool), String> {
    let mut config = LspConfig::default();
    let mut help = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => help = true,
            "--lint" => config.lint = true,
            "--jobs" | "-j" => {
                config.jobs = Some(positive_arg(&mut it, "--jobs", "a thread count")?)
            }
            "--cache" => {
                if config.cache_dir.is_none() {
                    config.cache_dir = Some(wap_core::cli::default_cache_dir());
                }
            }
            "--cache-dir" => {
                let d = it.next().ok_or("--cache-dir needs a directory")?;
                config.cache_dir = Some(PathBuf::from(d));
            }
            "--queue" => config.queue_capacity = positive_arg(&mut it, "--queue", "a capacity")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((config, help))
}

/// Runs `wap watch` to completion; returns the process exit code
/// (0 graceful shutdown, 2 usage error, 3+ I/O error).
pub fn watch_main(args: Vec<String>) -> i32 {
    let (config, help) = match parse_watch_args(args) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{WATCH_USAGE}");
            return 2;
        }
    };
    if help {
        print!("{WATCH_USAGE}");
        return 0;
    }
    let mut watcher = match Watcher::new(config) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return e.exit_code();
        }
    };
    signal::install_shutdown_handlers();
    let stdout = std::io::stdout();
    let result = watcher.run(&mut stdout.lock(), &signal::SHUTDOWN);
    if watcher.metrics.revisions() > 0 {
        eprint!("{}", watcher.metrics.render("watch"));
    }
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

/// Runs `wap lsp` over stdio; returns the process exit code (0 after an
/// orderly shutdown, 1 otherwise, 2 usage error).
pub fn lsp_main(args: Vec<String>) -> i32 {
    let (config, help) = match parse_lsp_args(args) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{LSP_USAGE}");
            return 2;
        }
    };
    if help {
        print!("{LSP_USAGE}");
        return 0;
    }
    signal::install_shutdown_handlers();
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    LspServer::new(config).run(&mut stdin.lock(), &mut stdout.lock())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn watch_args_parse() {
        let (c, help) = parse_watch_args(args(&[
            "app/",
            "--poll-ms",
            "50",
            "--debounce-ms",
            "25",
            "--full",
            "--lint",
            "--jobs",
            "4",
            "--cache-dir",
            "/tmp/wc",
        ]))
        .unwrap();
        assert!(!help);
        assert_eq!(c.dir, PathBuf::from("app/"));
        assert_eq!(c.poll, Duration::from_millis(50));
        assert_eq!(c.debounce, Duration::from_millis(25));
        assert!(c.full && c.lint);
        assert_eq!(c.jobs, Some(4));
        assert_eq!(c.cache_dir, Some(PathBuf::from("/tmp/wc")));
    }

    #[test]
    fn watch_args_errors() {
        assert!(parse_watch_args(args(&[])).is_err(), "dir is required");
        assert!(parse_watch_args(args(&["a", "b"])).is_err());
        assert!(parse_watch_args(args(&["a", "--poll-ms", "0"])).is_err());
        assert!(parse_watch_args(args(&["a", "--jobs", "0"])).is_err());
        assert!(parse_watch_args(args(&["a", "--frob"])).is_err());
        let (_, help) = parse_watch_args(args(&["--help"])).unwrap();
        assert!(help, "--help needs no directory");
    }

    #[test]
    fn lsp_args_parse() {
        let (c, help) = parse_lsp_args(args(&["--lint", "--jobs", "2", "--queue", "4"])).unwrap();
        assert!(!help);
        assert!(c.lint);
        assert_eq!(c.jobs, Some(2));
        assert_eq!(c.queue_capacity, 4);
        assert!(parse_lsp_args(args(&["--queue", "0"])).is_err());
        assert!(parse_lsp_args(args(&["positional"])).is_err());
        let (c, _) = parse_lsp_args(args(&[])).unwrap();
        assert_eq!(c.queue_capacity, 32);
    }

    #[test]
    fn usage_names_the_contract() {
        for needle in ["wap-watch-v1", "--debounce-ms", "deterministic", "SIGTERM"] {
            assert!(WATCH_USAGE.contains(needle), "watch usage missing {needle}");
        }
        for needle in ["didOpen", "publishDiagnostics", "shutdown", "--queue"] {
            assert!(LSP_USAGE.contains(needle), "lsp usage missing {needle}");
        }
    }
}
