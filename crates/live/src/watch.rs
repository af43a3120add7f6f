//! `wap watch`: poll a tree for changes and stream findings deltas.
//!
//! No OS file-watcher dependency: the watcher snapshots every `.php`
//! file's `(mtime, size)` on a poll interval and re-analyzes when the
//! snapshot differs. Bursts of writes (editors save in several syscalls;
//! builds touch many files) are debounced by re-snapshotting until the
//! tree holds still. Each re-analysis goes through the same incremental
//! pipeline a cold `wap` run uses — warm cache hits make the common
//! single-file edit cheap — and emits one `wap-watch-v1` NDJSON revision
//! ([`wap_report::delta`]) on stdout.
//!
//! Determinism: after any revision, [`Watcher::render_current`] returns
//! byte-for-byte what a cold CLI scan of the tree would print, and the
//! delta stream for a given edit sequence is identical at every
//! `--jobs` value and cache state.

use crate::metrics::LiveMetrics;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant, SystemTime};
use wap_core::cli::{build_tool, collect_php_files, CliOptions};
use wap_core::{AppReport, SourceOverlay, WapError, WapTool};
use wap_report::{compute_delta, render_delta_ndjson, Format, Phase};

/// What one `.php` file looked like at snapshot time.
type FileStamp = (SystemTime, u64);

/// A point-in-time picture of the watched tree.
pub type Snapshot = BTreeMap<PathBuf, FileStamp>;

/// Configuration for a watch session.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Directory (or single file) to watch.
    pub dir: PathBuf,
    /// How often to snapshot the tree.
    pub poll: Duration,
    /// After a change is seen, how long the tree must hold still before
    /// re-analysis runs.
    pub debounce: Duration,
    /// Re-emit every current finding on each revision (late-joining
    /// consumers can rebuild state), not just the delta.
    pub full: bool,
    /// Append CFG lint findings to each revision's report.
    pub lint: bool,
    /// Worker threads for the analysis runtime.
    pub jobs: Option<usize>,
    /// Persistent incremental cache directory.
    pub cache_dir: Option<PathBuf>,
}

impl WatchConfig {
    /// Watch `dir` with default pacing (poll 200 ms, debounce 150 ms).
    pub fn new(dir: impl Into<PathBuf>) -> WatchConfig {
        WatchConfig {
            dir: dir.into(),
            poll: Duration::from_millis(200),
            debounce: Duration::from_millis(150),
            full: false,
            lint: false,
            jobs: None,
            cache_dir: None,
        }
    }
}

/// A live watch session: snapshot state, the resident tool (with its warm
/// cache), and the previous revision's report for delta computation.
pub struct Watcher {
    config: WatchConfig,
    tool: WapTool,
    classes: Vec<wap_catalog::VulnClass>,
    snapshot: Snapshot,
    prev: AppReport,
    revision: u64,
    /// Edit-to-diagnostics latency for this session.
    pub metrics: LiveMetrics,
}

impl Watcher {
    /// Builds the resident tool (same construction as the CLI, so reports
    /// are byte-compatible) without scanning yet.
    ///
    /// # Errors
    ///
    /// Propagates tool-construction failures ([`WapError::Config`] etc.).
    pub fn new(config: WatchConfig) -> Result<Watcher, WapError> {
        let opts = CliOptions {
            paths: vec![config.dir.clone()],
            jobs: config.jobs,
            cache_dir: config.cache_dir.clone(),
            lint: config.lint,
            ..CliOptions::default()
        };
        let tool = build_tool(&opts)?;
        let classes = tool.catalog().classes().cloned().collect();
        Ok(Watcher {
            config,
            tool,
            classes,
            snapshot: Snapshot::new(),
            prev: AppReport::default(),
            revision: 0,
            metrics: LiveMetrics::new(),
        })
    }

    /// The revision counter (0 until the first scan).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Stamps every `.php` file currently under the watched root.
    ///
    /// # Errors
    ///
    /// Returns walk errors; files that vanish between the walk and the
    /// stat (editor rename-in-place) are simply absent from the snapshot
    /// and picked up next poll.
    pub fn take_snapshot(&self) -> Result<Snapshot, WapError> {
        let files = collect_php_files(std::slice::from_ref(&self.config.dir))?;
        let mut snap = Snapshot::new();
        for f in files {
            if let Ok(meta) = std::fs::metadata(&f) {
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                snap.insert(f, (mtime, meta.len()));
            }
        }
        Ok(snap)
    }

    /// One test-driven poll step: snapshot, compare, re-analyze when the
    /// tree changed (or on the very first call). Returns the rendered
    /// delta NDJSON for the new revision, or `None` when nothing changed.
    ///
    /// # Errors
    ///
    /// Returns walk and read errors from the snapshot or re-scan.
    pub fn poll_once(&mut self) -> Result<Option<String>, WapError> {
        let snap = self.take_snapshot()?;
        if self.revision > 0 && snap == self.snapshot {
            return Ok(None);
        }
        self.snapshot = snap;
        self.rescan().map(Some)
    }

    /// Re-analyzes the tree unconditionally and advances the revision.
    /// The run is wrapped in a [`Phase::Live`] span and its latency lands
    /// in [`LiveMetrics`]; the returned NDJSON carries no timings.
    ///
    /// # Errors
    ///
    /// Returns read errors for files that disappear mid-scan.
    pub fn rescan(&mut self) -> Result<String, WapError> {
        let started = Instant::now();
        let sources = wap_core::collect_sources_with_overlay(
            std::slice::from_ref(&self.config.dir),
            &SourceOverlay::new(),
        )?;
        let mut report = {
            let job = self.tool.obs().job();
            let _live = job.span(Phase::Live);
            self.tool
                .scan(&sources, &self.tool.config().scan)
                .expect("builtin and weapon-declared lint rules always compile")
        };
        report.duration = Duration::ZERO; // timing-free: deltas must not depend on wall-clock
        self.metrics.observe(started.elapsed());
        self.revision += 1;
        let delta = compute_delta(&self.prev, &report);
        let out = render_delta_ndjson(self.revision, &delta, &report, self.config.full);
        self.prev = report;
        Ok(out)
    }

    /// Renders the current revision's full report, byte-identical to what
    /// a cold `wap --format <fmt>` scan of the same tree prints (timing
    /// fields zeroed on both sides of that comparison).
    pub fn render_current(&self, format: Format) -> String {
        format.render(&self.prev, &self.classes)
    }

    /// The blocking watch loop: initial scan, then poll/debounce/rescan
    /// until `shutdown` flips. Every revision's NDJSON is written (and
    /// flushed) to `out`; transient walk errors are reported on stderr
    /// and retried on the next poll.
    ///
    /// # Errors
    ///
    /// Returns write errors on `out` (consumer went away) and a failed
    /// initial scan.
    pub fn run(&mut self, out: &mut dyn Write, shutdown: &AtomicBool) -> Result<(), WapError> {
        let first = self.poll_once()?.unwrap_or_default();
        self.emit(out, &first)?;
        while !shutdown.load(Ordering::SeqCst) {
            sleep_unless(self.config.poll, shutdown);
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let snap = match self.take_snapshot() {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("wap watch: {e}");
                    continue;
                }
            };
            if snap == self.snapshot {
                continue;
            }
            // debounce: re-snapshot until the tree holds still
            let mut settled = snap;
            loop {
                sleep_unless(self.config.debounce, shutdown);
                match self.take_snapshot() {
                    Ok(next) if next == settled => break,
                    Ok(next) => settled = next,
                    Err(e) => {
                        eprintln!("wap watch: {e}");
                        break;
                    }
                }
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            self.snapshot = settled;
            match self.rescan() {
                Ok(lines) => self.emit(out, &lines)?,
                Err(e) => eprintln!("wap watch: {e}"),
            }
        }
        Ok(())
    }

    fn emit(&self, out: &mut dyn Write, lines: &str) -> Result<(), WapError> {
        out.write_all(lines.as_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| WapError::io("<stdout>", e))
    }
}

/// Sleeps `total` in short slices so shutdown stays responsive.
fn sleep_unless(total: Duration, shutdown: &AtomicBool) {
    let slice = Duration::from_millis(25);
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(slice.min(deadline.saturating_duration_since(Instant::now())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wap-watch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// mtime granularity on some filesystems is a full second; size
    /// changes guarantee the snapshot differs without sleeping.
    fn write_distinct(path: &PathBuf, body: &str) {
        std::fs::write(path, body).unwrap();
    }

    #[test]
    fn first_poll_scans_then_quiet_polls_skip() {
        let dir = tmpdir("first");
        write_distinct(&dir.join("v.php"), "<?php echo $_GET['v'];\n");
        let mut w = Watcher::new(WatchConfig::new(&dir)).unwrap();
        let out = w.poll_once().unwrap().expect("first poll always scans");
        assert!(out.contains("\"revision\":1"), "{out}");
        assert!(out.contains("\"kind\":\"added\""), "{out}");
        assert_eq!(w.poll_once().unwrap(), None, "unchanged tree: no revision");
        assert_eq!(w.revision(), 1);
        assert_eq!(w.metrics.revisions(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn edits_produce_add_and_remove_deltas() {
        let dir = tmpdir("edits");
        write_distinct(&dir.join("v.php"), "<?php echo $_GET['v'];\n");
        let mut w = Watcher::new(WatchConfig::new(&dir)).unwrap();
        w.poll_once().unwrap();
        // fix the vulnerability: the finding is removed
        write_distinct(&dir.join("v.php"), "<?php echo htmlentities($_GET['v']);\n");
        let out = w.poll_once().unwrap().expect("size change is a revision");
        assert!(out.contains("\"removed\":1"), "{out}");
        assert!(out.contains("\"kind\":\"removed\""), "{out}");
        // new vulnerable file: the finding is added
        write_distinct(&dir.join("w.php"), "<?php mysql_query('Q' . $_GET['q']);\n");
        let out = w.poll_once().unwrap().unwrap();
        assert!(out.contains("\"added\":1"), "{out}");
        // deleting it removes the finding again
        std::fs::remove_file(dir.join("w.php")).unwrap();
        let out = w.poll_once().unwrap().unwrap();
        assert!(out.contains("\"removed\":1"), "{out}");
        assert_eq!(w.revision(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_current_matches_cold_cli_scan() {
        let dir = tmpdir("coldeq");
        write_distinct(&dir.join("a.php"), "<?php echo $_GET['a'];\n");
        write_distinct(&dir.join("b.php"), "<?php echo 'safe';\n");
        let mut w = Watcher::new(WatchConfig::new(&dir)).unwrap();
        w.poll_once().unwrap();
        let opts = CliOptions {
            paths: vec![dir.clone()],
            ..CliOptions::default()
        };
        let (_, cold) = wap_core::cli::run(&opts).unwrap();
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains(" ms)"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&w.render_current(Format::Text)), strip(&cold));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_mode_re_emits_findings_every_revision() {
        let dir = tmpdir("full");
        write_distinct(&dir.join("v.php"), "<?php echo $_GET['v'];\n");
        let mut config = WatchConfig::new(&dir);
        config.full = true;
        let mut w = Watcher::new(config).unwrap();
        w.poll_once().unwrap();
        // an unrelated safe file changes; the old finding is re-emitted
        write_distinct(&dir.join("ok.php"), "<?php echo 'fine';\n");
        let out = w.poll_once().unwrap().unwrap();
        assert!(out.contains("\"kind\":\"finding\""), "{out}");
        assert!(out.contains("\"unchanged\":1"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_loop_streams_and_honors_shutdown() {
        let dir = tmpdir("runloop");
        write_distinct(&dir.join("v.php"), "<?php echo $_GET['v'];\n");
        let mut config = WatchConfig::new(&dir);
        config.poll = Duration::from_millis(20);
        config.debounce = Duration::from_millis(10);
        let mut w = Watcher::new(config).unwrap();
        let shutdown = AtomicBool::new(false);
        let mut out = Vec::new();
        std::thread::scope(|s| {
            let shutdown = &shutdown;
            let handle = s.spawn(move || {
                let mut sink = std::io::Cursor::new(&mut out);
                w.run(&mut sink, shutdown).unwrap();
                out
            });
            // give the loop time for the initial revision plus one edit
            std::thread::sleep(Duration::from_millis(120));
            write_distinct(&dir.join("v.php"), "<?php echo htmlentities($_GET['v']);\n");
            std::thread::sleep(Duration::from_millis(400));
            shutdown.store(true, Ordering::SeqCst);
            let bytes = handle.join().unwrap();
            let text = String::from_utf8(bytes).unwrap();
            assert!(text.contains("\"revision\":1"), "{text}");
            assert!(text.contains("\"revision\":2"), "{text}");
            assert!(text.contains("\"kind\":\"removed\""), "{text}");
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
