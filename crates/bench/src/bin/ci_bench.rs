//! CI performance-regression gate.
//!
//! Runs a fixed-seed corpus sweep through the full pipeline twice — once
//! cold (no cache) and once warm (pre-populated incremental cache) — and
//! reports throughput in lines of code per second. Results are written to
//! `BENCH_ci.json` (a per-run artifact, gitignored); gate mode compares
//! them against the committed baseline and exits non-zero when throughput
//! regressed by more than the tolerance (default 15%, override with
//! `WAP_BENCH_TOLERANCE`). Gating against the run's own output file is
//! refused — a self-comparison always passes and gates nothing.
//!
//! ```text
//! ci_bench                      # measure, write BENCH_ci.json, gate vs baseline
//! ci_bench --write-baseline     # measure and (re)write the baseline instead
//! ci_bench --baseline <path>    # baseline location  (default BENCH_baseline.json)
//! ci_bench --out <path>         # result location    (default BENCH_ci.json)
//! ```
//!
//! Deliberately `Instant`-based with hand-formatted JSON, so the gate has
//! no harness or serializer between it and the numbers it reports.

use std::process::ExitCode;
use std::time::Instant;

use wap_core::{Phase, ScanOptions, ScanStats, ToolConfig, WapTool};

// Count allocations so the cold-phase report can include them; the
// pipeline reads the counter via `wap_obs::allocations_now`.
#[global_allocator]
static ALLOC: wap_core::CountingAlloc = wap_core::CountingAlloc;
use wap_corpus::generate_webapp;
use wap_corpus::specs::vulnerable_webapps;

const SCHEMA: &str = "wap-ci-bench-v1";
const DEFAULT_BASELINE: &str = "BENCH_baseline.json";
const DEFAULT_OUT: &str = "BENCH_ci.json";
const DEFAULT_TOLERANCE: f64 = 0.15;
/// The cache subsystem's acceptance bar, machine-independent: a fully
/// warm run must be at least this many times faster than a cold run.
const MIN_WARM_SPEEDUP: f64 = 3.0;
/// Absolute cold-throughput floor, a ratchet backstop the relative gate
/// cannot provide: re-baselining after each 15%-tolerated dip could walk
/// the baseline down indefinitely. The value sits ~1.5x above the
/// pre-optimization baseline (228.9k LoC/s, before interner/arena/taint
/// work) and ~30% below current light-load measurements (~500-600k), so
/// losing any one of those optimizations trips it while scheduler noise
/// does not.
const MIN_COLD_LOC_PER_S: f64 = 350_000.0;
/// Ceiling on what `--values` may add to a cold scan, self-relative to
/// this run's own plain cold sweep (so it needs no baseline field and
/// sits outside the 15% regression gate): the opt-in value analysis is
/// a coverage feature, not licence for a measurable slowdown.
const MAX_VALUES_OVERHEAD: f64 = 0.10;
const REPS: usize = 3;
/// Single-file edits driven through the watch front-end for the
/// live-edit latency sweep (reported, not gated).
const LIVE_EDITS: usize = 12;

/// The fixed-seed sweep corpus: six generated applications, unique file
/// names via a per-app prefix.
fn corpus() -> Vec<(String, String)> {
    let mut sources = Vec::new();
    for (i, spec) in vulnerable_webapps().into_iter().take(6).enumerate() {
        let app = generate_webapp(&spec, 0.05, 7000u64.wrapping_add(i as u64));
        for f in &app.files {
            sources.push((format!("app{i}/{}", f.name), f.source.clone()));
        }
    }
    sources
}

/// Best-of-N wall time in seconds (best-of damps scheduler noise, which
/// only ever slows a run down).
fn best_secs(reps: usize, mut run: impl FnMut() -> usize) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut findings = 0;
    for _ in 0..reps {
        let start = Instant::now();
        findings = run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, findings)
}

struct Measurement {
    total_loc: usize,
    findings: usize,
    cold_loc_per_s: f64,
    warm_loc_per_s: f64,
    /// Cold local cache reading through a warm peer replica — reported
    /// for trend-watching but outside the gate (it measures loopback
    /// HTTP as much as the pipeline).
    warm_remote_loc_per_s: f64,
    /// Cold sweep with the interprocedural value analysis on — outside
    /// the baseline gate, but bounded self-relatively: it may cost at
    /// most [`MAX_VALUES_OVERHEAD`] over this run's plain cold sweep.
    cold_values_loc_per_s: f64,
    /// Watch-mode re-analysis latency after one single-file edit on a
    /// warm cache — reported for trend-watching, outside the gate (it
    /// measures filesystem polling as much as the pipeline).
    live_edit_p50_ms: f64,
    live_edit_p95_ms: f64,
    /// Optional sweeps skipped via `WAP_BENCH_SKIP` — recorded in the
    /// artifact (and announced on stdout) so their zeroed metrics are
    /// never mistaken for a measurement.
    skipped_sweeps: Vec<String>,
}

impl Measurement {
    fn warm_speedup(&self) -> f64 {
        self.warm_loc_per_s / self.cold_loc_per_s
    }

    fn to_json(&self) -> String {
        let skipped = self
            .skipped_sweeps
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"total_loc\": {},\n  \"findings\": {},\n  \"cold_loc_per_s\": {:.1},\n  \"warm_loc_per_s\": {:.1},\n  \"warm_remote_loc_per_s\": {:.1},\n  \"cold_values_loc_per_s\": {:.1},\n  \"warm_speedup\": {:.2},\n  \"live_edit_p50_ms\": {:.2},\n  \"live_edit_p95_ms\": {:.2},\n  \"skipped_sweeps\": [{skipped}]\n}}\n",
            SCHEMA,
            self.total_loc,
            self.findings,
            self.cold_loc_per_s,
            self.warm_loc_per_s,
            self.warm_remote_loc_per_s,
            self.cold_values_loc_per_s,
            self.warm_speedup(),
            self.live_edit_p50_ms,
            self.live_edit_p95_ms
        )
    }
}

/// The `WAP_BENCH_SKIP` list: optional (ungated) sweeps to skip, comma-
/// separated. Only `warm_remote` and `live_edit` are skippable — the
/// gated cold/warm sweeps always run. Unknown names are ignored loudly.
fn sweeps_to_skip() -> Vec<String> {
    let Ok(raw) = std::env::var("WAP_BENCH_SKIP") else {
        return Vec::new();
    };
    let mut skip = Vec::new();
    for name in raw.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        if name == "warm_remote" || name == "live_edit" {
            if !skip.iter().any(|s| s == name) {
                skip.push(name.to_string());
            }
        } else {
            eprintln!("ci_bench: ignoring unknown WAP_BENCH_SKIP sweep {name:?}");
        }
    }
    skip
}

fn measure() -> Measurement {
    let skipped_sweeps = sweeps_to_skip();
    let skip = |name: &str| skipped_sweeps.iter().any(|s| s == name);
    let sources = corpus();
    let total_loc: usize = sources.iter().map(|(_, s)| s.lines().count()).sum();

    let mut cold_stats = ScanStats::new();
    let (cold_secs, findings) = best_secs(REPS, || {
        let report = WapTool::new(ToolConfig::builder().jobs(1).build()).analyze_sources(&sources);
        cold_stats = report.stats.clone();
        report.findings.len()
    });
    let ms = |p: Phase| cold_stats.phase_ns(p) / 1_000_000;
    println!(
        "ci_bench: cold phases (last rep): parse {} ms, taint {} ms, predict {} ms",
        ms(Phase::Parse),
        ms(Phase::Taint),
        ms(Phase::Predict)
    );
    println!(
        "ci_bench: cold memory (last rep): peak RSS {:.1} MB, {} allocations",
        cold_stats.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        cold_stats.allocations
    );

    // CFG/lint pass cost, reported but outside the gate: the pass is
    // compiled in yet off by default, so the gated sweeps above never
    // pay for it
    let lint_report = WapTool::new(ToolConfig::builder().jobs(1).build())
        .scan(
            &sources,
            &ScanOptions {
                lint: Some(Vec::new()),
                ..ScanOptions::default()
            },
        )
        .expect("builtin lint rules always compile");
    println!(
        "ci_bench: cfg phase {} ms, lint phase {} ms (opt-in --lint, not gated)",
        lint_report.stats.phase_ns(Phase::Cfg) / 1_000_000,
        lint_report.stats.phase_ns(Phase::Lint) / 1_000_000
    );

    // values sweep: the interprocedural value analysis on a cold scan —
    // outside the baseline gate, bounded against this run's own cold
    // sweep by MAX_VALUES_OVERHEAD in gate mode
    let mut values_stats = ScanStats::new();
    let (values_secs, values_findings) = best_secs(REPS, || {
        let report = WapTool::new(ToolConfig::builder().jobs(1).values(true).build())
            .analyze_sources(&sources);
        values_stats = report.stats.clone();
        report.findings.len()
    });
    assert!(
        values_findings >= findings,
        "--values must never lose findings: {values_findings} < {findings}"
    );
    println!(
        "ci_bench: values phase {} ms (opt-in --values, bounded vs cold, not baseline-gated)",
        values_stats.phase_ns(Phase::Values) / 1_000_000
    );

    let mut tool = WapTool::new(ToolConfig::builder().jobs(1).build());
    tool.enable_memory_cache();
    tool.analyze_sources(&sources); // prime
    let (warm_secs, warm_findings) = best_secs(REPS, || {
        let report = tool.analyze_sources(&sources);
        assert_eq!(report.cache.misses, 0, "warm sweep must not miss");
        report.findings.len()
    });
    assert_eq!(findings, warm_findings, "cold and warm findings diverged");

    // fleet sweep: a replica with a cold local cache reading through a
    // peer whose cache is fully warm — every entry arrives over loopback
    // HTTP. Reported, not gated.
    let warm_remote_loc_per_s = if skip("warm_remote") {
        println!("ci_bench: optional sweep warm_remote SKIPPED (WAP_BENCH_SKIP)");
        0.0
    } else {
        let peer_dir =
            std::env::temp_dir().join(format!("wap-ci-bench-peer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&peer_dir);
        WapTool::new(ToolConfig::builder().jobs(1).cache_dir(&peer_dir).build())
            .analyze_sources(&sources); // warm the peer's disk cache
        let server = wap_serve::Server::bind(&wap_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_dir: Some(peer_dir.clone()),
            ..wap_serve::ServeConfig::default()
        })
        .expect("bind bench peer");
        let handle = server.handle().expect("peer handle");
        let join = std::thread::spawn(move || server.run());
        let peer_url = format!("http://{}", handle.addr());
        let (remote_secs, remote_findings) = best_secs(REPS, || {
            // fresh tool per rep: local tiers start cold, so every hit is
            // genuinely served by the peer
            let mut tool = WapTool::new(ToolConfig::builder().jobs(1).build());
            let backend = wap_cache::RemoteBackend::new(&peer_url).expect("peer url");
            tool.set_cache_store(
                wap_cache::CacheStore::in_memory().with_remote(std::sync::Arc::new(backend)),
            );
            let report = tool.analyze_sources(&sources);
            assert!(
                report.cache.remote_hits > 0,
                "remote-warm sweep never reached the peer"
            );
            report.findings.len()
        });
        assert_eq!(findings, remote_findings, "remote-warm findings diverged");
        handle.shutdown();
        let _ = join.join();
        let _ = std::fs::remove_dir_all(&peer_dir);
        total_loc as f64 / remote_secs
    };

    let (live_edit_p50_ms, live_edit_p95_ms) = if skip("live_edit") {
        println!("ci_bench: optional sweep live_edit SKIPPED (WAP_BENCH_SKIP)");
        (0.0, 0.0)
    } else {
        measure_live_edits(&sources)
    };

    Measurement {
        total_loc,
        findings,
        cold_loc_per_s: total_loc as f64 / cold_secs,
        warm_loc_per_s: total_loc as f64 / warm_secs,
        warm_remote_loc_per_s,
        cold_values_loc_per_s: total_loc as f64 / values_secs,
        live_edit_p50_ms,
        live_edit_p95_ms,
        skipped_sweeps,
    }
}

/// Nearest-rank percentile of an unsorted sample, in place.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p * samples.len() as f64).ceil() as usize).max(1) - 1;
    samples[rank.min(samples.len() - 1)]
}

/// Live-edit latency sweep: materializes the corpus on disk, boots the
/// watch front-end with a warm incremental cache, then makes
/// [`LIVE_EDITS`] single-file edits — each appends one new function to a
/// rotating file — and times the poll-to-delta turnaround. Every edit
/// re-reads the whole tree but only re-analyzes the changed file, so
/// this measures exactly what an editor user waits on. Reported for
/// trend-watching, outside the gate.
fn measure_live_edits(sources: &[(String, String)]) -> (f64, f64) {
    let dir = std::env::temp_dir().join(format!("wap-ci-bench-live-{}", std::process::id()));
    let cache =
        std::env::temp_dir().join(format!("wap-ci-bench-live-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cache);
    for (name, source) in sources {
        let path = dir.join(name);
        std::fs::create_dir_all(path.parent().expect("corpus file has a parent"))
            .expect("create corpus dir");
        std::fs::write(&path, source).expect("write corpus file");
    }

    let mut config = wap_live::WatchConfig::new(&dir);
    config.cache_dir = Some(cache.clone());
    let mut watcher = wap_live::Watcher::new(config).expect("boot watcher");
    watcher
        .poll_once()
        .expect("initial scan")
        .expect("initial scan emits revision 1");

    let mut times_ms = Vec::with_capacity(LIVE_EDITS);
    for i in 0..LIVE_EDITS {
        let (name, source) = &sources[i % sources.len()];
        let edited = format!("{source}\n<?php function live_edit_{i}() {{ return {i}; }}\n");
        std::fs::write(dir.join(name), edited).expect("apply edit");
        let start = Instant::now();
        let delta = watcher.poll_once().expect("re-scan after edit");
        let elapsed = start.elapsed().as_secs_f64() * 1000.0;
        assert!(delta.is_some(), "edit {i} did not produce a revision");
        times_ms.push(elapsed);
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cache);
    (
        percentile(&mut times_ms, 0.50),
        percentile(&mut times_ms, 0.95),
    )
}

/// Minimal extractor for our own flat JSON: the f64 following `"key":`.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Whether two path strings denote the same file (textually, or after
/// canonicalization when both exist).
fn same_file(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(x), Ok(y)) => x == y,
        _ => false,
    }
}

fn tolerance() -> f64 {
    match std::env::var("WAP_BENCH_TOLERANCE") {
        Ok(raw) => raw.trim().parse().unwrap_or_else(|_| {
            eprintln!("ci_bench: ignoring unparsable WAP_BENCH_TOLERANCE={raw:?}");
            DEFAULT_TOLERANCE
        }),
        Err(_) => DEFAULT_TOLERANCE,
    }
}

fn gate(measured: &Measurement, baseline_path: &str) -> Result<(), String> {
    let raw = std::fs::read_to_string(baseline_path).map_err(|e| {
        format!("cannot read baseline {baseline_path}: {e}\nrun `ci_bench --write-baseline` and commit the result")
    })?;
    let tol = tolerance();
    let mut failures = Vec::new();
    for (name, current) in [
        ("cold_loc_per_s", measured.cold_loc_per_s),
        ("warm_loc_per_s", measured.warm_loc_per_s),
    ] {
        let base = json_number(&raw, name)
            .ok_or_else(|| format!("baseline {baseline_path} has no \"{name}\""))?;
        let floor = base * (1.0 - tol);
        let verdict = if current < floor { "REGRESSED" } else { "ok" };
        println!(
            "ci_bench: {name}: {current:.1} vs baseline {base:.1} (floor {floor:.1}, tolerance {:.0}%) — {verdict}",
            tol * 100.0
        );
        if current < floor {
            failures.push(format!(
                "{name} regressed: {current:.1} < {floor:.1} ({base:.1} - {:.0}%)",
                tol * 100.0
            ));
        }
    }
    println!(
        "ci_bench: cold absolute floor: {:.1} vs {MIN_COLD_LOC_PER_S:.1}",
        measured.cold_loc_per_s
    );
    if measured.cold_loc_per_s < MIN_COLD_LOC_PER_S {
        failures.push(format!(
            "cold throughput {:.1} LoC/s below the absolute floor {MIN_COLD_LOC_PER_S:.1}",
            measured.cold_loc_per_s
        ));
    }
    let speedup = measured.warm_speedup();
    println!("ci_bench: warm_speedup: {speedup:.2}x (floor {MIN_WARM_SPEEDUP:.1}x)");
    if speedup < MIN_WARM_SPEEDUP {
        failures.push(format!(
            "warm run only {speedup:.2}x faster than cold (need >= {MIN_WARM_SPEEDUP:.1}x)"
        ));
    }
    // self-relative, so baseline files without the field still gate:
    // the opt-in values pass may not slow a cold scan past its bound
    let values_overhead = measured.cold_loc_per_s / measured.cold_values_loc_per_s - 1.0;
    println!(
        "ci_bench: values overhead: {:.1}% over cold (ceiling {:.0}%)",
        values_overhead * 100.0,
        MAX_VALUES_OVERHEAD * 100.0
    );
    if values_overhead > MAX_VALUES_OVERHEAD {
        failures.push(format!(
            "--values costs {:.1}% over a cold scan (ceiling {:.0}%)",
            values_overhead * 100.0,
            MAX_VALUES_OVERHEAD * 100.0
        ));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let mut write_baseline = false;
    let mut baseline_path = DEFAULT_BASELINE.to_string();
    let mut out_path = DEFAULT_OUT.to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write-baseline" => write_baseline = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_path = p,
                None => {
                    eprintln!("ci_bench: --baseline needs a path");
                    return ExitCode::from(2);
                }
            },
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("ci_bench: --out needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("ci_bench: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    // Gating a run against the file that same run writes is always a
    // pass — exactly the self-comparison that let a stale committed
    // BENCH_ci.json masquerade as an independent measurement. Refuse it.
    if !write_baseline && same_file(&baseline_path, &out_path) {
        eprintln!(
            "ci_bench: baseline ({baseline_path}) and output ({out_path}) are the same file; \
             gate against the committed baseline, not this run's own output"
        );
        return ExitCode::from(2);
    }

    let measured = measure();
    println!(
        "ci_bench: {} LoC, {} findings, cold {:.1} LoC/s, warm {:.1} LoC/s ({:.2}x), remote-warm {:.1} LoC/s (not gated), cold+values {:.1} LoC/s",
        measured.total_loc,
        measured.findings,
        measured.cold_loc_per_s,
        measured.warm_loc_per_s,
        measured.warm_speedup(),
        measured.warm_remote_loc_per_s,
        measured.cold_values_loc_per_s
    );
    println!(
        "ci_bench: live_edit: p50 {:.2} ms, p95 {:.2} ms over {LIVE_EDITS} edits (not gated)",
        measured.live_edit_p50_ms, measured.live_edit_p95_ms
    );

    if write_baseline {
        if let Err(e) = std::fs::write(&baseline_path, measured.to_json()) {
            eprintln!("ci_bench: cannot write {baseline_path}: {e}");
            return ExitCode::from(2);
        }
        println!("ci_bench: baseline written to {baseline_path}");
        return ExitCode::SUCCESS;
    }

    if let Err(e) = std::fs::write(&out_path, measured.to_json()) {
        eprintln!("ci_bench: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    println!("ci_bench: results written to {out_path}");

    match gate(&measured, &baseline_path) {
        Ok(()) => {
            println!("ci_bench: gate PASSED");
            ExitCode::SUCCESS
        }
        Err(report) => {
            eprintln!("ci_bench: gate FAILED\n{report}");
            ExitCode::FAILURE
        }
    }
}
