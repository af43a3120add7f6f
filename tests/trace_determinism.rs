//! The observability layer's central contract: tracing is
//! observation-only. Findings and every machine-format rendering must be
//! bit-identical with the collector on or off, at every job count — a
//! `--trace` run is the same analysis, merely watched.

use wap::catalog::VulnClass;
use wap::core::{AppReport, ToolConfig, WapTool};
use wap::corpus::generate_webapp;
use wap::corpus::specs::vulnerable_webapps;
use wap::report::{render_json, render_ndjson, render_sarif};

fn corpus_sources() -> Vec<(String, String)> {
    let mut sources = Vec::new();
    for (i, spec) in vulnerable_webapps().into_iter().take(4).enumerate() {
        let app = generate_webapp(&spec, 0.1, 5150u64.wrapping_add(i as u64));
        for f in &app.files {
            sources.push((format!("app{i}/{}", f.name), f.source.clone()));
        }
    }
    sources
}

/// Everything the analysis decided, as comparable plain text (not a
/// serializer's output, so the check does not depend on one).
fn fingerprint(report: &AppReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}:{}:{}:[{}]:real={}:[{}]\n",
            f.candidate.file.as_deref().unwrap_or("<input>"),
            f.candidate.line,
            f.candidate.class,
            f.candidate.sink,
            f.candidate.sources.join(","),
            f.is_real(),
            f.prediction.justification.join(","),
        ));
    }
    out.push_str(&format!(
        "files={} loc={} parse_errors={}\n",
        report.files_analyzed,
        report.loc,
        report.parse_errors.len()
    ));
    out
}

#[test]
fn tracing_never_changes_findings_or_machine_bytes() {
    let sources = corpus_sources();
    let base_tool = WapTool::new(ToolConfig::builder().jobs(1).build());
    let classes: Vec<VulnClass> = base_tool.catalog().classes().cloned().collect();
    let base = base_tool.analyze_sources(&sources);
    assert!(!base.findings.is_empty(), "corpus must produce findings");
    let base_fp = fingerprint(&base);
    let base_json = render_json(&base);
    let base_ndjson = render_ndjson(&base);
    let base_sarif = render_sarif(&base, &classes);

    for jobs in [1usize, 2, 8] {
        for trace in [false, true] {
            let tool = WapTool::new(ToolConfig::builder().jobs(jobs).trace(trace).build());
            let report = tool.analyze_sources(&sources);
            let label = format!("jobs={jobs} trace={trace}");
            assert_eq!(base_fp, fingerprint(&report), "{label}: findings diverged");
            assert_eq!(base_json, render_json(&report), "{label}: JSON diverged");
            assert_eq!(
                base_ndjson,
                render_ndjson(&report),
                "{label}: NDJSON diverged"
            );
            assert_eq!(
                base_sarif,
                render_sarif(&report, &classes),
                "{label}: SARIF diverged"
            );
            assert_eq!(tool.obs().enabled(), trace, "{label}: collector state");
            if trace {
                assert!(
                    !tool.obs().is_empty(),
                    "{label}: traced run recorded nothing"
                );
            } else {
                assert!(
                    tool.obs().is_empty(),
                    "{label}: untraced run recorded spans"
                );
            }
        }
    }
}

#[test]
fn trace_ndjson_is_schema_versioned_and_well_formed() {
    let tool = WapTool::new(ToolConfig::builder().jobs(2).trace(true).build());
    let _ = tool.analyze_sources(&corpus_sources());
    let trace = tool.obs().render_ndjson();
    let mut lines = trace.lines();
    let meta = lines.next().expect("meta line");
    assert!(
        meta.starts_with(&format!("{{\"schema\":\"{}\"", wap_obs::TRACE_SCHEMA)),
        "first line must carry the schema: {meta}"
    );
    let mut spans = 0usize;
    for line in lines {
        assert!(
            line.starts_with("{\"kind\":\"span\"") || line.starts_with("{\"kind\":\"event\""),
            "unexpected record: {line}"
        );
        assert!(line.ends_with('}'), "truncated record: {line}");
        if line.starts_with("{\"kind\":\"span\"") {
            spans += 1;
        }
    }
    assert!(spans > 0, "trace has no spans");
    // the pipeline's per-file phases must show up
    assert!(trace.contains("\"phase\":\"parse\""), "no parse spans");
    assert!(trace.contains("\"phase\":\"taint\""), "no taint spans");
    assert!(
        trace.contains("\"phase\":\"summary_merge\""),
        "no merge span"
    );
}

/// Traced runs carry a per-file breakdown in `ScanStats`; untraced runs
/// keep it empty, and the phase totals are populated either way.
#[test]
fn scan_stats_per_file_breakdown_follows_the_trace_flag() {
    let sources = corpus_sources();
    let untraced = WapTool::new(ToolConfig::builder().jobs(2).build()).analyze_sources(&sources);
    assert!(
        untraced.stats.files.is_empty(),
        "untraced run has file stats"
    );
    assert!(
        untraced.stats.total_ns() > 0,
        "phase totals always measured"
    );

    let traced =
        WapTool::new(ToolConfig::builder().jobs(2).trace(true).build()).analyze_sources(&sources);
    assert!(!traced.stats.files.is_empty(), "traced run lost file stats");
    // sorted by descending cost, and every name is a corpus file
    let files = &traced.stats.files;
    for pair in files.windows(2) {
        assert!(pair[0].ns >= pair[1].ns, "breakdown not sorted");
    }
    assert!(files.iter().all(|f| f.file.contains('/')));
}

/// An uncached `scan` with lint on derives each file's IR once: the lint
/// stage reuses the earlier stages' programs and value facts. Every file
/// gets one parse span; every file that parsed gets one CFG lowering (by
/// the lint stage) and one value-stage span. A second parse, lowering or
/// value stage in the lint stage shows up as a second span for the file.
/// A scan on an empty store is the same pipeline with every file a miss,
/// so it derives exactly as much. A warm rescan of that store after a
/// one-file edit derives each file at most once too, and lowers only the
/// files whose `cfg` entry missed.
#[test]
fn uncached_scan_derives_each_file_once() {
    use std::collections::{BTreeMap, BTreeSet};
    use wap_obs::{Phase, Record};

    let spans_of = |tool: &WapTool| {
        let mut spans: BTreeMap<(Phase, String), usize> = BTreeMap::new();
        for record in tool.obs().records() {
            if let Record::Span(s) = record {
                if let Some(file) = s.file {
                    *spans.entry((s.phase, file)).or_default() += 1;
                }
            }
        }
        spans
    };

    let mut sources = corpus_sources();
    sources.push(("broken.php".to_string(), "<?php $x = ;\n".to_string()));
    for empty_store in [false, true] {
        let mut tool = WapTool::new(
            ToolConfig::builder()
                .jobs(2)
                .trace(true)
                .values(true)
                .rule_packs(vec![wap::rules::RulePack::wordpress()])
                .build(),
        );
        if empty_store {
            tool.enable_memory_cache();
        }
        let report = tool
            .scan(&sources, &tool.config().scan)
            .expect("rules compile");
        assert!(report.lint_ran && report.values_ran);
        assert_eq!(report.parse_errors.len(), 1, "only broken.php fails");

        let spans = spans_of(&tool);
        let count =
            |phase: Phase, file: &str| spans.get(&(phase, file.to_string())).copied().unwrap_or(0);
        for (name, _) in &sources {
            let label = format!("empty_store={empty_store} {name}");
            assert_eq!(count(Phase::Parse, name), 1, "{label}: parse spans");
            let derived = usize::from(name != "broken.php");
            assert_eq!(count(Phase::Cfg, name), derived, "{label}: lowerings");
            assert_eq!(count(Phase::Values, name), derived, "{label}: value stages");
        }
        if !empty_store {
            continue;
        }

        let mut edited = sources.clone();
        edited[0]
            .1
            .push_str("\n$edited = $_GET['e'];\necho $edited;\n");
        tool.obs().clear();
        let warm = tool
            .scan(&edited, &tool.config().scan)
            .expect("rules compile");
        let cold = WapTool::new(ToolConfig::builder().jobs(2).values(true).build())
            .scan(&edited, &tool.config().scan)
            .expect("rules compile");
        assert_eq!(fingerprint(&warm), fingerprint(&cold));
        assert_eq!(format!("{:?}", warm.lint), format!("{:?}", cold.lint));
        let missed: BTreeSet<String> = tool
            .obs()
            .records()
            .into_iter()
            .filter_map(|record| match record {
                Record::Event(e) if e.name == "cache_miss" => e.file,
                _ => None,
            })
            .collect();
        let spans = spans_of(&tool);
        for ((phase, file), n) in &spans {
            if matches!(phase, Phase::Parse | Phase::Cfg | Phase::Values) {
                assert_eq!(*n, 1, "warm rescan: {phase:?} spans of {file}");
            }
            if *phase == Phase::Cfg {
                assert!(missed.contains(file), "warm rescan lowered {file}, a hit");
            }
        }
        let lowered = spans.keys().filter(|(p, _)| *p == Phase::Cfg).count();
        assert!(spans.contains_key(&(Phase::Cfg, edited[0].0.clone())));
        assert!(
            lowered < sources.len() - 1,
            "warm rescan lowered every file"
        );
    }
}
