//! The runtime's central guarantee: analysis output is bit-identical for
//! every worker count. A ~100-file corpus is analyzed at jobs = 1, 2, 8
//! and the full reports (findings *and* their order) must match the
//! serial walk byte for byte.

use wap::core::cli::render_json;
use wap::core::{AppReport, Format, ScanOptions, ToolConfig, WapTool};
use wap::corpus::generate_webapp;
use wap::corpus::specs::vulnerable_webapps;

/// Builds one combined corpus out of several generated applications; the
/// per-app name prefix keeps file names unique.
fn corpus_sources() -> Vec<(String, String)> {
    let mut sources = Vec::new();
    for (i, spec) in vulnerable_webapps().into_iter().take(6).enumerate() {
        let app = generate_webapp(&spec, 0.1, 4242u64.wrapping_add(i as u64));
        for f in &app.files {
            sources.push((format!("app{i}/{}", f.name), f.source.clone()));
        }
    }
    sources
}

/// A canonical plain-text rendering of everything the analysis decided
/// (deliberately not JSON, so the comparison does not depend on a
/// serializer): per-finding identity, order, verdict, and justification,
/// plus the aggregate counters.
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
fn findings_are_bit_identical_for_every_job_count() {
    let sources = corpus_sources();
    assert!(
        sources.len() >= 100,
        "corpus too small: {} files",
        sources.len()
    );

    let serial = WapTool::new(ToolConfig::builder().jobs(1).build());
    let baseline_report = serial.analyze_sources(&sources);
    assert!(
        !baseline_report.findings.is_empty(),
        "corpus must produce findings"
    );
    let baseline = fingerprint(&baseline_report);
    let baseline_json = render_json(&baseline_report);

    for jobs in [2usize, 8] {
        let tool = WapTool::new(ToolConfig::builder().jobs(jobs).build());
        let report = tool.analyze_sources(&sources);
        assert_eq!(
            baseline,
            fingerprint(&report),
            "jobs={jobs} diverged from the serial walk"
        );
        assert_eq!(
            baseline_json,
            render_json(&report),
            "jobs={jobs} JSON diverged"
        );
    }
}

/// The incremental cache must never change output: a cold run, a fully
/// warm run, and a partially invalidated run (files edited, added,
/// removed) must be bit-identical — at every job count.
#[test]
fn cached_runs_are_bit_identical_to_cold_at_every_job_count() {
    let mut sources = corpus_sources();
    let dir = std::env::temp_dir().join(format!(
        "wap-determinism-cache-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = |sources: &[(String, String)]| {
        fingerprint(&WapTool::new(ToolConfig::builder().jobs(1).build()).analyze_sources(sources))
    };
    let sweep = |sources: &[(String, String)], baseline: &str, label: &str| {
        for jobs in [1usize, 2, 8] {
            let tool = WapTool::new(ToolConfig::builder().jobs(jobs).cache_dir(&dir).build());
            let report = tool.analyze_sources(sources);
            assert_eq!(
                baseline,
                fingerprint(&report),
                "{label} cached run at jobs={jobs} diverged from cold"
            );
        }
    };

    let baseline = cold(&sources);
    sweep(&sources, &baseline, "populating");

    // fully warm: same sources, fresh tool per job count, zero re-analysis
    let warm_tool = WapTool::new(ToolConfig::builder().jobs(4).cache_dir(&dir).build());
    let warm = warm_tool.analyze_sources(&sources);
    assert_eq!(baseline, fingerprint(&warm), "fully warm run diverged");
    assert_eq!(warm.cache.misses, 0, "fully warm run must not miss");
    assert!(warm.cache.hits > 0);

    // partial invalidation #1: edit one file's top level (no declaration
    // change — every other file's taint artifacts stay valid)
    sources[0].1.push_str("\necho $_GET['cache_probe'];\n");
    let baseline = cold(&sources);
    sweep(&sources, &baseline, "edited-file");

    // partial invalidation #2: remove a file and add one declaring a new
    // function (the app-wide functions digest changes)
    sources.remove(1);
    sources.push((
        "appx/new_helper.php".to_string(),
        "<?php\nfunction cache_probe_helper($v) { return $v; }\necho cache_probe_helper($_GET['h']);\n"
            .to_string(),
    ));
    let baseline = cold(&sources);
    sweep(&sources, &baseline, "add-remove");

    let partial = WapTool::new(ToolConfig::builder().jobs(2).cache_dir(&dir).build())
        .analyze_sources(&sources);
    assert_eq!(baseline, fingerprint(&partial));
    assert_eq!(partial.cache.misses, 0, "repeat of same input must be warm");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Canonical rendering of a report's lint findings (rule, location, span,
/// severity, message) — everything `wap --lint` decides.
fn lint_fingerprint(report: &AppReport) -> String {
    let mut out = String::new();
    for l in &report.lint {
        out.push_str(&format!(
            "{}:{}:{}..{}:{}:{}:{}\n",
            l.file,
            l.line,
            l.span.start(),
            l.span.end(),
            l.rule_id,
            l.severity.as_str(),
            l.message,
        ));
    }
    out.push_str(&format!(
        "rules=[{}]\n",
        report
            .lint_rules
            .iter()
            .map(|r| r.id.as_str())
            .collect::<Vec<_>>()
            .join(",")
    ));
    out
}

/// Lint findings must be bit-identical at every job count, with tracing
/// on or off, and with a cold vs. warm cache.
#[test]
fn lint_findings_are_bit_identical_across_jobs_trace_and_cache() {
    let sources = corpus_sources();
    let dir = std::env::temp_dir().join(format!(
        "wap-determinism-lint-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let run = |tool: &WapTool| {
        let mut report = tool.analyze_sources(&sources);
        tool.apply_lint(&mut report, &sources);
        (fingerprint(&report) + &lint_fingerprint(&report), report)
    };

    let serial = WapTool::new(ToolConfig::builder().jobs(1).build());
    let (baseline, baseline_report) = run(&serial);
    assert!(
        !baseline_report.lint.is_empty(),
        "corpus must produce lint findings"
    );
    assert!(baseline_report.lint_ran);

    for jobs in [1usize, 2, 8] {
        for trace in [false, true] {
            let tool = WapTool::new(ToolConfig::builder().jobs(jobs).trace(trace).build());
            let (got, _) = run(&tool);
            assert_eq!(baseline, got, "lint diverged at jobs={jobs} trace={trace}");
        }
    }

    // cold populate, then fully warm — both must match the cacheless run
    for label in ["cold", "warm"] {
        let tool = WapTool::new(ToolConfig::builder().jobs(4).cache_dir(&dir).build());
        let (got, report) = run(&tool);
        assert_eq!(baseline, got, "{label} cached lint run diverged");
        if label == "warm" {
            assert!(report.cache.hits > 0, "warm run must hit the cfg cache");
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm cfg cache entry is keyed on the catalog fingerprint: linking a
/// weapon (which changes the fingerprint and contributes a lint rule)
/// must re-lint rather than replay stale cached findings.
#[test]
fn cfg_cache_invalidates_on_catalog_fingerprint_change() {
    let sources = vec![(
        "wp.php".to_string(),
        "<?php\n$q = $_POST['q'];\n$wpdb->query(\"SELECT * FROM posts WHERE title = '$q'\");\n"
            .to_string(),
    )];
    let dir = std::env::temp_dir().join(format!(
        "wap-determinism-cfg-inval-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let lint_with = |weapons: bool| {
        let builder = ToolConfig::builder().jobs(2).cache_dir(&dir);
        let builder = if weapons {
            builder
        } else {
            builder.no_weapons()
        };
        let tool = WapTool::new(builder.build());
        let mut report = tool.analyze_sources(&sources);
        tool.apply_lint(&mut report, &sources);
        report
    };

    // populate the cache without weapons, then twice with the full weapon
    // set: the second configuration must not see the first's entries
    let plain = lint_with(false);
    let with_weapons = lint_with(true);
    assert_ne!(
        lint_fingerprint(&plain),
        lint_fingerprint(&with_weapons),
        "weapon lint rules must change the findings"
    );
    assert!(
        with_weapons
            .lint_rules
            .iter()
            .any(|r| r.id == "WAP-WP-UNPREPARED-QUERY"),
        "weapon-declared rule missing from the rule table"
    );
    // a repeat of the weapon configuration is warm and identical
    let again = lint_with(true);
    assert_eq!(
        lint_fingerprint(&with_weapons),
        lint_fingerprint(&again),
        "same configuration must replay identically from the cache"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The interprocedural value analysis (`--values`) must be deterministic
/// across job counts, tracing, and cache states — and off by default: a
/// default-configuration run next to a values-populated cache must stay
/// byte-identical to a cacheless default run.
#[test]
fn value_analysis_is_deterministic_and_off_by_default() {
    let sources = corpus_sources();
    let dir = std::env::temp_dir().join(format!(
        "wap-determinism-values-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let run = |tool: &WapTool| {
        let mut report = tool.analyze_sources(&sources);
        tool.apply_lint(&mut report, &sources);
        (fingerprint(&report) + &lint_fingerprint(&report), report)
    };

    let serial = WapTool::new(ToolConfig::builder().jobs(1).values(true).build());
    let (baseline, baseline_report) = run(&serial);
    assert!(baseline_report.values_ran, "--values must mark the report");

    for jobs in [2usize, 8] {
        for trace in [false, true] {
            let tool = WapTool::new(
                ToolConfig::builder()
                    .jobs(jobs)
                    .trace(trace)
                    .values(true)
                    .build(),
            );
            let (got, report) = run(&tool);
            assert_eq!(
                baseline, got,
                "values analysis diverged at jobs={jobs} trace={trace}"
            );
            assert_eq!(
                (
                    baseline_report.dynamic_edges_resolved,
                    baseline_report.dynamic_edges_unresolved
                ),
                (
                    report.dynamic_edges_resolved,
                    report.dynamic_edges_unresolved
                ),
                "edge counters diverged at jobs={jobs} trace={trace}"
            );
        }
    }
    // cold + warm cached runs under the flag
    for label in ["cold", "warm"] {
        let tool = WapTool::new(
            ToolConfig::builder()
                .jobs(4)
                .cache_dir(&dir)
                .values(true)
                .build(),
        );
        let (got, _) = run(&tool);
        assert_eq!(baseline, got, "{label} cached values run diverged");
    }
    // the flag changes the config fingerprint, so a default configuration
    // hitting the same cache directory must not reuse values-mode entries
    let plain = WapTool::new(ToolConfig::builder().jobs(2).cache_dir(&dir).build());
    let (default_fp, default_report) = run(&plain);
    assert!(
        !default_report.values_ran,
        "--values must stay off by default"
    );
    let cacheless = WapTool::new(ToolConfig::builder().jobs(1).build());
    assert_eq!(
        default_fp,
        run(&cacheless).0,
        "default run next to a values cache diverged from cacheless"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole acceptance scenario: a dynamic `include $base . "/db.php"`
/// whose target holds the tainted sink. Without `--values` the include
/// path is opaque and the flow is missed; with it the constant-propagated
/// path resolves, the included file is inlined into the taint walk, and
/// the cross-file flow is reported.
#[test]
fn value_analysis_resolves_dynamic_includes_into_taint_findings() {
    let sources = vec![
        (
            "index.php".to_string(),
            "<?php\n$base = \"lib\";\n$id = $_GET['id'];\ninclude $base . \"/db.php\";\n"
                .to_string(),
        ),
        (
            "lib/db.php".to_string(),
            "<?php\nmysql_query(\"SELECT * FROM users WHERE id = \" . $id);\n".to_string(),
        ),
    ];

    let plain = WapTool::new(ToolConfig::builder().jobs(1).build());
    let without = plain.analyze_sources(&sources);
    assert!(
        without.findings.is_empty(),
        "without --values the dynamic include must stay opaque, got {:?}",
        without
            .findings
            .iter()
            .map(|f| &f.candidate.sink)
            .collect::<Vec<_>>()
    );

    let tool = WapTool::new(ToolConfig::builder().jobs(1).values(true).build());
    let with = tool.analyze_sources(&sources);
    assert!(
        !with.findings.is_empty(),
        "--values must surface the cross-include taint flow"
    );
    assert!(
        with.findings
            .iter()
            .any(|f| f.candidate.sink == "mysql_query"),
        "expected a mysql_query sink finding"
    );
    assert!(with.values_ran);
    assert!(
        with.dynamic_edges_resolved >= 1,
        "the resolved include must be counted as a resolved dynamic edge"
    );

    // the resolution itself is deterministic across job counts
    let baseline = fingerprint(&with);
    for jobs in [2usize, 8] {
        let tool = WapTool::new(ToolConfig::builder().jobs(jobs).values(true).build());
        assert_eq!(
            baseline,
            fingerprint(&tool.analyze_sources(&sources)),
            "include resolution diverged at jobs={jobs}"
        );
    }
}

/// `WAP-LINT-UNRESOLVED-INCLUDE` marks analysis coverage gaps: with
/// `--values` off every dynamic include is one; with it on, exactly the
/// sites the value analysis resolves are suppressed and truly opaque
/// paths keep the note.
#[test]
fn unresolved_include_lint_is_suppressed_when_values_resolves_the_path() {
    let sources = vec![
        (
            "index.php".to_string(),
            "<?php\n$base = \"lib\";\ninclude $base . \"/db.php\";\ninclude $_GET['page'] . \".php\";\n"
                .to_string(),
        ),
        ("lib/db.php".to_string(), "<?php\n$x = 1;\n".to_string()),
    ];
    let notes = |values: bool| {
        let builder = ToolConfig::builder().jobs(1);
        let builder = if values {
            builder.values(true)
        } else {
            builder
        };
        let tool = WapTool::new(builder.build());
        let mut report = tool.analyze_sources(&sources);
        tool.apply_lint(&mut report, &sources);
        report
            .lint
            .iter()
            .filter(|l| l.rule_id == "WAP-LINT-UNRESOLVED-INCLUDE")
            .map(|l| l.line)
            .collect::<Vec<_>>()
    };
    // without the value analysis both dynamic includes are coverage gaps
    assert_eq!(notes(false), vec![3, 4]);
    // with it, the constant-propagated path is resolved (and analyzed),
    // so only the attacker-controlled include keeps the note
    assert_eq!(notes(true), vec![4]);
}

#[test]
fn second_order_pass_is_deterministic_too() {
    let sources = corpus_sources();
    let build = |jobs: usize| ToolConfig::builder().second_order(true).jobs(jobs).build();

    let serial = WapTool::new(build(1));
    let baseline = fingerprint(&serial.analyze_sources(&sources));
    for jobs in [2usize, 8] {
        let tool = WapTool::new(build(jobs));
        assert_eq!(
            baseline,
            fingerprint(&tool.analyze_sources(&sources)),
            "second-order jobs={jobs} diverged"
        );
    }
}

/// The lint fixture app plus one generated corpus app: CFG defects,
/// guarded and unguarded sinks, and dynamic includes in one input.
fn scan_equivalence_inputs() -> Vec<Vec<(String, String)>> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixture = [
        "tests/fixtures/lint_app/index.php",
        "tests/fixtures/lint_app/util.php",
        "tests/fixtures/wp_app/plugin.php",
    ]
    .iter()
    .map(|name| {
        let src = std::fs::read_to_string(root.join(name)).expect("fixture readable");
        (name.to_string(), src)
    })
    .collect();
    let spec = vulnerable_webapps()
        .into_iter()
        .next()
        .expect("a corpus spec");
    let app = generate_webapp(&spec, 0.1, 4242);
    let corpus = app
        .files
        .iter()
        .map(|f| (format!("app0/{}", f.name), f.source.clone()))
        .collect();
    vec![fixture, corpus]
}

/// Everything a scan decides and renders: findings, lint findings, the
/// rule table, the value-analysis edge counters, and the text, JSON and
/// SARIF bytes (wall-clock duration zeroed).
fn scan_fingerprint(mut report: AppReport, classes: &[wap::catalog::VulnClass]) -> String {
    report.duration = std::time::Duration::ZERO;
    let mut out = fingerprint(&report) + &lint_fingerprint(&report);
    out.push_str(&format!(
        "lint_ran={} values_ran={} edges={}/{}\n",
        report.lint_ran,
        report.values_ran,
        report.dynamic_edges_resolved,
        report.dynamic_edges_unresolved
    ));
    for format in [Format::Text, Format::Json, Format::Sarif] {
        out.push_str(&format.render(&report, classes));
        out.push('\n');
    }
    out
}

/// `scan` with a pack set hands the analysis's programs and value facts
/// to the lint pass; the result must equal the standalone
/// `analyze_sources` + `apply_lint` sequence, which derives them afresh,
/// for every job count, analysis mode and pack set.
#[test]
fn scan_equals_analyze_then_lint_for_every_mode() {
    let inputs = scan_equivalence_inputs();
    for values in [false, true] {
        for packs in [Vec::new(), vec![wap::rules::RulePack::wordpress()]] {
            for sources in &inputs {
                for jobs in [1usize, 2, 8] {
                    let tool = WapTool::new(
                        ToolConfig::builder()
                            .jobs(jobs)
                            .values(values)
                            .rule_packs(packs.clone())
                            .build(),
                    );
                    let classes: Vec<_> = tool.catalog().classes().cloned().collect();
                    let mut separate = tool.analyze_sources(sources);
                    tool.apply_lint(&mut separate, sources);
                    assert!(separate.lint_ran && !separate.lint.is_empty());
                    let scanned = tool
                        .scan(sources, &tool.config().scan)
                        .expect("rules compile");
                    assert_eq!(
                        scan_fingerprint(separate, &classes),
                        scan_fingerprint(scanned, &classes),
                        "values={values} packs={} jobs={jobs} \
                         first={}: scan diverged from analyze + apply_lint",
                        packs.len(),
                        sources[0].0
                    );
                }
            }
        }
    }
}

/// Without a pack set `scan` is exactly `analyze_sources`: no lint pass,
/// same findings and bytes.
#[test]
fn scan_without_lint_equals_analyze_sources() {
    for sources in &scan_equivalence_inputs() {
        for values in [false, true] {
            let tool = WapTool::new(ToolConfig::builder().jobs(2).values(values).build());
            let classes: Vec<_> = tool.catalog().classes().cloned().collect();
            let options = ScanOptions { values, lint: None };
            let scanned = tool.scan(sources, &options).expect("no rules to compile");
            assert!(!scanned.lint_ran);
            assert_eq!(
                scan_fingerprint(tool.analyze_sources(sources), &classes),
                scan_fingerprint(scanned, &classes),
                "values={values}"
            );
        }
    }
}

/// A file that fails to parse is reported as a parse error and skipped
/// by the lint pass, whether the lint reuses the analysis's programs or
/// parses on its own.
#[test]
fn scan_lint_skips_files_that_fail_to_parse() {
    let sources = vec![
        (
            "broken.php".to_string(),
            "<?php $x = ;\nif ($a = 1) { }\n".to_string(),
        ),
        (
            "ok.php".to_string(),
            "<?php\nif ($a = $_GET['a']) { echo 1; }\nreturn;\necho 2;\n".to_string(),
        ),
    ];
    for values in [false, true] {
        let tool = WapTool::new(ToolConfig::builder().jobs(2).values(values).build());
        let options = ScanOptions {
            values,
            lint: Some(Vec::new()),
        };
        let scanned = tool.scan(&sources, &options).expect("rules compile");
        let mut separate = tool.analyze_sources(&sources);
        tool.apply_lint(&mut separate, &sources);
        for report in [&scanned, &separate] {
            assert_eq!(report.parse_errors.len(), 1);
            assert_eq!(report.parse_errors[0].0, "broken.php");
            assert!(
                report.lint.iter().all(|l| l.file == "ok.php"),
                "values={values}: broken.php was linted"
            );
            assert!(!report.lint.is_empty(), "ok.php must be linted");
        }
        assert_eq!(lint_fingerprint(&scanned), lint_fingerprint(&separate));
    }
}

/// One resident tool serves every option mix: interleaved scans under
/// plain, values and lint+wordpress options, twice
/// through on one in-memory cache, each render byte-identical (JSON and
/// SARIF) to a dedicated tool built with those options as its defaults.
#[test]
fn one_tool_serves_every_scan_option_mix_byte_identically() {
    let mixes = [
        ScanOptions::default(),
        ScanOptions {
            values: true,
            ..ScanOptions::default()
        },
        ScanOptions {
            lint: Some(vec![wap::rules::RulePack::wordpress()]),
            ..ScanOptions::default()
        },
    ];
    let render = |report: &AppReport, classes: &[wap::catalog::VulnClass]| {
        [Format::Json, Format::Sarif].map(|f| f.render(report, classes))
    };
    for sources in &scan_equivalence_inputs() {
        let wanted: Vec<[String; 2]> = mixes
            .iter()
            .map(|options| {
                let mut builder = ToolConfig::builder().jobs(2).values(options.values);
                if let Some(packs) = &options.lint {
                    builder = builder.rule_packs(packs.clone());
                }
                let dedicated = WapTool::new(builder.build());
                assert_eq!(&dedicated.config().scan, options);
                let classes: Vec<_> = dedicated.catalog().classes().cloned().collect();
                let report = dedicated
                    .scan(sources, &dedicated.config().scan)
                    .expect("rules compile");
                render(&report, &classes)
            })
            .collect();
        assert_ne!(wanted[0], wanted[2], "the lint pass must show in the bytes");

        let mut shared = WapTool::new(ToolConfig::builder().jobs(2).build());
        shared.enable_memory_cache();
        let classes: Vec<_> = shared.catalog().classes().cloned().collect();
        for round in ["cold", "warm"] {
            for (mix, (options, want)) in mixes.iter().zip(&wanted).enumerate() {
                let report = shared.scan(sources, options).expect("rules compile");
                assert_eq!(
                    &render(&report, &classes),
                    want,
                    "{round} scan under mix {mix} of {} differs from a dedicated tool",
                    sources[0].0
                );
            }
        }
    }
}
