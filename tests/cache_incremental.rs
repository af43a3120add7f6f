//! Robustness of the persistent incremental cache: a corrupted, tampered,
//! or stale cache directory may cost re-analysis time, never correctness
//! — and never a panic.

use std::path::{Path, PathBuf};

use wap::cache::ENTRY_FORMAT_VERSION;
use wap::core::{AppReport, ScanOptions, ToolConfig, WapTool};
use wap::php::Blake2s;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wap-cache-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sources() -> Vec<(String, String)> {
    vec![
        (
            "lib.php".to_string(),
            "<?php\nfunction fetch_param($k) { return $_GET[$k]; }\nfunction shield($v) { return htmlentities($v); }\n"
                .to_string(),
        ),
        (
            "page.php".to_string(),
            "<?php\n$q = fetch_param('q');\nmysql_query(\"SELECT * FROM t WHERE c = '$q'\");\necho shield($q);\necho $q;\n"
                .to_string(),
        ),
        (
            "guarded.php".to_string(),
            "<?php\n$id = $_GET['id'];\nif (!is_numeric($id)) { exit; }\nmysql_query(\"SELECT 1 WHERE x = $id\");\n"
                .to_string(),
        ),
        ("broken.php".to_string(), "<?php $x = ;\n".to_string()),
    ]
}

/// Everything the analysis decided, as comparable text.
fn fingerprint(report: &AppReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}:{}:{}:[{}]:real={}:votes={}:[{}]:{:?}\n",
            f.candidate.file.as_deref().unwrap_or("<input>"),
            f.candidate.line,
            f.candidate.class,
            f.candidate.sink,
            f.candidate.sources.join(","),
            f.is_real(),
            f.prediction.votes,
            f.prediction.justification.join(","),
            f.symptoms.features,
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

fn entry_files(dir: &Path) -> Vec<PathBuf> {
    fn walk(p: &Path, out: &mut Vec<PathBuf>) {
        if p.is_dir() {
            for e in std::fs::read_dir(p).unwrap() {
                walk(&e.unwrap().path(), out);
            }
        } else {
            out.push(p.to_path_buf());
        }
    }
    let mut out = Vec::new();
    walk(dir, &mut out);
    out.sort();
    out
}

#[test]
fn corrupted_entries_are_discarded_never_believed() {
    let dir = temp_dir("corrupt");
    let files = sources();
    let cold = fingerprint(&WapTool::new(ToolConfig::wape()).analyze_sources(&files));

    // populate the cache
    let tool = WapTool::new(ToolConfig::builder().no_weapons().cache_dir(&dir).build());
    assert_eq!(cold, fingerprint(&tool.analyze_sources(&files)));
    let entries = entry_files(&dir);
    assert!(!entries.is_empty(), "populated cache has entry files");

    // damage every entry, rotating through truncation / garbage / bit-flip
    for (k, path) in entries.iter().enumerate() {
        let raw = std::fs::read(path).unwrap();
        match k % 3 {
            0 => std::fs::write(path, &raw[..raw.len() / 2]).unwrap(),
            1 => std::fs::write(path, b"this is not a cache entry").unwrap(),
            _ => {
                let mut raw = raw;
                let last = raw.len() - 1;
                raw[last] ^= 0x40;
                std::fs::write(path, &raw).unwrap();
            }
        }
    }

    // a fresh tool sees only damaged entries: discard, recompute, rewrite
    let report = WapTool::new(ToolConfig::builder().no_weapons().cache_dir(&dir).build())
        .analyze_sources(&files);
    assert_eq!(cold, fingerprint(&report), "corruption changed findings");
    assert!(
        report.cache.corrupt_discarded > 0,
        "damaged entries must be counted: {:?}",
        report.cache
    );

    // the rewritten entries serve a clean warm run again
    let warm = WapTool::new(ToolConfig::builder().no_weapons().cache_dir(&dir).build())
        .analyze_sources(&files);
    assert_eq!(cold, fingerprint(&warm));
    assert_eq!(warm.cache.misses, 0, "cache must heal after corruption");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn elder_format_version_entries_are_invalidated() {
    let dir = temp_dir("elder");
    let files = sources();
    let cold = fingerprint(&WapTool::new(ToolConfig::wape()).analyze_sources(&files));
    WapTool::new(ToolConfig::builder().no_weapons().cache_dir(&dir).build())
        .analyze_sources(&files);

    // rewrite every frame's version field to an older generation
    assert_eq!(ENTRY_FORMAT_VERSION, 1, "update this test with the format");
    for path in entry_files(&dir) {
        let mut raw = std::fs::read(&path).unwrap();
        raw[4..8].copy_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
    }

    let report = WapTool::new(ToolConfig::builder().no_weapons().cache_dir(&dir).build())
        .analyze_sources(&files);
    assert_eq!(cold, fingerprint(&report));
    assert!(report.cache.invalidations > 0, "{:?}", report.cache);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The nastiest case: a frame whose checksum verifies (so the store layer
/// accepts it) but whose payload is garbage at the artifact level. The
/// payload decoders must reject it and the pipeline must recompute.
#[test]
fn well_framed_garbage_payloads_are_rejected_at_decode() {
    let dir = temp_dir("framed-garbage");
    let files = sources();
    let cold = fingerprint(&WapTool::new(ToolConfig::wape()).analyze_sources(&files));
    WapTool::new(ToolConfig::builder().no_weapons().cache_dir(&dir).build())
        .analyze_sources(&files);

    for path in entry_files(&dir) {
        let payload = b"total nonsense that is not a serialized artifact";
        let mut framed = Vec::new();
        framed.extend_from_slice(b"WAPC");
        framed.extend_from_slice(&ENTRY_FORMAT_VERSION.to_le_bytes());
        framed.extend_from_slice(&Blake2s::hash(payload));
        framed.extend_from_slice(payload);
        std::fs::write(&path, &framed).unwrap();
    }

    let report = WapTool::new(ToolConfig::builder().no_weapons().cache_dir(&dir).build())
        .analyze_sources(&files);
    assert_eq!(
        cold,
        fingerprint(&report),
        "tampered payloads changed findings"
    );
    assert!(report.cache.corrupt_discarded > 0, "{:?}", report.cache);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Function-granular invalidation: editing one function's body re-keys
/// only that file and the files that transitively reference the function.
/// Files depending on *other* functions keep serving from cache.
#[test]
fn one_function_edit_invalidates_only_its_dependents() {
    let base: Vec<(String, String)> = vec![
        (
            "lib_a.php".to_string(),
            "<?php\nfunction fetch_a() { return $_GET['a']; }\n".to_string(),
        ),
        (
            "lib_b.php".to_string(),
            "<?php\nfunction fetch_b() { return $_GET['b']; }\n".to_string(),
        ),
        (
            "page_a.php".to_string(),
            "<?php\n$x = fetch_a();\nmysql_query(\"SELECT * FROM t WHERE a = '$x'\");\n"
                .to_string(),
        ),
        (
            "page_b.php".to_string(),
            "<?php\n$y = fetch_b();\nmysql_query(\"SELECT * FROM t WHERE b = '$y'\");\n"
                .to_string(),
        ),
    ];

    let mut tool = WapTool::new(ToolConfig::builder().no_weapons().build());
    tool.enable_memory_cache();
    let cold = tool.analyze_sources(&base);
    for page in ["page_a.php", "page_b.php"] {
        assert!(
            cold.findings
                .iter()
                .any(|f| f.candidate.file.as_deref() == Some(page)),
            "cross-file taint through the helper must flag {page}"
        );
    }
    let warm = tool.analyze_sources(&base);
    assert_eq!(fingerprint(&cold), fingerprint(&warm));
    assert_eq!(warm.cache.misses, 0, "{:?}", warm.cache);

    // edit exactly one function's body
    let mut edited = base.clone();
    edited[0].1 = "<?php\nfunction fetch_a() { return $_GET['a_changed']; }\n".to_string();

    let rescan = tool.analyze_sources(&edited);
    let cold_edited =
        WapTool::new(ToolConfig::builder().no_weapons().build()).analyze_sources(&edited);
    assert_eq!(
        fingerprint(&cold_edited),
        fingerprint(&rescan),
        "warm rescan after the edit diverged from a cold run"
    );

    // decl stage:     only lib_a.php's content changed       → 1 miss, 3 hits
    // pass stage:     lib_a.php + dependent page_a.php re-key → 2 misses, 2 hits
    // findings stage: only page_a.php's group re-keys         → 1 miss, 1 hit
    // page_b.php and lib_b.php never recompute anything: an app-wide
    // functions digest would have missed all four pass entries instead.
    assert_eq!(rescan.cache.misses, 4, "{:?}", rescan.cache);
    assert_eq!(rescan.cache.hits, 6, "{:?}", rescan.cache);
}

/// Lint findings as comparable text (the lint analog of [`fingerprint`]).
fn lint_fingerprint(report: &AppReport) -> String {
    let mut out = String::new();
    for l in &report.lint {
        out.push_str(&format!(
            "{}:{}:{}:{}:{}\n",
            l.file,
            l.line,
            l.rule_id,
            l.severity.as_str(),
            l.message
        ));
    }
    out
}

/// Installing (or upgrading) a rule pack re-keys exactly the `cfg` cache
/// entries: the analysis stages (decl/pass/findings) keep their keys and
/// stay warm, pack-less `cfg` keys stay valid for pack-less runs, and a
/// pack run mints one new `cfg` entry per lintable file.
#[test]
fn pack_install_rekeys_only_cfg_entries() {
    let dir = temp_dir("pack-rekey");
    let files = sources();
    let lintable = 3; // broken.php parse-fails, so it caches no cfg entry
    let run = |packs: Vec<wap::rules::RulePack>| {
        let tool = WapTool::new(
            ToolConfig::builder()
                .no_weapons()
                .cache_dir(&dir)
                .rule_packs(packs)
                .build(),
        );
        let mut report = tool.analyze_sources(&files);
        tool.apply_lint(&mut report, &files);
        report
    };

    let cold = run(Vec::new());
    let baseline = entry_files(&dir);
    let warm = run(Vec::new());
    assert_eq!(warm.cache.misses, 0, "{:?}", warm.cache);
    assert_eq!(baseline, entry_files(&dir), "warm run minted new entries");
    assert_eq!(fingerprint(&cold), fingerprint(&warm));
    assert_eq!(lint_fingerprint(&cold), lint_fingerprint(&warm));

    // a pack run re-keys the cfg entries and nothing else: the analysis
    // stages stay fully warm, and exactly one new entry appears per
    // lintable file
    let packed = run(vec![wap::rules::RulePack::wordpress()]);
    assert_eq!(
        packed.cache.misses, 0,
        "pack must not invalidate analysis entries: {:?}",
        packed.cache
    );
    let with_pack = entry_files(&dir);
    assert_eq!(with_pack.len(), baseline.len() + lintable);
    assert!(
        baseline.iter().all(|e| with_pack.contains(e)),
        "pack install must not evict pack-less entries"
    );

    // the pack-keyed entries serve a warm pack run; the pack-less keys
    // still serve a pack-less run — neither mints anything new
    let packed_warm = run(vec![wap::rules::RulePack::wordpress()]);
    assert_eq!(packed_warm.cache.misses, 0, "{:?}", packed_warm.cache);
    assert_eq!(lint_fingerprint(&packed), lint_fingerprint(&packed_warm));
    let plain = run(Vec::new());
    assert_eq!(plain.cache.misses, 0, "{:?}", plain.cache);
    assert_eq!(lint_fingerprint(&cold), lint_fingerprint(&plain));
    assert_eq!(with_pack, entry_files(&dir), "no further entries minted");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A default (no-pack) lint run must be byte-identical to the historical
/// single-path lint output at every job count, cold or warm — the rule
/// engine swap and the pack-aware cache key must be invisible without
/// packs.
#[test]
fn no_pack_lint_runs_are_byte_identical_across_jobs_and_cache() {
    let files = sources();
    let render = |jobs: usize, cache_dir: Option<&Path>, explicit_empty: bool| {
        let mut builder = ToolConfig::builder().no_weapons().jobs(jobs);
        if let Some(dir) = cache_dir {
            builder = builder.cache_dir(dir);
        }
        let tool = WapTool::new(builder.build());
        let report = if explicit_empty {
            let options = ScanOptions {
                lint: Some(Vec::new()),
                ..ScanOptions::default()
            };
            tool.scan(&files, &options).unwrap()
        } else {
            let mut report = tool.analyze_sources(&files);
            tool.apply_lint(&mut report, &files);
            report
        };
        (fingerprint(&report), lint_fingerprint(&report))
    };

    let reference = render(1, None, false);
    assert!(
        !reference.1.is_empty(),
        "fixture app must produce lint findings"
    );
    for jobs in [2usize, 8] {
        assert_eq!(reference, render(jobs, None, false), "jobs={jobs} diverged");
    }
    // a scan with an explicit empty pack list is the same single path
    assert_eq!(reference, render(1, None, true));
    let dir = temp_dir("nopack-bytes");
    for label in ["cold", "warm"] {
        assert_eq!(
            reference,
            render(4, Some(&dir), false),
            "{label} cached run diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Values-mode (`--values`) caching: a warm run replays the resolved
/// cross-include flow exactly, and editing the *included* file — whose
/// content only reaches the includer through the resolved dynamic edge —
/// must invalidate the includer's cached artifacts, not replay them.
#[test]
fn values_mode_cache_invalidates_when_an_included_file_changes() {
    let dir = temp_dir("values-include");
    let base: Vec<(String, String)> = vec![
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
    let cacheless = |files: &[(String, String)]| {
        let tool = WapTool::new(ToolConfig::builder().no_weapons().values(true).build());
        fingerprint(&tool.analyze_sources(files))
    };
    let cached = |files: &[(String, String)]| {
        let tool = WapTool::new(
            ToolConfig::builder()
                .no_weapons()
                .cache_dir(&dir)
                .values(true)
                .build(),
        );
        tool.analyze_sources(files)
    };

    let cold = cacheless(&base);
    assert!(
        cold.contains("mysql_query"),
        "values mode must surface the cross-include flow: {cold}"
    );
    assert_eq!(cold, fingerprint(&cached(&base)), "populating run diverged");
    let warm = cached(&base);
    assert_eq!(cold, fingerprint(&warm), "warm values run diverged");
    assert_eq!(warm.cache.misses, 0, "fully warm values run must not miss");

    // rewrite the included file so the sink vanishes: the includer's
    // finding must vanish with it instead of replaying from the cache
    let mut edited = base.clone();
    edited[1].1 = "<?php\n$safe = 1;\n".to_string();
    let cold_edited = cacheless(&edited);
    assert_ne!(cold, cold_edited, "the edit must change the findings");
    assert_eq!(
        cold_edited,
        fingerprint(&cached(&edited)),
        "warm rescan after editing the included file diverged from cold"
    );

    // and restoring the original serves the original findings again
    assert_eq!(cold, fingerprint(&cached(&base)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The second-order (stored XSS) pass caches its own pass entries; warm
/// runs must reproduce it exactly, including the store→fetch trigger.
#[test]
fn second_order_pass_warm_run_matches_cold() {
    let files = vec![
        (
            "store.php".to_string(),
            "<?php\n$c = $_POST['comment'];\nmysql_query(\"INSERT INTO comments VALUES ('$c')\");\n"
                .to_string(),
        ),
        (
            "show.php".to_string(),
            "<?php\n$r = mysql_query(\"SELECT * FROM comments\");\n$row = mysql_fetch_assoc($r);\necho $row['comment'];\n"
                .to_string(),
        ),
    ];
    let mut config = ToolConfig::wape();
    config.analysis.second_order = true;

    let cold_report = WapTool::new(config.clone()).analyze_sources(&files);
    let cold = fingerprint(&cold_report);
    assert!(
        cold_report
            .findings
            .iter()
            .any(|f| f.candidate.file.as_deref() == Some("show.php")),
        "second-order pass must flag the stored-data echo: {cold}"
    );

    let mut tool = WapTool::new(config);
    tool.enable_memory_cache();
    assert_eq!(cold, fingerprint(&tool.analyze_sources(&files)));
    let warm = tool.analyze_sources(&files);
    assert_eq!(cold, fingerprint(&warm), "warm second-order run diverged");
    assert_eq!(warm.cache.misses, 0);
}

/// How many spans of `phase` each file got since the collector was last
/// cleared.
fn spans_by_file(tool: &WapTool, phase: wap_obs::Phase) -> Vec<(String, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for record in tool.obs().records() {
        if let wap_obs::Record::Span(s) = record {
            if s.phase == phase {
                if let Some(file) = s.file {
                    *counts.entry(file).or_insert(0) += 1;
                }
            }
        }
    }
    counts.into_iter().collect()
}

/// A warm rescan parses the edited files and the files that depend on
/// them, never a callee's owner: a cached callee lends its summary from
/// its pass entry. `lib_b.php` and `page_b.php` share no call path with
/// the edits; `lib_c.php` owns `clean_a`, which `fetch_a` calls.
#[test]
fn warm_rescan_parses_only_the_dependency_closure() {
    let base: Vec<(String, String)> = vec![
        (
            "lib_a.php".to_string(),
            "<?php\nfunction fetch_a() { return clean_a($_GET['a']); }\n".to_string(),
        ),
        (
            "lib_b.php".to_string(),
            "<?php\nfunction fetch_b() { return $_GET['b']; }\n".to_string(),
        ),
        (
            "lib_c.php".to_string(),
            "<?php\nfunction clean_a($v) { return trim($v); }\n".to_string(),
        ),
        (
            "page_a.php".to_string(),
            "<?php\n$x = fetch_a();\nmysql_query(\"SELECT * FROM t WHERE a = '$x'\");\n"
                .to_string(),
        ),
        (
            "page_b.php".to_string(),
            "<?php\n$y = fetch_b();\nmysql_query(\"SELECT * FROM t WHERE b = '$y'\");\n"
                .to_string(),
        ),
    ];
    let config = || ToolConfig::builder().no_weapons().trace(true).build();
    let mut tool = WapTool::new(config());
    tool.enable_memory_cache();
    tool.analyze_sources(&base);

    let edits = [
        // a page edit: the page alone
        (
            3,
            "<?php\n$x = fetch_a();\nmysql_query(\"SELECT * FROM u WHERE a = '$x'\");\n",
            &["page_a.php"][..],
        ),
        // a helper edit: the helper and its dependent page
        (
            0,
            "<?php\nfunction fetch_a() { return clean_a($_GET['a2']); }\n",
            &["lib_a.php", "page_a.php"][..],
        ),
    ];
    for (file, text, parsed) in edits {
        let mut edited = base.clone();
        edited[file].1 = text.to_string();
        tool.obs().clear();
        let warm = tool.analyze_sources(&edited);
        let cold = WapTool::new(config()).analyze_sources(&edited);
        assert_eq!(
            fingerprint(&cold),
            fingerprint(&warm),
            "edit of {}",
            base[file].0
        );
        let expected: Vec<(String, usize)> = parsed.iter().map(|f| (f.to_string(), 1)).collect();
        assert_eq!(
            spans_by_file(&tool, wap_obs::Phase::Parse),
            expected,
            "parse set after editing {}",
            base[file].0
        );
    }
}

/// Functions in two files that call each other form one recursion, whose
/// summaries are derived together: editing either file re-derives both,
/// and the warm scan equals the cold one.
#[test]
fn cross_file_recursion_warm_scan_equals_cold() {
    let base: Vec<(String, String)> = vec![
        (
            "ping.php".to_string(),
            "<?php\nfunction ping($x, $y) { if (rand()) { return $y; } return pong($y, $x); }\n"
                .to_string(),
        ),
        (
            "pong.php".to_string(),
            "<?php\nfunction pong($x, $y) { $q = \"SELECT $x\"; mysql_query($q); return ping($x, $y); }\n"
                .to_string(),
        ),
        (
            "page.php".to_string(),
            "<?php\necho ping($_GET['q'], 'c');\npong('a', $_POST['p']);\n".to_string(),
        ),
        (
            "other.php".to_string(),
            "<?php\nfunction other($v) { return $v; }\necho other('x');\n".to_string(),
        ),
    ];
    let config = || ToolConfig::builder().no_weapons().trace(true).build();
    let mut tool = WapTool::new(config());
    tool.enable_memory_cache();
    let first = tool.analyze_sources(&base);
    assert_eq!(
        fingerprint(&first),
        fingerprint(&WapTool::new(config()).analyze_sources(&base))
    );
    assert!(
        fingerprint(&first).contains("page.php:2:XSS"),
        "{}",
        fingerprint(&first)
    );

    let edits = [
        (0, "<?php\nfunction ping($x, $y) { if (rand()) { return $x; } return pong($y, $x); }\n"),
        (1, "<?php\nfunction pong($x, $y) { $q = \"DELETE $y\"; mysql_query($q); return ping($x, $y); }\n"),
    ];
    for (file, text) in edits {
        let mut edited = base.clone();
        edited[file].1 = text.to_string();
        tool.obs().clear();
        let warm = tool.analyze_sources(&edited);
        let cold = WapTool::new(config()).analyze_sources(&edited);
        assert_eq!(
            fingerprint(&cold),
            fingerprint(&warm),
            "edit of {}",
            base[file].0
        );
        let parsed: Vec<(String, usize)> = ["page.php", "ping.php", "pong.php"]
            .iter()
            .map(|f| (f.to_string(), 1))
            .collect();
        assert_eq!(
            spans_by_file(&tool, wap_obs::Phase::Parse),
            parsed,
            "edit of {}",
            base[file].0
        );
    }
}

/// A dynamic call's target is chosen by *value*, so no dependency digest
/// covers it: editing that target must still re-resolve the includer's
/// value facts instead of replaying the include they pointed at before.
#[test]
fn values_cache_revalidates_dynamic_call_targets() {
    let dir = temp_dir("values-dyncall");
    let base: Vec<(String, String)> = vec![
        (
            "a.php".to_string(),
            "<?php\n$v = $_GET[\"x\"];\n$f = \"pick\";\n$p = $f();\ninclude $p;\n".to_string(),
        ),
        (
            "b.php".to_string(),
            "<?php\nfunction pick() { return \"c.php\"; }\n".to_string(),
        ),
        ("c.php".to_string(), "<?php\necho $v;\n".to_string()),
        ("d.php".to_string(), "<?php\nmysql_query($v);\n".to_string()),
    ];
    let cold = |files: &[(String, String)]| {
        let tool = WapTool::new(ToolConfig::builder().values(true).build());
        fingerprint(&tool.analyze_sources(files))
    };
    let warm = |files: &[(String, String)]| {
        let tool = WapTool::new(ToolConfig::builder().values(true).cache_dir(&dir).build());
        fingerprint(&tool.analyze_sources(files))
    };

    let before = cold(&base);
    assert!(before.contains("c.php:2:XSS"), "{before}");
    assert_eq!(before, warm(&base), "populating run diverged");

    let mut edited = base.clone();
    edited[1].1 = "<?php\nfunction pick() { return \"d.php\"; }\n".to_string();
    let after = cold(&edited);
    assert!(after.contains("d.php:2:SQLI"), "{after}");
    assert!(!after.contains("c.php:2:XSS"), "{after}");
    assert_eq!(after, warm(&edited), "warm run replayed a stale include");
    let _ = std::fs::remove_dir_all(&dir);
}
