//! End-to-end integration tests: detect → predict → fix for every
//! vulnerability class, across crate boundaries.

use wap::{ToolConfig, VulnClass, WapTool};

/// One vulnerable snippet per class (with the weapons loaded).
fn cases() -> Vec<(VulnClass, &'static str)> {
    vec![
        (
            VulnClass::Sqli,
            "<?php\n$id = $_GET['id'];\nmysql_query(\"SELECT * FROM t WHERE id = $id\");\n",
        ),
        (
            VulnClass::XssReflected,
            "<?php\necho 'Hi ' . $_GET['name'];\n",
        ),
        (
            VulnClass::XssStored,
            "<?php\n$fh = fopen('c.txt', 'a');\nfwrite($fh, $_POST['c']);\n",
        ),
        (VulnClass::Rfi, "<?php\ninclude $_GET['module'];\n"),
        (
            VulnClass::Lfi,
            "<?php\ninclude 'mod/' . $_GET['m'] . '.php';\n",
        ),
        (
            VulnClass::DirTraversal,
            "<?php\nunlink('up/' . $_POST['f']);\n",
        ),
        (VulnClass::Scd, "<?php\nreadfile($_GET['doc']);\n"),
        (VulnClass::Osci, "<?php\nsystem('ls ' . $_GET['d']);\n"),
        (
            VulnClass::Phpci,
            "<?php\neval('$v = ' . $_POST['expr'] . ';');\n",
        ),
        (
            VulnClass::LdapI,
            "<?php\nldap_search($c, $b, '(uid=' . $_GET['u'] . ')');\n",
        ),
        (
            VulnClass::XpathI,
            "<?php\nxpath_eval($x, \"//u[n='\" . $_POST['n'] . \"']\");\n",
        ),
        (
            VulnClass::NoSqlI,
            "<?php\n$col->find(array('k' => $_GET['k']));\n",
        ),
        (
            VulnClass::CommentSpam,
            "<?php\nfile_put_contents('c.html', $_POST['body']);\n",
        ),
        (
            VulnClass::HeaderI,
            "<?php\nheader('Location: ' . $_GET['to']);\n",
        ),
        (
            VulnClass::EmailI,
            "<?php\nmail($_POST['to'], 'subj', 'msg');\n",
        ),
        (
            VulnClass::SessionFixation,
            "<?php\nsession_id($_GET['sid']);\n",
        ),
    ]
}

#[test]
fn wape_detects_all_fifteen_classes() {
    let tool = WapTool::new(ToolConfig::wape_full());
    for (class, src) in cases() {
        let files = vec![("t.php".to_string(), src.to_string())];
        let report = tool.analyze_sources(&files);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.candidate.class.acronym() == class.acronym()),
            "{class} not detected in:\n{src}\nfound: {:?}",
            report
                .findings
                .iter()
                .map(|f| f.candidate.headline())
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn every_class_fix_removes_the_finding() {
    let tool = WapTool::new(ToolConfig::wape_full());
    for (class, src) in cases() {
        let files = vec![("t.php".to_string(), src.to_string())];
        let report = tool.analyze_sources(&files);
        let fixed = tool.fix_file("t.php", src, &report);
        assert!(!fixed.applied.is_empty(), "{class}: no fix applied");
        // re-parse sanity
        wap::parse(&fixed.fixed_source).unwrap_or_else(|e| {
            panic!("{class}: fixed source invalid: {e}\n{}", fixed.fixed_source)
        });
        // re-analyze with the fix sanitizers registered
        let mut verifier = WapTool::new(ToolConfig::wape_full());
        for (name, classes) in &fixed.sanitizers {
            verifier.catalog_mut().add_user_sanitizer(name, classes);
        }
        let after = verifier.analyze_sources(&[("t.php".to_string(), fixed.fixed_source.clone())]);
        assert!(
            after.findings.is_empty(),
            "{class}: fix did not silence the finding:\n{}",
            fixed.fixed_source
        );
    }
}

#[test]
fn wap_v21_parity_on_original_classes() {
    // question 2 of §V: the new version still detects what v2.1 detected
    let v21 = WapTool::new(ToolConfig::wap_v21());
    let wape = WapTool::new(ToolConfig::wape_full());
    for (class, src) in cases() {
        if !class.in_original_wap() {
            continue;
        }
        let files = vec![("t.php".to_string(), src.to_string())];
        let old = v21.analyze_sources(&files).findings.len();
        let new = wape.analyze_sources(&files).findings.len();
        assert!(old >= 1, "{class}: v2.1 should detect its own classes");
        assert!(new >= old, "{class}: WAPe regressed vs v2.1");
    }
}

#[test]
fn wap_v21_blind_to_new_classes() {
    let v21 = WapTool::new(ToolConfig::wap_v21());
    for (class, src) in cases() {
        if class.in_original_wap() {
            continue;
        }
        let files = vec![("t.php".to_string(), src.to_string())];
        let report = v21.analyze_sources(&files);
        assert!(
            report
                .findings
                .iter()
                .all(|f| f.candidate.class.acronym() != class.acronym()),
            "{class} should be invisible to WAP v2.1"
        );
    }
}

#[test]
fn predictor_separates_guarded_from_raw() {
    let tool = WapTool::new(ToolConfig::wape_full());
    let guarded = r#"<?php
$id = $_GET['id'];
if (!is_numeric($id) || !isset($_GET['id'])) { exit('bad'); }
mysql_query("SELECT name FROM users WHERE id = $id");
"#;
    let raw = r#"<?php
$id = $_GET['id'];
mysql_query("SELECT name FROM users WHERE id = $id");
"#;
    let g = tool.analyze_sources(&[("g.php".into(), guarded.into())]);
    let r = tool.analyze_sources(&[("r.php".into(), raw.into())]);
    assert_eq!(g.findings.len(), 1);
    assert_eq!(r.findings.len(), 1);
    assert!(
        !g.findings[0].is_real(),
        "guarded flow should be predicted FP"
    );
    assert!(r.findings[0].is_real(), "raw flow should be reported real");
}

#[test]
fn multi_file_application_analysis() {
    let tool = WapTool::new(ToolConfig::wape_full());
    let files = vec![
        (
            "lib/db.php".to_string(),
            "<?php\nfunction run_query($db, $sql) { return mysql_query($sql, $db); }\n".to_string(),
        ),
        (
            "index.php".to_string(),
            "<?php\ninclude 'lib/db.php';\nrun_query($conn, \"SELECT \" . $_GET['cols'] . \" FROM t\");\n"
                .to_string(),
        ),
    ];
    let report = tool.analyze_sources(&files);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert_eq!(f.candidate.class, VulnClass::Sqli);
    // the sink is inside lib/db.php, reached from index.php
    assert!(f
        .candidate
        .path
        .iter()
        .any(|s| s.what.as_str().contains("run_query")));
}

#[test]
fn report_totals_are_consistent() {
    let tool = WapTool::new(ToolConfig::wape_full());
    let files = vec![(
        "mix.php".to_string(),
        r#"<?php
echo $_GET['a'];
$b = $_GET['b'];
if (!ctype_digit($b) || !isset($_GET['b'])) { exit; }
mysql_query("SELECT * FROM t WHERE x = $b");
$c = htmlentities($_GET['c']);
echo $c;
"#
        .to_string(),
    )];
    let report = tool.analyze_sources(&files);
    assert_eq!(
        report.findings.len(),
        report.real_vulnerabilities().count() + report.predicted_false_positives().count()
    );
    assert_eq!(report.findings.len(), 2, "sanitized flow is silent");
    assert_eq!(report.parse_errors.len(), 0);
}

/// Runs `f` on a thread with the platform's default 2 MiB stack, so a
/// stack overflow aborts the test instead of passing on a larger one.
fn on_default_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn a scan thread")
        .join()
        .expect("the scan thread finished")
}

/// Deeply nested input is a parse error (past `wap::php::MAX_NESTING`)
/// or a bounded scan (nested loops past `MAX_LOOP_NEST` run once), never
/// a stack overflow or an exponential walk — scanned as `--values
/// --lint --rules wordpress` would, which lowers every file that parses.
#[test]
fn deep_nesting_is_a_parse_error_or_a_bounded_scan() {
    let scan = |src: String| {
        on_default_stack(move || {
            let tool = WapTool::new(
                ToolConfig::builder()
                    .jobs(1)
                    .values(true)
                    .rule_packs(vec![wap::rules::RulePack::wordpress()])
                    .build(),
            );
            let sources = [("deep.php".to_string(), src)];
            let start = std::time::Instant::now();
            let report = tool
                .scan(&sources, &tool.config().scan)
                .expect("rules compile");
            (report, start.elapsed())
        })
    };

    let parens = format!("<?php\n$x = {}1{};\n", "(".repeat(5_000), ")".repeat(5_000));
    let ifs = format!(
        "<?php\n{} echo $_GET['a']; {}\n",
        "if ($a) {".repeat(6_000),
        "}".repeat(6_000)
    );
    // every postfix suffix wraps the expression once more
    let suffixes =
        |suffix: &str, n: usize| format!("<?php\necho $_GET[\"x\"]{};\n", suffix.repeat(n));
    let chains = ["[0]", "->a", "->a()"].map(|suffix| suffixes(suffix, 20_000));
    for src in [parens, ifs].into_iter().chain(chains) {
        let (report, _) = scan(src);
        assert_eq!(report.parse_errors.len(), 1);
        assert!(report.parse_errors[0].1.message().contains("nesting"));
        assert!(report.findings.is_empty());
    }
    for suffix in ["[0]", "->a", "->a()"] {
        let (report, _) = scan(suffixes(suffix, 200));
        assert!(report.parse_errors.is_empty(), "{suffix} x 200");
    }

    let loops = format!(
        "<?php\n{} mysql_query(\"q \" . $_GET['a']); {}\n",
        "while ($a) {".repeat(64),
        "}".repeat(64)
    );
    let (report, took) = scan(loops);
    assert!(report.parse_errors.is_empty());
    assert_eq!(report.findings.len(), 1, "the sink inside the loops");
    assert_eq!(report.findings[0].candidate.sink, "mysql_query");
    assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
}
