//! Golden SARIF snapshot for the lint pass.
//!
//! `tests/fixtures/lint_app/` is a tiny PHP app with CFG-level defects
//! (assignment-in-condition, unreachable code, an unguarded sink) but no
//! taint candidates, so its SARIF rendering is independent of the trained
//! false-positive committee. The rendering with `--lint` must match the
//! committed `tests/golden/lint_app.sarif` byte for byte — rule metadata,
//! severity levels, and byte-precise region spans included. Regenerate
//! with `WAP_BLESS=1 cargo test --test golden_sarif` after an intentional
//! format change; `scripts/sarif_assert.jq` validates the golden's shape
//! in CI.

use std::path::Path;
use wap::core::cli::render_sarif;
use wap::core::{ToolConfig, WapTool};

const FIXTURES: [&str; 2] = [
    "tests/fixtures/lint_app/index.php",
    "tests/fixtures/lint_app/util.php",
];

fn fixture_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    FIXTURES
        .iter()
        .map(|name| {
            let src = std::fs::read_to_string(root.join(name)).expect("fixture readable");
            (name.to_string(), src)
        })
        .collect()
}

fn render(jobs: usize, cache_dir: Option<&Path>) -> String {
    let sources = fixture_sources();
    let mut builder = ToolConfig::builder().jobs(jobs);
    if let Some(dir) = cache_dir {
        builder = builder.cache_dir(dir);
    }
    let tool = WapTool::new(builder.build());
    let mut report = tool.analyze_sources(&sources);
    tool.apply_lint(&mut report, &sources);
    let classes: Vec<_> = tool.catalog().classes().cloned().collect();
    render_sarif(&report, &classes)
}

#[test]
fn lint_sarif_matches_the_committed_golden_byte_for_byte() {
    let rendered = render(1, None);

    // identical at every job count and with a cold, then warm, cache
    let cache = std::env::temp_dir().join(format!(
        "wap-golden-sarif-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&cache);
    for jobs in [2usize, 8] {
        assert_eq!(rendered, render(jobs, None), "jobs={jobs} SARIF diverged");
    }
    for label in ["cold", "warm"] {
        assert_eq!(
            rendered,
            render(4, Some(&cache)),
            "{label} cached SARIF diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&cache);

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lint_app.sarif");
    let expected = format!("{rendered}\n");
    if std::env::var_os("WAP_BLESS").is_some() {
        std::fs::write(&golden_path, &expected).expect("bless golden");
        return;
    }
    // spot-check the load-bearing content before the full byte comparison,
    // for a readable failure when something structural regresses
    for needle in [
        "\"WAP-LINT-UNGUARDED-SINK\"",
        "\"WAP-LINT-ASSIGN-IN-COND\"",
        "\"WAP-LINT-UNREACHABLE\"",
        "\"WAP-WP-UNPREPARED-QUERY\"",
        "\"level\": \"warning\"",
        "\"level\": \"note\"",
        "\"charOffset\"",
        "\"charLength\"",
    ] {
        assert!(
            rendered.contains(needle),
            "SARIF missing {needle}:\n{rendered}"
        );
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("tests/golden/lint_app.sarif missing — regenerate with WAP_BLESS=1");
    assert_eq!(
        golden, expected,
        "SARIF drifted from the golden; regenerate with \
         WAP_BLESS=1 cargo test --test golden_sarif if intentional"
    );
}

/// Renders `tests/fixtures/wp_app/` with the starter `wordpress` rule
/// pack joined into the lint pass.
fn render_with_wordpress(jobs: usize, cache_dir: Option<&Path>) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let name = "tests/fixtures/wp_app/plugin.php";
    let sources = vec![(
        name.to_string(),
        std::fs::read_to_string(root.join(name)).expect("fixture readable"),
    )];
    let mut builder = ToolConfig::builder().jobs(jobs);
    if let Some(dir) = cache_dir {
        builder = builder.cache_dir(dir);
    }
    let tool = WapTool::new(
        builder
            .rule_packs(vec![wap::rules::RulePack::wordpress()])
            .build(),
    );
    let mut report = tool.analyze_sources(&sources);
    tool.apply_lint(&mut report, &sources);
    let classes: Vec<_> = tool.catalog().classes().cloned().collect();
    render_sarif(&report, &classes)
}

#[test]
fn wordpress_pack_sarif_matches_the_committed_golden_byte_for_byte() {
    let rendered = render_with_wordpress(1, None);

    let cache = std::env::temp_dir().join(format!(
        "wap-golden-wp-sarif-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&cache);
    for jobs in [2usize, 8] {
        assert_eq!(
            rendered,
            render_with_wordpress(jobs, None),
            "jobs={jobs} SARIF diverged"
        );
    }
    for label in ["cold", "warm"] {
        assert_eq!(
            rendered,
            render_with_wordpress(4, Some(&cache)),
            "{label} cached SARIF diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&cache);

    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lint_app_wordpress.sarif");
    let expected = format!("{rendered}\n");
    if std::env::var_os("WAP_BLESS").is_some() {
        std::fs::write(&golden_path, &expected).expect("bless golden");
        return;
    }
    for needle in [
        "\"WAP-WP-WPDB-INTERPOLATED-QUERY\"",
        "\"WAP-WP-WPDB-INTERPOLATED-GET-RESULTS\"",
        "\"WAP-WP-UNVALIDATED-EXTRACT\"",
        "\"pack\": \"wordpress\"",
        "\"level\": \"error\"",
    ] {
        assert!(
            rendered.contains(needle),
            "SARIF missing {needle}:\n{rendered}"
        );
    }
    // a missing golden is written on the first run; afterwards it is
    // compared byte for byte like the lint_app golden
    let Ok(golden) = std::fs::read_to_string(&golden_path) else {
        std::fs::write(&golden_path, &expected).expect("write initial golden");
        return;
    };
    assert_eq!(
        golden, expected,
        "SARIF drifted from the golden; regenerate with \
         WAP_BLESS=1 cargo test --test golden_sarif if intentional"
    );
}

/// Renders `tests/fixtures/generic_app/` with the `generic-php` starter
/// pack and the interprocedural value analysis on, so the pack's
/// `tainted($X)` / `const($X)` predicate constraints have taint facts
/// and proven values to consume.
fn render_with_generic_php(
    jobs: usize,
    cache_dir: Option<&Path>,
) -> (String, wap::core::AppReport) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let name = "tests/fixtures/generic_app/app.php";
    let sources = vec![(
        name.to_string(),
        std::fs::read_to_string(root.join(name)).expect("fixture readable"),
    )];
    let mut builder = ToolConfig::builder().jobs(jobs).values(true);
    if let Some(dir) = cache_dir {
        builder = builder.cache_dir(dir);
    }
    let tool = WapTool::new(
        builder
            .rule_packs(vec![wap::rules::RulePack::generic_php()])
            .build(),
    );
    let mut report = tool.analyze_sources(&sources);
    tool.apply_lint(&mut report, &sources);
    let classes: Vec<_> = tool.catalog().classes().cloned().collect();
    let rendered = render_sarif(&report, &classes);
    (rendered, report)
}

#[test]
fn generic_php_pack_predicates_fire_on_taint_and_consts_only() {
    // Renderer-independent: the lint findings themselves prove the
    // predicate semantics.
    let (_, report) = render_with_generic_php(1, None);
    let by_rule = |id: &str| -> Vec<u32> {
        report
            .lint
            .iter()
            .filter(|l| l.rule_id == id)
            .map(|l| l.line)
            .collect()
    };
    // tainted($X): the carrier-tainted `$q` (line 5) and the literal
    // superglobal argument (line 6) fire; the constant query on line 7
    // stays silent.
    assert_eq!(by_rule("WAP-GP-TAINTED-QUERY"), vec![5, 6]);
    // const($X): eval of a value proven constant by the value analysis.
    assert_eq!(by_rule("WAP-GP-CONSTANT-EVAL"), vec![9]);
}

#[test]
fn generic_php_pack_sarif_matches_the_committed_golden_byte_for_byte() {
    let (rendered, _) = render_with_generic_php(1, None);

    let cache = std::env::temp_dir().join(format!(
        "wap-golden-gp-sarif-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&cache);
    for jobs in [2usize, 8] {
        assert_eq!(
            rendered,
            render_with_generic_php(jobs, None).0,
            "jobs={jobs} SARIF diverged"
        );
    }
    for label in ["cold", "warm"] {
        assert_eq!(
            rendered,
            render_with_generic_php(4, Some(&cache)).0,
            "{label} cached SARIF diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&cache);

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/generic_app.sarif");
    let expected = format!("{rendered}\n");
    if std::env::var_os("WAP_BLESS").is_some() {
        std::fs::write(&golden_path, &expected).expect("bless golden");
        return;
    }
    for needle in [
        "\"WAP-GP-TAINTED-QUERY\"",
        "\"WAP-GP-CONSTANT-EVAL\"",
        "\"pack\": \"generic-php\"",
        "\"dynamicEdgesResolved\"",
    ] {
        assert!(
            rendered.contains(needle),
            "SARIF missing {needle}:\n{rendered}"
        );
    }
    // a missing golden is written on the first run; afterwards it is
    // compared byte for byte
    let Ok(golden) = std::fs::read_to_string(&golden_path) else {
        std::fs::write(&golden_path, &expected).expect("write initial golden");
        return;
    };
    assert_eq!(
        golden, expected,
        "SARIF drifted from the golden; regenerate with \
         WAP_BLESS=1 cargo test --test golden_sarif if intentional"
    );
}
