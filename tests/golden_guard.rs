//! Golden JSON snapshot for the lint pass's guard facts.
//!
//! `tests/fixtures/guard_app/` holds one tainted flow per kind of
//! validation evidence: a branch guard, an `exit` guard, an `(int)` cast,
//! `intval`, a redefinition after a guard, and a redefinition after the
//! sink inside a loop. A scan with the lint pass renders the predictor's
//! verdicts and the tainted-sink and unguarded-sink lints (which read the
//! `wap-cfg` guard analysis) as JSON, which must match the committed
//! `tests/golden/guard_app.json` byte for byte at every job count and
//! with a cold, then warm, cache. Regenerate with
//! `WAP_BLESS=1 cargo test --test golden_guard` after an intentional
//! change.

use std::path::Path;
use wap::core::cli::render_json;
use wap::core::{ScanOptions, ToolConfig, WapTool};

const FIXTURE: &str = "tests/fixtures/guard_app/index.php";

fn render(jobs: usize, cache_dir: Option<&Path>) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = vec![(
        FIXTURE.to_string(),
        std::fs::read_to_string(root.join(FIXTURE)).expect("fixture readable"),
    )];
    let mut builder = ToolConfig::builder().jobs(jobs);
    if let Some(dir) = cache_dir {
        builder = builder.cache_dir(dir);
    }
    let tool = WapTool::new(builder.build());
    let options = ScanOptions {
        lint: Some(Vec::new()),
        ..ScanOptions::default()
    };
    let report = tool.scan(&sources, &options).expect("rules compile");
    render_json(&report)
}

#[test]
fn guard_mode_json_matches_the_committed_golden_byte_for_byte() {
    let rendered = render(1, None);

    let cache = std::env::temp_dir().join(format!(
        "wap-golden-guard-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&cache);
    for jobs in [2usize, 8] {
        assert_eq!(rendered, render(jobs, None), "jobs={jobs} JSON diverged");
    }
    for label in ["cold", "warm"] {
        assert_eq!(
            rendered,
            render(4, Some(&cache)),
            "{label} cached JSON diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&cache);

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/guard_app.json");
    let expected = format!("{rendered}\n");
    if std::env::var_os("WAP_BLESS").is_some() {
        std::fs::write(&golden_path, &expected).expect("bless golden");
        return;
    }
    for needle in ["\"WAP-LINT-TAINTED-SINK\"", "\"WAP-LINT-UNGUARDED-SINK\""] {
        assert!(
            rendered.contains(needle),
            "JSON missing {needle}:\n{rendered}"
        );
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("tests/golden/guard_app.json missing — regenerate with WAP_BLESS=1");
    assert_eq!(
        golden, expected,
        "guard-mode JSON drifted from the golden; regenerate with \
         WAP_BLESS=1 cargo test --test golden_guard if intentional"
    );
}
