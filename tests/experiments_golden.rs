//! Byte-for-byte pins of the default-mode experiment outputs.
//!
//! At the test scale and the default seed, every output below must match
//! its committed copy under `tests/golden/experiments/`: Tables I–IV,
//! VI and VII, Table V's non-timing columns (files, LoC, vuln files,
//! vulns found) and its clean-package line, Figs. 4 and 5, the
//! committee, attribute, interprocedural and dynamic-symptom ablations,
//! the escape study, the second-order study and the dynamic
//! confirmation sweep. An analysis change that moves one cell of
//! one table fails here instead of passing a substring check.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test experiments_golden`
//! after an intentional change, and list the rewrite in CHANGES.md.

use std::path::PathBuf;
use std::sync::OnceLock;
use wap::core::report::TextTable;
use wap_bench::{
    ablation_attributes, ablation_committee, ablation_dynamic_symptoms, ablation_interproc,
    confirm_sweep, escape_study, fig4, fig5, run_plugins, run_webapps, second_order_study, table1,
    table2, table3, table4, table5, table6, table7, WebAppRun, DEFAULT_SEED,
};

/// The corpus scale the `wap-bench` experiment tests also use.
const SCALE: f64 = 0.02;

/// The web-app runs, analyzed once for every test that reads them.
fn webapp_runs() -> &'static [WebAppRun] {
    static RUNS: OnceLock<Vec<WebAppRun>> = OnceLock::new();
    RUNS.get_or_init(|| run_webapps(SCALE, DEFAULT_SEED))
}

fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/experiments")
        .join(format!("{name}.txt"));
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (run with UPDATE_GOLDEN=1 to create it)",
            path.display()
        )
    });
    if actual == expected {
        return;
    }
    let (line, golden, got) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (e, a))| e != a)
        .map(|(i, (e, a))| (i + 1, e, a))
        .unwrap_or((
            expected.lines().count().min(actual.lines().count()) + 1,
            "",
            "",
        ));
    panic!(
        "{name} differs from {} at line {line}\n  golden: {golden}\n  actual: {got}\n\nfull output:\n{actual}",
        path.display()
    );
}

/// Table V without its wall-clock columns: the per-app counts, the total
/// row, and the clean-package line.
fn table5_counts(runs: &[WebAppRun]) -> String {
    let mut t = TextTable::new(&[
        "web application",
        "version",
        "files",
        "LoC",
        "vuln files",
        "vulns found",
        "paper vulns",
    ]);
    let mut tot = [0usize; 5];
    for r in runs {
        let row = [
            r.app.file_count(),
            r.app.loc,
            r.wape.vulnerable_files(),
            r.wape.real_vulnerabilities().count(),
            r.spec.real.total(),
        ];
        let mut cells = vec![r.spec.name.to_string(), r.spec.version.to_string()];
        for (sum, n) in tot.iter_mut().zip(row) {
            *sum += n;
            cells.push(n.to_string());
        }
        t.row(&cells);
    }
    let mut cells = vec!["Total".to_string(), String::new()];
    cells.extend(tot.iter().map(|n| n.to_string()));
    t.row(&cells);
    let full = table5(runs, SCALE, DEFAULT_SEED);
    let clean = full
        .lines()
        .find(|l| l.starts_with("clean packages:"))
        .expect("clean-package line");
    format!("{}\n{clean}\n", t.render())
}

#[test]
fn predictor_and_catalog_tables_match_goldens() {
    check("table1", &table1());
    check("table2", &table2(DEFAULT_SEED));
    check("table3", &table3(DEFAULT_SEED));
    check("table4", &table4());
}

#[test]
fn webapp_tables_match_goldens() {
    let runs = webapp_runs();
    check("table5_counts", &table5_counts(runs));
    check("table6", &table6(runs));
}

#[test]
fn plugin_table_matches_golden() {
    let plugins = run_plugins(SCALE, DEFAULT_SEED);
    check("table7", &table7(&plugins));
    check("fig5", &fig5(webapp_runs(), &plugins));
}

#[test]
fn figure4_and_confirm_sweep_match_goldens() {
    check("fig4", &fig4());
    check("confirm_sweep", &confirm_sweep(SCALE, DEFAULT_SEED));
}

#[test]
fn studies_match_goldens() {
    check(
        "ablation_interproc",
        &ablation_interproc(SCALE, DEFAULT_SEED),
    );
    check("escape_study", &escape_study(SCALE, DEFAULT_SEED));
    check(
        "ablation_dynamic_symptoms",
        &ablation_dynamic_symptoms(SCALE, DEFAULT_SEED),
    );
    check("second_order_study", &second_order_study());
}

#[test]
fn predictor_ablations_match_goldens() {
    check("ablation_committee", &ablation_committee(DEFAULT_SEED));
    check("ablation_attributes", &ablation_attributes(DEFAULT_SEED));
}
