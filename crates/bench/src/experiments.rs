//! The experiment implementations. Each function renders one table or
//! figure of the paper as text, with the paper's reference values printed
//! alongside the measured ones so the shape comparison is immediate.

use std::collections::BTreeMap;
use std::time::Duration;
use wap_catalog::{Catalog, SubModule, VulnClass};
use wap_core::{bar_chart, Phase, Runtime, TextTable, ToolConfig, WapTool};
use wap_corpus::specs::{
    clean_plugins, clean_webapps, vulnerable_plugins, vulnerable_webapps, AppSpec, PluginSpec,
    DOWNLOAD_BUCKETS, INSTALL_BUCKETS,
};
use wap_corpus::{generate_clean_webapp, generate_plugin, generate_webapp, GeneratedApp};
use wap_mining::classifiers::ClassifierKind;
use wap_mining::metrics::{cross_validate, ConfusionMatrix, Metrics};
use wap_mining::{Dataset, FalsePositivePredictor};
use wap_taint::AnalysisOptions;

/// Default corpus scale for the experiment binary (fraction of the
/// paper's file/LoC budget; seeded vulnerabilities are never scaled).
pub const DEFAULT_SCALE: f64 = 0.05;

/// Default RNG seed for all experiments.
pub const DEFAULT_SEED: u64 = 42;

// ---------------------------------------------------------------- table 1

/// Table I: the attribute/symptom inventory.
pub fn table1() -> String {
    let mut out =
        String::from("TABLE I — Attributes and symptoms (original WAP vs new version)\n\n");
    let mut t = TextTable::new(&[
        "attribute group",
        "category",
        "original symptoms",
        "new symptoms",
    ]);
    for group in wap_mining::Group::all() {
        let orig: Vec<&str> = wap_mining::symptoms()
            .iter()
            .filter(|s| s.group == group && !s.new_in_wape)
            .map(|s| s.name)
            .collect();
        let new: Vec<&str> = wap_mining::symptoms()
            .iter()
            .filter(|s| s.group == group && s.new_in_wape)
            .map(|s| s.name)
            .collect();
        t.row(&[
            group.name().to_string(),
            group.category().to_string(),
            orig.join(" "),
            new.join(" "),
        ]);
    }
    out.push_str(&t.render());
    let orig_n = wap_mining::symptoms()
        .iter()
        .filter(|s| !s.new_in_wape)
        .count();
    let new_n = wap_mining::symptoms().len() - orig_n;
    out.push_str(&format!(
        "\noriginal: {} attributes + class = 16, representing {} symptoms\n\
         new:      {} symptom-attributes + class = 61 ({} original + {} new symptoms)\n",
        wap_mining::Group::all().len(),
        orig_n,
        wap_mining::symptoms().len(),
        orig_n,
        new_n,
    ));
    out
}

// ------------------------------------------------------------ tables 2, 3

/// The paper's Table II reference values `(name, acc, tpp, pfp)`.
pub const PAPER_TABLE2: [(&str, f64, f64, f64); 3] = [
    ("SVM", 0.949, 0.945, 0.047),
    ("Logistic Regression", 0.941, 0.930, 0.047),
    ("Random Forest", 0.941, 0.906, 0.023),
];

/// Runs the classifier evaluation (10-fold CV on the 256-instance set)
/// and returns the rendered Table II.
pub fn table2(seed: u64) -> String {
    let d = Dataset::wape(seed);
    let mut out = format!(
        "TABLE II — classifier evaluation ({} instances, {} attributes, 10-fold CV)\n\n",
        d.len(),
        d.names.len()
    );
    let mut t = TextTable::new(&[
        "classifier",
        "tpp",
        "pfp",
        "prfp",
        "pd",
        "ppd",
        "acc",
        "pr",
        "inform",
        "jacc",
    ]);
    for kind in ClassifierKind::all() {
        let cm = cross_validate(kind, &d.x, &d.y, 10, seed);
        let m = Metrics::from_confusion(&cm);
        let pct = |v: f64| format!("{:.1}%", v * 100.0);
        t.row(&[
            kind.name().to_string(),
            pct(m.tpp),
            pct(m.pfp),
            pct(m.prfp),
            pct(m.pd),
            pct(m.ppd),
            pct(m.acc),
            pct(m.pr),
            pct(m.inform),
            pct(m.jacc),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\npaper (top 3): ");
    for (name, acc, tpp, pfp) in PAPER_TABLE2 {
        out.push_str(&format!(
            "{name}: acc {:.1}% tpp {:.1}% pfp {:.1}%;  ",
            acc * 100.0,
            tpp * 100.0,
            pfp * 100.0
        ));
    }
    out.push('\n');
    out
}

/// Confusion matrices of the top 3 (Table III).
pub fn table3(seed: u64) -> String {
    let d = Dataset::wape(seed);
    let mut out = String::from("TABLE III — confusion matrices of the top 3 classifiers\n\n");
    let paper: [(&str, ConfusionMatrix); 3] = [
        (
            "SVM",
            ConfusionMatrix {
                tp: 121,
                fp: 6,
                fn_: 7,
                tn: 122,
            },
        ),
        (
            "Logistic Regression",
            ConfusionMatrix {
                tp: 119,
                fp: 6,
                fn_: 9,
                tn: 122,
            },
        ),
        (
            "Random Forest",
            ConfusionMatrix {
                tp: 116,
                fp: 3,
                fn_: 12,
                tn: 125,
            },
        ),
    ];
    for (kind, (pname, pcm)) in ClassifierKind::top3().into_iter().zip(paper) {
        let cm = cross_validate(kind, &d.x, &d.y, 10, seed);
        out.push_str(&format!(
            "{:<20}  measured: yes=({:>3},{:>3}) no=({:>3},{:>3})   paper {}: yes=({},{}) no=({},{})\n",
            kind.name(),
            cm.tp,
            cm.fp,
            cm.fn_,
            cm.tn,
            pname,
            pcm.tp,
            pcm.fp,
            pcm.fn_,
            pcm.tn
        ));
    }
    out.push_str("\n(rows: predicted yes/no; cells: observed FP, observed not-FP)\n");
    out
}

// ---------------------------------------------------------------- table 4

/// Table IV: sensitive sinks added to the sub-modules.
pub fn table4() -> String {
    let catalog = Catalog::wape();
    let mut out = String::from("TABLE IV — sensitive sinks added to the WAP sub-modules\n\n");
    let mut t = TextTable::new(&["sub-module", "class", "sensitive sinks"]);
    let rows = catalog.table_iv_rows();
    for sm in SubModule::all() {
        let mut by_class: BTreeMap<&VulnClass, Vec<&str>> = BTreeMap::new();
        for (s, class, sink) in &rows {
            if *s == sm {
                by_class.entry(class).or_default().push(sink);
            }
        }
        for (class, sinks) in by_class {
            t.row(&[sm.name().to_string(), class.to_string(), sinks.join(", ")]);
        }
    }
    out.push_str(&t.render());
    out
}

// ----------------------------------------------------- web app experiments

/// One analyzed web application: spec + generated app + both tools' runs.
pub struct WebAppRun {
    /// The Table V/VI specification.
    pub spec: AppSpec,
    /// The generated source tree.
    pub app: GeneratedApp,
    /// WAPe (full weapons) report.
    pub wape: wap_core::AppReport,
    /// WAP v2.1 report.
    pub wap21: wap_core::AppReport,
}

/// Runs both tool generations over the 17 vulnerable web applications.
///
/// The corpus fans out one app per task on the shared runtime (`WAP_JOBS`
/// honored); each in-app analysis stays single-threaded so the corpus
/// level is the only source of concurrency. The join preserves spec
/// order, so the tables aggregate deterministically.
pub fn run_webapps(scale: f64, seed: u64) -> Vec<WebAppRun> {
    let wape = WapTool::new(ToolConfig::builder().jobs(1).build());
    let v21 = WapTool::new(ToolConfig::builder().v21().jobs(1).build());
    Runtime::from_config(None).map(vulnerable_webapps(), |i, spec| {
        let app = generate_webapp(&spec, scale, seed.wrapping_add(i as u64));
        let files: Vec<(String, String)> = app
            .files
            .iter()
            .map(|f| (f.name.clone(), f.source.clone()))
            .collect();
        let wape_report = wape.analyze_sources(&files);
        let wap21_report = v21.analyze_sources(&files);
        WebAppRun {
            spec,
            app,
            wape: wape_report,
            wap21: wap21_report,
        }
    })
}

/// Table V: summary of the WAPe analysis of the vulnerable packages, plus
/// the clean packages' aggregate line.
pub fn table5(runs: &[WebAppRun], scale: f64, seed: u64) -> String {
    let mut out =
        format!("TABLE V — WAPe analysis of real web applications (corpus scale {scale})\n\n");
    let mut t = TextTable::new(&[
        "web application",
        "version",
        "files",
        "LoC",
        "time (ms)",
        "parse/taint/predict (ms)",
        "vuln files",
        "vulns found",
        "paper vulns",
    ]);
    let ms = |ns: u64| ns / 1_000_000;
    let mut tot = (0usize, 0usize, Duration::ZERO, 0usize, 0usize, 0usize);
    let mut phase_tot = (0u64, 0u64, 0u64);
    for r in runs {
        let reported_real = r.wape.real_vulnerabilities().count();
        t.row(&[
            r.spec.name.to_string(),
            r.spec.version.to_string(),
            r.app.file_count().to_string(),
            r.app.loc.to_string(),
            r.wape.duration.as_millis().to_string(),
            format!(
                "{}/{}/{}",
                ms(r.wape.stats.phase_ns(Phase::Parse)),
                ms(r.wape.stats.phase_ns(Phase::Taint)),
                ms(r.wape.stats.phase_ns(Phase::Predict))
            ),
            r.wape.vulnerable_files().to_string(),
            reported_real.to_string(),
            r.spec.real.total().to_string(),
        ]);
        tot.0 += r.app.file_count();
        tot.1 += r.app.loc;
        tot.2 += r.wape.duration;
        tot.3 += r.wape.vulnerable_files();
        tot.4 += reported_real;
        tot.5 += r.spec.real.total();
        phase_tot.0 += r.wape.stats.phase_ns(Phase::Parse);
        phase_tot.1 += r.wape.stats.phase_ns(Phase::Taint);
        phase_tot.2 += r.wape.stats.phase_ns(Phase::Predict);
    }
    t.row(&[
        "Total".into(),
        "".into(),
        tot.0.to_string(),
        tot.1.to_string(),
        tot.2.as_millis().to_string(),
        format!(
            "{}/{}/{}",
            ms(phase_tot.0),
            ms(phase_tot.1),
            ms(phase_tot.2)
        ),
        tot.3.to_string(),
        tot.4.to_string(),
        tot.5.to_string(),
    ]);
    out.push_str(&t.render());

    // clean packages: the remaining 37 of the 54, one app per runtime task
    let wape = WapTool::new(ToolConfig::builder().jobs(1).build());
    let clean_runs = Runtime::from_config(None).map(clean_webapps(), |i, (name, files, loc)| {
        let app = generate_clean_webapp(name, files, loc, scale, seed.wrapping_add(900 + i as u64));
        let sources: Vec<(String, String)> = app
            .files
            .iter()
            .map(|f| (f.name.clone(), f.source.clone()))
            .collect();
        let report = wape.analyze_sources(&sources);
        (app.file_count(), app.loc, report.findings.len())
    });
    let mut clean_files = 0usize;
    let mut clean_loc = 0usize;
    let mut clean_findings = 0usize;
    for (files, loc, findings) in clean_runs {
        clean_files += files;
        clean_loc += loc;
        clean_findings += findings;
    }
    out.push_str(&format!(
        "\nclean packages: 37 apps, {clean_files} files, {clean_loc} LoC, {clean_findings} findings (expected 0)\n\
         paper: 54 packages, 8,374 files, 2,065,914 LoC; 17 vulnerable packages with 4,714 files / 1,196,702 LoC, 123 s total\n",
    ));
    out
}

/// Classifies reported-real findings of a run into per-class confirmed
/// counts and the unconfirmed remainder (the `FP` column).
fn confirmed_by_class(
    run: &WebAppRun,
    report: &wap_core::AppReport,
) -> (BTreeMap<String, usize>, usize) {
    let mut confirmed = BTreeMap::new();
    let mut unconfirmed = 0usize;
    // ground truth per class (Files classes merged like the paper)
    let mut seeded: BTreeMap<String, usize> = BTreeMap::new();
    for (class, n) in run.spec.real.per_class() {
        *seeded.entry(table_class(&class)).or_insert(0) += n;
    }
    let mut reported: BTreeMap<String, usize> = BTreeMap::new();
    for f in report.real_vulnerabilities() {
        *reported.entry(table_class(&f.candidate.class)).or_insert(0) += 1;
    }
    for (class, n) in reported {
        let s = seeded.get(&class).copied().unwrap_or(0);
        let ok = n.min(s);
        if ok > 0 {
            confirmed.insert(class, ok);
        }
        unconfirmed += n - ok;
    }
    (confirmed, unconfirmed)
}

/// The merged class buckets used by Table VI ("Files*" merges DT/RFI/LFI).
fn table_class(c: &VulnClass) -> String {
    match c {
        VulnClass::Lfi | VulnClass::Rfi | VulnClass::DirTraversal => "Files".to_string(),
        VulnClass::Custom(n) if n == "WPSQLI" => "SQLI".to_string(),
        other => other.acronym().to_string(),
    }
}

/// Table VI: vulnerabilities found and false positives predicted by both
/// versions of the tool.
pub fn table6(runs: &[WebAppRun]) -> String {
    let mut out =
        String::from("TABLE VI — vulnerabilities and false positives, WAP v2.1 vs WAPe\n\n");
    let classes = ["SQLI", "XSS", "Files", "SCD", "LDAPI", "SF", "HI", "CS"];
    let mut header: Vec<&str> = vec!["web application"];
    header.extend(classes);
    header.extend(["total", "wapFPP", "wapFP", "wapeFPP", "wapeFP"]);
    let mut t = TextTable::new(&header);
    let mut totals = vec![0usize; classes.len() + 5];
    for r in runs {
        let (confirmed, unconfirmed) = confirmed_by_class(r, &r.wape);
        let wape_fpp = r.wape.predicted_false_positives().count();
        let wap_fpp = r.wap21.predicted_false_positives().count();
        // WAP v2.1's FP column: candidates WAP reported as real that are
        // actually FPs = its reported-real minus ground-truth real among
        // the classes it detects
        let (_conf21, unconf21) = confirmed_by_class(r, &r.wap21);
        let mut cells = vec![r.spec.name.to_string()];
        let mut row_total = 0usize;
        for (i, c) in classes.iter().enumerate() {
            let n = confirmed.get(*c).copied().unwrap_or(0);
            row_total += n;
            totals[i] += n;
            cells.push(if n == 0 { String::new() } else { n.to_string() });
        }
        cells.push(row_total.to_string());
        cells.push(wap_fpp.to_string());
        cells.push(unconf21.to_string());
        cells.push(wape_fpp.to_string());
        cells.push(unconfirmed.to_string());
        totals[classes.len()] += row_total;
        totals[classes.len() + 1] += wap_fpp;
        totals[classes.len() + 2] += unconf21;
        totals[classes.len() + 3] += wape_fpp;
        totals[classes.len() + 4] += unconfirmed;
        t.row(&cells);
    }
    let mut cells = vec!["Total".to_string()];
    cells.extend(totals.iter().map(|n| n.to_string()));
    t.row(&cells);
    out.push_str(&t.render());
    out.push_str(
        "\npaper totals: SQLI 72, XSS 255, Files 55, SCD 4, LDAPI 2, SF 1, HI 19, CS 5 = 413;\n\
         WAP FPP 62 / FP 60; WAPe FPP 104 / FP 18\n",
    );
    out
}

// ------------------------------------------------------ plugin experiments

/// One analyzed plugin.
pub struct PluginRun {
    /// The Table VII specification (with Fig. 4 metadata).
    pub spec: PluginSpec,
    /// The generated plugin.
    pub app: GeneratedApp,
    /// WAPe (full weapons) report.
    pub report: wap_core::AppReport,
}

/// Runs WAPe (with `-wpsqli` and `-hei`) over the 23 vulnerable plugins.
///
/// Like [`run_webapps`], one plugin per runtime task with single-threaded
/// in-app analysis and an order-preserving join.
pub fn run_plugins(scale: f64, seed: u64) -> Vec<PluginRun> {
    let tool = WapTool::new(ToolConfig::builder().jobs(1).build());
    Runtime::from_config(None).map(vulnerable_plugins(), |i, spec| {
        let app = generate_plugin(&spec, scale.max(0.5), seed.wrapping_add(i as u64));
        let files: Vec<(String, String)> = app
            .files
            .iter()
            .map(|f| (f.name.clone(), f.source.clone()))
            .collect();
        let report = tool.analyze_sources(&files);
        PluginRun { spec, app, report }
    })
}

/// Table VII: vulnerabilities found in WordPress plugins.
pub fn table7(runs: &[PluginRun]) -> String {
    let mut out =
        String::from("TABLE VII — vulnerabilities found in WordPress plugins (WAPe + weapons)\n\n");
    let classes = ["SQLI", "XSS", "Files", "SCD", "CS", "HI"];
    let mut header: Vec<&str> = vec!["plugin", "version"];
    header.extend(classes);
    header.extend(["total", "FPP", "FP"]);
    let mut t = TextTable::new(&header);
    let mut totals = vec![0usize; classes.len() + 3];
    for r in runs {
        let pseudo_run = WebAppRun {
            spec: AppSpec {
                name: "",
                version: "",
                files: 0,
                loc: 0,
                paper_time_s: 0,
                vuln_files: 0,
                real: r.spec.real,
                fp_both: r.spec.fpp,
                fp_wape_only: 0,
                fp_hard: r.spec.fp,
                fp_escape: 0,
            },
            app: r.app.clone(),
            wape: r.report.clone(),
            wap21: r.report.clone(),
        };
        let (confirmed, unconfirmed) = confirmed_by_class(&pseudo_run, &r.report);
        let fpp = r.report.predicted_false_positives().count();
        let mut cells = vec![r.spec.name.to_string(), r.spec.version.to_string()];
        let mut row_total = 0usize;
        for (i, c) in classes.iter().enumerate() {
            let n = confirmed.get(*c).copied().unwrap_or(0);
            row_total += n;
            totals[i] += n;
            cells.push(if n == 0 { String::new() } else { n.to_string() });
        }
        cells.push(row_total.to_string());
        cells.push(fpp.to_string());
        cells.push(unconfirmed.to_string());
        totals[classes.len()] += row_total;
        totals[classes.len() + 1] += fpp;
        totals[classes.len() + 2] += unconfirmed;
        t.row(&cells);
    }
    let mut cells = vec!["Total".to_string(), String::new()];
    cells.extend(totals.iter().map(|n| n.to_string()));
    t.row(&cells);
    out.push_str(&t.render());
    out.push_str(
        "\npaper totals: SQLI 55 (via -wpsqli), XSS 71, Files 31, SCD 5, CS 5, HI 2 = 169; FPP 3, FP 2\n\
         known (CVE) vulnerabilities: 16; zero-days: 153\n",
    );
    out
}

// ---------------------------------------------------------------- figures

/// Fig. 4: histograms of plugin downloads and active installs, analyzed vs
/// vulnerable.
pub fn fig4() -> String {
    let analyzed: Vec<&PluginSpec> = Vec::new();
    let _ = analyzed;
    let vulnerable = vulnerable_plugins();
    let clean = clean_plugins();
    let all: Vec<&PluginSpec> = vulnerable.iter().chain(clean.iter()).collect();

    let count =
        |specs: &[&PluginSpec], buckets: &[(&str, u64, u64)], field: fn(&PluginSpec) -> u64| {
            buckets
                .iter()
                .map(|(label, lo, hi)| {
                    let n = specs
                        .iter()
                        .filter(|p| field(p) >= *lo && field(p) < *hi)
                        .count();
                    (label.to_string(), n)
                })
                .collect::<Vec<_>>()
        };
    let vuln_refs: Vec<&PluginSpec> = vulnerable.iter().collect();

    let mut out = String::new();
    out.push_str(&bar_chart(
        "FIG 4(a) — plugin downloads (analyzed vs vulnerable)",
        &[
            (
                "analyzed (115)".into(),
                count(&all, &DOWNLOAD_BUCKETS, |p| p.downloads),
            ),
            (
                "vulnerable (23)".into(),
                count(&vuln_refs, &DOWNLOAD_BUCKETS, |p| p.downloads),
            ),
        ],
    ));
    out.push('\n');
    out.push_str(&bar_chart(
        "FIG 4(b) — active installs (analyzed vs vulnerable)",
        &[
            (
                "analyzed (115)".into(),
                count(&all, &INSTALL_BUCKETS, |p| p.active_installs),
            ),
            (
                "vulnerable (23)".into(),
                count(&vuln_refs, &INSTALL_BUCKETS, |p| p.active_installs),
            ),
        ],
    ));
    out
}

/// Fig. 5: vulnerabilities detected by class, web apps vs plugins.
pub fn fig5(web: &[WebAppRun], plugins: &[PluginRun]) -> String {
    let classes = ["SQLI", "XSS", "Files", "SCD", "LDAPI", "SF", "HI", "CS"];
    let tally = |f: &dyn Fn() -> BTreeMap<String, usize>| -> Vec<(String, usize)> {
        let m = f();
        classes
            .iter()
            .map(|c| (c.to_string(), m.get(*c).copied().unwrap_or(0)))
            .collect()
    };
    let web_counts = tally(&|| {
        let mut m = BTreeMap::new();
        for r in web {
            let (confirmed, _) = confirmed_by_class(r, &r.wape);
            for (c, n) in confirmed {
                *m.entry(c).or_insert(0) += n;
            }
        }
        m
    });
    let plugin_counts = tally(&|| {
        let mut m = BTreeMap::new();
        for r in plugins {
            let pseudo = WebAppRun {
                spec: AppSpec {
                    name: "",
                    version: "",
                    files: 0,
                    loc: 0,
                    paper_time_s: 0,
                    vuln_files: 0,
                    real: r.spec.real,
                    fp_both: r.spec.fpp,
                    fp_wape_only: 0,
                    fp_hard: r.spec.fp,
                    fp_escape: 0,
                },
                app: r.app.clone(),
                wape: r.report.clone(),
                wap21: r.report.clone(),
            };
            let (confirmed, _) = confirmed_by_class(&pseudo, &r.report);
            for (c, n) in confirmed {
                *m.entry(c).or_insert(0) += n;
            }
        }
        m
    });
    let mut out = bar_chart(
        "FIG 5 — vulnerabilities by class (web apps vs plugins)",
        &[
            ("web apps".into(), web_counts),
            ("plugins".into(), plugin_counts),
        ],
    );
    out.push_str(
        "\npaper: web apps SQLI 72, XSS 255, Files 55, SCD 4, LDAPI 2, SF 1, HI 19, CS 5;\n\
         plugins SQLI 55, XSS 71, Files 31, SCD 5, HI 2, CS 5\n",
    );
    out
}

// ----------------------------------------------------------- escape study

/// §V-A: the vfront `escape` study — feeding the tool a user sanitization
/// function removes the six corresponding reports.
pub fn escape_study(scale: f64, seed: u64) -> String {
    let spec = vulnerable_webapps()
        .into_iter()
        .find(|a| a.name == "vfront")
        .expect("vfront spec exists");
    let app = generate_webapp(&spec, scale, seed.wrapping_add(16));
    let files: Vec<(String, String)> = app
        .files
        .iter()
        .map(|f| (f.name.clone(), f.source.clone()))
        .collect();

    let tool = WapTool::new(ToolConfig::wape_full());
    let before = tool.analyze_sources(&files);

    let mut informed = WapTool::new(ToolConfig::wape_full());
    informed
        .catalog_mut()
        .add_user_sanitizer("escape", &[VulnClass::Sqli, VulnClass::XssReflected]);
    let after = informed.analyze_sources(&files);

    let delta = before.findings.len() - after.findings.len();
    format!(
        "ESCAPE STUDY (§V-A) — vfront with user sanitizer `escape`\n\n\
         findings before registering escape(): {} ({} reported real)\n\
         findings after registering escape():  {} ({} reported real)\n\
         reports removed: {}   (paper: 6)\n",
        before.findings.len(),
        before.real_vulnerabilities().count(),
        after.findings.len(),
        after.real_vulnerabilities().count(),
        delta,
    )
}

// -------------------------------------------------------------- ablations

/// Ablation: committee (top-3 vote) vs each single classifier, 10-fold CV.
pub fn ablation_committee(seed: u64) -> String {
    let d = Dataset::wape(seed);
    let mut out = String::from("ABLATION — committee vs single classifiers (10-fold CV)\n\n");
    let mut t = TextTable::new(&["configuration", "acc", "tpp", "pfp"]);
    // committee via manual folds
    let folds = 10;
    let mut cm = ConfusionMatrix::default();
    for fold in 0..folds {
        let (mut tx, mut ty, mut test) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..d.len() {
            if i % folds == fold {
                test.push(i);
            } else {
                tx.push(d.x[i].clone());
                ty.push(d.y[i]);
            }
        }
        let train_set = Dataset {
            x: tx,
            y: ty,
            names: d.names.clone(),
        };
        let committee = FalsePositivePredictor::train_on(
            &ClassifierKind::top3(),
            &train_set,
            seed.wrapping_add(fold as u64),
        );
        for i in test {
            let fv = wap_mining::FeatureVector {
                features: d.x[i].clone(),
                present: vec![],
            };
            cm.record(committee.predict(&fv).is_false_positive, d.y[i]);
        }
    }
    let m = Metrics::from_confusion(&cm);
    let pct = |v: f64| format!("{:.1}%", v * 100.0);
    t.row(&["top-3 committee".into(), pct(m.acc), pct(m.tpp), pct(m.pfp)]);
    for kind in ClassifierKind::top3() {
        let cm = cross_validate(kind, &d.x, &d.y, 10, seed);
        let m = Metrics::from_confusion(&cm);
        t.row(&[kind.name().to_string(), pct(m.acc), pct(m.tpp), pct(m.pfp)]);
    }
    out.push_str(&t.render());
    out
}

/// Ablation: 61 attributes vs the original 16 on the same instances.
pub fn ablation_attributes(seed: u64) -> String {
    let full = Dataset::wape(seed);
    let projected = full.project_to_original_scheme();
    let mut out =
        String::from("ABLATION — attribute granularity: 61 attributes vs original 16\n\n");
    let mut t = TextTable::new(&["classifier", "61-attr acc", "16-attr acc", "delta"]);
    for kind in ClassifierKind::top3() {
        let a = Metrics::from_confusion(&cross_validate(kind, &full.x, &full.y, 10, seed)).acc;
        let b =
            Metrics::from_confusion(&cross_validate(kind, &projected.x, &projected.y, 10, seed))
                .acc;
        t.row(&[
            kind.name().to_string(),
            format!("{:.1}%", a * 100.0),
            format!("{:.1}%", b * 100.0),
            format!("{:+.1}pp", (a - b) * 100.0),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Ablation: interprocedural summaries on/off — detection recall on apps
/// whose flows pass through user functions.
pub fn ablation_interproc(scale: f64, seed: u64) -> String {
    let specs = vulnerable_webapps();
    let on = WapTool::new(ToolConfig::wape_full());
    let mut off_cfg = ToolConfig::wape_full();
    off_cfg.analysis = AnalysisOptions {
        interprocedural: false,
        ..AnalysisOptions::default()
    };
    let off = WapTool::new(off_cfg);
    let mut found_on = 0usize;
    let mut found_off = 0usize;
    for (i, spec) in specs.iter().enumerate().take(6) {
        let app = generate_webapp(spec, scale, seed.wrapping_add(i as u64));
        let files: Vec<(String, String)> = app
            .files
            .iter()
            .map(|f| (f.name.clone(), f.source.clone()))
            .collect();
        found_on += on.analyze_sources(&files).findings.len();
        found_off += off.analyze_sources(&files).findings.len();
    }
    format!(
        "ABLATION — interprocedural analysis\n\n\
         candidates with summaries ON:  {found_on}\n\
         candidates with summaries OFF: {found_off}\n\
         flows through user functions are invisible without summaries\n",
    )
}

/// Ablation: WordPress dynamic symptoms on/off — FPP on the plugins that
/// validate with `absint`/`sanitize_text_field`.
pub fn ablation_dynamic_symptoms(scale: f64, seed: u64) -> String {
    let with_runs = run_plugins(scale, seed);
    let fpp_with: usize = with_runs
        .iter()
        .map(|r| r.report.predicted_false_positives().count())
        .sum();
    // a tool whose wpsqli weapon has its dynamic symptoms stripped
    let mut cfg = ToolConfig::wape();
    let mut wpsqli = wap_catalog::WeaponConfig::wpsqli();
    wpsqli.dynamic_symptoms.clear();
    cfg.weapons = vec![
        wap_catalog::WeaponConfig::nosqli(),
        wap_catalog::WeaponConfig::hei(),
        wpsqli,
    ];
    let stripped = WapTool::new(cfg);
    let fpp_without: usize = vulnerable_plugins()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let app = generate_plugin(&spec, scale.max(0.5), seed.wrapping_add(i as u64));
            let files: Vec<(String, String)> = app
                .files
                .iter()
                .map(|f| (f.name.clone(), f.source.clone()))
                .collect();
            stripped
                .analyze_sources(&files)
                .predicted_false_positives()
                .count()
        })
        .sum();
    format!(
        "ABLATION — WordPress dynamic symptoms (§III-B.2)\n\n\
         FPP with dynamic symptoms:    {fpp_with} (paper: 3)\n\
         FPP without dynamic symptoms: {fpp_without}\n\
         absint/sanitize_text_field guards are only visible through the mapping\n",
    )
}

/// Extension experiment: second-order (stored XSS) analysis — an
/// optional capability beyond the paper's tables.
pub fn second_order_study() -> String {
    let src = r#"<?php
$comment = $_POST['comment'];
mysql_query("INSERT INTO comments (body) VALUES ('$comment')");
$res = mysql_query("SELECT body FROM comments ORDER BY id DESC");
while ($row = mysql_fetch_assoc($res)) {
    echo "<p>" . $row['body'] . "</p>";
}
"#;
    let mut first_cfg = ToolConfig::wape_full();
    first_cfg.analysis.second_order = false;
    let first = WapTool::new(first_cfg);
    let mut second_cfg = ToolConfig::wape_full();
    second_cfg.analysis.second_order = true;
    let second = WapTool::new(second_cfg);
    let files = vec![("guestbook.php".to_string(), src.to_string())];
    let r1 = first.analyze_sources(&files);
    let r2 = second.analyze_sources(&files);
    let classes = |r: &wap_core::AppReport| {
        r.findings
            .iter()
            .map(|f| f.candidate.class.acronym().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "EXTENSION — second-order (stored XSS) analysis

         guestbook.php, first-order only:  {} findings [{}]
         guestbook.php, second-order pass: {} findings [{}]
         the INSERT of tainted data marks the database; fetch results then
         carry stored taint, so the echo is reported as stored XSS
",
        r1.findings.len(),
        classes(&r1),
        r2.findings.len(),
        classes(&r2),
    )
}

/// Validation experiment: dynamic confirmation over the whole corpus —
/// automating the paper's "all were confirmed by us manually".
pub fn confirm_sweep(scale: f64, seed: u64) -> String {
    let tool = WapTool::new(ToolConfig::wape_full());
    let mut real_total = 0usize;
    let mut real_exploitable = 0usize;
    let mut fpp_total = 0usize;
    let mut fpp_exploitable = 0usize;
    let mut uninjectable = 0usize;
    for (i, spec) in vulnerable_webapps().iter().enumerate() {
        let app = generate_webapp(spec, scale, seed.wrapping_add(i as u64));
        let files: Vec<(String, String)> = app
            .files
            .iter()
            .map(|f| (f.name.clone(), f.source.clone()))
            .collect();
        let report = tool.analyze_sources(&files);
        let programs: Vec<(String, wap_php::Program)> = app
            .files
            .iter()
            .map(|f| {
                (
                    f.name.clone(),
                    wap_php::parse(&f.source).expect("corpus parses"),
                )
            })
            .collect();
        for finding in &report.findings {
            // confirm against the file the finding lives in (self-contained
            // corpus flows), so sink-name collisions across files are moot
            let Some(file) = finding.candidate.file.as_deref() else {
                continue;
            };
            let Some((_, program)) = programs.iter().find(|(n, _)| n == file) else {
                continue;
            };
            let conf = wap_interp::confirm(tool.catalog(), &[program], &finding.candidate);
            if conf.detail.contains("no injectable") {
                uninjectable += 1;
                continue;
            }
            if finding.is_real() {
                real_total += 1;
                if conf.exploitable {
                    real_exploitable += 1;
                }
            } else {
                fpp_total += 1;
                if conf.exploitable {
                    fpp_exploitable += 1;
                }
            }
        }
    }
    format!(
        "CONFIRMATION SWEEP — dynamic exploit confirmation over the corpus

         findings reported REAL:          {real_total:>4}, dynamically exploitable: {real_exploitable:>4} ({:.1}%)
         findings predicted FALSE POSITIVE: {fpp_total:>2}, dynamically exploitable: {fpp_exploitable:>4} (should be 0)
         uninjectable entry points (skipped): {uninjectable}

         the REAL column is not 100%: the 18 hard FPs of §V-A are *reported*
         real but guarded by non-symptom sanitizers — dynamic confirmation
         exposes exactly them
",
        100.0 * real_exploitable as f64 / real_total.max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: f64 = 0.02;

    #[test]
    fn second_order_study_shows_the_delta() {
        let s = second_order_study();
        assert!(s.contains("first-order only:  1 findings [SQLI]"), "{s}");
        assert!(s.contains("XSS"), "{s}");
    }

    #[test]
    fn ablations_render() {
        assert!(ablation_committee(DEFAULT_SEED).contains("committee"));
        assert!(ablation_attributes(DEFAULT_SEED).contains("61-attr"));
        let a = ablation_interproc(SCALE, DEFAULT_SEED);
        assert!(a.contains("summaries ON"));
    }
}
