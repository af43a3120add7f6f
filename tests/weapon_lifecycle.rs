//! Weapon lifecycle integration tests: JSON configuration → generated
//! weapon → linked detector/fix/symptoms → detection → correction.

use wap::{ToolConfig, VulnClass, WapTool, Weapon, WeaponConfig};

#[test]
fn builtin_weapons_from_json_files() {
    // every built-in weapon survives a disk-format round trip and links
    for cfg in [
        WeaponConfig::nosqli(),
        WeaponConfig::hei(),
        WeaponConfig::wpsqli(),
    ] {
        let w = Weapon::generate(cfg).expect("valid");
        let json = w.to_json();
        let reloaded = Weapon::from_json(&json).expect("round trip");
        assert_eq!(w, reloaded);
    }
}

#[test]
fn nosqli_weapon_full_cycle() {
    let src = r#"<?php
$m = new MongoClient();
$users = $m->selectCollection('app', 'users');
$name = $_GET['name'];
$users->find(array('name' => $name));
"#;
    let files = vec![("nosql.php".to_string(), src.to_string())];

    // undetectable before the weapon
    let plain = WapTool::new(ToolConfig::wape());
    assert_eq!(plain.analyze_sources(&files).findings.len(), 0);

    // detected + fixed after
    let mut armed = WapTool::new(ToolConfig::wape());
    armed.add_weapon(Weapon::generate(WeaponConfig::nosqli()).unwrap());
    let report = armed.analyze_sources(&files);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].candidate.class, VulnClass::NoSqlI);
    assert!(report.findings[0].is_real());

    let fixed = armed.fix_file("nosql.php", src, &report);
    assert_eq!(fixed.applied[0].fix_name, "san_nosqli");
    // the NoSQLI weapon's fix template is mysql_real_escape_string (§IV-C.1)
    assert!(fixed.fixed_source.contains("mysql_real_escape_string("));
    // fixed code is silent (the sanitizer is native to the weapon)
    let after = armed.analyze_sources(&[("nosql.php".to_string(), fixed.fixed_source)]);
    assert!(after.findings.is_empty());
}

#[test]
fn hei_weapon_distinguishes_hi_and_ei() {
    let src = r#"<?php
header("X-Custom: " . $_GET['h']);
mail($_POST['rcpt'], 'Welcome', 'body');
"#;
    let tool = WapTool::new(ToolConfig::wape_full());
    let report = tool.analyze_sources(&[("hei.php".to_string(), src.to_string())]);
    let classes: Vec<&str> = report
        .findings
        .iter()
        .map(|f| f.candidate.class.acronym())
        .collect();
    assert!(classes.contains(&"HI"));
    assert!(classes.contains(&"EI"));
    // one weapon, one fix for both classes
    let fixed = tool.fix_file("hei.php", src, &report);
    assert_eq!(fixed.applied.len(), 2);
    assert!(fixed.applied.iter().all(|a| a.fix_name == "san_hei"));
    assert_eq!(fixed.fixed_source.matches("function san_hei").count(), 1);
}

#[test]
fn user_defined_weapon_via_json() {
    let json = r#"{
        "name": "regexi",
        "class_name": "REGEXI",
        "sinks": [{"name": "preg_grep"}],
        "sanitizers": ["preg_quote"],
        "fix": {"template": "php_sanitization", "sanitizer": "preg_quote"},
        "dynamic_symptoms": []
    }"#;
    let weapon = Weapon::from_json(json).expect("valid weapon");
    assert_eq!(weapon.flag(), "-regexi");

    let mut tool = WapTool::new(ToolConfig::wape());
    tool.add_weapon(weapon);
    let vulnerable = "<?php\npreg_grep('/' . $_GET['pat'] . '/', $rows);\n";
    let report = tool.analyze_sources(&[("re.php".to_string(), vulnerable.to_string())]);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(
        report.findings[0].candidate.class,
        VulnClass::Custom("REGEXI".into())
    );

    // the registered sanitizer silences the safe variant
    let safe = "<?php\npreg_grep('/' . preg_quote($_GET['pat']) . '/', $rows);\n";
    let report = tool.analyze_sources(&[("re.php".to_string(), safe.to_string())]);
    assert_eq!(report.findings.len(), 0);
}

#[test]
fn weapon_entry_points_taint_function_returns() {
    let json = r#"{
        "name": "cli",
        "class_name": "OSCI",
        "entry_points": [{"FunctionReturn": "read_request_header"}],
        "sinks": [{"name": "proc_open"}],
        "fix": {"template": "php_sanitization", "sanitizer": "escapeshellcmd"}
    }"#;
    let weapon = Weapon::from_json(json).expect("valid");
    let mut tool = WapTool::new(ToolConfig::wape());
    tool.add_weapon(weapon);
    let src = "<?php\n$h = read_request_header('X-Cmd');\nproc_open($h, $spec, $pipes);\n";
    let report = tool.analyze_sources(&[("c.php".to_string(), src.to_string())]);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(
        report.findings[0].candidate.sources,
        vec!["read_request_header()".to_string()]
    );
}

#[test]
fn invalid_weapons_are_rejected_with_reasons() {
    for (json, needle) in [
        (
            r#"{"name":"","class_name":"X","sinks":[{"name":"f"}],"fix":{"template":"user_validation","malicious":["'"]}}"#,
            "name",
        ),
        (
            r#"{"name":"x","class_name":"X","sinks":[],"fix":{"template":"user_validation","malicious":["'"]}}"#,
            "sink",
        ),
        (
            r#"{"name":"x","class_name":"X","sinks":[{"name":"f"}],"fix":{"template":"user_validation","malicious":[]}}"#,
            "malicious",
        ),
    ] {
        let err = Weapon::from_json(json).unwrap_err();
        assert!(
            err.to_string().contains(needle),
            "expected error about `{needle}`, got: {err}"
        );
    }
}

#[test]
fn dynamic_symptoms_influence_prediction() {
    // identical code; the only difference is whether the weapon maps
    // `absint` onto a static symptom
    let plugin = r#"<?php
global $wpdb;
$n = $_GET['n'];
if (absint($n) == 0) { exit; }
if (isset($_GET['n'])) {
    $wpdb->query("SELECT * FROM {$wpdb->prefix}t WHERE c = $n");
}
"#;
    let files = vec![("p.php".to_string(), plugin.to_string())];

    let with = WapTool::new(ToolConfig::wape_full());
    let r_with = with.analyze_sources(&files);
    assert_eq!(r_with.findings.len(), 1);
    assert!(
        !r_with.findings[0].is_real(),
        "absint guard should be recognized via dynamic symptoms"
    );

    let mut stripped_cfg = ToolConfig::wape();
    let mut wpsqli = WeaponConfig::wpsqli();
    wpsqli.dynamic_symptoms.clear();
    stripped_cfg.weapons = vec![wpsqli];
    let without = WapTool::new(stripped_cfg);
    let r_without = without.analyze_sources(&files);
    assert_eq!(r_without.findings.len(), 1);
    // without the mapping the candidate carries fewer symptoms
    assert!(
        r_with.findings[0].symptoms.present.len() > r_without.findings[0].symptoms.present.len()
    );
}

/// A weapon linked through `catalog_mut` between two scans on one tool
/// reaches the taint passes' call table and the dynamic symptoms: the
/// second scan reports what a tool built with the weapon reports.
#[test]
fn weapon_linked_through_catalog_mut_between_scans_is_seen() {
    let plugin = r#"<?php
global $wpdb;
$n = $_GET['n'];
if (absint($n) == 0) { exit; }
$wpdb->query("SELECT * FROM {$wpdb->prefix}t WHERE c = $n");
"#;
    let files = vec![("p.php".to_string(), plugin.to_string())];
    let mut built = ToolConfig::wape();
    built.weapons = vec![WeaponConfig::wpsqli()];
    let expected = WapTool::new(built).analyze_sources(&files);
    assert_eq!(expected.findings.len(), 1);

    let mut tool = WapTool::new(ToolConfig::wape());
    assert!(tool.analyze_sources(&files).findings.is_empty());
    tool.catalog_mut().add_weapon(WeaponConfig::wpsqli());
    let linted = tool.analyze_sources(&files);
    assert_eq!(
        format!("{:?}", linted.findings),
        format!("{:?}", expected.findings)
    );
}
