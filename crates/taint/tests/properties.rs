//! Property tests for the taint engine: each property runs over a fixed
//! number of cases drawn from a seeded generator.

use wap_catalog::{Catalog, VulnClass};
use wap_php::parse;
use wap_runtime::rng::StdRng;
use wap_taint::{analyze, analyze_program, AnalysisOptions, SourceFile};

/// Sink/sanitizer pairs, one per representative class.
const SCENARIOS: &[(&str, &str, &str)] = &[
    // (sink template, sanitizer, class acronym)
    (
        "mysql_query(\"SELECT * FROM t WHERE x = '{}'\");",
        "mysql_real_escape_string",
        "SQLI",
    ),
    ("echo {};", "htmlentities", "XSS"),
    ("system(\"cmd {}\");", "escapeshellarg", "OSCI"),
    ("ldap_search($c, $b, {});", "ldap_escape", "LDAPI"),
];

fn entry(i: usize) -> String {
    let keys = ["id", "name", "page", "q"];
    let globals = ["_GET", "_POST", "_COOKIE", "_REQUEST"];
    format!("$_{}['{}']", &globals[i % 4][1..], keys[i / 4 % 4])
}

/// Builds a program with a chain of assignments from an entry point to a
/// sink, optionally passing through the class sanitizer at `sanitize_at`.
fn build_flow(
    scenario: usize,
    chain_len: usize,
    sanitize_at: Option<usize>,
    entry_idx: usize,
) -> String {
    let (sink_tpl, sanitizer, _) = SCENARIOS[scenario % SCENARIOS.len()];
    let mut src = String::from("<?php\n");
    let mut current = entry(entry_idx);
    for i in 0..chain_len {
        let var = format!("$v{i}");
        if sanitize_at == Some(i) {
            src.push_str(&format!("{var} = {sanitizer}({current});\n"));
        } else {
            src.push_str(&format!("{var} = {current};\n"));
        }
        current = var;
    }
    let sink_line = sink_tpl.replace("{}", &current);
    src.push_str(&sink_line);
    src.push('\n');
    src
}

const CASES: usize = 96;

/// A seeded unsanitized flow is ALWAYS detected, regardless of chain
/// length, entry point, or class (no false negatives on direct flows).
#[test]
fn seeded_flow_is_always_detected() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..CASES {
        let (scenario, chain_len, entry_idx) = (
            rng.gen_range(0..4),
            rng.gen_range(0..6),
            rng.gen_range(0..16),
        );
        let src = build_flow(scenario, chain_len, None, entry_idx);
        let program = parse(&src).expect("generated source parses");
        let found = analyze_program(&Catalog::wape(), &program);
        assert_eq!(found.len(), 1, "missed flow in:\n{}", src);
    }
}

/// A flow through the class's sanitizer is NEVER reported, wherever the
/// sanitizer sits in the chain (sanitization is respected).
#[test]
fn sanitized_flow_is_never_reported() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..CASES {
        let (scenario, chain_len) = (rng.gen_range(0..4), rng.gen_range(1..6));
        let pos = rng.gen_range(0..6) % chain_len;
        let src = build_flow(scenario, chain_len, Some(pos), rng.gen_range(0..16));
        let program = parse(&src).expect("generated source parses");
        let found = analyze_program(&Catalog::wape(), &program);
        assert!(found.is_empty(), "false positive in:\n{}\n{:?}", src, found);
    }
}

/// Monotonicity: adding a *user sanitizer* for an unrelated function
/// name never changes results; registering the actual pass-through
/// function as sanitizer never *adds* findings.
#[test]
fn adding_sanitizers_is_monotone_decreasing() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..CASES {
        let (scenario, entry_idx) = (rng.gen_range(0..4), rng.gen_range(0..16));
        let (sink_tpl, _, acr) = SCENARIOS[scenario % SCENARIOS.len()];
        let class = match acr {
            "SQLI" => VulnClass::Sqli,
            "XSS" => VulnClass::XssReflected,
            "OSCI" => VulnClass::Osci,
            _ => VulnClass::LdapI,
        };
        // wrap the flow in a user function to have a name to bless
        let sink_line = sink_tpl.replace("{}", "$x");
        let src = format!(
            "<?php\nfunction my_clean($v) {{ return trim($v); }}\n$x = my_clean({});\n{}\n",
            entry(entry_idx),
            sink_line
        );
        let program = parse(&src).expect("parses");
        let base = analyze_program(&Catalog::wape(), &program);

        let mut unrelated = Catalog::wape();
        unrelated.add_user_sanitizer("never_called_fn", std::slice::from_ref(&class));
        let with_unrelated = analyze_program(&unrelated, &program);
        assert_eq!(base.len(), with_unrelated.len(), "{src}");

        let mut blessed = Catalog::wape();
        blessed.add_user_sanitizer("my_clean", &[class]);
        let with_blessed = analyze_program(&blessed, &program);
        assert!(with_blessed.len() <= base.len(), "{src}");
    }
}

/// Determinism: two analyses of the same input agree exactly.
#[test]
fn analysis_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..CASES {
        let (scenario, chain_len, entry_idx) = (
            rng.gen_range(0..4),
            rng.gen_range(0..5),
            rng.gen_range(0..16),
        );
        let src = build_flow(scenario, chain_len, None, entry_idx);
        let program = parse(&src).expect("parses");
        let a = analyze_program(&Catalog::wape(), &program);
        let b = analyze_program(&Catalog::wape(), &program);
        assert_eq!(a, b, "{src}");
    }
}

/// Reported lines always point into the file.
#[test]
fn findings_have_valid_locations() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..CASES {
        let (scenario, chain_len, entry_idx) = (
            rng.gen_range(0..4),
            rng.gen_range(0..6),
            rng.gen_range(0..16),
        );
        let src = build_flow(scenario, chain_len, None, entry_idx);
        let nlines = src.lines().count() as u32;
        let program = parse(&src).expect("parses");
        let files = vec![SourceFile {
            name: "gen.php".into(),
            program,
        }];
        for c in analyze(&Catalog::wape(), &AnalysisOptions::default(), &files) {
            assert!(c.line >= 1 && c.line <= nlines, "{src}");
            assert!((c.sink_span.end() as usize) <= src.len());
            assert_eq!(c.file.as_deref(), Some("gen.php"));
            assert!(!c.path.is_empty());
            assert!(!c.sources.is_empty());
        }
    }
}
