//! Seeded round-trip property over the generated corpus.
//!
//! For every file the corpus generator emits across a spread of seeds:
//! parse → print → re-parse → print must converge — the second printing is
//! byte-identical to the first, and the printed form's content fingerprint
//! is stable. This is the contract the incremental cache and the CFG
//! lowering both lean on: `print_program` is a canonical form, and
//! `content_hash` of that form is a stable identity for it. The test is
//! self-comparing (no golden), so it runs unchanged in the air-gapped
//! harness and in CI.

use wap::corpus::generate_webapp;
use wap::corpus::specs::vulnerable_webapps;
use wap::php::{content_hash, parse, print_program};
use wap_runtime::rng::StdRng;

#[test]
fn parse_print_roundtrip_converges_across_seeds() {
    let specs = vulnerable_webapps();
    let mut files = 0usize;
    for seed in [1u64, 42, 777, 9001] {
        for (i, spec) in specs.iter().enumerate() {
            let app = generate_webapp(spec, 0.05, seed.wrapping_mul(131).wrapping_add(i as u64));
            for file in &app.files {
                let program = parse(&file.source)
                    .unwrap_or_else(|e| panic!("seed {seed} {}: parse failed: {e}", file.name));
                let printed = print_program(&program);
                let reparsed = parse(&printed).unwrap_or_else(|e| {
                    panic!(
                        "seed {seed} {}: printed form does not re-parse: {e}",
                        file.name
                    )
                });
                let reprinted = print_program(&reparsed);
                assert_eq!(
                    printed, reprinted,
                    "seed {seed} {}: printing is not a fixed point",
                    file.name
                );
                assert_eq!(
                    content_hash(&printed),
                    content_hash(&reprinted),
                    "seed {seed} {}: canonical fingerprint unstable",
                    file.name
                );
                files += 1;
            }
        }
    }
    assert!(
        files >= 40,
        "corpus too small to be meaningful: {files} files"
    );
}

/// An identifier with seed-dependent case per letter, so symbols whose
/// lowercase forms collide (`Render`, `RENDER`, `render`) all appear.
fn mixed_case(rng: &mut StdRng, stem: &str) -> String {
    stem.chars()
        .map(|c| {
            if rng.gen_bool(0.5) {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

/// Interning + arena round-trip: identifiers flow source → lexer → interner
/// → arena AST → printer, and the printed bytes must be a fixed point under
/// re-parsing. Mixed-case identifiers additionally pin down that the
/// printer emits the symbol's original spelling, never the precomputed
/// lowercase twin the engine uses for case-insensitive lookups.
#[test]
fn interned_identifiers_roundtrip_byte_for_byte_across_seeds() {
    for seed in [3u64, 17, 101, 65537, 0xDEAD_BEEF] {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_funcs = rng.gen_range(2..6);
        let mut names = Vec::new();
        let mut src = String::from("<?php\n");
        for i in 0..n_funcs {
            let name = format!("{}_{i}", mixed_case(&mut rng, "helper_fn"));
            let var = mixed_case(&mut rng, "localvar");
            src.push_str(&format!(
                "function {name}($a, $b) {{ ${var} = $a . $b; return ${var}; }}\n"
            ));
            names.push(name);
        }
        for (i, name) in names.iter().enumerate() {
            src.push_str(&format!("$v{i} = {name}($_GET['k{i}'], 'lit');\n"));
            src.push_str(&format!(
                "mysql_query(\"SELECT * FROM t WHERE c = '$v{i}'\");\n"
            ));
            src.push_str(&format!("echo htmlentities($v{i});\n"));
        }

        let program = parse(&src).unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}"));
        let printed = print_program(&program);
        for name in &names {
            assert!(
                printed.contains(name.as_str()),
                "seed {seed}: printed form lost the original spelling of {name}"
            );
        }
        let reparsed =
            parse(&printed).unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}"));
        let reprinted = print_program(&reparsed);
        assert_eq!(
            printed, reprinted,
            "seed {seed}: printing is not a fixed point"
        );
        assert_eq!(content_hash(&printed), content_hash(&reprinted));
    }
}

#[test]
fn roundtrip_holds_for_the_lint_fixture_and_cfg_shapes() {
    // hand-written shapes the corpus generator does not emit: guard
    // ladders, loops with break/continue, try/catch, assignment-in-condition
    let snippets = [
        "<?php if (is_numeric($id)) { mysql_query($id); } else { exit; }",
        "<?php while ($r = next_row()) { if ($r < 0) { continue; } echo $r; break; }",
        "<?php try { risky(); } catch (Exception $e) { log_err($e); } echo done();",
        "<?php function f($x) { $y = (int)$x; for ($i = 0; $i < $y; $i++) { echo $i; } return $y; }",
        "<?php $name = $_GET['name'];\necho htmlentities($name);\nif ($mode = 1) {\n    echo \"admin view\";\n}\nexit;\necho \"never reached\";",
    ];
    for (i, src) in snippets.iter().enumerate() {
        let printed = print_program(&parse(src).unwrap_or_else(|e| panic!("snippet {i}: {e}")));
        let reprinted =
            print_program(&parse(&printed).unwrap_or_else(|e| panic!("snippet {i} reparse: {e}")));
        assert_eq!(printed, reprinted, "snippet {i}: not a fixed point");
    }
}
