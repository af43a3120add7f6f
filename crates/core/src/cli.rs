//! Command-line front end logic (argument parsing, directory walking,
//! report formatting) — kept in the library so it is testable; the `wap`
//! binary is a thin wrapper.

use crate::error::WapError;
use crate::pipeline::{AppReport, ToolConfig, WapTool};
use crate::weapon::Weapon;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use wap_catalog::VulnClass;
use wap_report::{render_stats, Format};

/// Re-exported renderers (kept under their historical `cli` paths; the
/// implementations live in `wap-report`, shared with `wap-serve`).
pub use wap_report::{render_json, render_ndjson, render_sarif, render_text};

/// When the CLI should exit non-zero — the contract CI consumers rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailOn {
    /// Always exit 0 (report only).
    None,
    /// Exit 1 when *any* candidate was found, even ones predicted to be
    /// false positives — the strictest gate.
    Fpp,
    /// Exit 1 only when real (non-predicted-FP) vulnerabilities remain.
    #[default]
    Vuln,
    /// Like `Vuln`, but error-severity lint findings also fail the run
    /// (only meaningful together with `--lint`; warnings and notes never
    /// change the exit code).
    Lint,
}

impl FailOn {
    /// Parses a `--fail-on` value.
    pub fn parse(s: &str) -> Option<FailOn> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Some(FailOn::None),
            "fpp" => Some(FailOn::Fpp),
            "vuln" => Some(FailOn::Vuln),
            "lint" => Some(FailOn::Lint),
            _ => None,
        }
    }

    /// The exit code this policy assigns to a finished report.
    pub fn exit_code(&self, report: &AppReport) -> i32 {
        let fail = match self {
            FailOn::None => false,
            FailOn::Fpp => !report.findings.is_empty(),
            FailOn::Vuln => report.real_vulnerabilities().count() > 0,
            FailOn::Lint => {
                report.real_vulnerabilities().count() > 0 || report.lint_errors().count() > 0
            }
        };
        i32::from(fail)
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CliOptions {
    /// Paths (files or directories) to analyze.
    pub paths: Vec<PathBuf>,
    /// Class flags like `-sqli`, `-nosqli`, `-wpsqli`; empty = all classes.
    pub class_flags: Vec<String>,
    /// Run the original WAP v2.1 configuration.
    pub v21: bool,
    /// Apply fixes and write `<file>.fixed.php` next to each input.
    pub fix: bool,
    /// Print unified diffs of the fixes instead of writing files.
    pub diff: bool,
    /// Dynamically confirm each finding with an attack payload.
    pub confirm: bool,
    /// Emit machine-readable JSON instead of text (legacy shorthand for
    /// `--format json`; an explicit `--format` wins).
    pub json: bool,
    /// Output format (`--format text|json|ndjson|sarif`).
    pub format: Option<Format>,
    /// Exit-code policy (`--fail-on none|fpp|vuln|lint`, default `vuln`).
    pub fail_on: FailOn,
    /// Run the CFG lint pass (`--lint`, or the `wap lint` subcommand) and
    /// append its findings to the report.
    pub lint: bool,
    /// Installed rule packs to join into the lint pass (`--rules
    /// <pack>[@version]`, repeatable; implies `--lint`). Resolved
    /// against [`CliOptions::rules_dir`].
    pub rules: Vec<String>,
    /// Rule-pack store location (`--rules-dir`); `None` falls back to the
    /// `WAP_RULES_DIR` environment variable, then `.wap-rules/`.
    pub rules_dir: Option<PathBuf>,
    /// Inert: no argument sets it and no scan reads it. It stays only
    /// because the benchmark harness (`bench/src/scan.rs`) still sets and
    /// reads it; delete it once that harness no longer does.
    pub guards: bool,
    /// Run the interprocedural value analysis (`--values`): resolve
    /// dynamic includes/calls into extra taint edges and refine symptom
    /// vectors with sink contexts. Off by default so the headline
    /// reproduction keeps the syntactic call graph bit-for-bit.
    pub values: bool,
    /// Extra weapon configuration files to load.
    pub weapon_files: Vec<PathBuf>,
    /// User sanitizers to register, as `name:CLASS1,CLASS2`.
    pub user_sanitizers: Vec<(String, Vec<String>)>,
    /// Worker threads for the analysis runtime (`--jobs`); `None` falls
    /// back to the `WAP_JOBS` environment variable, then to the number of
    /// available cores.
    pub jobs: Option<usize>,
    /// Root directory of the persistent incremental cache (`--cache-dir`,
    /// or `--cache` for the default location).
    pub cache_dir: Option<PathBuf>,
    /// Write an NDJSON span trace of the run to this file (`--trace`).
    /// Tracing is observation-only: findings and machine-format report
    /// bytes are identical with it on or off.
    pub trace: Option<PathBuf>,
    /// Append a phase/per-file timing section to text output (`--stats`).
    pub stats: bool,
    /// Show help.
    pub help: bool,
}

impl CliOptions {
    /// The output format after resolving the legacy `--json` shorthand:
    /// an explicit `--format` wins, then `--json`, then text.
    pub fn effective_format(&self) -> Format {
        self.format.unwrap_or(if self.json {
            Format::Json
        } else {
            Format::Text
        })
    }
}

/// Default cache location when `--cache` is given without a directory:
/// the `WAP_CACHE_DIR` environment variable, then `.wap-cache/`.
pub fn default_cache_dir() -> PathBuf {
    match std::env::var_os("WAP_CACHE_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(".wap-cache"),
    }
}

/// The help text.
pub const USAGE: &str = "\
wap — detect and correct vulnerabilities in PHP web applications

USAGE:
    wap [FLAGS] <PATH>...

FLAGS:
    -sqli -xss -rfi -lfi -dt -osci -scd -phpci     restrict to original classes
    -ldapi -xpathi -sf -cs                         restrict to new classes
    -nosqli -hei -wpsqli                           weapon classes
    --v21                 run the original WAP v2.1 configuration
    --fix                 write corrected sources to <file>.fixed.php
    --diff                print unified diffs of the fixes (no files written)
    --confirm             dynamically confirm findings with attack payloads
    --json                machine-readable output (same as --format json)
    --format <FMT>        output format: text | json | ndjson | sarif
    --fail-on <WHEN>      exit 1 on: vuln (default) | fpp (any finding) |
                          lint (vulns or error-severity lint findings) | none
    --lint                run the CFG lint pass (unguarded sinks, unreachable
                          code, assignment-in-condition, weapon rules); the
                          `wap lint <PATH>` subcommand is shorthand for it
    --rules <PACK>        join an installed rule pack (name[@version]) into the
                          lint pass; repeatable, implies --lint. Manage packs
                          with the `wap rules` subcommand
    --rules-dir <DIR>     rule-pack store (default: WAP_RULES_DIR, then .wap-rules/)
    --values              interprocedural constant/string value analysis:
                          resolve dynamic includes and calls into extra taint
                          edges, refine predictions with sink value contexts
    --weapon <file.json>  link an additional weapon configuration
    --sanitizer name:CLASS[,CLASS]   register a user sanitization function
    --jobs <N>            worker threads (default: WAP_JOBS env, then all cores)
    --cache               enable the incremental cache at WAP_CACHE_DIR or .wap-cache/
    --cache-dir <DIR>     enable the incremental cache at DIR
    --trace <FILE>        write an NDJSON span trace of the run to FILE
    --stats               append phase totals and slowest files to text output
    --help                show this message

Findings are identical for every --jobs value; only wall-clock time changes.
With --cache, warm runs re-analyze only changed files — findings stay
bit-identical to a cold run.

EXIT CODES:
    0  clean under the --fail-on policy     2  usage error
    1  findings per --fail-on               3+ I/O or config error
";

/// Parses command-line arguments (no external crates; the tool only needs
/// flags and paths).
///
/// # Errors
///
/// Returns [`WapError::Usage`] for unknown flags or malformed values.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<CliOptions, WapError> {
    let mut opts = CliOptions::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => opts.help = true,
            "--v21" => opts.v21 = true,
            "--fix" => opts.fix = true,
            "--diff" => opts.diff = true,
            "--confirm" => opts.confirm = true,
            "--json" => opts.json = true,
            "--format" => {
                let v = it
                    .next()
                    .ok_or("--format needs one of text|json|ndjson|sarif")?;
                opts.format = Some(
                    Format::parse(&v)
                        .ok_or_else(|| format!("unknown format {v} (text|json|ndjson|sarif)"))?,
                );
            }
            "--fail-on" => {
                let v = it
                    .next()
                    .ok_or("--fail-on needs one of none|fpp|vuln|lint")?;
                opts.fail_on = FailOn::parse(&v)
                    .ok_or_else(|| format!("unknown --fail-on policy {v} (none|fpp|vuln|lint)"))?;
            }
            "--lint" => opts.lint = true,
            "--rules" => {
                let v = it.next().ok_or("--rules needs a pack name[@version]")?;
                opts.rules.push(v);
                opts.lint = true;
            }
            "--rules-dir" => {
                let d = it.next().ok_or("--rules-dir needs a directory")?;
                opts.rules_dir = Some(PathBuf::from(d));
            }
            "--values" => opts.values = true,
            "--weapon" => {
                let f = it.next().ok_or("--weapon needs a file path")?;
                opts.weapon_files.push(PathBuf::from(f));
            }
            "--jobs" | "-j" => opts.jobs = Some(positive_arg(&mut it, "--jobs", "a thread count")?),
            "--cache" => {
                if opts.cache_dir.is_none() {
                    opts.cache_dir = Some(default_cache_dir());
                }
            }
            "--cache-dir" => {
                let d = it.next().ok_or("--cache-dir needs a directory")?;
                opts.cache_dir = Some(PathBuf::from(d));
            }
            "--trace" => {
                let f = it.next().ok_or("--trace needs a file path")?;
                opts.trace = Some(PathBuf::from(f));
            }
            "--stats" => opts.stats = true,
            "--sanitizer" => {
                let v = it.next().ok_or("--sanitizer needs name:CLASSES")?;
                let (name, classes) = v
                    .split_once(':')
                    .ok_or("--sanitizer format is name:CLASS[,CLASS]")?;
                if name.is_empty() {
                    return Err(WapError::usage("--sanitizer name is empty"));
                }
                opts.user_sanitizers.push((
                    name.to_string(),
                    classes.split(',').map(str::to_string).collect(),
                ));
            }
            flag if flag.starts_with("--") => {
                return Err(WapError::usage(format!("unknown flag {flag}")));
            }
            flag if flag.starts_with('-') && flag.len() > 1 => {
                opts.class_flags.push(flag.to_string());
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if !opts.help && opts.paths.is_empty() {
        return Err(WapError::usage("no input paths given (try --help)"));
    }
    Ok(opts)
}

/// Reads the value of a flag that takes a positive integer (`--jobs 4`,
/// `--poll-ms 200`): the next argument, parsed and non-zero. `what` names
/// the value in the message for a missing one. Every front end's parser
/// reads its counts through this.
///
/// # Errors
///
/// Returns a message naming the flag when the value is missing, not a
/// number, or zero.
pub fn positive_arg<T: std::str::FromStr + Default + PartialEq>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs {what}"))?;
    v.parse::<T>()
        .ok()
        .filter(|n| *n != T::default())
        .ok_or_else(|| format!("{flag} needs a positive number, got {v}"))
}

/// Recursively collects `.php` files under the given paths, sorted.
///
/// The given paths are followed even when they are symlinks. Inside the
/// walk, symlinked directories are not entered, and a symlink is
/// collected only when it resolves to a regular `.php` file: dangling
/// links and link cycles are skipped.
///
/// # Errors
///
/// Returns [`WapError::Usage`] for a given path that does not exist and
/// [`WapError::Io`] (with the offending path) on traversal failures.
pub fn collect_php_files(paths: &[PathBuf]) -> Result<Vec<PathBuf>, WapError> {
    let mut out = Vec::new();
    for p in paths {
        if !p.exists() {
            return Err(WapError::usage(format!("no such path: {}", p.display())));
        }
        if p.is_dir() {
            walk_dir(p, &mut out)?;
        } else if is_php(p) {
            out.push(p.clone());
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn walk_dir(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), WapError> {
    for entry in std::fs::read_dir(dir).map_err(|e| WapError::io(dir, e))? {
        let entry = entry.map_err(|e| WapError::io(dir, e))?;
        let path = entry.path();
        let kind = entry.file_type().map_err(|e| WapError::io(&path, e))?;
        // `file_type` does not follow links: symlinked directories are
        // never entered, so link cycles cannot recurse
        if kind.is_dir() {
            walk_dir(&path, out)?;
        } else if is_php(&path)
            && (!kind.is_symlink() || std::fs::metadata(&path).is_ok_and(|m| m.is_file()))
        {
            out.push(path);
        }
    }
    Ok(())
}

fn is_php(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "php")
}

/// Builds the tool from options (loading weapons, registering sanitizers,
/// filtering classes).
///
/// # Errors
///
/// Returns [`WapError::Io`] for unreadable weapon files and
/// [`WapError::Config`] for ones that fail to validate.
pub fn build_tool(opts: &CliOptions) -> Result<WapTool, WapError> {
    let mut config = if opts.v21 {
        ToolConfig::wap_v21()
    } else {
        ToolConfig::wape_full()
    };
    config.jobs = opts.jobs.or_else(wap_runtime::jobs_from_env);
    config.cache_dir = opts.cache_dir.clone();
    config.trace = opts.trace.is_some() || opts.stats;
    config.scan.values = opts.values;
    let mut packs = Vec::with_capacity(opts.rules.len());
    if !opts.rules.is_empty() {
        let store = wap_rules::Store::new(
            opts.rules_dir
                .clone()
                .unwrap_or_else(wap_rules::default_rules_dir),
        );
        for reference in &opts.rules {
            packs.push(store.resolve(reference).map_err(|e| WapError::Config {
                what: format!("--rules {reference}"),
                detail: e,
            })?);
        }
    }
    config.scan.lint = opts.lint.then_some(packs);
    let mut tool = WapTool::new(config);
    // link in sorted-name order so the catalog (and its fingerprint) does
    // not depend on the order weapon files were listed or discovered
    let mut weapons = Vec::with_capacity(opts.weapon_files.len());
    for wf in &opts.weapon_files {
        let json = std::fs::read_to_string(wf).map_err(|e| WapError::io(wf, e))?;
        weapons.push(Weapon::from_json(&json).map_err(|e| WapError::Config {
            what: wf.display().to_string(),
            detail: e.to_string(),
        })?);
    }
    weapons.sort_by(|a, b| a.name().cmp(b.name()));
    for w in weapons {
        tool.add_weapon(w);
    }
    for (name, classes) in &opts.user_sanitizers {
        let resolved: Vec<VulnClass> = classes
            .iter()
            .map(|c| wap_catalog::WeaponConfig::resolve_class(c))
            .collect();
        tool.catalog_mut().add_user_sanitizer(name, &resolved);
    }
    if !opts.class_flags.is_empty() {
        let keep: Vec<VulnClass> = tool
            .catalog()
            .classes()
            .filter(|c| opts.class_flags.contains(&c.flag()))
            .cloned()
            .collect();
        tool.catalog_mut().retain_classes(&keep);
    }
    Ok(tool)
}

/// Runs the tool over the given options; returns `(exit code, output)`.
/// Exit code 0 = clean, 1 = findings per the `--fail-on` policy; error
/// exit codes come from [`WapError::exit_code`].
///
/// # Errors
///
/// Returns I/O and weapon-loading errors as [`WapError`].
pub fn run(opts: &CliOptions) -> Result<(i32, String), WapError> {
    if opts.help {
        return Ok((0, USAGE.to_string()));
    }
    let files = collect_php_files(&opts.paths)?;
    if files.is_empty() {
        return Ok((0, "no .php files found\n".to_string()));
    }
    let mut sources = Vec::new();
    for f in &files {
        let src = std::fs::read_to_string(f).map_err(|e| WapError::io(f, e))?;
        sources.push((f.display().to_string(), src));
    }
    let tool = build_tool(opts)?;
    let report = tool
        .scan(&sources, &tool.config().scan)
        .expect("builtin, weapon-declared and installed pack rules always compile");

    let classes: Vec<VulnClass> = tool.catalog().classes().cloned().collect();
    let mut output = opts.effective_format().render(&report, &classes);
    if opts.stats && opts.effective_format() == Format::Text {
        output.push_str(&render_stats(&report, 10));
    }

    if opts.confirm {
        let parsed = tool
            .runtime()
            .run(sources.len(), |i| crate::pipeline_parse(&sources[i].1).ok());
        // the first file of a name wins, as a linear search would have it
        let mut programs: HashMap<&str, &wap_php::Program> = HashMap::new();
        for ((name, _), program) in sources.iter().zip(&parsed) {
            if let Some(program) = program {
                programs.entry(name.as_str()).or_insert(program);
            }
        }
        let _ = writeln!(output, "\n== dynamic confirmation ==");
        for f in &report.findings {
            let Some(file) = f.candidate.file.as_deref() else {
                continue;
            };
            let Some(program) = programs.get(file).copied() else {
                continue;
            };
            let conf = wap_interp::confirm(tool.catalog(), &[program], &f.candidate);
            let _ = writeln!(
                output,
                "{}:{} {} — {} ({})",
                file,
                f.candidate.line,
                f.candidate.class,
                if conf.exploitable {
                    "CONFIRMED EXPLOITABLE"
                } else {
                    "not exploitable"
                },
                conf.detail
            );
        }
    }

    if opts.fix || opts.diff {
        for (name, src) in &sources {
            let result = tool.fix_file(name, src, &report);
            if result.applied.is_empty() {
                continue;
            }
            if opts.diff {
                let _ = writeln!(
                    output,
                    "--- {name}
+++ {name} (fixed)"
                );
                output.push_str(&wap_fixer::unified_diff(src, &result.fixed_source, 2));
            }
            if opts.fix {
                let out_path = format!("{name}.fixed.php");
                std::fs::write(&out_path, &result.fixed_source)
                    .map_err(|e| WapError::io(&out_path, e))?;
                let _ = writeln!(output, "wrote {out_path} ({} fixes)", result.applied.len());
            }
        }
    }

    // written last so spans from the fix phase are part of the trace
    if let Some(path) = &opts.trace {
        std::fs::write(path, tool.obs().render_ndjson()).map_err(|e| WapError::io(path, e))?;
    }

    Ok((opts.fail_on.exit_code(&report), output))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_basic_args() {
        let o = parse_args(args(&["-sqli", "-nosqli", "--fix", "app/"])).unwrap();
        assert_eq!(o.class_flags, vec!["-sqli", "-nosqli"]);
        assert!(o.fix);
        assert_eq!(o.paths, vec![PathBuf::from("app/")]);
    }

    #[test]
    fn parse_rejects_unknown_long_flag() {
        assert!(parse_args(args(&["--frobnicate", "x"])).is_err());
    }

    #[test]
    fn parse_requires_paths() {
        assert!(parse_args(args(&["-sqli"])).is_err());
        assert!(parse_args(args(&["--help"])).unwrap().help);
    }

    #[test]
    fn parse_jobs_flag() {
        let o = parse_args(args(&["--jobs", "4", "f.php"])).unwrap();
        assert_eq!(o.jobs, Some(4));
        let o = parse_args(args(&["-j", "2", "f.php"])).unwrap();
        assert_eq!(o.jobs, Some(2));
        assert!(parse_args(args(&["--jobs", "0", "f.php"])).is_err());
        assert!(parse_args(args(&["--jobs", "many", "f.php"])).is_err());
        assert!(parse_args(args(&["--jobs"])).is_err());
    }

    #[test]
    fn jobs_flag_reaches_tool_config() {
        let opts = CliOptions {
            paths: vec![PathBuf::from(".")],
            jobs: Some(3),
            ..Default::default()
        };
        let tool = build_tool(&opts).unwrap();
        assert_eq!(tool.config().jobs, Some(3));
        assert_eq!(tool.runtime().jobs(), 3);
    }

    #[test]
    fn summary_line_reports_parse_errors() {
        let dir = std::env::temp_dir().join(format!("wap-cli-perr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ok.php"), "<?php echo 'fine';\n").unwrap();
        std::fs::write(dir.join("broken.php"), "<?php $x = ;\n").unwrap();
        let opts = CliOptions {
            paths: vec![dir.clone()],
            ..Default::default()
        };
        let (_, output) = run(&opts).unwrap();
        assert!(output.contains("1 parse errors"), "{output}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_sanitizer_spec() {
        let o = parse_args(args(&["--sanitizer", "escape:SQLI,XSS", "f.php"])).unwrap();
        assert_eq!(
            o.user_sanitizers,
            vec![(
                "escape".to_string(),
                vec!["SQLI".to_string(), "XSS".to_string()]
            )]
        );
        assert!(parse_args(args(&["--sanitizer", "noclasses", "f.php"])).is_err());
    }

    #[test]
    fn class_flag_filter_restricts_tool() {
        let opts = CliOptions {
            paths: vec![PathBuf::from(".")],
            class_flags: vec!["-sqli".to_string()],
            ..Default::default()
        };
        let tool = build_tool(&opts).unwrap();
        let report = tool.analyze_sources(&[(
            "t.php".to_string(),
            "<?php echo $_GET['a']; mysql_query('Q' . $_GET['b']);".to_string(),
        )]);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].candidate.class, VulnClass::Sqli);
    }

    #[test]
    fn run_on_temp_dir_end_to_end() {
        let dir = std::env::temp_dir().join(format!("wap-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("inc")).unwrap();
        std::fs::write(
            dir.join("index.php"),
            "<?php\n$id = $_GET['id'];\nmysql_query(\"SELECT * FROM t WHERE id = $id\");\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("inc/safe.php"),
            "<?php echo htmlentities($_GET['m']);\n",
        )
        .unwrap();
        std::fs::write(dir.join("notes.txt"), "not php").unwrap();

        let opts = CliOptions {
            paths: vec![dir.clone()],
            fix: true,
            ..Default::default()
        };
        let (code, output) = run(&opts).unwrap();
        assert_eq!(code, 1, "vulnerabilities found");
        assert!(output.contains("SQLI"), "{output}");
        assert!(output.contains("1 real vulnerabilities"));
        let fixed = std::fs::read_to_string(dir.join("index.php").with_extension("php.fixed.php"))
            .or_else(|_| {
                std::fs::read_to_string(format!("{}.fixed.php", dir.join("index.php").display()))
            })
            .expect("fixed file written");
        assert!(fixed.contains("mysql_real_escape_string("));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_json_output() {
        let dir = std::env::temp_dir().join(format!("wap-cli-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("x.php"), "<?php echo $_GET['v'];\n").unwrap();
        let opts = CliOptions {
            paths: vec![dir.clone()],
            json: true,
            ..Default::default()
        };
        let (code, output) = run(&opts).unwrap();
        assert_eq!(code, 1);
        let v = wap_json::Value::parse(&output).expect("valid json");
        assert_eq!(v["real_vulnerabilities"].as_i64(), Some(1));
        assert_eq!(v["findings"][0]["class"].as_str(), Some("XSS"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_clean_dir_exits_zero() {
        let dir = std::env::temp_dir().join(format!("wap-cli-clean-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ok.php"), "<?php echo 'hello';\n").unwrap();
        let opts = CliOptions {
            paths: vec![dir.clone()],
            ..Default::default()
        };
        let (code, _) = run(&opts).unwrap();
        assert_eq!(code, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn usage_mentions_the_paper_flags() {
        for flag in [
            "-nosqli",
            "-hei",
            "-wpsqli",
            "--v21",
            "--fix",
            "--cache",
            "--format",
            "--fail-on",
            "--trace",
            "--stats",
            "--lint",
            "--rules",
            "--rules-dir",
            "--values",
        ] {
            assert!(USAGE.contains(flag), "usage missing {flag}");
        }
        assert!(
            USAGE.contains("EXIT CODES"),
            "usage missing exit-code table"
        );
    }

    #[test]
    fn parse_format_flag() {
        let o = parse_args(args(&["--format", "sarif", "f.php"])).unwrap();
        assert_eq!(o.format, Some(Format::Sarif));
        assert_eq!(o.effective_format(), Format::Sarif);
        assert!(parse_args(args(&["--format", "xml", "f.php"])).is_err());
        assert!(parse_args(args(&["--format"])).is_err());
        // legacy --json still works, explicit --format wins over it
        let o = parse_args(args(&["--json", "f.php"])).unwrap();
        assert_eq!(o.effective_format(), Format::Json);
        let o = parse_args(args(&["--json", "--format", "text", "f.php"])).unwrap();
        assert_eq!(o.effective_format(), Format::Text);
        assert_eq!(
            parse_args(args(&["f.php"])).unwrap().effective_format(),
            Format::Text
        );
    }

    #[test]
    fn parse_fail_on_flag() {
        assert_eq!(
            parse_args(args(&["f.php"])).unwrap().fail_on,
            FailOn::Vuln,
            "vuln is the default policy"
        );
        let o = parse_args(args(&["--fail-on", "none", "f.php"])).unwrap();
        assert_eq!(o.fail_on, FailOn::None);
        let o = parse_args(args(&["--fail-on", "FPP", "f.php"])).unwrap();
        assert_eq!(o.fail_on, FailOn::Fpp);
        assert!(parse_args(args(&["--fail-on", "always", "f.php"])).is_err());
        assert!(parse_args(args(&["--fail-on"])).is_err());
    }

    #[test]
    fn parse_lint_flag() {
        let o = parse_args(args(&["--lint", "f.php"])).unwrap();
        assert!(o.lint);
        let o = parse_args(args(&["f.php"])).unwrap();
        assert!(!o.lint);
        // there is no guard refinement to turn on
        assert!(parse_args(args(&["--guards", "f.php"])).is_err());
        assert_eq!(
            parse_args(args(&["--fail-on", "lint", "f.php"]))
                .unwrap()
                .fail_on,
            FailOn::Lint
        );
    }

    #[test]
    fn parse_rules_flags() {
        let o = parse_args(args(&["--rules", "wordpress", "f.php"])).unwrap();
        assert_eq!(o.rules, vec!["wordpress".to_string()]);
        assert!(o.lint, "--rules implies --lint");
        let o = parse_args(args(&[
            "--rules",
            "a@1.0",
            "--rules",
            "b",
            "--rules-dir",
            "/tmp/rp",
            "f.php",
        ]))
        .unwrap();
        assert_eq!(o.rules, vec!["a@1.0".to_string(), "b".to_string()]);
        assert_eq!(o.rules_dir, Some(PathBuf::from("/tmp/rp")));
        assert!(parse_args(args(&["--rules"])).is_err());
        assert!(parse_args(args(&["--rules-dir"])).is_err());
        let o = parse_args(args(&["f.php"])).unwrap();
        assert!(o.rules.is_empty() && o.rules_dir.is_none() && !o.lint);
    }

    #[test]
    fn rules_flag_resolves_installed_packs_into_tool_config() {
        let dir = std::env::temp_dir().join(format!("wap-cli-rules-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = wap_rules::Store::new(&dir);
        store
            .install_pack(&wap_rules::RulePack::wordpress())
            .unwrap();
        let opts = CliOptions {
            paths: vec![PathBuf::from(".")],
            lint: true,
            rules: vec!["wordpress".to_string()],
            rules_dir: Some(dir.clone()),
            ..Default::default()
        };
        let tool = build_tool(&opts).unwrap();
        let packs = tool.config().scan.lint.as_deref().expect("lint is on");
        assert_eq!(packs.len(), 1);
        assert_eq!(packs[0].name, "wordpress");
        // unknown packs are a config error, not a silent no-op
        let bad = CliOptions {
            rules: vec!["no-such-pack".to_string()],
            ..opts.clone()
        };
        let err = build_tool(&bad).unwrap_err();
        assert!(matches!(err, WapError::Config { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn values_flag_parses_and_reaches_tool_config() {
        let o = parse_args(args(&["--values", "f.php"])).unwrap();
        assert!(o.values);
        assert!(!parse_args(args(&["f.php"])).unwrap().values);
        let opts = CliOptions {
            paths: vec![PathBuf::from(".")],
            values: true,
            ..Default::default()
        };
        assert!(build_tool(&opts).unwrap().config().scan.values);
        let plain = CliOptions {
            paths: vec![PathBuf::from(".")],
            ..Default::default()
        };
        assert!(!build_tool(&plain).unwrap().config().scan.values);
    }

    #[test]
    fn lint_flags_unguarded_sink_and_suppresses_guarded() {
        let dir = std::env::temp_dir().join(format!("wap-cli-lint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // unguarded: tainted $id flows straight into the sink
        std::fs::write(
            dir.join("unguarded.php"),
            "<?php\n$id = $_GET['id'];\nmysql_query(\"SELECT * FROM t WHERE id = $id\");\n",
        )
        .unwrap();
        // guarded: a dominating is_numeric check rejects non-numeric input
        std::fs::write(
            dir.join("guarded.php"),
            "<?php\n$id = $_GET['id'];\nif (!is_numeric($id)) { exit; }\nmysql_query(\"SELECT * FROM t WHERE id = $id\");\n",
        )
        .unwrap();
        let opts = CliOptions {
            paths: vec![dir.clone()],
            lint: true,
            ..Default::default()
        };
        let (_, output) = run(&opts).unwrap();
        let tainted: Vec<&str> = output
            .lines()
            .filter(|l| l.contains(wap_cfg::RULE_TAINTED_SINK))
            .collect();
        assert!(
            tainted.iter().any(|l| l.contains("/unguarded.php")),
            "unguarded sink must be flagged: {output}"
        );
        assert!(
            !tainted.iter().any(|l| l.contains("/guarded.php")),
            "dominating guard must suppress the tainted-sink finding: {output}"
        );
        assert!(output.contains("lint findings"), "{output}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fail_on_lint_gates_on_error_severity_findings() {
        let dir = std::env::temp_dir().join(format!("wap-cli-folint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("v.php"),
            "<?php\n$id = $_GET['id'];\nmysql_query(\"SELECT * FROM t WHERE id = $id\");\n",
        )
        .unwrap();
        let opts = CliOptions {
            paths: vec![dir.clone()],
            lint: true,
            fail_on: FailOn::Lint,
            ..Default::default()
        };
        let (code, _) = run(&opts).unwrap();
        assert_eq!(code, 1, "error-severity lint finding fails the run");
        // a clean file under the same policy exits 0
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ok.php"), "<?php echo 'hello';\n").unwrap();
        let (code, _) = run(&CliOptions {
            paths: vec![dir.clone()],
            lint: true,
            fail_on: FailOn::Lint,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(code, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_output_has_no_lint_section_without_the_flag() {
        let dir = std::env::temp_dir().join(format!("wap-cli-nolint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("v.php"),
            "<?php\n$id = $_GET['id'];\nmysql_query(\"SELECT * FROM t WHERE id = $id\");\n",
        )
        .unwrap();
        let opts = CliOptions {
            paths: vec![dir.clone()],
            ..Default::default()
        };
        let (_, output) = run(&opts).unwrap();
        assert!(!output.contains("WAP-LINT-"), "{output}");
        assert!(!output.contains("lint findings"), "{output}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fail_on_policies_drive_exit_codes() {
        let dir = std::env::temp_dir().join(format!("wap-cli-failon-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("v.php"), "<?php echo $_GET['v'];\n").unwrap();
        let base = CliOptions {
            paths: vec![dir.clone()],
            ..Default::default()
        };
        let (code, _) = run(&base).unwrap();
        assert_eq!(code, 1, "default vuln policy fails on a real finding");
        let (code, _) = run(&CliOptions {
            fail_on: FailOn::None,
            ..base.clone()
        })
        .unwrap();
        assert_eq!(code, 0, "--fail-on none always exits 0");
        let (code, _) = run(&CliOptions {
            fail_on: FailOn::Fpp,
            ..base.clone()
        })
        .unwrap();
        assert_eq!(code, 1, "--fail-on fpp fails on any finding");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sarif_format_runs_end_to_end() {
        let dir = std::env::temp_dir().join(format!("wap-cli-sarif-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("x.php"), "<?php echo $_GET['v'];\n").unwrap();
        let opts = CliOptions {
            paths: vec![dir.clone()],
            format: Some(Format::Sarif),
            ..Default::default()
        };
        let (code, output) = run(&opts).unwrap();
        assert_eq!(code, 1);
        assert!(output.contains("\"2.1.0\""), "{output}");
        assert!(output.contains("WAP-XSS"), "{output}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_cache_flags() {
        let o = parse_args(args(&["--cache-dir", "/tmp/wc", "f.php"])).unwrap();
        assert_eq!(o.cache_dir, Some(PathBuf::from("/tmp/wc")));
        assert!(parse_args(args(&["--cache-dir"])).is_err());
        // --cache picks the default location but never overrides an
        // explicit --cache-dir
        let o = parse_args(args(&["--cache", "f.php"])).unwrap();
        assert!(o.cache_dir.is_some());
        let o = parse_args(args(&["--cache-dir", "/tmp/wc", "--cache", "f.php"])).unwrap();
        assert_eq!(o.cache_dir, Some(PathBuf::from("/tmp/wc")));
        // no cache flag: disabled
        let o = parse_args(args(&["f.php"])).unwrap();
        assert_eq!(o.cache_dir, None);
    }

    #[test]
    fn parse_trace_and_stats_flags() {
        let o = parse_args(args(&["--trace", "/tmp/t.ndjson", "f.php"])).unwrap();
        assert_eq!(o.trace, Some(PathBuf::from("/tmp/t.ndjson")));
        assert!(parse_args(args(&["--trace"])).is_err());
        let o = parse_args(args(&["--stats", "f.php"])).unwrap();
        assert!(o.stats);
        // neither flag: tracing stays off
        let o = parse_args(args(&["f.php"])).unwrap();
        assert_eq!(o.trace, None);
        assert!(!o.stats);
    }

    #[test]
    fn trace_and_stats_enable_collector() {
        for opts in [
            CliOptions {
                paths: vec![PathBuf::from(".")],
                trace: Some(PathBuf::from("/tmp/t.ndjson")),
                ..Default::default()
            },
            CliOptions {
                paths: vec![PathBuf::from(".")],
                stats: true,
                ..Default::default()
            },
        ] {
            let tool = build_tool(&opts).unwrap();
            assert!(tool.config().trace);
            assert!(tool.obs().enabled());
        }
        let plain = build_tool(&CliOptions {
            paths: vec![PathBuf::from(".")],
            ..Default::default()
        })
        .unwrap();
        assert!(!plain.obs().enabled());
    }

    #[test]
    fn trace_writes_ndjson_and_stats_section_renders() {
        let dir = std::env::temp_dir().join(format!("wap-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("v.php"), "<?php echo $_GET['v'];\n").unwrap();
        let trace_path = dir.join("run.trace.ndjson");
        let opts = CliOptions {
            paths: vec![dir.clone()],
            trace: Some(trace_path.clone()),
            stats: true,
            ..Default::default()
        };
        let (code, output) = run(&opts).unwrap();
        assert_eq!(code, 1);
        assert!(output.contains("phase totals:"), "{output}");
        assert!(output.contains("slowest files"), "{output}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let first = trace.lines().next().unwrap();
        assert!(
            first.contains(wap_obs::TRACE_SCHEMA),
            "meta line first: {first}"
        );
        assert!(trace.lines().any(|l| l.contains("\"kind\":\"span\"")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn usage_errors_exit_with_code_two() {
        let err = parse_args(args(&["--frobnicate", "x"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(matches!(err, WapError::Usage(_)));
    }

    #[test]
    fn nonexistent_scan_path_is_a_usage_error() {
        let err = collect_php_files(&[PathBuf::from("/no/such/wap/dir")]).unwrap_err();
        assert!(matches!(err, WapError::Usage(_)), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[cfg(unix)]
    #[test]
    fn symlinks_inside_the_tree_do_not_abort_the_scan() {
        use std::os::unix::fs::symlink;
        let dir = std::env::temp_dir().join(format!("wap-cli-symlinks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("v.php"), "<?php echo $_GET['v'];\n").unwrap();
        symlink("missing.php", dir.join("dangling.php")).unwrap();
        symlink("..", dir.join("sub/loop")).unwrap();
        symlink("v.php", dir.join("alias.php")).unwrap();

        let files = collect_php_files(std::slice::from_ref(&dir)).unwrap();
        assert_eq!(files, vec![dir.join("alias.php"), dir.join("v.php")]);
        let opts = CliOptions {
            paths: vec![dir.clone()],
            json: true,
            ..Default::default()
        };
        let (code, output) = run(&opts).unwrap();
        assert_eq!(code, 1, "{output}");
        let report = wap_json::Value::parse(&output).unwrap();
        let files: Vec<&str> = report["findings"]
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(|f| f["file"].as_str())
            .collect();
        assert!(files.iter().any(|f| f.ends_with("/v.php")), "{output}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_dir_reaches_tool_and_warm_run_matches() {
        let dir = std::env::temp_dir().join(format!("wap-cli-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("v.php"),
            "<?php\n$id = $_GET['id'];\nmysql_query(\"SELECT * FROM t WHERE id = $id\");\n",
        )
        .unwrap();
        let cache_dir = dir.join("cache");
        let opts = CliOptions {
            paths: vec![dir.clone()],
            cache_dir: Some(cache_dir.clone()),
            ..Default::default()
        };
        let tool = build_tool(&opts).unwrap();
        assert_eq!(tool.config().cache_dir, Some(cache_dir.clone()));
        let (code_cold, out_cold) = run(&opts).unwrap();
        assert!(cache_dir.exists(), "cache directory created on first run");
        let (code_warm, out_warm) = run(&opts).unwrap();
        assert_eq!(code_cold, code_warm);
        // text output (modulo the timing line) must match exactly
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains(" ms)"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&out_cold), strip(&out_warm));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod diff_cli_tests {
    use super::*;

    #[test]
    fn diff_flag_prints_hunks() {
        let dir = std::env::temp_dir().join(format!("wap-cli-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("v.php"),
            "<?php\nmysql_query(\"Q\" . $_GET['a']);\n",
        )
        .unwrap();
        let opts = CliOptions {
            paths: vec![dir.clone()],
            diff: true,
            ..Default::default()
        };
        let (code, output) = run(&opts).unwrap();
        assert_eq!(code, 1);
        assert!(output.contains("@@"), "{output}");
        assert!(
            output.contains("+mysql_query(\"Q\" . mysql_real_escape_string($_GET['a']));"),
            "{output}"
        );
        // --diff alone writes no files
        assert!(!dir.join("v.php.fixed.php").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod confirm_cli_tests {
    use super::*;

    #[test]
    fn confirm_flag_labels_findings() {
        let dir = std::env::temp_dir().join(format!("wap-cli-confirm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("v.php"),
            "<?php\n$id = $_GET['id'];\nmysql_query(\"SELECT * FROM t WHERE c = '$id'\");\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("g.php"),
            "<?php\n$n = $_GET['n'];\nif (!preg_match('/^[0-9]+$/', $n)) { exit; }\nif (isset($_GET['n'])) { mysql_query(\"SELECT 1 WHERE x = '$n'\"); }\n",
        )
        .unwrap();
        let opts = CliOptions {
            paths: vec![dir.clone()],
            confirm: true,
            ..Default::default()
        };
        let (_, output) = run(&opts).unwrap();
        assert!(output.contains("CONFIRMED EXPLOITABLE"), "{output}");
        assert!(output.contains("not exploitable"), "{output}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
