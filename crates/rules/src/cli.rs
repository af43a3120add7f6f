//! The `wap rules` subcommand: install/update/list/remove versioned rule
//! packs in the rules directory.

use crate::pack::RulePack;
use crate::store::{default_rules_dir, Store};
use std::path::PathBuf;

/// Usage text for `wap rules`.
pub const RULES_USAGE: &str = "\
usage: wap rules <COMMAND> [ARGS] [--rules-dir <DIR>]

Manage versioned rule packs (see `wap scan --rules <pack>`).

COMMANDS:
    install <PATH|NAME>   Install a pack from a JSON manifest file, or a
                          directory or tarball holding pack.json
                          (schema-checked). NAME installs a builtin starter
                          pack (available: wordpress, generic-php).
    update <PATH|NAME>    Alias of install: re-reads the source and
                          overwrites the stored name@version.
    list                  List installed packs with versions, rule counts,
                          matcher kinds, and fingerprints.
    remove <NAME[@VER]>   Remove one version, or every version of a pack.

OPTIONS:
    --rules-dir <DIR>     Pack store location (default: $WAP_RULES_DIR or
                          .wap-rules)
";

/// Runs `wap rules` with the given arguments (everything after the
/// `rules` word); returns the process exit code.
pub fn cli_main(args: Vec<String>) -> i32 {
    match run(args) {
        Ok(output) => {
            print!("{output}");
            0
        }
        Err(message) => {
            eprintln!("wap rules: {message}");
            2
        }
    }
}

fn run(args: Vec<String>) -> Result<String, String> {
    let mut rules_dir: Option<PathBuf> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rules-dir" => {
                let dir = it.next().ok_or("--rules-dir needs a value")?;
                rules_dir = Some(PathBuf::from(dir));
            }
            "-h" | "--help" => return Ok(RULES_USAGE.to_string()),
            _ => positional.push(arg),
        }
    }
    let store = Store::new(rules_dir.unwrap_or_else(default_rules_dir));
    let mut positional = positional.into_iter();
    let command = positional.next().ok_or(RULES_USAGE.trim_end())?;
    match command.as_str() {
        "install" | "update" => {
            let source = positional
                .next()
                .ok_or(format!("{command} needs a pack path or starter name"))?;
            let installed = if let Some(starter) = starter_pack(&source) {
                store.install_pack(&starter)?
            } else {
                store.install(&PathBuf::from(&source))?
            };
            Ok(format!(
                "installed {}@{} ({} rules, fingerprint {})\n",
                installed.name, installed.version, installed.rules, installed.fingerprint
            ))
        }
        "list" => {
            let packs = store.list()?;
            if packs.is_empty() {
                return Ok(format!(
                    "no rule packs installed under {}\n",
                    store.root().display()
                ));
            }
            let mut out = String::new();
            for p in packs {
                // the kind summary comes from re-reading the stored
                // manifest; a pack that stopped parsing still lists
                let kinds = match store.resolve(&format!("{}@{}", p.name, p.version)) {
                    Ok(pack) => {
                        let mut ks: Vec<&'static str> =
                            pack.rules.iter().map(|r| r.matcher.kind_name()).collect();
                        ks.sort_unstable();
                        ks.dedup();
                        ks.join(",")
                    }
                    Err(_) => "?".to_string(),
                };
                out.push_str(&format!(
                    "{}@{} rules={} kinds={} fingerprint={}\n",
                    p.name, p.version, p.rules, kinds, p.fingerprint
                ));
            }
            Ok(out)
        }
        "remove" => {
            let reference = positional.next().ok_or("remove needs a pack name")?;
            let removed = store.remove(&reference)?;
            Ok(format!(
                "removed {removed} version{} of {reference}\n",
                if removed == 1 { "" } else { "s" }
            ))
        }
        other => Err(format!("unknown command '{other}'\n\n{RULES_USAGE}")),
    }
}

/// Builtin starter packs installable by name.
fn starter_pack(name: &str) -> Option<RulePack> {
    match name {
        "wordpress" => Some(RulePack::wordpress()),
        "generic-php" => Some(RulePack::generic_php()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wap-rules-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rules(args: &[&str]) -> Result<String, String> {
        run(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn starter_install_list_remove_flow() {
        let dir = temp_dir("flow");
        let dir_arg = dir.to_string_lossy().to_string();
        let out = rules(&["install", "wordpress", "--rules-dir", &dir_arg]).unwrap();
        assert!(out.contains("installed wordpress@1.0.0"), "{out}");
        let listed = rules(&["list", "--rules-dir", &dir_arg]).unwrap();
        assert!(
            listed.contains("wordpress@1.0.0 rules=3 kinds=call_with_arg,pattern fingerprint="),
            "{listed}"
        );
        let removed = rules(&["remove", "wordpress", "--rules-dir", &dir_arg]).unwrap();
        assert!(
            removed.contains("removed 1 version of wordpress"),
            "{removed}"
        );
        let empty = rules(&["list", "--rules-dir", &dir_arg]).unwrap();
        assert!(empty.contains("no rule packs installed"), "{empty}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_name_the_problem() {
        let dir = temp_dir("errors");
        let dir_arg = dir.to_string_lossy().to_string();
        assert!(rules(&[]).unwrap_err().contains("usage: wap rules"));
        assert!(rules(&["frobnicate"])
            .unwrap_err()
            .contains("unknown command"));
        assert!(rules(&["remove", "nope", "--rules-dir", &dir_arg])
            .unwrap_err()
            .contains("not installed"));
        assert!(rules(&["install"]).unwrap_err().contains("install needs"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn help_prints_usage() {
        assert_eq!(rules(&["--help"]).unwrap(), RULES_USAGE);
        assert!(RULES_USAGE.contains("--rules-dir"));
        assert!(RULES_USAGE.contains("WAP_RULES_DIR"));
    }
}
