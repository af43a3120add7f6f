//! The per-pass call-classification table.
//!
//! Every call the engine walks asks the same questions about its callee:
//! is it a sensitive sink, and of which classes; which classes does it
//! sanitize; is it a weapon entry function, a desanitizer, a builtin with
//! a clean return value, a database fetch? Asked of the [`Catalog`]
//! directly, each question is a linear scan with a case-insensitive string
//! compare per entry, and a profile of a 2-job scan of a 257k-LoC app put
//! about 6% of the CPU time in those scans. [`CallTable`] answers all of
//! them with one hash lookup on the callee's lowercased [`Symbol`].
//!
//! The table is built from the catalog at the start of every
//! [`run_pass`](crate::run_pass), in one walk over its sinks, sanitizers
//! and entry points (a few dozen microseconds), so a weapon linked or a
//! class restricted between two scans is seen by the next one. A name
//! outside the table is answered by the same rules; the tests check that
//! a lookup agrees with the catalog's own predicates for every name.

use std::collections::HashMap;
use wap_catalog::{Catalog, EntryPoint, SinkArgs, SinkKind, VulnClass};
use wap_php::Symbol;

/// What a pass needs to know about one callee name.
#[derive(Debug, PartialEq)]
pub(crate) struct CallInfo {
    /// Function sinks of enabled classes, in catalog order.
    pub(crate) sinks: Vec<(VulnClass, SinkArgs)>,
    /// Method sinks of enabled classes, in catalog order.
    pub(crate) method_sinks: Vec<MethodSink>,
    /// Classes the name sanitizes, in sanitizer order.
    pub(crate) sanitized: Vec<VulnClass>,
    /// A weapon entry function: its return value is untrusted.
    pub(crate) entry_function: bool,
    /// Revokes earlier sanitization ([`DESANITIZERS`]).
    pub(crate) desanitizer: bool,
    /// Returns a value that cannot carry a payload ([`CLEAN_BUILTINS`],
    /// [`has_clean_prefix`]).
    pub(crate) returns_clean: bool,
    /// Fetches stored rows ([`FETCH_FUNCTIONS`]).
    pub(crate) fetch: bool,
}

/// A method sink, matched by name first and receiver second.
#[derive(Debug, PartialEq)]
pub(crate) struct MethodSink {
    /// Receiver variable name the sink is bound to, if any.
    pub(crate) receiver_hint: Option<String>,
    pub(crate) class: VulnClass,
    pub(crate) args: SinkArgs,
}

impl MethodSink {
    /// Whether a call on `receiver` (a root variable name, if any) reaches
    /// this sink.
    pub(crate) fn accepts(&self, receiver: Option<&str>) -> bool {
        match (&self.receiver_hint, receiver) {
            (None, _) => true,
            (Some(h), Some(r)) => h.eq_ignore_ascii_case(r),
            (Some(_), None) => false,
        }
    }
}

/// A name no list or catalog entry mentions.
static UNKNOWN: CallInfo = CallInfo::plain(false);

/// A name only [`has_clean_prefix`] says anything about.
static CLEAN_BY_PREFIX: CallInfo = CallInfo::plain(true);

impl CallInfo {
    /// No sinks, no sanitized classes, and no flag but `returns_clean`.
    const fn plain(returns_clean: bool) -> CallInfo {
        CallInfo {
            sinks: Vec::new(),
            method_sinks: Vec::new(),
            sanitized: Vec::new(),
            entry_function: false,
            desanitizer: false,
            returns_clean,
            fetch: false,
        }
    }
}

/// Callee classifications and entry-point variables for one pass.
pub(crate) struct CallTable {
    /// Keyed by the lowercased callee name.
    calls: HashMap<Symbol, CallInfo>,
    /// Entry superglobals and entry variables (exact case); the value is
    /// whether the name is a superglobal.
    entry_vars: HashMap<Symbol, bool>,
    /// Whether `echo`-like output is a sink.
    pub(crate) echo_sink: bool,
    /// Whether `include`/`require` is a sink.
    pub(crate) include_sink: bool,
}

impl CallTable {
    /// Classifies every name the catalog and the engine's builtin lists
    /// mention, in one walk over each: a name's sinks and sanitized
    /// classes keep catalog order, as the catalog's queries return them.
    pub(crate) fn new(catalog: &Catalog) -> Self {
        fn info<'t>(calls: &'t mut HashMap<Symbol, CallInfo>, name: &str) -> &'t mut CallInfo {
            let key = Symbol::intern(name).lower();
            calls
                .entry(key)
                .or_insert_with(|| CallInfo::plain(has_clean_prefix(key.as_str())))
        }
        let mut calls = HashMap::new();
        let (mut echo_sink, mut include_sink) = (false, false);
        for s in catalog.sinks() {
            match &s.kind {
                SinkKind::Function(f) => info(&mut calls, f)
                    .sinks
                    .push((s.class.clone(), s.args.clone())),
                SinkKind::Method {
                    receiver_hint,
                    name,
                } => info(&mut calls, name).method_sinks.push(MethodSink {
                    receiver_hint: receiver_hint.clone(),
                    class: s.class.clone(),
                    args: s.args.clone(),
                }),
                SinkKind::EchoLike => echo_sink = true,
                SinkKind::Include => include_sink = true,
            }
        }
        for s in catalog.sanitizers() {
            info(&mut calls, &s.name)
                .sanitized
                .extend(s.classes.iter().cloned());
        }
        let mut entry_vars = HashMap::new();
        for ep in catalog.entry_points() {
            match ep {
                EntryPoint::FunctionReturn(n) => info(&mut calls, n).entry_function = true,
                EntryPoint::Superglobal(n) => {
                    entry_vars.insert(Symbol::intern(n), true);
                }
                EntryPoint::Variable(n) => {
                    entry_vars.entry(Symbol::intern(n)).or_insert(false);
                }
            }
        }
        for name in DESANITIZERS {
            info(&mut calls, name).desanitizer = true;
        }
        for name in CLEAN_BUILTINS {
            info(&mut calls, name).returns_clean = true;
        }
        for name in FETCH_FUNCTIONS {
            info(&mut calls, name).fetch = true;
        }
        CallTable {
            calls,
            entry_vars,
            echo_sink,
            include_sink,
        }
    }

    /// The classification of callee `name`, in any casing.
    pub(crate) fn call(&self, name: Symbol) -> &CallInfo {
        let lower = name.lower();
        match self.calls.get(&lower) {
            Some(info) => info,
            None if has_clean_prefix(lower.as_str()) => &CLEAN_BY_PREFIX,
            None => &UNKNOWN,
        }
    }

    /// Whether `$name` is untrusted from the start: an entry superglobal
    /// or an entry variable.
    pub(crate) fn is_entry_var(&self, name: Symbol) -> bool {
        self.entry_vars.contains_key(&name)
    }

    /// Whether `$name` is an entry superglobal.
    pub(crate) fn is_entry_superglobal(&self, name: Symbol) -> bool {
        self.entry_vars.get(&name) == Some(&true)
    }
}

/// Functions that *revoke* prior sanitization: decoding or un-escaping a
/// sanitized string brings the payload back.
const DESANITIZERS: [&str; 7] = [
    "stripslashes",
    "stripcslashes",
    "urldecode",
    "rawurldecode",
    "html_entity_decode",
    "htmlspecialchars_decode",
    "base64_decode",
];

/// Database result-fetch functions/methods for the second-order pass.
const FETCH_FUNCTIONS: [&str; 16] = [
    "mysql_fetch_assoc",
    "mysql_fetch_array",
    "mysql_fetch_row",
    "mysql_fetch_object",
    "mysql_result",
    "mysqli_fetch_assoc",
    "mysqli_fetch_array",
    "mysqli_fetch_row",
    "mysqli_fetch_object",
    "pg_fetch_assoc",
    "pg_fetch_array",
    "pg_fetch_row",
    "fetch_assoc",
    "fetch_array",
    "fetch_row",
    "fetch_object",
];

/// PHP builtins whose return value cannot carry an injection payload
/// (numbers, booleans, hashes), besides the [`has_clean_prefix`] families.
/// Validation functions deliberately appear here as *symptoms*, not
/// sanitizers — calling `preg_match($re, $x)` returns a clean int, but `$x`
/// itself stays tainted.
const CLEAN_BUILTINS: [&str; 58] = [
    "count",
    "sizeof",
    "strlen",
    "abs",
    "floor",
    "ceil",
    "round",
    "time",
    "mktime",
    "strtotime",
    "checkdate",
    "rand",
    "mt_rand",
    "random_int",
    "intval",
    "floatval",
    "doubleval",
    "boolval",
    "md5",
    "sha1",
    "crc32",
    "hash",
    "bin2hex",
    "dechex",
    "hexdec",
    "ord",
    "preg_match",
    "preg_match_all",
    "strcmp",
    "strncmp",
    "strcasecmp",
    "strncasecmp",
    "strnatcmp",
    "strpos",
    "stripos",
    "strrpos",
    "in_array",
    "array_key_exists",
    "uniqid",
    "number_format",
    "filter_var",
    "mysql_num_rows",
    "mysqli_num_rows",
    "mysql_affected_rows",
    "mysql_insert_id",
    "error_log",
    "error_reporting",
    "header_sent",
    "headers_sent",
    "session_start",
    "ob_start",
    "define",
    "defined",
    "function_exists",
    "class_exists",
    "file_exists",
    "is_dir",
    "is_file",
];

/// The type-test families `is_*` and `ctype_*`, already lowercased.
fn has_clean_prefix(lower: &str) -> bool {
    lower.starts_with("is_") || lower.starts_with("ctype_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wap_catalog::WeaponConfig;

    // The engine's predicates, by name, that the table answers.

    /// Whether `name` (any casing) revokes sanitization.
    fn is_desanitizer(name: &str) -> bool {
        DESANITIZERS.iter().any(|d| d.eq_ignore_ascii_case(name))
    }

    /// Whether `name` (any casing) fetches stored database rows.
    fn is_fetch_function(name: &str) -> bool {
        FETCH_FUNCTIONS.iter().any(|f| f.eq_ignore_ascii_case(name))
    }

    /// Whether `name` (any casing) is a builtin with a payload-free return.
    fn returns_clean(name: &str) -> bool {
        has_clean_prefix(&name.to_ascii_lowercase())
            || CLEAN_BUILTINS.iter().any(|b| b.eq_ignore_ascii_case(name))
    }

    /// Every name the catalog or the builtin lists mention, plus names
    /// only the clean-return prefixes or nothing at all cover.
    fn vocabulary(catalog: &Catalog) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for sink in catalog.sinks() {
            match &sink.kind {
                SinkKind::Function(name) => names.push(name.clone()),
                SinkKind::Method {
                    receiver_hint,
                    name,
                } => names.extend(receiver_hint.iter().chain([name]).cloned()),
                SinkKind::EchoLike | SinkKind::Include => {}
            }
        }
        names.extend(catalog.sanitizers().iter().map(|s| s.name.clone()));
        for ep in catalog.entry_points() {
            match ep {
                EntryPoint::Superglobal(n)
                | EntryPoint::FunctionReturn(n)
                | EntryPoint::Variable(n) => names.push(n.clone()),
            }
        }
        names.extend(DESANITIZERS.iter().map(|n| n.to_string()));
        names.extend(CLEAN_BUILTINS.iter().map(|n| n.to_string()));
        names.extend(FETCH_FUNCTIONS.iter().map(|n| n.to_string()));
        for extra in [
            "is_valid_id",
            "ctype_digit",
            "my_helper",
            "query",
            "isset_like",
            "",
        ] {
            names.push(extra.to_string());
        }
        names
    }

    /// `name` lowercased, uppercased, and in alternating case.
    fn casings(name: &str) -> [String; 3] {
        let alternating = name
            .chars()
            .enumerate()
            .map(|(i, c)| match i % 2 {
                0 => c.to_ascii_uppercase(),
                _ => c.to_ascii_lowercase(),
            })
            .collect();
        [
            name.to_ascii_lowercase(),
            name.to_ascii_uppercase(),
            alternating,
        ]
    }

    /// Asserts that a table built from `catalog` answers every question
    /// exactly as the catalog's and the engine's predicates do.
    fn assert_agrees(catalog: &Catalog) {
        let table = CallTable::new(catalog);
        let receivers = [None, Some("wpdb"), Some("WpDb"), Some("db"), Some("other")];
        for base in vocabulary(catalog) {
            for name in casings(&base) {
                let sym = Symbol::intern(&name);
                let info = table.call(sym);
                let sinks: Vec<(VulnClass, SinkArgs)> = catalog
                    .sinks()
                    .filter_map(|s| match &s.kind {
                        SinkKind::Function(f) if f.eq_ignore_ascii_case(&name) => {
                            Some((s.class.clone(), s.args.clone()))
                        }
                        _ => None,
                    })
                    .collect();
                assert_eq!(info.sinks, sinks, "function sinks of {name:?}");
                for receiver in receivers {
                    let expected: Vec<(VulnClass, SinkArgs)> = catalog
                        .sinks()
                        .filter_map(|s| match &s.kind {
                            SinkKind::Method {
                                receiver_hint,
                                name: m,
                            } if m.eq_ignore_ascii_case(&name) => {
                                let receiver_ok = match (receiver_hint, receiver) {
                                    (None, _) => true,
                                    (Some(h), Some(r)) => h.eq_ignore_ascii_case(r),
                                    (Some(_), None) => false,
                                };
                                receiver_ok.then(|| (s.class.clone(), s.args.clone()))
                            }
                            _ => None,
                        })
                        .collect();
                    let got: Vec<(VulnClass, SinkArgs)> = info
                        .method_sinks
                        .iter()
                        .filter(|s| s.accepts(receiver))
                        .map(|s| (s.class.clone(), s.args.clone()))
                        .collect();
                    assert_eq!(got, expected, "method sinks of {receiver:?}->{name:?}");
                }
                let sanitized: Vec<VulnClass> = catalog
                    .sanitized_classes(&name)
                    .into_iter()
                    .cloned()
                    .collect();
                assert_eq!(info.sanitized, sanitized, "sanitized classes of {name:?}");
                assert_eq!(
                    info.entry_function,
                    catalog.is_entry_function(&name),
                    "{name:?}"
                );
                assert_eq!(info.desanitizer, is_desanitizer(&name), "{name:?}");
                assert_eq!(info.returns_clean, returns_clean(&name), "{name:?}");
                assert_eq!(info.fetch, is_fetch_function(&name), "{name:?}");
                assert_eq!(
                    table.is_entry_var(sym),
                    catalog.is_entry_superglobal(&name) || catalog.is_entry_variable(&name),
                    "entry variable {name:?}"
                );
                assert_eq!(
                    table.is_entry_superglobal(sym),
                    catalog.is_entry_superglobal(&name),
                    "entry superglobal {name:?}"
                );
            }
        }
        assert_eq!(
            table.echo_sink,
            catalog
                .sinks()
                .any(|s| matches!(s.kind, SinkKind::EchoLike))
        );
        assert_eq!(
            table.include_sink,
            catalog.sinks().any(|s| matches!(s.kind, SinkKind::Include))
        );
    }

    /// A weapon with mixed-case names and every kind of entry point.
    fn mixed_case_weapon() -> WeaponConfig {
        let mut w = WeaponConfig::hei();
        w.name = "mixedcase".into();
        w.entry_points = vec![
            EntryPoint::Superglobal("_SESSION".into()),
            EntryPoint::FunctionReturn("Read_Request".into()),
            EntryPoint::Variable("Tainted_Input".into()),
        ];
        w.sanitizers = vec!["Clean_Header".into()];
        w.sanitizer_methods = vec!["StripCRLF".into()];
        w
    }

    #[test]
    fn table_agrees_with_the_wape_catalog() {
        assert_agrees(&Catalog::wape());
    }

    #[test]
    fn table_agrees_with_the_v21_catalog() {
        assert_agrees(&Catalog::wap_v21());
    }

    #[test]
    fn table_agrees_with_a_class_restricted_catalog() {
        let mut catalog = Catalog::wape_full();
        catalog.retain_classes(&[VulnClass::Sqli]);
        assert_agrees(&catalog);
        assert!(CallTable::new(&catalog)
            .call(Symbol::intern("echo"))
            .sinks
            .is_empty());
        assert!(!CallTable::new(&catalog).echo_sink);
    }

    #[test]
    fn a_table_built_after_add_weapon_sees_the_weapon() {
        let mut catalog = Catalog::wape();
        assert_agrees(&catalog);
        let before = CallTable::new(&catalog);
        assert!(before
            .call(Symbol::intern("findOne"))
            .method_sinks
            .is_empty());
        for weapon in [
            WeaponConfig::nosqli(),
            WeaponConfig::wpsqli(),
            mixed_case_weapon(),
        ] {
            catalog.add_weapon(weapon);
            assert_agrees(&catalog);
        }
        let after = CallTable::new(&catalog);
        assert!(!after
            .call(Symbol::intern("FINDONE"))
            .method_sinks
            .is_empty());
        assert!(after.call(Symbol::intern("get_QUERY_var")).entry_function);
        assert!(after.is_entry_var(Symbol::intern("Tainted_Input")));
        assert!(!after.is_entry_var(Symbol::intern("tainted_input")));
        assert!(after.is_entry_superglobal(Symbol::intern("_SESSION")));
    }
}
