//! The rule-pack model: a named, versioned, schema-checked collection of
//! [`RuleSpec`]s with a deterministic fingerprint.
//!
//! Manifests are JSON. On install the manifest is re-serialized
//! canonically ([`RulePack::to_canonical_json`]), which is also the byte
//! stream the fingerprint hashes — a pack's fingerprint is independent of
//! the key order and whitespace it was authored in.

use wap_cfg::{MatchSpec, RuleSet, RuleSpec};
use wap_json::{quote, Value};
use wap_php::fingerprint::fields_hash;

/// The manifest schema version this build reads and writes.
pub const PACK_SCHEMA_VERSION: u32 = 1;

/// A loaded, validated rule pack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RulePack {
    /// Pack name (lowercase identifier, e.g. `wordpress`).
    pub name: String,
    /// Pack version (dotted numeric segments, e.g. `1.0.0`).
    pub version: String,
    /// Manifest schema version.
    pub schema: u32,
    /// The pack's rules; every spec carries `pack = Some(name)`.
    pub rules: Vec<RuleSpec>,
}

impl RulePack {
    /// Parses and validates a JSON manifest.
    ///
    /// # Errors
    ///
    /// Returns a message on parse errors, schema-version mismatch,
    /// missing fields, unknown rule kinds or severities, and rule
    /// patterns that fail to compile.
    pub fn parse(manifest: &str) -> Result<RulePack, String> {
        let value = Value::parse(manifest).map_err(|e| format!("json: {e}"))?;
        RulePack::from_value(&value)
    }

    fn from_value(value: &Value) -> Result<RulePack, String> {
        let schema = value
            .get("schema")
            .and_then(Value::as_f64)
            .ok_or("missing 'schema' version")? as u32;
        if schema != PACK_SCHEMA_VERSION {
            return Err(format!(
                "unsupported pack schema {schema} (this build reads schema {PACK_SCHEMA_VERSION})"
            ));
        }
        let name = req_str(value, "name")?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
        {
            return Err(format!("pack name '{name}' must be a lowercase identifier"));
        }
        let version = req_str(value, "version")?;
        if version.is_empty() || version_key(&version).is_none() {
            return Err(format!(
                "pack version '{version}' must be dotted numeric segments (e.g. 1.0.0)"
            ));
        }
        let rules_value = value.get("rules").ok_or("missing 'rules' list")?;
        let rules_list = rules_value.as_arr().ok_or("'rules' must be a list")?;
        if rules_list.is_empty() {
            return Err("pack declares no rules".to_string());
        }
        let mut rules = Vec::with_capacity(rules_list.len());
        for (i, r) in rules_list.iter().enumerate() {
            rules.push(parse_rule(r, &name).map_err(|e| format!("rules[{i}]: {e}"))?);
        }
        let pack = RulePack {
            name,
            version,
            schema,
            rules,
        };
        // compile now so a broken pattern is an install-time error, not a
        // scan-time one
        RuleSet::compile(&pack.rules).map_err(|e| e.to_string())?;
        Ok(pack)
    }

    /// The canonical manifest serialization: stable key order, no
    /// optional fields when empty. Installing writes these bytes; the
    /// fingerprint hashes them.
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"schema\": {},\n  \"name\": {},\n  \"version\": {},\n  \"rules\": [",
            self.schema,
            quote(&self.name),
            quote(&self.version)
        ));
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let mut fields: Vec<(String, String)> = vec![
                ("id".to_string(), quote(&rule.id)),
                ("severity".to_string(), quote(&rule.severity)),
            ];
            if !rule.summary.is_empty() && rule.summary != rule.message {
                fields.push(("summary".to_string(), quote(&rule.summary)));
            }
            if !rule.message.is_empty() {
                fields.push(("message".to_string(), quote(&rule.message)));
            }
            match &rule.matcher {
                MatchSpec::Call { function } => {
                    fields.push(("kind".to_string(), quote("forbid_call")));
                    fields.push(("function".to_string(), quote(function)));
                }
                MatchSpec::CallGuarded { function } => {
                    fields.push(("kind".to_string(), quote("require_guard")));
                    fields.push(("function".to_string(), quote(function)));
                }
                MatchSpec::CallWithArg { function, argument } => {
                    fields.push(("kind".to_string(), quote("call_with_arg")));
                    fields.push(("function".to_string(), quote(function)));
                    fields.push(("argument".to_string(), quote(argument)));
                }
                MatchSpec::Pattern {
                    pattern,
                    constraints,
                } => {
                    fields.push(("kind".to_string(), quote("pattern")));
                    fields.push(("pattern".to_string(), quote(pattern)));
                    if !constraints.is_empty() {
                        let mut w = String::from("{");
                        for (j, (k, v)) in constraints.iter().enumerate() {
                            if j > 0 {
                                w.push(',');
                            }
                            w.push_str(&format!("{}: {}", quote(k), quote(v)));
                        }
                        w.push('}');
                        fields.push(("where".to_string(), w));
                    }
                }
                // structural builtins never appear in packs
                MatchSpec::Unreachable
                | MatchSpec::AssignInCond
                | MatchSpec::UnguardedSink { .. }
                | MatchSpec::TaintedSink
                | MatchSpec::UnresolvedInclude => {}
            }
            let rendered: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\n      {}: {v}", quote(k)))
                .collect();
            out.push_str(&rendered.join(","));
            out.push_str("\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// The pack's deterministic fingerprint: a hash over the canonical
    /// manifest bytes, so two installs of the same logical pack always
    /// fingerprint identically and any rule change re-fingerprints.
    pub fn fingerprint(&self) -> String {
        fields_hash([
            "rule-pack".as_bytes(),
            self.name.as_bytes(),
            self.version.as_bytes(),
            self.to_canonical_json().as_bytes(),
        ])
    }

    /// The starter `wordpress` pack: unprepared `$wpdb->query` calls
    /// whose argument is a double-quoted string interpolating a variable
    /// (the canonical WordPress SQL-injection shape), plus a
    /// guard-dominance rule on `esc_sql`-free `get_results`.
    pub fn wordpress() -> RulePack {
        let pack = RulePack {
            name: "wordpress".to_string(),
            version: "1.0.0".to_string(),
            schema: PACK_SCHEMA_VERSION,
            rules: vec![
                RuleSpec {
                    id: "wp-wpdb-interpolated-query".to_string(),
                    severity: "error".to_string(),
                    summary: "wpdb query built from an interpolated string".to_string(),
                    message: "unprepared query: interpolated variable reaches $wpdb->query; use $wpdb->prepare()".to_string(),
                    pack: Some("wordpress".to_string()),
                    matcher: MatchSpec::CallWithArg {
                        function: "query".to_string(),
                        argument: "\"[^\"]*\\$\\w".to_string(),
                    },
                },
                RuleSpec {
                    id: "wp-wpdb-interpolated-get-results".to_string(),
                    severity: "warning".to_string(),
                    summary: "wpdb get_results built from an interpolated string".to_string(),
                    message: "unprepared query: interpolated variable reaches $wpdb->get_results; use $wpdb->prepare()".to_string(),
                    pack: Some("wordpress".to_string()),
                    matcher: MatchSpec::CallWithArg {
                        function: "get_results".to_string(),
                        argument: "\"[^\"]*\\$\\w".to_string(),
                    },
                },
                RuleSpec {
                    id: "wp-unvalidated-extract".to_string(),
                    severity: "warning".to_string(),
                    summary: "extract() over request input".to_string(),
                    message: "extract() on request data injects attacker-controlled variables".to_string(),
                    pack: Some("wordpress".to_string()),
                    matcher: MatchSpec::Pattern {
                        pattern: "extract( $X )".to_string(),
                        constraints: vec![(
                            "X".to_string(),
                            "^\\$_(GET|POST|REQUEST)".to_string(),
                        )],
                    },
                },
            ],
        };
        debug_assert!(RuleSet::compile(&pack.rules).is_ok());
        pack
    }

    /// The starter `generic-php` pack: framework-agnostic rules built on
    /// the predicate `where` constraints. `tainted($X)` flags tainted
    /// data reaching `mysql_query` through a pattern binding (and stays
    /// silent on constants), `const($X)` flags `eval` over a string the
    /// value analysis proves constant — dead dynamism that should be
    /// plain code.
    pub fn generic_php() -> RulePack {
        let pack = RulePack {
            name: "generic-php".to_string(),
            version: "1.0.0".to_string(),
            schema: PACK_SCHEMA_VERSION,
            rules: vec![
                RuleSpec {
                    id: "gp-tainted-query".to_string(),
                    severity: "error".to_string(),
                    summary: "tainted data reaches a SQL query call".to_string(),
                    message: "tainted value reaches mysql_query; bind parameters instead"
                        .to_string(),
                    pack: Some("generic-php".to_string()),
                    matcher: MatchSpec::Pattern {
                        pattern: "mysql_query( $X )".to_string(),
                        constraints: vec![("X".to_string(), "tainted($X)".to_string())],
                    },
                },
                RuleSpec {
                    id: "gp-constant-eval".to_string(),
                    severity: "note".to_string(),
                    summary: "eval over a compile-time constant string".to_string(),
                    message: "eval of a constant string; write the code directly".to_string(),
                    pack: Some("generic-php".to_string()),
                    matcher: MatchSpec::Pattern {
                        pattern: "eval( $X )".to_string(),
                        constraints: vec![("X".to_string(), "const($X)".to_string())],
                    },
                },
            ],
        };
        debug_assert!(RuleSet::compile(&pack.rules).is_ok());
        pack
    }
}

fn req_str(value: &Value, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing '{key}' string"))
}

fn parse_rule(value: &Value, pack: &str) -> Result<RuleSpec, String> {
    let id = req_str(value, "id")?;
    if id.trim().is_empty() {
        return Err("empty rule id".to_string());
    }
    let severity = value
        .get("severity")
        .and_then(Value::as_str)
        .unwrap_or("warning")
        .to_string();
    if wap_cfg::Severity::parse(&severity).is_none() {
        return Err(format!("unknown severity '{severity}'"));
    }
    let message = value
        .get("message")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let summary = value
        .get("summary")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let kind = req_str(value, "kind")?;
    let function = || req_str(value, "function");
    let matcher = match kind.as_str() {
        "forbid_call" | "call" => MatchSpec::Call {
            function: function()?,
        },
        "require_guard" => MatchSpec::CallGuarded {
            function: function()?,
        },
        "call_with_arg" => MatchSpec::CallWithArg {
            function: function()?,
            argument: req_str(value, "argument")?,
        },
        "pattern" => {
            let pattern = req_str(value, "pattern")?;
            let mut constraints = Vec::new();
            if let Some(w) = value.get("where") {
                let Value::Obj(entries) = w else {
                    return Err("'where' must be a map of metavariable constraints".to_string());
                };
                for (k, v) in entries {
                    let expr = v
                        .as_str()
                        .ok_or_else(|| format!("where.{k} must be a string"))?;
                    constraints.push((k.clone(), expr.to_string()));
                }
                // canonical order: fingerprints must not depend on
                // manifest key order
                constraints.sort();
            }
            MatchSpec::Pattern {
                pattern,
                constraints,
            }
        }
        other => {
            return Err(format!(
                "unknown rule kind '{other}' (expected forbid_call, require_guard, call_with_arg, or pattern)"
            ))
        }
    };
    let message = if message.is_empty() {
        format!("rule {id} matched")
    } else {
        message
    };
    Ok(RuleSpec {
        id,
        severity,
        summary,
        message,
        pack: Some(pack.to_string()),
        matcher,
    })
}

/// A sortable key for a dotted numeric version; `None` when a segment is
/// not numeric.
pub fn version_key(version: &str) -> Option<Vec<u64>> {
    version
        .split('.')
        .map(|seg| seg.parse::<u64>().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_json_round_trips() {
        let pack = RulePack::wordpress();
        let reparsed = RulePack::parse(&pack.to_canonical_json()).unwrap();
        assert_eq!(pack, reparsed);
        assert_eq!(pack.fingerprint(), reparsed.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_rule_changes() {
        let mut pack = RulePack::wordpress();
        let base = pack.fingerprint();
        pack.rules[0].message = "different".to_string();
        assert_ne!(pack.fingerprint(), base);
        let mut v2 = RulePack::wordpress();
        v2.version = "1.0.1".to_string();
        assert_ne!(v2.fingerprint(), base);
    }

    #[test]
    fn schema_mismatch_and_bad_fields_are_rejected() {
        assert!(
            RulePack::parse(r#"{"schema": 2, "name": "x", "version": "1", "rules": []}"#)
                .unwrap_err()
                .contains("schema")
        );
        assert!(RulePack::parse(r#"{"schema": 1, "name": "Bad Name", "version": "1", "rules": [{"id": "a", "kind": "forbid_call", "function": "f"}]}"#)
            .unwrap_err()
            .contains("lowercase"));
        assert!(RulePack::parse(r#"{"schema": 1, "name": "x", "version": "one", "rules": [{"id": "a", "kind": "forbid_call", "function": "f"}]}"#)
            .unwrap_err()
            .contains("numeric"));
        assert!(
            RulePack::parse(r#"{"schema": 1, "name": "x", "version": "1.0", "rules": []}"#)
                .unwrap_err()
                .contains("no rules")
        );
        assert!(RulePack::parse(r#"{"schema": 1, "name": "x", "version": "1.0", "rules": [{"id": "a", "kind": "frob"}]}"#)
            .unwrap_err()
            .contains("unknown rule kind"));
        assert!(RulePack::parse(r#"{"schema": 1, "name": "x", "version": "1.0", "rules": [{"id": "a", "kind": "forbid_call", "function": "f", "severity": "fatal"}]}"#)
            .unwrap_err()
            .contains("severity"));
    }

    #[test]
    fn deeply_nested_manifests_are_errors_not_stack_overflows() {
        for nested in ["[".repeat(200_000), "{\"a\":".repeat(200_000)] {
            assert!(RulePack::parse(&nested).is_err());
            assert!(RulePack::parse(&format!("{{\"rules\": {nested}")).is_err());
        }
        let err = RulePack::parse(&"{\"a\":".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn broken_patterns_fail_at_parse_time() {
        let err = RulePack::parse(
            r#"{"schema": 1, "name": "x", "version": "1.0",
                "rules": [{"id": "a", "kind": "call_with_arg", "function": "f", "argument": "[oops"}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unclosed"), "{err}");
    }

    #[test]
    fn version_keys_order_numerically() {
        assert!(version_key("1.10.0").unwrap() > version_key("1.9.9").unwrap());
        assert!(version_key("2.0").unwrap() > version_key("1.999.999").unwrap());
        assert!(version_key("1.x").is_none());
    }

    #[test]
    fn wordpress_starter_compiles_and_fingerprints_stably() {
        let pack = RulePack::wordpress();
        assert_eq!(pack.name, "wordpress");
        assert_eq!(pack.schema, PACK_SCHEMA_VERSION);
        assert_eq!(pack.rules.len(), 3);
        assert_eq!(pack.fingerprint(), RulePack::wordpress().fingerprint());
    }

    #[test]
    fn generic_php_starter_round_trips_predicate_constraints() {
        let pack = RulePack::generic_php();
        assert_eq!(pack.name, "generic-php");
        assert_eq!(pack.rules.len(), 2);
        assert_eq!(pack.fingerprint(), RulePack::generic_php().fingerprint());
        // the predicate constraint strings survive the canonical
        // manifest round trip byte for byte
        let reparsed = RulePack::parse(&pack.to_canonical_json()).unwrap();
        assert_eq!(reparsed, pack);
        assert_eq!(reparsed.fingerprint(), pack.fingerprint());
        // and the compiled set declares it consumes facts
        assert!(RuleSet::compile(&reparsed.rules).unwrap().needs_facts());
    }
}
