//! Symptom collection: from a candidate vulnerability's code context to the
//! 60-feature attribute vector of Table I.
//!
//! Mirrors the reorganized false-positive predictor (Fig. 3): static
//! symptoms are collected from source code around the flagged data flow,
//! dynamic symptoms (user functions registered by weapons) are mapped onto
//! their static equivalents, and everything is folded into one attribute
//! vector for classification.

use crate::attributes::{symptom_index, symptoms, wape_feature_count};
use std::collections::{BTreeSet, HashMap};
use wap_php::ast::*;
use wap_php::visitor::{walk_expr, walk_stmt, Visitor};
use wap_taint::Candidate;

/// Maps user-function names to static symptom names (dynamic symptoms,
/// §III-B.2). Built from weapon configurations.
#[derive(Debug, Clone, Default)]
pub struct DynamicSymptomMap {
    map: HashMap<String, String>,
}

impl DynamicSymptomMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `function` as behaving like static symptom `equivalent`.
    /// Use the pseudo-symptoms `white_list` / `black_list` for list-based
    /// user validators.
    pub fn insert(&mut self, function: &str, equivalent: &str) {
        self.map
            .insert(function.to_ascii_lowercase(), equivalent.to_string());
    }

    /// Builds the map from catalog dynamic symptoms.
    pub fn from_catalog(catalog: &wap_catalog::Catalog) -> Self {
        let mut m = Self::new();
        for ds in catalog.dynamic_symptoms() {
            m.insert(&ds.function, &ds.equivalent);
        }
        m
    }

    fn resolve(&self, function: &str) -> Option<&str> {
        self.map
            .get(&function.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// Number of registered dynamic symptoms.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no dynamic symptoms are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The collected attribute vector for one candidate vulnerability.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    /// 60 binary features in [`symptoms`] order (0.0 / 1.0).
    pub features: Vec<f64>,
    /// Names of the symptoms that were present (for FP justification).
    pub present: Vec<&'static str>,
}

impl FeatureVector {
    /// Whether a named symptom was observed.
    pub fn has(&self, name: &str) -> bool {
        symptom_index(name)
            .map(|i| self.features[i] > 0.5)
            .unwrap_or(false)
    }
}

/// Collects the Table I symptoms for `candidate` from its `program`.
///
/// The collector considers code that touches the flow's *carrier
/// variables* or its entry points: validation calls guarding them, string
/// manipulation applied to them, and the query text they are embedded in.
pub fn collect(
    program: &Program,
    candidate: &Candidate,
    dynamic: &DynamicSymptomMap,
) -> FeatureVector {
    let relevant: BTreeSet<String> = candidate.carriers.iter().cloned().collect();
    // exact entry-point expressions like `$_GET['id']` — matching whole
    // superglobals would let guards of *other* flows contaminate this one
    let entries: BTreeSet<String> = candidate.sources.iter().cloned().collect();

    let mut c = Collector {
        relevant: &relevant,
        entries: &entries,
        dynamic,
        hits: BTreeSet::new(),
        guard_depth: 0,
    };
    c.visit_program(program);
    let mut hits = c.hits;

    // concatenation / interpolation along the flow path
    if candidate
        .path
        .iter()
        .any(|s| s.what.as_str().contains("concat") || s.what.as_str().contains("interpolation"))
    {
        hits.insert("concat_op");
    }

    // SQL query manipulation features from the literal fragments
    let text = candidate.literal_text().to_ascii_uppercase();
    if text.contains(" FROM ") || text.starts_with("FROM ") || text.contains(" FROM") {
        hits.insert("from_clause");
    }
    if text.contains("JOIN ")
        || text.contains("UNION")
        || text.contains("GROUP BY")
        || text.matches("SELECT").count() >= 2
    {
        hits.insert("complex_query");
    }
    for (agg, name) in [
        ("AVG(", "agg_avg"),
        ("COUNT(", "agg_count"),
        ("SUM(", "agg_sum"),
        ("MAX(", "agg_max"),
        ("MIN(", "agg_min"),
    ] {
        if text.contains(agg) {
            hits.insert(name);
        }
    }
    // numeric entry point: the fragment before the payload ends in `=`
    // without an opening quote, e.g. `... WHERE id = ` + $input
    if candidate.literal_fragments.iter().any(|f| {
        let t = f.trim_end();
        t.ends_with('=') && !t.ends_with("'=") && !f.trim_end_matches(' ').ends_with('\'')
    }) {
        hits.insert("numeric_entry_point");
    }

    let mut features = vec![0.0; wape_feature_count()];
    let mut present = Vec::new();
    for (i, s) in symptoms().iter().enumerate() {
        if hits.contains(s.name) {
            features[i] = 1.0;
            present.push(s.name);
        }
    }
    FeatureVector { features, present }
}

/// Rewrites value-context symptoms from the sink context the
/// interprocedural value analysis derived (`--values` mode). `context`
/// is the kebab-case `wap_cfg::SinkContext` name:
///
/// * `numeric-cast` — the carrier is provably numeric at the sink; the
///   same signal as an `intval()` on the flow, the committee's strongest
///   false-positive cue, so the `intval` symptom is set.
/// * `quoted-string` — the lattice disproves the collector's syntactic
///   "numeric entry point" heuristic (payload lands inside quotes), so
///   that symptom is cleared.
/// * `identifier-position` — the payload provably lands unquoted, so
///   `numeric_entry_point` is set even when the syntactic heuristic
///   missed it.
///
/// The vector keeps its fixed feature shape — only named bits change —
/// and `present` is rebuilt from the features.
pub fn refine_with_sink_context(fv: &mut FeatureVector, context: &str) {
    let set = |fv: &mut FeatureVector, name: &str, on: bool| {
        if let Some(i) = crate::attributes::symptom_index(name) {
            fv.features[i] = if on { 1.0 } else { 0.0 };
        }
    };
    match context {
        "numeric-cast" => set(fv, "intval", true),
        "quoted-string" => set(fv, "numeric_entry_point", false),
        "identifier-position" => set(fv, "numeric_entry_point", true),
        _ => return,
    }
    fv.present = symptoms()
        .iter()
        .enumerate()
        .filter(|(i, _)| fv.features[*i] > 0.5)
        .map(|(_, s)| s.name)
        .collect();
}

struct Collector<'a> {
    relevant: &'a BTreeSet<String>,
    entries: &'a BTreeSet<String>,
    dynamic: &'a DynamicSymptomMap,
    hits: BTreeSet<&'static str>,
    /// Nonzero while walking statements guarded by a condition that
    /// references the flow — exit/error only count inside such guards.
    guard_depth: usize,
}

impl Collector<'_> {
    fn expr_is_relevant(&self, e: &Expr) -> bool {
        let mut found = false;
        let mut stack = vec![e];
        while let Some(e) = stack.pop() {
            match &e.kind {
                ExprKind::Var(n)
                    if self.relevant.contains(n.as_str())
                        || self.entries.contains(&format!("${n}")) =>
                {
                    found = true;
                    break;
                }
                ExprKind::ArrayDim { base, index } => {
                    // exact entry-point element, e.g. $_GET['id']
                    if let (ExprKind::Var(n), Some(i)) = (&base.kind, index.as_deref()) {
                        if let Some(key) = i.as_str_lit() {
                            if self.entries.contains(&format!("${n}['{key}']")) {
                                found = true;
                                break;
                            }
                        }
                    }
                    stack.push(base);
                    if let Some(i) = index {
                        stack.push(i);
                    }
                }
                ExprKind::Prop { base, .. } => stack.push(base),
                ExprKind::Binary { lhs, rhs, .. } => {
                    stack.push(lhs);
                    stack.push(rhs);
                }
                ExprKind::Unary { expr, .. }
                | ExprKind::Cast { expr, .. }
                | ExprKind::ErrorSuppress(expr)
                | ExprKind::Empty(expr) => stack.push(expr),
                ExprKind::Isset(args) => stack.extend(args.iter()),
                ExprKind::Call { args, .. } => stack.extend(args.iter()),
                ExprKind::MethodCall { target, args, .. } => {
                    stack.push(target);
                    stack.extend(args.iter());
                }
                ExprKind::Ternary {
                    cond,
                    then,
                    otherwise,
                } => {
                    stack.push(cond);
                    if let Some(t) = then {
                        stack.push(t);
                    }
                    stack.push(otherwise);
                }
                _ => {}
            }
        }
        found
    }

    fn record_call(&mut self, name: &str, args: &[Expr]) {
        if !args.iter().any(|a| self.expr_is_relevant(a)) {
            return;
        }
        // error-reporting helpers map to the `error` symptom
        let canonical: Option<&'static str> = match name.to_ascii_lowercase().as_str() {
            "trigger_error" | "error_log" | "user_error" => Some("error"),
            "str_pad" => Some("str_pad"),
            _ => None,
        };
        if let Some(c) = canonical {
            self.hits.insert(c);
            return;
        }
        // static symptom?
        if let Some(i) = symptom_index(name) {
            self.hits.insert(symptoms()[i].name);
            return;
        }
        // dynamic symptom?
        if let Some(equiv) = self.dynamic.resolve(name) {
            match equiv {
                "white_list" => {
                    self.hits.insert("white_list");
                }
                "black_list" => {
                    self.hits.insert("black_list");
                }
                other => {
                    if let Some(i) = symptom_index(other) {
                        self.hits.insert(symptoms()[i].name);
                    }
                }
            }
        }
    }
}

impl Visitor for Collector<'_> {
    fn visit_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Call { callee, args } => {
                if let ExprKind::Name(n) = &callee.kind {
                    self.record_call(n.as_str(), args);
                }
            }
            ExprKind::MethodCall { method, args, .. } => {
                self.record_call(method.as_str(), args);
            }
            ExprKind::Isset(args) if args.iter().any(|a| self.expr_is_relevant(a)) => {
                self.hits.insert("isset");
            }
            ExprKind::Empty(inner) if self.expr_is_relevant(inner) => {
                self.hits.insert("empty");
            }
            ExprKind::Exit(_) if self.guard_depth > 0 => {
                self.hits.insert("exit");
            }
            // `relevant_check($x) || exit` style guards
            ExprKind::Binary {
                op: BinOp::Or,
                lhs,
                rhs,
            } if self.expr_is_relevant(lhs) || self.expr_is_relevant(rhs) => {
                self.guard_depth += 1;
                walk_expr(self, e);
                self.guard_depth -= 1;
                return;
            }
            ExprKind::Binary {
                op: BinOp::Concat,
                lhs,
                rhs,
            } if self.expr_is_relevant(lhs) || self.expr_is_relevant(rhs) => {
                self.hits.insert("concat_op");
            }
            _ => {}
        }
        walk_expr(self, e);
    }

    fn visit_stmt(&mut self, s: &Stmt) {
        if let StmtKind::If { cond, .. } = &s.kind {
            if self.expr_is_relevant(cond) {
                self.guard_depth += 1;
                walk_stmt(self, s);
                self.guard_depth -= 1;
                return;
            }
        }
        walk_stmt(self, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wap_catalog::Catalog;
    use wap_php::parse;
    use wap_taint::analyze_program;

    fn candidate_and_program(src: &str) -> (Program, Candidate) {
        let program = parse(src).expect("parse");
        let found = analyze_program(&Catalog::wape(), &program);
        assert!(!found.is_empty(), "no candidate found in test source");
        let c = found[0].clone();
        (program, c)
    }

    #[test]
    fn collects_validation_guards() {
        let (p, c) = candidate_and_program(
            r#"<?php
            $id = $_GET['id'];
            if (isset($_GET['id']) && is_numeric($id)) {
                mysql_query("SELECT * FROM users WHERE id = $id");
            } else {
                exit;
            }"#,
        );
        let fv = collect(&p, &c, &DynamicSymptomMap::new());
        assert!(fv.has("isset"), "present: {:?}", fv.present);
        assert!(fv.has("is_numeric"));
        assert!(fv.has("exit"));
        assert!(fv.has("from_clause"));
        assert!(fv.has("concat_op"), "interpolation counts as concatenation");
    }

    #[test]
    fn collects_string_manipulation() {
        let (p, c) = candidate_and_program(
            r#"<?php
            $name = trim(substr($_POST['name'], 0, 32));
            $name = str_replace('--', '', $name);
            mysql_query("SELECT * FROM t WHERE name = '$name'");"#,
        );
        let fv = collect(&p, &c, &DynamicSymptomMap::new());
        assert!(fv.has("trim"));
        assert!(fv.has("substr"));
        assert!(fv.has("str_replace"));
    }

    #[test]
    fn collects_sql_features() {
        let (p, c) = candidate_and_program(
            r#"<?php
            $id = $_GET['id'];
            mysql_query("SELECT COUNT(*) FROM a JOIN b ON a.x = b.x WHERE a.id = $id");"#,
        );
        let fv = collect(&p, &c, &DynamicSymptomMap::new());
        assert!(fv.has("from_clause"));
        assert!(fv.has("complex_query"));
        assert!(fv.has("agg_count"));
        assert!(
            fv.has("numeric_entry_point"),
            "id = <payload> is numeric position"
        );
    }

    #[test]
    fn quoted_entry_is_not_numeric_position() {
        let (p, c) = candidate_and_program(
            r#"<?php
            $n = $_GET['n'];
            mysql_query("SELECT * FROM t WHERE name = '$n'");"#,
        );
        let fv = collect(&p, &c, &DynamicSymptomMap::new());
        assert!(!fv.has("numeric_entry_point"), "present: {:?}", fv.present);
    }

    #[test]
    fn unrelated_code_is_ignored() {
        let (p, c) = candidate_and_program(
            r#"<?php
            $other = trim($_POST['other']);
            if (is_numeric($other)) { echo 'ok'; }
            $id = $_GET['id'];
            mysql_query("SELECT * FROM t WHERE id = $id");"#,
        );
        let fv = collect(&p, &c, &DynamicSymptomMap::new());
        // trim/is_numeric guard $other, which is part of ANOTHER flow —
        // but $other is itself a carrier of the echoed XSS candidate, not
        // of this SQLI candidate
        assert!(!fv.has("trim"), "present: {:?}", fv.present);
        assert!(!fv.has("is_numeric"));
    }

    #[test]
    fn dynamic_symptoms_resolve_to_equivalents() {
        let (p, c) = candidate_and_program(
            r#"<?php
            $id = $_GET['id'];
            if (!val_int($id)) { die('bad'); }
            mysql_query("SELECT * FROM t WHERE id = $id");"#,
        );
        // without the mapping, val_int is unknown
        let fv = collect(&p, &c, &DynamicSymptomMap::new());
        assert!(!fv.has("is_int"));
        // with the mapping (the paper's val_int example)
        let mut dm = DynamicSymptomMap::new();
        dm.insert("val_int", "is_int");
        let fv = collect(&p, &c, &dm);
        assert!(fv.has("is_int"));
        assert!(fv.has("exit"), "die() is the exit symptom");
    }

    #[test]
    fn white_list_pseudo_symptom() {
        let (p, c) = candidate_and_program(
            r#"<?php
            $page = $_GET['page'];
            if (!allowed_page($page)) { exit; }
            include 'pages/' . $page;"#,
        );
        let mut dm = DynamicSymptomMap::new();
        dm.insert("allowed_page", "white_list");
        let fv = collect(&p, &c, &dm);
        assert!(fv.has("white_list"));
    }

    #[test]
    fn feature_vector_shape() {
        let (p, c) = candidate_and_program(r#"<?php echo $_GET['x'];"#);
        let fv = collect(&p, &c, &DynamicSymptomMap::new());
        assert_eq!(fv.features.len(), 60);
        assert!(fv.features.iter().all(|v| *v == 0.0 || *v == 1.0));
        assert_eq!(
            fv.present.len(),
            fv.features.iter().filter(|v| **v > 0.5).count()
        );
    }

    #[test]
    fn catalog_dynamic_symptoms() {
        let mut cat = Catalog::wape();
        cat.add_weapon(wap_catalog::WeaponConfig::wpsqli());
        let dm = DynamicSymptomMap::from_catalog(&cat);
        assert!(!dm.is_empty());
        assert_eq!(dm.resolve("absint"), Some("intval"));
    }
}
