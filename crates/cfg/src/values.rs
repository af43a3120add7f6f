//! Interprocedural constant/string value analysis (`--values`).
//!
//! The taint pass knows *whether* attacker data reaches a sink; this pass
//! knows *what else* is there: constant scalars, literal string prefixes,
//! and the concrete strings dynamic constructs evaluate to. Three
//! consumers make it load-bearing:
//!
//! 1. **Call/include resolution** — `include $base . "/db.php"` and
//!    variable-function/`call_user_func` targets that evaluate to a known
//!    constant set become extra call-graph edges for the taint engine
//!    (resolved includes are executed instead of skipped).
//! 2. **Sink-context modeling** — a [`SinkContext`] query derived from
//!    the value lattice at a tainted sink (`quoted-string`,
//!    `numeric-cast`, `identifier-position`) feeds the FP committee.
//! 3. **Value-aware pattern rules** — `const($X)` / `matches-value($X)`
//!    `where` constraints in rule packs query [`FileValues::value_at`].
//!
//! ## The lattice
//!
//! ```text
//!                    ⊤ (Top — anything)
//!            /               |              \
//!       NumTop        Strs{exact:false}      |
//!          |          (known prefixes)       |
//!       Num(n)        Strs{exact:true}       |
//!            \               |              /
//!                    ⊥ (Bot — no value)
//! ```
//!
//! String sets are bounded by [`MAX_VALUE_SET`] members of at most
//! [`MAX_VALUE_LEN`] bytes; concatenation past either bound widens an
//! exact set to a prefix set (the left operand's strings survive as
//! known prefixes), and joins past the bound widen to ⊤. This keeps the
//! domain finite. Loop bodies still run only
//! [`LOOP_PASSES`](wap_php::flow::LOOP_PASSES) times: that bounds the
//! walk, but it is not a fixpoint.
//!
//! ## Analysis shape
//!
//! The interpreter walks the *AST* flow-sensitively rather than iterating
//! over CFG blocks: statement-level environments are exactly what the
//! consumers query. Statements run through [`wap_php::flow`]'s
//! [`AbstractWalk`], the walker the taint engine also uses, so the two
//! analyses agree by construction on what executes, how branches join and
//! how often loops run. Interprocedural flow uses the same two-phase shape
//! as `wap-taint`: [`summarize_values`] extracts a per-function return
//! template (phase A, per file), the caller merges templates
//! first-declaration-wins across files, and [`analyze_file_values`]
//! (phase B) applies them at call sites. Function bodies are analyzed
//! once with parameters at ⊤ (context-insensitive); call-site argument
//! values flow through the return templates instead.
//!
//! Everything here is deterministic: ordered containers (`BTreeMap`/
//! `BTreeSet`) everywhere results are iterated, and no hashing-order
//! dependence reaches any output.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use wap_php::ast::*;
use wap_php::flow::{self, AbstractWalk, Lattice};
use wap_php::{Span, Symbol};

/// Maximum number of concrete strings tracked per abstract value; joins
/// and concatenations that would exceed it widen.
pub const MAX_VALUE_SET: usize = 8;

/// Maximum length in bytes of any tracked string; longer concatenation
/// results widen the exact set to a prefix set.
pub const MAX_VALUE_LEN: usize = 128;

/// One point in the value lattice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbstractValue {
    /// No value reaches here (join identity).
    Bot,
    /// A known integer constant.
    Num(i64),
    /// Definitely numeric, value unknown (int casts, `intval`, counts).
    NumTop,
    /// A known set of strings. With `exact: true` the value is one of
    /// `items`; with `exact: false` the value *starts with* one of them.
    Strs {
        /// The tracked strings (values or prefixes).
        items: BTreeSet<String>,
        /// Whether `items` are complete values rather than prefixes.
        exact: bool,
    },
    /// Anything.
    Top,
}

impl Lattice for AbstractValue {
    fn join(&self, other: &AbstractValue) -> AbstractValue {
        AbstractValue::join(self, other)
    }

    fn opaque() -> AbstractValue {
        AbstractValue::Top
    }
}

impl AbstractValue {
    /// An exact single-string value.
    pub fn exact(s: impl Into<String>) -> Self {
        let mut items = BTreeSet::new();
        items.insert(s.into());
        AbstractValue::Strs { items, exact: true }
    }

    /// The complete string set, when exactly known.
    pub fn exact_strings(&self) -> Option<&BTreeSet<String>> {
        match self {
            AbstractValue::Strs { items, exact: true } => Some(items),
            _ => None,
        }
    }

    /// Whether the value is a compile-time constant (a known number or a
    /// complete string set).
    pub fn is_const(&self) -> bool {
        matches!(
            self,
            AbstractValue::Num(_) | AbstractValue::Strs { exact: true, .. }
        )
    }

    /// Least upper bound of two lattice points.
    pub fn join(&self, other: &AbstractValue) -> AbstractValue {
        use AbstractValue::*;
        match (self, other) {
            (Bot, x) | (x, Bot) => x.clone(),
            (Top, _) | (_, Top) => Top,
            (Num(a), Num(b)) if a == b => Num(*a),
            (Num(_) | NumTop, Num(_) | NumTop) => NumTop,
            (
                Strs {
                    items: a,
                    exact: ea,
                },
                Strs {
                    items: b,
                    exact: eb,
                },
            ) => {
                let items: BTreeSet<String> = a.union(b).cloned().collect();
                if items.len() > MAX_VALUE_SET {
                    Top
                } else {
                    Strs {
                        items,
                        exact: *ea && *eb,
                    }
                }
            }
            // numbers joined with strings: no common structure we track
            _ => Top,
        }
    }

    /// Abstract string concatenation `self . other`, with the widening
    /// rules documented on the module.
    pub fn concat(&self, other: &AbstractValue) -> AbstractValue {
        use AbstractValue::*;
        let (lhs, lhs_exact) = match self {
            Num(n) => {
                let mut s = BTreeSet::new();
                s.insert(n.to_string());
                (s, true)
            }
            Strs { items, exact } => (items.clone(), *exact),
            // unknown prefix: nothing about the result is known
            _ => return Top,
        };
        if !lhs_exact {
            // a prefix stays a prefix no matter the suffix
            return Strs {
                items: lhs,
                exact: false,
            };
        }
        let (rhs, rhs_exact) = match other {
            Num(n) => {
                let mut s = BTreeSet::new();
                s.insert(n.to_string());
                (s, true)
            }
            Strs { items, exact } => (items.clone(), *exact),
            _ => {
                return Strs {
                    items: lhs,
                    exact: false,
                }
            }
        };
        if lhs.len().saturating_mul(rhs.len()) > MAX_VALUE_SET {
            return Strs {
                items: lhs,
                exact: false,
            };
        }
        let mut out = BTreeSet::new();
        for a in &lhs {
            for b in &rhs {
                if a.len() + b.len() > MAX_VALUE_LEN {
                    return Strs {
                        items: lhs,
                        exact: false,
                    };
                }
                out.insert(format!("{a}{b}"));
            }
        }
        Strs {
            items: out,
            exact: rhs_exact,
        }
    }
}

/// What surrounds a tainted value at a sink, derived from the value
/// lattice of the sink's carrier variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SinkContext {
    /// The carrier is definitely numeric (payloads cannot survive).
    NumericCast,
    /// The carrier's known prefix ends inside a string quote — the
    /// tainted data lands in quoted-string position.
    QuotedString,
    /// The tainted data lands unquoted (identifier/numeric position).
    IdentifierPosition,
}

impl SinkContext {
    /// Classifies one abstract value; `None` when the lattice has no
    /// usable structure (⊤/⊥).
    pub fn classify(v: &AbstractValue) -> Option<SinkContext> {
        match v {
            AbstractValue::Num(_) | AbstractValue::NumTop => Some(SinkContext::NumericCast),
            AbstractValue::Strs { items, .. } if !items.is_empty() => {
                if items.iter().all(|s| s.ends_with('\'') || s.ends_with('"')) {
                    Some(SinkContext::QuotedString)
                } else {
                    Some(SinkContext::IdentifierPosition)
                }
            }
            _ => None,
        }
    }

    /// The higher-priority of two contexts for one sink (declaration
    /// order is priority order: a numeric cast beats a quoted string
    /// beats an identifier position).
    pub fn max_priority(self, other: SinkContext) -> SinkContext {
        self.min(other)
    }

    /// Stable kebab-case name (symptom attribute / trace label).
    pub fn name(self) -> &'static str {
        match self {
            SinkContext::NumericCast => "numeric-cast",
            SinkContext::QuotedString => "quoted-string",
            SinkContext::IdentifierPosition => "identifier-position",
        }
    }
}

/// One piece of a function's return template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Piece {
    /// A literal fragment.
    Lit(String),
    /// The caller's argument at this position, substituted at call sites.
    Param(usize),
}

/// The value summary of one user function: a concatenation template for
/// its return value, or opaque.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValueSummary {
    /// `Some(pieces)` when the function's single return statement is a
    /// concatenation of literals and parameters; `None` → returns ⊤.
    pub pieces: Option<Vec<Piece>>,
}

impl ValueSummary {
    /// Substitutes call-site argument values into the template.
    pub fn apply(&self, args: &[AbstractValue]) -> AbstractValue {
        let Some(pieces) = &self.pieces else {
            return AbstractValue::Top;
        };
        let mut out = AbstractValue::exact("");
        for p in pieces {
            let v = match p {
                Piece::Lit(s) => AbstractValue::exact(s.clone()),
                Piece::Param(i) => args.get(*i).cloned().unwrap_or(AbstractValue::Top),
            };
            out = out.concat(&v);
        }
        out
    }
}

/// Phase A: per-function value summaries, in declaration order, keyed by
/// lowercased name. The caller merges across files first-declaration-wins
/// (the same owner rule the taint engine's function index applies).
pub fn summarize_values(program: &Program) -> Vec<(Symbol, ValueSummary)> {
    program
        .functions()
        .into_iter()
        .map(|f| (f.name.lower(), summarize_function(f)))
        .collect()
}

fn summarize_function(func: &Function) -> ValueSummary {
    let mut returns = Vec::new();
    collect_returns(&func.body, &mut returns);
    let [only] = returns.as_slice() else {
        return ValueSummary::default();
    };
    let params: HashMap<Symbol, usize> = func
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name, i))
        .collect();
    let mut pieces = Vec::new();
    if template_pieces(only, &params, &mut pieces) {
        ValueSummary {
            pieces: Some(pieces),
        }
    } else {
        ValueSummary::default()
    }
}

fn collect_returns<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a Expr>) {
    for s in stmts {
        match &s.kind {
            StmtKind::Return(Some(e)) => out.push(e),
            StmtKind::Return(None) => {}
            // nested declarations have their own summaries
            StmtKind::Function(_) | StmtKind::Class(_) => {}
            _ => {
                for b in s.kind.child_blocks() {
                    collect_returns(b, out);
                }
            }
        }
    }
}

fn template_pieces(e: &Expr, params: &HashMap<Symbol, usize>, out: &mut Vec<Piece>) -> bool {
    match &e.kind {
        ExprKind::Lit(Lit::Str(s)) => {
            out.push(Piece::Lit(s.clone()));
            true
        }
        ExprKind::Lit(Lit::Int(n)) => {
            out.push(Piece::Lit(n.to_string()));
            true
        }
        ExprKind::Var(n) => match params.get(n) {
            Some(i) => {
                out.push(Piece::Param(*i));
                true
            }
            None => false,
        },
        ExprKind::Binary {
            op: BinOp::Concat,
            lhs,
            rhs,
        } => template_pieces(lhs, params, out) && template_pieces(rhs, params, out),
        ExprKind::Interp(parts) => parts.iter().all(|p| template_pieces(p, params, out)),
        _ => false,
    }
}

/// The cache-friendly half of a file's value facts: everything the taint
/// engine and the lint pass consume, with no per-statement state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValueResolution {
    /// Include sites whose path evaluated to scan-set files: path-expr
    /// `span.start()` → resolved file names (sorted, deduplicated).
    pub includes: BTreeMap<u32, Vec<String>>,
    /// Dynamic (non-literal) include sites the analysis could not
    /// resolve: the path expression's span, for the
    /// `WAP-LINT-UNRESOLVED-INCLUDE` lint.
    pub unresolved_includes: Vec<Span>,
    /// Dynamic call sites whose callee evaluated to known function
    /// names: call-expr `span.start()` → names (sorted, deduplicated).
    pub calls: BTreeMap<u32, Vec<String>>,
    /// Dynamic include sites whose path evaluated to a known string set
    /// *and* matched at least one scan-set file.
    pub dynamic_includes_resolved: usize,
    /// Dynamic call sites resolved to known function names.
    pub dynamic_calls_resolved: usize,
    /// Dynamic call sites left opaque.
    pub dynamic_calls_unresolved: usize,
}

impl ValueResolution {
    /// Resolved + unresolved dynamic edge counts `(resolved, unresolved)`.
    pub fn edge_counts(&self) -> (usize, usize) {
        (
            self.dynamic_includes_resolved + self.dynamic_calls_resolved,
            self.unresolved_includes.len() + self.dynamic_calls_unresolved,
        )
    }
}

/// The full per-file result of [`analyze_file_values`]: resolution facts
/// plus statement-level environment snapshots for point queries.
#[derive(Debug, Clone, Default)]
pub struct FileValues {
    /// Resolution facts (the cacheable half).
    pub resolution: ValueResolution,
    /// Environment before each executed statement, keyed by the
    /// statement's `span.start()`. Only non-⊤ bindings are stored.
    /// Consecutive statements that see the same bindings share one map.
    snapshots: BTreeMap<u32, Arc<Snapshot>>,
}

/// The known (non-⊤, non-⊥) bindings before one statement.
type Snapshot = HashMap<Symbol, AbstractValue>;

impl FileValues {
    /// The abstract value of `var` at source offset `offset`: the binding
    /// in the nearest statement snapshot at or before the offset.
    pub fn value_at(&self, var: Symbol, offset: u32) -> Option<&AbstractValue> {
        self.snapshots
            .range(..=offset)
            .next_back()
            .and_then(|(_, env)| env.get(&var))
    }

    /// [`SinkContext`] of `var` at `offset`, when the lattice knows one.
    pub fn sink_context(&self, var: Symbol, offset: u32) -> Option<SinkContext> {
        SinkContext::classify(self.value_at(var, offset)?)
    }

    /// Whether the include whose path expression starts at `offset`
    /// resolved to scan-set files.
    pub fn is_resolved_include(&self, offset: u32) -> bool {
        self.resolution.includes.contains_key(&offset)
    }

    /// Canonical fingerprint material: every snapshot binding plus the
    /// resolution facts, rendered deterministically (bindings sorted by
    /// variable name, never by interner id). Cache layers fold this into
    /// lint entry keys so a cross-file change that shifts this file's
    /// value facts re-keys its cached predicate-rule findings.
    pub fn facts_fingerprint(&self) -> String {
        fn canon(v: &AbstractValue) -> String {
            match v {
                AbstractValue::Bot => "_".to_string(),
                AbstractValue::Num(n) => format!("n{n}"),
                AbstractValue::NumTop => "N".to_string(),
                AbstractValue::Strs { items, exact } => {
                    let body = items.iter().cloned().collect::<Vec<_>>().join("\u{1e}");
                    format!("s{}{}", if *exact { "=" } else { "^" }, body)
                }
                AbstractValue::Top => "T".to_string(),
            }
        }
        let mut out = String::new();
        for (off, env) in &self.snapshots {
            let mut entries: Vec<(&str, &AbstractValue)> =
                env.iter().map(|(k, v)| (k.as_str(), v)).collect();
            entries.sort_by_key(|(k, _)| *k);
            for (name, v) in entries {
                out.push_str(&format!("{off}\u{1f}{name}\u{1f}{}\u{1d}", canon(v)));
            }
        }
        for (off, targets) in &self.resolution.includes {
            out.push_str(&format!("i{off}\u{1f}{}\u{1d}", targets.join("\u{1e}")));
        }
        for (off, names) in &self.resolution.calls {
            out.push_str(&format!("c{off}\u{1f}{}\u{1d}", names.join("\u{1e}")));
        }
        out
    }
}

/// Span of every *dynamic* (non-literal-path) include site in a program,
/// in source order — the candidate sites for the unresolved-include lint.
pub fn dynamic_include_sites(program: &Program) -> Vec<Span> {
    struct V(Vec<Span>);
    impl wap_php::visitor::Visitor for V {
        fn visit_stmt(&mut self, s: &Stmt) {
            if let StmtKind::Include { path, .. } = &s.kind {
                if path.as_str_lit().is_none() {
                    self.0.push(path.span);
                }
            }
            wap_php::visitor::walk_stmt(self, s);
        }
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprKind::IncludeExpr { path, .. } = &e.kind {
                if path.as_str_lit().is_none() {
                    self.0.push(path.span);
                }
            }
            wap_php::visitor::walk_expr(self, e);
        }
    }
    let mut v = V(Vec::new());
    use wap_php::visitor::Visitor as _;
    v.visit_program(program);
    v.0.sort_by_key(|s| s.start());
    v.0
}

/// The scan set's file names, keyed for include resolution. Built once
/// per scan and shared by every [`analyze_file_values`] call.
///
/// Names arrive however the caller collected them (bare, `./`-prefixed,
/// absolute). Candidate include paths are normalized before matching, so
/// the set is keyed the same way, and each key maps back to the *raw*
/// name: that is what downstream consumers (the taint engine's program
/// table, the pipeline's resolution map) look targets up by. When two
/// names normalize alike, the first in sorted order wins.
#[derive(Debug, Clone, Default)]
pub struct ScanSet {
    /// Normalized name → the raw name as the caller spelled it.
    by_normalized: BTreeMap<String, String>,
}

impl ScanSet {
    /// Keys every name of the scan set by its normalized path.
    pub fn new(known_files: &BTreeSet<String>) -> ScanSet {
        let mut by_normalized = BTreeMap::new();
        for name in known_files {
            by_normalized
                .entry(normalize_path(name))
                .or_insert_with(|| name.clone());
        }
        ScanSet { by_normalized }
    }

    /// The raw scan-set name `path` names, if any.
    fn resolve(&self, path: &str) -> Option<&String> {
        self.by_normalized.get(&normalize_path(path))
    }
}

/// Phase B: analyzes one file against merged summaries. Include paths
/// resolve against `scan_set` and never touch the filesystem.
pub fn analyze_file_values(
    file: &str,
    program: &Program,
    summaries: &HashMap<Symbol, ValueSummary>,
    scan_set: &ScanSet,
) -> FileValues {
    let dir = match file.rsplit_once('/') {
        Some((d, _)) => d.to_string(),
        None => String::new(),
    };
    let mut interp = Interp {
        file,
        dir,
        summaries,
        scan_set,
        constants: HashMap::new(),
        out: FileValues::default(),
        last_snapshot: None,
        loop_nest: 0,
    };
    let mut env = Env::new();
    interp.exec_block(&mut env, &program.stmts);
    // function bodies: parameters unknown, call/include sites and
    // statement snapshots still collected
    for func in program.functions() {
        let mut fenv = Env::new();
        interp.exec_block(&mut fenv, &func.body);
    }
    interp.out
}

type Env = flow::Env<AbstractValue>;

struct Interp<'a> {
    file: &'a str,
    /// Directory prefix of `file` ("" for a bare name) — `__DIR__` and
    /// relative include resolution.
    dir: String,
    summaries: &'a HashMap<Symbol, ValueSummary>,
    scan_set: &'a ScanSet,
    /// `define()`d constants seen in this file.
    constants: HashMap<Symbol, AbstractValue>,
    out: FileValues,
    /// The most recently recorded snapshot, reused while bindings hold.
    last_snapshot: Option<Arc<Snapshot>>,
    /// Loops enclosing the walked statement (see [`flow::MAX_LOOP_NEST`]).
    loop_nest: usize,
}

impl<'p> AbstractWalk<'p> for Interp<'_> {
    type Value = AbstractValue;

    fn loop_nest(&mut self) -> &mut usize {
        &mut self.loop_nest
    }

    /// Records the environment before the statement, for point queries.
    /// A statement whose known bindings equal the last snapshot's shares
    /// that snapshot instead of copying the environment again.
    fn before_stmt(&mut self, env: &Env, stmt: &'p Stmt) {
        let snapshot = match &self.last_snapshot {
            Some(last) if same_known_bindings(env, last) => Arc::clone(last),
            _ => {
                let fresh: Arc<Snapshot> = Arc::new(
                    env.iter()
                        .filter(|(_, v)| is_known(v))
                        .map(|(k, v)| (*k, v.clone()))
                        .collect(),
                );
                self.last_snapshot = Some(Arc::clone(&fresh));
                fresh
            }
        };
        self.out.snapshots.insert(stmt.span.start(), snapshot);
    }

    fn bind_foreach(
        &mut self,
        env: &mut Env,
        _array: AbstractValue,
        key: Option<&'p Expr>,
        value: &'p Expr,
        _span: Span,
    ) {
        if let Some(k) = key {
            self.assign_top(env, k);
        }
        self.assign_top(env, value);
    }

    fn exec_include(&mut self, env: &mut Env, path: &'p Expr, _span: Span) {
        let v = self.eval(env, path);
        let dynamic = path.as_str_lit().is_none();
        match v.exact_strings() {
            Some(items) => {
                let mut targets: BTreeSet<String> = BTreeSet::new();
                for s in items {
                    if let Some(t) = self.resolve_path(s) {
                        targets.insert(t);
                    }
                }
                if !targets.is_empty() {
                    self.out
                        .resolution
                        .includes
                        .insert(path.span.start(), targets.into_iter().collect());
                    if dynamic {
                        self.out.resolution.dynamic_includes_resolved += 1;
                    }
                } else if dynamic {
                    // The path evaluated to concrete strings but none of
                    // them name a scan-set file: still a coverage gap.
                    self.out.resolution.unresolved_includes.push(path.span);
                }
            }
            None if dynamic => self.out.resolution.unresolved_includes.push(path.span),
            None => {}
        }
    }

    fn eval(&mut self, env: &mut Env, expr: &'p Expr) -> AbstractValue {
        use AbstractValue as V;
        match &expr.kind {
            ExprKind::Var(n) => env.get(n).cloned().unwrap_or(V::Top),
            ExprKind::Lit(l) => match l {
                Lit::Str(s) => V::exact(s.clone()),
                Lit::Int(n) => V::Num(*n),
                Lit::Float(_) => V::NumTop,
                Lit::Bool(_) | Lit::Null => V::Top,
            },
            ExprKind::Name(n) => self.eval_name(*n),
            ExprKind::Interp(parts) => {
                let mut out = V::exact("");
                for p in parts {
                    let pv = self.eval(env, p);
                    out = out.concat(&pv);
                }
                out
            }
            ExprKind::ArrayDim { base, index } => {
                self.eval(env, base);
                if let Some(i) = index {
                    self.eval(env, i);
                }
                V::Top
            }
            ExprKind::Prop { base, .. } => {
                self.eval(env, base);
                V::Top
            }
            ExprKind::StaticProp { .. } | ExprKind::ClassConst { .. } => V::Top,
            ExprKind::Call { callee, args } => self.eval_call(env, callee, args, expr.span),
            ExprKind::MethodCall { target, args, .. } => {
                self.eval(env, target);
                for a in args {
                    self.eval(env, a);
                }
                V::Top
            }
            ExprKind::StaticCall { args, .. } | ExprKind::New { args, .. } => {
                for a in args {
                    self.eval(env, a);
                }
                V::Top
            }
            ExprKind::Assign {
                target, op, value, ..
            } => {
                let vt = self.eval(env, value);
                let new = match op {
                    AssignOp::Assign => vt,
                    AssignOp::Concat => {
                        let old = self.read_lvalue(env, target);
                        old.concat(&vt)
                    }
                    AssignOp::Coalesce => {
                        let old = self.read_lvalue(env, target);
                        old.join(&vt)
                    }
                    AssignOp::Add | AssignOp::Sub | AssignOp::Mul => {
                        let old = self.read_lvalue(env, target);
                        arith(*op, &old, &vt)
                    }
                    _ => V::NumTop,
                };
                match &target.kind {
                    ExprKind::Var(n) => {
                        env.insert(*n, new.clone());
                    }
                    _ => self.assign_top(env, target),
                }
                new
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lv = self.eval(env, lhs);
                let rv = self.eval(env, rhs);
                match op {
                    BinOp::Concat => lv.concat(&rv),
                    BinOp::Coalesce => lv.join(&rv),
                    BinOp::Add => num_binop(&lv, &rv, i64::checked_add),
                    BinOp::Sub => num_binop(&lv, &rv, i64::checked_sub),
                    BinOp::Mul => num_binop(&lv, &rv, i64::checked_mul),
                    BinOp::Div | BinOp::Mod | BinOp::Shl | BinOp::Shr => V::NumTop,
                    // comparisons/logic yield booleans we do not track
                    _ => V::Top,
                }
            }
            ExprKind::Unary { op, expr: inner } => {
                let v = self.eval(env, inner);
                match op {
                    UnOp::Neg => match v {
                        V::Num(n) => n.checked_neg().map(V::Num).unwrap_or(V::NumTop),
                        _ => V::NumTop,
                    },
                    UnOp::Pos => match v {
                        V::Num(n) => V::Num(n),
                        _ => V::NumTop,
                    },
                    _ => V::Top,
                }
            }
            ExprKind::IncDec { target, .. } => {
                if let Some(root) = target.root_var_symbol() {
                    env.insert(root, V::NumTop);
                }
                V::NumTop
            }
            ExprKind::Ternary {
                cond,
                then,
                otherwise,
            } => {
                let cv = self.eval(env, cond);
                let tv = match then {
                    Some(t) => self.eval(env, t),
                    None => cv,
                };
                let ov = self.eval(env, otherwise);
                tv.join(&ov)
            }
            ExprKind::Cast { ty, expr: inner } => {
                let v = self.eval(env, inner);
                match ty {
                    CastType::Int => match v {
                        V::Num(n) => V::Num(n),
                        _ => V::NumTop,
                    },
                    CastType::Float | CastType::Bool => V::NumTop,
                    CastType::Str => match v {
                        V::Num(n) => V::exact(n.to_string()),
                        s @ V::Strs { .. } => s,
                        _ => V::Top,
                    },
                    _ => V::Top,
                }
            }
            ExprKind::Isset(es) => {
                for e in es {
                    self.eval(env, e);
                }
                V::Top
            }
            ExprKind::Empty(e) | ExprKind::InstanceOf { expr: e, .. } => {
                self.eval(env, e);
                V::Top
            }
            ExprKind::Array(items) => {
                for it in items {
                    if let Some(k) = &it.key {
                        self.eval(env, k);
                    }
                    self.eval(env, &it.value);
                }
                V::Top
            }
            ExprKind::List(_) => V::Top,
            ExprKind::Closure(c) => self.eval_closure(env, c),
            ExprKind::ErrorSuppress(e) | ExprKind::Clone(e) => self.eval(env, e),
            ExprKind::Exit(arg) => {
                if let Some(a) = arg {
                    self.eval(env, a);
                }
                V::Top
            }
            ExprKind::Print(e) => {
                self.eval(env, e);
                V::NumTop
            }
            ExprKind::ShellExec(parts) => {
                for p in parts {
                    self.eval(env, p);
                }
                V::Top
            }
            ExprKind::IncludeExpr { path, .. } => {
                self.exec_include(env, path, expr.span);
                V::Top
            }
        }
    }
}

impl Interp<'_> {
    fn assign_top(&mut self, env: &mut Env, target: &Expr) {
        if let Some(root) = target.root_var_symbol() {
            env.insert(root, AbstractValue::Top);
        }
    }

    /// Matches one evaluated include path against the scan set: the path
    /// as spelled, then relative to the including file's directory.
    /// Purely name-based — never reads the filesystem.
    fn resolve_path(&self, path: &str) -> Option<String> {
        if let Some(raw) = self.scan_set.resolve(path) {
            return Some(raw.clone());
        }
        if !self.dir.is_empty() {
            if let Some(raw) = self.scan_set.resolve(&format!("{}/{}", self.dir, path)) {
                return Some(raw.clone());
            }
        }
        None
    }

    fn eval_name(&self, n: Symbol) -> AbstractValue {
        match n.as_str() {
            "__DIR__" => AbstractValue::exact(if self.dir.is_empty() {
                ".".to_string()
            } else {
                self.dir.clone()
            }),
            "__FILE__" => AbstractValue::exact(self.file.to_string()),
            "PHP_EOL" => AbstractValue::exact("\n"),
            "DIRECTORY_SEPARATOR" => AbstractValue::exact("/"),
            _ => self
                .constants
                .get(&n)
                .cloned()
                .unwrap_or(AbstractValue::Top),
        }
    }

    fn read_lvalue(&mut self, env: &mut Env, target: &Expr) -> AbstractValue {
        match &target.kind {
            ExprKind::Var(n) => env.get(n).cloned().unwrap_or(AbstractValue::Top),
            _ => AbstractValue::Top,
        }
    }

    fn eval_call(
        &mut self,
        env: &mut Env,
        callee: &Expr,
        args: &[Expr],
        span: Span,
    ) -> AbstractValue {
        let name = match &callee.kind {
            ExprKind::Name(n) => *n,
            _ => {
                // dynamic call `$f(...)`: resolve the callee's value
                let cv = self.eval(env, callee);
                let arg_vals: Vec<AbstractValue> = args.iter().map(|a| self.eval(env, a)).collect();
                return self.dispatch_dynamic(&cv, &arg_vals, span);
            }
        };
        let arg_vals: Vec<AbstractValue> = args.iter().map(|a| self.eval(env, a)).collect();
        let lower = name.as_str().to_ascii_lowercase();

        // define("NAME", value): record the constant for later Name reads
        if lower == "define" {
            if let (Some(cname), Some(cval)) =
                (args.first().and_then(Expr::as_str_lit), arg_vals.get(1))
            {
                self.constants.insert(Symbol::intern(cname), cval.clone());
            }
            return AbstractValue::Top;
        }

        // call_user_func(_array): args[0] names the real callee
        if lower == "call_user_func" || lower == "call_user_func_array" {
            if let Some(cv) = arg_vals.first() {
                let rest: Vec<AbstractValue> = arg_vals.get(1..).unwrap_or(&[]).to_vec();
                return self.dispatch_dynamic(&cv.clone(), &rest, span);
            }
            return AbstractValue::Top;
        }

        // user-defined function: apply its merged return template
        if let Some(summary) = self.summaries.get(&name.lower()) {
            return summary.apply(&arg_vals);
        }

        builtin_value(&lower, &arg_vals)
    }

    /// Resolves a dynamic callee value to function names, records the
    /// edge, and returns the call's abstract result (through summaries
    /// when the targets have them).
    fn dispatch_dynamic(
        &mut self,
        callee: &AbstractValue,
        arg_vals: &[AbstractValue],
        span: Span,
    ) -> AbstractValue {
        let Some(items) = callee.exact_strings() else {
            self.out.resolution.dynamic_calls_unresolved += 1;
            return AbstractValue::Top;
        };
        let targets: Vec<String> = items
            .iter()
            .filter(|s| is_function_name(s))
            .cloned()
            .collect();
        if targets.is_empty() {
            self.out.resolution.dynamic_calls_unresolved += 1;
            return AbstractValue::Top;
        }
        let mut out = AbstractValue::Bot;
        for t in &targets {
            let v = match self.summaries.get(&Symbol::intern(t).lower()) {
                Some(s) => s.apply(arg_vals),
                None => AbstractValue::Top,
            };
            out = out.join(&v);
        }
        self.out.resolution.calls.insert(span.start(), targets);
        self.out.resolution.dynamic_calls_resolved += 1;
        out
    }
}

/// Whether a resolved string can name a PHP function.
fn is_function_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Collapses `.`/`..`/empty segments of a virtual path.
/// Whether a binding is worth a snapshot entry: ⊤ and ⊥ say nothing.
fn is_known(v: &AbstractValue) -> bool {
    !matches!(v, AbstractValue::Top | AbstractValue::Bot)
}

/// Whether `env`'s known bindings are exactly `snapshot`, without
/// building the filtered map.
fn same_known_bindings(env: &Env, snapshot: &Snapshot) -> bool {
    let mut known = 0usize;
    for (k, v) in env.iter().filter(|(_, v)| is_known(v)) {
        if snapshot.get(k) != Some(v) {
            return false;
        }
        known += 1;
    }
    known == snapshot.len()
}

fn normalize_path(p: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for seg in p.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            s => parts.push(s),
        }
    }
    parts.join("/")
}

fn arith(op: AssignOp, a: &AbstractValue, b: &AbstractValue) -> AbstractValue {
    let f = match op {
        AssignOp::Add => i64::checked_add,
        AssignOp::Sub => i64::checked_sub,
        AssignOp::Mul => i64::checked_mul,
        _ => return AbstractValue::NumTop,
    };
    num_binop(a, b, f)
}

fn num_binop(
    a: &AbstractValue,
    b: &AbstractValue,
    f: fn(i64, i64) -> Option<i64>,
) -> AbstractValue {
    match (a, b) {
        (AbstractValue::Num(x), AbstractValue::Num(y)) => f(*x, *y)
            .map(AbstractValue::Num)
            .unwrap_or(AbstractValue::NumTop),
        _ => AbstractValue::NumTop,
    }
}

/// Abstract results of the PHP builtins the lattice can model.
fn builtin_value(lower: &str, args: &[AbstractValue]) -> AbstractValue {
    match lower {
        // definitely-numeric results
        "intval" | "floatval" | "doubleval" | "count" | "sizeof" | "strlen" | "abs" | "floor"
        | "ceil" | "round" | "time" | "rand" | "mt_rand" | "random_int" | "ord" | "crc32" => {
            AbstractValue::NumTop
        }
        // string transforms computed on exact sets
        "dirname" | "basename" | "trim" | "rtrim" | "ltrim" | "strtolower" | "strtoupper" => {
            let Some(items) = args.first().and_then(AbstractValue::exact_strings) else {
                return AbstractValue::Top;
            };
            // multi-arg trim variants have custom charlists we don't model
            if lower.ends_with("trim") && args.len() > 1 {
                return AbstractValue::Top;
            }
            let mapped: BTreeSet<String> = items
                .iter()
                .map(|s| match lower {
                    "dirname" => match s.rsplit_once('/') {
                        Some((d, _)) if !d.is_empty() => d.to_string(),
                        _ => ".".to_string(),
                    },
                    "basename" => s.rsplit('/').next().unwrap_or(s).to_string(),
                    "trim" => s.trim().to_string(),
                    "rtrim" => s.trim_end().to_string(),
                    "ltrim" => s.trim_start().to_string(),
                    "strtolower" => s.to_ascii_lowercase(),
                    _ => s.to_ascii_uppercase(),
                })
                .collect();
            AbstractValue::Strs {
                items: mapped,
                exact: true,
            }
        }
        _ => AbstractValue::Top,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wap_php::parse;

    fn values_for(file: &str, src: &str, known: &[&str]) -> FileValues {
        let program = parse(src).unwrap_or_else(|e| panic!("parse: {e}"));
        let mut summaries = HashMap::new();
        for (n, s) in summarize_values(&program) {
            summaries.entry(n).or_insert(s);
        }
        let known: BTreeSet<String> = known.iter().map(|s| s.to_string()).collect();
        analyze_file_values(file, &program, &summaries, &ScanSet::new(&known))
    }

    #[test]
    fn join_and_concat_follow_the_lattice() {
        use AbstractValue as V;
        let a = V::exact("a");
        let b = V::exact("b");
        let ab = a.join(&b);
        assert_eq!(ab.exact_strings().map(|s| s.len()), Some(2));
        assert_eq!(V::Num(3).join(&V::Num(3)), V::Num(3));
        assert_eq!(V::Num(3).join(&V::Num(4)), V::NumTop);
        assert_eq!(V::Num(3).join(&a), V::Top);
        assert_eq!(V::Bot.join(&a), a);

        // exact ⊕ exact = cartesian; exact ⊕ ⊤ = prefix
        let pre = V::exact("SELECT '").concat(&V::Top);
        match &pre {
            V::Strs { items, exact } => {
                assert!(!exact);
                assert!(items.contains("SELECT '"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // a prefix swallows any suffix
        let still = pre.concat(&V::exact("'"));
        assert_eq!(still, pre);
        // numbers render into concatenations
        assert_eq!(V::exact("v").concat(&V::Num(7)), V::exact("v7"));
    }

    #[test]
    fn concat_widens_past_the_bounds() {
        use AbstractValue as V;
        let long = "x".repeat(MAX_VALUE_LEN);
        let widened = V::exact(long.clone()).concat(&V::exact("y"));
        match widened {
            V::Strs { items, exact } => {
                assert!(!exact);
                assert!(items.contains(&long));
            }
            other => panic!("unexpected {other:?}"),
        }
        let mut many = BTreeSet::new();
        for i in 0..MAX_VALUE_SET {
            many.insert(format!("s{i}"));
        }
        let set = V::Strs {
            items: many,
            exact: true,
        };
        match set.concat(&set.clone()) {
            V::Strs { exact: false, .. } => {}
            other => panic!("expected widening, got {other:?}"),
        }
    }

    #[test]
    fn includes_resolve_through_concat_and_dir() {
        let v = values_for(
            "app/index.php",
            r#"<?php
            $base = __DIR__;
            include $base . "/db.php";
            include "lib/util.php";
            include $_GET['page'] . ".php";
            "#,
            &["app/index.php", "app/db.php", "app/lib/util.php"],
        );
        let resolved: Vec<&Vec<String>> = v.resolution.includes.values().collect();
        assert_eq!(resolved.len(), 2);
        assert_eq!(resolved[0], &vec!["app/db.php".to_string()]);
        assert_eq!(resolved[1], &vec!["app/lib/util.php".to_string()]);
        assert_eq!(v.resolution.dynamic_includes_resolved, 1);
        assert_eq!(v.resolution.unresolved_includes.len(), 1);
        assert_eq!(v.resolution.edge_counts(), (1, 1));
    }

    #[test]
    fn includes_resolve_under_absolute_and_dot_prefixed_scan_names() {
        // The CLI collects names as spelled on the command line — absolute
        // or "./"-prefixed. Matching is normalization-consistent and the
        // *raw* name comes back (it keys the engine's program table).
        let src = r#"<?php
        $base = "lib";
        include $base . "/db.php";
        "#;
        let abs = values_for(
            "/srv/app/index.php",
            src,
            &["/srv/app/index.php", "/srv/app/lib/db.php"],
        );
        let targets: Vec<&Vec<String>> = abs.resolution.includes.values().collect();
        assert_eq!(targets, vec![&vec!["/srv/app/lib/db.php".to_string()]]);
        assert_eq!(abs.resolution.edge_counts(), (1, 0));

        let dotted = values_for("./index.php", src, &["./index.php", "./lib/db.php"]);
        let targets: Vec<&Vec<String>> = dotted.resolution.includes.values().collect();
        assert_eq!(targets, vec![&vec!["./lib/db.php".to_string()]]);
        assert_eq!(dotted.resolution.edge_counts(), (1, 0));
    }

    #[test]
    fn evaluated_include_outside_the_scan_set_counts_as_unresolved() {
        let v = values_for(
            "index.php",
            r#"<?php
            $base = "vendor";
            include $base . "/missing.php";
            "#,
            &["index.php"],
        );
        assert!(v.resolution.includes.is_empty());
        assert_eq!(v.resolution.dynamic_includes_resolved, 0);
        assert_eq!(v.resolution.unresolved_includes.len(), 1);
        assert_eq!(v.resolution.edge_counts(), (0, 1));
    }

    #[test]
    fn function_templates_resolve_call_built_paths() {
        let v = values_for(
            "index.php",
            r#"<?php
            function page_path($name) { return "pages/" . $name . ".php"; }
            $p = page_path("home");
            include $p;
            "#,
            &["index.php", "pages/home.php"],
        );
        assert_eq!(
            v.resolution.includes.values().next(),
            Some(&vec!["pages/home.php".to_string()])
        );
        assert_eq!(v.resolution.dynamic_includes_resolved, 1);
        assert!(v.resolution.unresolved_includes.is_empty());
    }

    #[test]
    fn dynamic_calls_resolve_to_known_names() {
        let v = values_for(
            "a.php",
            r#"<?php
            $f = "handle_" . "login";
            $f($x);
            call_user_func("do_thing", $y);
            $g = $_POST['cb'];
            $g($z);
            "#,
            &["a.php"],
        );
        let calls: Vec<&Vec<String>> = v.resolution.calls.values().collect();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0], &vec!["handle_login".to_string()]);
        assert_eq!(calls[1], &vec!["do_thing".to_string()]);
        assert_eq!(v.resolution.dynamic_calls_resolved, 2);
        assert_eq!(v.resolution.dynamic_calls_unresolved, 1);
    }

    #[test]
    fn sink_context_classifies_carriers() {
        let v = values_for(
            "q.php",
            r#"<?php
            $id = $_GET['id'];
            $q = "SELECT * FROM t WHERE name = '" . $id . "'";
            mysql_query($q);
            $n = intval($_GET['n']);
            $u = "DELETE FROM t WHERE id = " . $id;
            mysql_query($u);
            "#,
            &["q.php"],
        );
        let src = r#"<?php
            $id = $_GET['id'];
            $q = "SELECT * FROM t WHERE name = '" . $id . "'";
            mysql_query($q);
            $n = intval($_GET['n']);
            $u = "DELETE FROM t WHERE id = " . $id;
            mysql_query($u);
            "#;
        let sink1 = src.find("mysql_query($q)").unwrap() as u32;
        let sink2 = src.find("mysql_query($u)").unwrap() as u32;
        assert_eq!(
            v.sink_context(Symbol::intern("q"), sink1),
            Some(SinkContext::QuotedString)
        );
        assert_eq!(
            v.sink_context(Symbol::intern("u"), sink2),
            Some(SinkContext::IdentifierPosition)
        );
        assert_eq!(
            v.sink_context(Symbol::intern("n"), sink2),
            Some(SinkContext::NumericCast)
        );
        assert_eq!(v.sink_context(Symbol::intern("id"), sink1), None);
    }

    #[test]
    fn value_at_respects_statement_order_and_branches() {
        let src = r#"<?php
            $mode = "list";
            if ($_GET['x']) { $mode = "edit"; }
            echo $mode;
            $mode = $_GET['m'];
            echo "late";
            "#;
        let v = values_for("m.php", src, &["m.php"]);
        let at_first_echo = src.find("echo $mode").unwrap() as u32;
        let at_late = src.find(r#"echo "late""#).unwrap() as u32;
        let mode = Symbol::intern("mode");
        let joined = v.value_at(mode, at_first_echo).unwrap();
        let strs = joined.exact_strings().expect("exact set");
        assert!(strs.contains("list") && strs.contains("edit"));
        assert_eq!(v.value_at(mode, at_late), None, "reassigned to ⊤");
    }

    #[test]
    fn constants_and_magic_names_evaluate() {
        let v = values_for(
            "site/init.php",
            r#"<?php
            define("TPL", "tpl");
            include TPL . "/head.php";
            include __DIR__ . "/conf.php";
            "#,
            &["site/init.php", "tpl/head.php", "site/conf.php"],
        );
        let all: Vec<&Vec<String>> = v.resolution.includes.values().collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], &vec!["tpl/head.php".to_string()]);
        assert_eq!(all[1], &vec!["site/conf.php".to_string()]);
    }

    #[test]
    fn dynamic_include_sites_lists_only_non_literals() {
        let p = parse(
            r#"<?php
            include "static.php";
            include $x;
            require_once $y . ".php";
            "#,
        )
        .unwrap();
        let sites = dynamic_include_sites(&p);
        assert_eq!(sites.len(), 2);
        assert!(sites[0].start() < sites[1].start());
    }

    #[test]
    fn unchanged_statements_share_one_snapshot() {
        let src = r#"<?php
            $a = "x";
            echo $a;
            echo "y";
            $b = 1;
            echo $b;
            echo $a . $b;
            $a = $_GET['a'];
            echo $a;
            "#;
        let v = values_for("s.php", src, &["s.php"]);
        let offsets: Vec<u32> = v.snapshots.keys().copied().collect();
        assert_eq!(offsets.len(), 8);
        let (a, b) = (Symbol::intern("a"), Symbol::intern("b"));
        let x = AbstractValue::exact("x");
        let one = AbstractValue::Num(1);
        let expected: [(Option<&AbstractValue>, Option<&AbstractValue>); 8] = [
            (None, None),
            (Some(&x), None),
            (Some(&x), None),
            (Some(&x), None),
            (Some(&x), Some(&one)),
            (Some(&x), Some(&one)),
            (Some(&x), Some(&one)),
            (None, Some(&one)),
        ];
        for (off, want) in offsets.iter().zip(expected) {
            assert_eq!((v.value_at(a, *off), v.value_at(b, *off)), want, "at {off}");
        }
        // statements that change no binding reuse the previous map
        let shared =
            |i: usize, j: usize| Arc::ptr_eq(&v.snapshots[&offsets[i]], &v.snapshots[&offsets[j]]);
        assert!(shared(1, 2) && shared(2, 3));
        assert!(shared(4, 5) && shared(5, 6));
        assert!(!shared(3, 4) && !shared(6, 7));

        let unshared = FileValues {
            resolution: v.resolution.clone(),
            snapshots: v
                .snapshots
                .iter()
                .map(|(off, env)| (*off, Arc::new(Snapshot::clone(env))))
                .collect(),
        };
        for off in &offsets {
            for var in [a, b] {
                assert_eq!(v.value_at(var, *off), unshared.value_at(var, *off));
            }
        }
        assert_eq!(v.facts_fingerprint(), unshared.facts_fingerprint());
    }

    #[test]
    fn scan_set_resolves_every_spelling_to_the_raw_name() {
        let names: BTreeSet<String> = ["index.php", "./lib/db.php", "a//b.php", "/srv/app/c.php"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let set = ScanSet::new(&names);
        let resolve = |p: &str| set.resolve(p).map(String::as_str);
        assert_eq!(resolve("index.php"), Some("index.php"));
        assert_eq!(resolve("./index.php"), Some("index.php"));
        assert_eq!(resolve("lib/db.php"), Some("./lib/db.php"));
        assert_eq!(resolve("lib/../lib/db.php"), Some("./lib/db.php"));
        assert_eq!(resolve("a/b.php"), Some("a//b.php"));
        assert_eq!(resolve("/srv/app/c.php"), Some("/srv/app/c.php"));
        assert_eq!(resolve("srv/app/c.php"), Some("/srv/app/c.php"));
        assert_eq!(resolve("missing.php"), None);
        // two spellings of one file: the first in sorted order wins
        let names: BTreeSet<String> = ["x.php", "./x.php"].iter().map(|s| s.to_string()).collect();
        assert_eq!(
            ScanSet::new(&names).resolve("x.php").map(String::as_str),
            Some("./x.php")
        );
    }

    #[test]
    fn normalize_path_collapses_segments() {
        assert_eq!(normalize_path("./a/b.php"), "a/b.php");
        assert_eq!(normalize_path("a/../b.php"), "b.php");
        assert_eq!(normalize_path("a//b.php"), "a/b.php");
        assert_eq!(normalize_path("."), "");
    }

    #[test]
    fn summaries_only_template_single_return_concats() {
        let p = parse(
            r#"<?php
            function one($a) { return "x/" . $a; }
            function two($a) { if ($a) { return "y"; } return "z"; }
            function three() { return somecall(); }
            "#,
        )
        .unwrap();
        let sums: HashMap<Symbol, ValueSummary> = summarize_values(&p).into_iter().collect();
        let one = &sums[&Symbol::intern("one")];
        assert_eq!(
            one.apply(&[AbstractValue::exact("q")]),
            AbstractValue::exact("x/q")
        );
        assert_eq!(sums[&Symbol::intern("two")].pieces, None);
        assert_eq!(sums[&Symbol::intern("three")].pieces, None);
    }
}
